import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qflow import models
from qflow.qcore import (
    IDENTITY_2,
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    basis_ket,
    conjugation_superop,
    hermiticity_preservation_residual,
    hermitize,
    kron,
    lindblad_superoperator,
    matrix_exp,
    partial_trace,
    projector,
    random_density_matrix,
    trace_distance,
    trace_preservation_residual,
    unvec,
    validate_density_matrix,
    vec,
)


def apply_superop(s, x):
    """Reference application of a superoperator to an operator."""
    return unvec(s @ vec(x), x.shape[0])


seeds = st.integers(0, 2**32 - 1)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_basis_projectors(self):
        got = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_pauli_involution(self):
        xx = kron(SIGMA_X, SIGMA_X)
        assert np.abs(xx @ xx - np.eye(4)).max() == 0.0


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 3)
        joint = kron(rho, sig)
        assert np.abs(partial_trace(joint, (2, 3), "system") - rho).max() < 1e-14
        assert np.abs(partial_trace(joint, (2, 3), "environment") - sig).max() < 1e-14

    def test_maximally_entangled(self):
        bell = (kron(basis_ket(2, 0).reshape(-1, 1), basis_ket(2, 0).reshape(-1, 1))
                + kron(basis_ket(2, 1).reshape(-1, 1), basis_ket(2, 1).reshape(-1, 1)))
        bell = bell.flatten() / np.sqrt(2)
        rho = projector(bell)
        reduced = partial_trace(rho, (2, 2), "system")
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation):
            partial_trace(np.eye(4), (2, 3), "system")

    @pytest.mark.parametrize("keep", ["s", "e", "env"])
    def test_only_full_factor_names(self, keep):
        with pytest.raises(InvariantViolation):
            partial_trace(np.eye(4), (2, 2), keep)


class TestTraceDistance:
    def test_identical(self):
        rho = random_density_matrix(np.random.default_rng(0), 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_quarter(self):
        # eigenvalues of the difference are +/- 1/4
        assert trace_distance(np.eye(2) / 2, np.diag([0.75, 0.25])) == pytest.approx(0.25)

    def test_mismatch(self):
        with pytest.raises(InvariantViolation):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_stacks_give_one_value_per_pair(self):
        rng = np.random.default_rng(5)
        a = np.array([[random_density_matrix(rng, 3) for _ in range(4)]
                      for _ in range(2)])
        b = np.array([[random_density_matrix(rng, 3) for _ in range(4)]
                      for _ in range(2)])
        batch = trace_distance(a, b)
        assert batch.shape == (2, 4)
        for i in range(2):
            for j in range(4):
                assert batch[i, j] == trace_distance(a[i, j], b[i, j])

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density_matrix(rng, 3)
        b = random_density_matrix(rng, 3)
        c = random_density_matrix(rng, 3)
        dab = trace_distance(a, b)
        assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, a) < 1e-12
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_contractivity_under_cptp(self, seed):
        rng = np.random.default_rng(seed)
        d = 2
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (h + h.conj().T)
        jump = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen = lindblad_superoperator(h, [(jump, float(rng.uniform()))])
        phi = matrix_exp(gen * float(rng.uniform(0.1, 2.0)))
        a = random_density_matrix(rng, d)
        b = random_density_matrix(rng, d)
        da = trace_distance(apply_superop(phi, a), apply_superop(phi, b))
        assert da <= trace_distance(a, b) + 1e-9


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_phases(self):
        theta = 0.37
        got = matrix_exp(-1j * theta * SIGMA_Z)
        want = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        assert np.abs(got - want).max() < 1e-14

    def test_amplitude_damping_decay(self):
        gamma, t = 0.8, 1.3
        gen = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_MINUS, gamma)])
        rho = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        out = apply_superop(matrix_exp(gen * t), rho)
        assert out[1, 1].real == pytest.approx(np.exp(-gamma * t) * 0.7, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_eigendecomposition_oracle_on_normal_matrices(self, seed):
        rng = np.random.default_rng(seed)
        d = 4
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = 0.5 * (herm + herm.conj().T)
        w, v = np.linalg.eigh(herm)
        m = 1j * herm  # skew-Hermitian, hence normal
        oracle = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        got = matrix_exp(m)
        rel = np.abs(got - oracle).max() / np.abs(oracle).max()
        assert rel < 1e-10

    def test_commuting_product(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = 0.4 * a @ a - 1.2 * a  # polynomial in a commutes with a
        lhs = matrix_exp(a + b)
        rhs = matrix_exp(a) @ matrix_exp(b)
        assert np.abs(lhs - rhs).max() < 1e-9

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_nonfinite_rejected(self, order):
        # a column-major input, as a Hermitian-basis generator is, raised a
        # ValueError from the finiteness check
        bad = np.array([[np.inf, 0.0], [1.0, 0.0]], order=order)
        with pytest.raises(InvariantViolation):
            matrix_exp(bad)


# Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3: the largest
# 1-norms for Pade degrees 3, 5, 7, 9 and 13
PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1,
               9.504178996162932e-1, 2.097847961257068e0, 5.371920351148152e0)


def _exp_inputs():
    """The generator of every model class (the stacked depolarizing one is
    real) and a random real and complex matrix."""
    rng = np.random.default_rng(11)
    mats = {
        "classical-mixture": models.random_classical_mixture(rng, nc=3),
        "stochastic": models.random_stochastic_env(rng, nc=3),
        "bystander": models.random_quantum_bystander(rng, de=3),
        "unitary": models.random_unitary_model(rng),
        "depolarizing": models.DepolarizingModel(gamma=1.0, phi=4.0),
        "driven-depolarizing": models.DepolarizingModel(gamma=1.0, phi=1.0,
                                                        omega=2.0),
    }
    mats = {k: models.assemble_generator(m) for k, m in mats.items()}
    mats["random-real"] = rng.normal(size=(10, 10))
    mats["random-complex"] = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    return mats


EXP_INPUTS = _exp_inputs()


class TestMatrixExpAgainstScipy:
    @staticmethod
    def _assert_matches(m):
        ref = scipy.linalg.expm(m)
        got = matrix_exp(m)
        assert got.dtype == complex
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("name", list(EXP_INPUTS))
    def test_both_sides_of_each_degree_bound(self, name):
        m = EXP_INPUTS[name]
        norm = np.abs(m).sum(axis=0).max()
        for theta in PADE_THETAS:
            for side in (1 - 1e-9, 1 + 1e-9):
                self._assert_matches(m * (theta * side / norm))

    @pytest.mark.parametrize("name", list(EXP_INPUTS))
    def test_deep_squaring(self, name):
        # 1-norm 2^8 theta_13: eight squarings; each one doubles the
        # rounding difference of two equally accurate kernels
        m = EXP_INPUTS[name]
        self._assert_matches(m * (2.0 ** 8 * PADE_THETAS[-1]
                                  / np.abs(m).sum(axis=0).max()))

    def test_zero_is_exact_complex_identity(self):
        for dtype in (float, complex):
            got = matrix_exp(np.zeros((4, 4), dtype=dtype))
            assert got.dtype == complex
            assert np.array_equal(got, np.eye(4, dtype=complex))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_overflow_is_numeric_breach_without_warnings(self, scale):
        # exp(3 scale) overflows; at 1e308 the 1-norm itself does
        with pytest.raises(NumericalDriftError, match="matrix exponential"):
            matrix_exp(scale * np.ones((3, 3)))

    @pytest.mark.filterwarnings("error")
    def test_nan_rejected(self):
        with pytest.raises(InvariantViolation):
            matrix_exp(np.array([[0.0, np.nan], [0.0, 0.0]]))


class TestLindbladSuperoperator:
    def test_trivial_zero(self):
        gen = lindblad_superoperator(np.zeros((2, 2)))
        assert np.abs(gen).max() == 0.0

    def test_decay_population(self):
        gamma = 0.5
        gen = lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_MINUS, gamma)])
        rho = np.array([[0.2, 0.0], [0.0, 0.8]], dtype=complex)
        for t in (0.3, 1.0, 2.5):
            out = apply_superop(matrix_exp(gen * t), rho)
            assert out[1, 1].real == pytest.approx(0.8 * np.exp(-gamma * t), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_trace_functional_fixed_point(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (h + h.conj().T)
        jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                  float(rng.uniform())) for _ in range(2)]
        gen = lindblad_superoperator(h, jumps)
        assert trace_preservation_residual(gen, d) < 1e-10
        assert hermiticity_preservation_residual(gen, d) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_hermiticity_residual(self):
        rng = np.random.default_rng(4)
        d = 3
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        # X -> [P, X] with P = |0><0| is -i[iP, X]: trace preserving, and it
        # maps a Hermitian X to an anti-Hermitian one
        p = np.diag([1.0, 0.0, 0.0])
        eye = np.eye(d)
        gen = np.kron(eye, p) - np.kron(p.T, eye)
        assert trace_preservation_residual(gen, d) < 1e-15
        image = apply_superop(gen, x)
        assert np.abs(image + image.conj().T).max() < 1e-12  # anti-Hermitian
        assert hermiticity_preservation_residual(gen, d) == pytest.approx(2.0)
        # the residual is the largest entry of S P - P conj(S)
        perm = np.eye(d * d)[:, np.arange(d * d).reshape(d, d).T.ravel()]
        want = np.abs(gen @ perm - perm @ gen.conj()).max()
        assert hermiticity_preservation_residual(gen, d) == want
        for bad in (np.nan, np.inf):
            g = gen.astype(complex)
            g[1, 2] = bad
            assert not np.isfinite(hermiticity_preservation_residual(g, d))

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvariantViolation):
            lindblad_superoperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_rate_rejected(self):
        with pytest.raises(InvariantViolation):
            lindblad_superoperator(np.zeros((2, 2)), [(SIGMA_MINUS, -0.1)])


class TestApplySuperop:
    def test_identity(self):
        x = np.arange(4).reshape(2, 2).astype(complex)
        assert np.array_equal(apply_superop(np.eye(4), x), x)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_vec_convention(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        s = np.kron(b.T, a)
        assert np.abs(apply_superop(s, x) - a @ x @ b).max() < 1e-12

    @pytest.mark.parametrize("ds", [2, 3])
    def test_conjugation_superop_is_kron_bit_for_bit(self, ds):
        # every Kraus operator of every jump, as the stochastic generator
        # builds them, plus a rectangular real operator
        rng = np.random.default_rng(ds)
        m = models.random_stochastic_env(rng, ds=ds, nc=3)
        for jump in m.jumps:
            for k in jump.kraus:
                assert np.array_equal(conjugation_superop(k), np.kron(k.conj(), k))
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        assert np.array_equal(conjugation_superop(a.real), np.kron(a.real, a.real))

    def test_stationary_state_in_kernel(self):
        gamma = 0.7
        gen = lindblad_superoperator(0.3 * SIGMA_Z, [(SIGMA_MINUS, gamma)])
        # stationary state from the null space
        w, v = np.linalg.eig(gen)
        idx = np.argmin(np.abs(w))
        rho = unvec(v[:, idx], 2)
        rho = rho / np.trace(rho)
        assert np.abs(apply_superop(gen, rho)).max() < 1e-9


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        validate_density_matrix(np.eye(2) / 2)

    def test_accepts_a_column_major_matrix(self):
        # the finiteness check raised a ValueError on a transposed view
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        assert validate_density_matrix(rho.T) is not None

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rejects_non_finite(self, order):
        with pytest.raises(InvariantViolation, match="non-finite"):
            validate_density_matrix(np.array([[np.nan, 0], [0, 0.5j]],
                                             order=order))

    def test_rejects_trace(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            validate_density_matrix(np.diag([1.5, -0.5]))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(x), 4), x)
    # column stacking: first d entries are the first column
    assert np.array_equal(vec(x)[:4], x[:, 0])


def test_hermitize_acts_on_each_trailing_block():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    stacked = hermitize(x)
    assert stacked.shape == x.shape
    for block, h in zip(x, stacked):
        assert np.array_equal(h, 0.5 * (block + block.conj().T))
        assert np.array_equal(h, hermitize(block))

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qflow import models, qcore
from qflow.evolve import (TimeGrid, propagate, propagate_interval,
                          solve_channel_coefficients)
from qflow.models import (
    ClassicalMixtureModel,
    Collision,
    DepolarizingModel,
    EnvJump,
    QuantumBystanderModel,
    StochasticEnvModel,
    UnitaryModel,
    assemble_generator,
    born_markov_model,
    check_bystander,
    commuting_interaction_preset,
    exchange_preset,
    interaction_commutes,
    model_from_dict,
    model_to_dict,
    random_classical_mixture,
    random_cptp_kraus,
    random_lindblad_generator,
    random_quantum_bystander,
    random_stochastic_env,
    random_unitary_decomposition,
    random_unitary_model,
    sine_modulation,
)
from qflow.qcore import (
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    basis_ket,
    kraus_superoperator,
    kron,
    lindblad_superoperator,
    matrix_exp,
    partial_trace,
    projector,
    random_density_matrix,
    random_hermitian,
    trace_preservation_residual,
    unvec,
    vec,
)
from qflow.witness import (
    MeasurementSpec,
    RandomSchemePolicy,
    cpf_grid,
    cpf_correlation,
    cpf_equal_times,
    cpf_joint_deterministic,
    cpf_joint_random,
    markov_factorization_gap,
    reference_measurements,
    trace_distance_bound,
    trace_distance_series,
)


def apply_superop(s, x):
    """Reference application of a superoperator to an operator."""
    return unvec(s @ vec(x), x.shape[0])


seeds = st.integers(0, 2**32 - 1)


def classical_rate_generator(model: StochasticEnvModel) -> np.ndarray:
    """Population-sector generator: gains off diagonal, losses on it."""
    r = model.rate_matrix()
    return r - np.diag(r.sum(axis=0))


class TestAssembleGenerator:
    def test_classical_mixture_block_diagonal(self):
        rng = np.random.default_rng(0)
        gens = [random_lindblad_generator(rng, 2) for _ in range(3)]
        m = ClassicalMixtureModel(lindblads=tuple(gens),
                                  weights=np.array([0.2, 0.5, 0.3]))
        got = assemble_generator(m)
        assert np.abs(got - scipy.linalg.block_diag(*gens)).max() == 0.0

    def test_depolarizing_population_master_equation(self):
        gamma, phi = 1.0, 0.7
        m = DepolarizingModel(gamma=gamma, phi=phi)
        rng = np.random.default_rng(1)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        # population rate matrix: 4 -> k at gamma/3, k -> 4 at phi
        w = np.zeros((4, 4))
        for k in range(3):
            w[k, 3] += gamma / 3.0
            w[3, k] += phi
        w -= np.diag(w.sum(axis=0))
        for t in (0.3, 1.1, 2.6):
            evolved = propagate_interval(m, state, 0.0, t)
            pops = np.array([np.trace(b).real for b in evolved])
            want = matrix_exp(w * t).real @ m.populations0
            assert np.abs(pops - want).max() < 1e-12

    def test_unitary_generator_exponential_is_unitary_conjugation(self):
        rng = np.random.default_rng(2)
        m = random_unitary_model(rng)
        gen = assemble_generator(m)
        t = 0.8
        u = matrix_exp(-1j * t * m.total_hamiltonian())
        want = np.kron(u.conj(), u)
        assert np.abs(matrix_exp(gen * t) - want).max() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_trace_preserving_every_class(self, seed):
        rng = np.random.default_rng(seed)
        instances = [
            random_classical_mixture(rng, nc=2),
            random_stochastic_env(rng, nc=2),
            random_quantum_bystander(rng, de=2),
            random_unitary_model(rng),
            DepolarizingModel(gamma=1.0, phi=float(rng.uniform(0.3, 3.0)),
                              omega=float(rng.uniform(0.0, 2.0))),
        ]
        for m in instances:
            gen = assemble_generator(m)
            if models.uses_stacked(m):
                # trace functional on the stacked representation
                tvec = np.concatenate([vec(np.eye(m.ds)) for _ in range(m.env_dim)])
                assert np.abs(tvec.conj() @ gen).max() < 1e-9
            else:
                d = m.ds * m.env_dim
                assert trace_preservation_residual(gen, d) < 1e-9

    @staticmethod
    def _jump_by_jump(m: StochasticEnvModel) -> np.ndarray:
        """The stacked generator added up one jump at a time."""
        n = m.ds * m.ds
        gen = np.zeros((m.env_dim * n, m.env_dim * n), dtype=complex)
        for c, g in enumerate(m.lindblads):
            gen[c * n:(c + 1) * n, c * n:(c + 1) * n] = g
        for j in m.jumps:
            src = slice(j.src * n, (j.src + 1) * n)
            dst = slice(j.dst * n, (j.dst + 1) * n)
            gen[src, src] -= j.rate * np.eye(n)
            gen[dst, src] += j.rate * kraus_superoperator(j.kraus)
        return gen

    @pytest.mark.parametrize("seed", range(6))
    def test_stochastic_generator_matches_jump_by_jump_assembly(self, seed):
        # repeated (src, dst) pairs and jumps, one to three Kraus operators
        # per jump
        rng = np.random.default_rng(seed)
        ds, nc = (2, 3) if seed % 2 else (3, 4)
        jumps = [EnvJump(src=int(s), dst=int((s + rng.integers(1, nc)) % nc),
                         rate=float(rng.uniform()),
                         kraus=random_cptp_kraus(rng, ds, int(rng.integers(1, 4))))
                 for s in rng.integers(0, nc, size=3 * nc)]
        kick = (PAULI_OPS[0],) if ds == 2 else (np.eye(ds),)  # exact zeros
        jumps += [jumps[0], EnvJump(0, 1, 0.5, kick)]
        m = StochasticEnvModel(
            lindblads=tuple(random_lindblad_generator(rng, ds) for _ in range(nc)),
            jumps=tuple(jumps), populations0=np.full(nc, 1.0 / nc))
        got, want = assemble_generator(m), self._jump_by_jump(m)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros alike

    def test_depolarizing_stack_matches_jump_by_jump_assembly(self):
        for stacked in models._depolarizing_general(1.0, 0.7, 0.0, True), \
                models._depolarizing_general(0.0, 1.0, 0.0, True):
            got = assemble_generator(stacked)
            assert got.tobytes() == self._jump_by_jump(stacked).tobytes()


STACK_MODELS = [pytest.param(make, id=name) for name, make in (
    ("classical_mixture", lambda rng: random_classical_mixture(rng, nc=3)),
    ("stochastic_env", lambda rng: random_stochastic_env(rng, nc=3)),
    ("quantum_bystander", lambda rng: random_quantum_bystander(rng, de=3)),
    ("unitary", lambda rng: random_unitary_model(rng, de=3)),
    ("depolarizing", lambda rng: DepolarizingModel(gamma=1.0, phi=0.7)),
    ("depolarizing_driven", lambda rng: DepolarizingModel(gamma=1.0, phi=0.7,
                                                          omega=1.5)),
    ("depolarizing_modulated", lambda rng: DepolarizingModel(
        gamma=1.0, phi=0.7, modulation=sine_modulation(0.4, 0.9))),
    ("depolarizing_modulated_driven", lambda rng: DepolarizingModel(
        gamma=1.0, phi=0.7, omega=1.5, modulation=sine_modulation(0.4, 0.9))),
)]


class TestGeneratorStack:
    """An array of times gives the stack of the per-time generators."""

    TIMES = np.array([0.0, 0.13, 0.5, 1.7, 2.25, 40.0])

    @pytest.mark.parametrize("make", STACK_MODELS)
    def test_stack_matches_per_time_calls(self, make):
        m = make(np.random.default_rng(31))
        got = assemble_generator(m, self.TIMES)
        want = np.stack([assemble_generator(m, t) for t in self.TIMES])
        assert got.shape == self.TIMES.shape + want.shape[1:]
        assert np.array_equal(got, want)
        if not models.is_time_dependent(m):
            assert not got.flags.writeable  # one generator, broadcast
            assert np.array_equal(got[0], assemble_generator(m))

    def test_modulated_rates_keep_their_arithmetic(self):
        # gamma (1 + b) and phi (1 - b) on Python floats, as per-time
        # assembly has always computed them
        b = sine_modulation(0.4, 0.9)
        m = DepolarizingModel(gamma=1.0, phi=0.7, modulation=b)
        gens = assemble_generator(m, self.TIMES)
        part_gamma, part_phi = models._depolarizing_parts(True)
        for t, gen in zip(self.TIMES, gens):
            bt = float(b(float(t)))
            want = 1.0 * (1.0 + bt) * part_gamma + 0.7 * (1.0 - bt) * part_phi
            assert np.array_equal(gen, want)

    def test_stacked_parts_are_the_block_layout(self):
        # the stacked generators at unit gamma and unit phi, written out
        # block by block: label 4 (index 3) loses at gamma and feeds each
        # label k at gamma/3 through sigma_k; label k loses at phi and feeds
        # label 4 through sigma_k
        eye4 = np.eye(4)
        want_gamma, want_phi = np.zeros((16, 16)), np.zeros((16, 16))
        want_gamma[12:16, 12:16] -= eye4
        for k in range(3):
            sl = slice(4 * k, 4 * k + 4)
            sand = np.kron(PAULI_OPS[k].conj(), PAULI_OPS[k]).real
            want_phi[sl, sl] -= eye4
            want_gamma[sl, 12:16] += sand / 3.0
            want_phi[12:16, sl] += sand
        part_gamma, part_phi = models._depolarizing_parts(True)
        assert part_gamma.dtype == part_phi.dtype == float
        assert np.array_equal(part_gamma, want_gamma)
        assert np.array_equal(part_phi, want_phi)
        general = models._depolarizing_general(1.0, 0.0, 0.0, stacked=True)
        assert not assemble_generator(general).imag.any()

    @pytest.mark.parametrize("gamma, phi, omega", [
        (1.0, 1.0, 1.5), (0.3, 2.0, 0.7), (2.5, 0.4, 5.0), (1.0, 0.7, 1e-3)])
    def test_driven_generator_is_the_written_out_lindblad_form(self, gamma, phi,
                                                              omega):
        b = sine_modulation(0.4, 0.9)

        def written_out(g, f):
            he = np.zeros((4, 4), dtype=complex)
            he[:3, 3] = he[3, :3] = omega / 2.0
            jumps = []
            for k in range(3):
                lower = np.outer(np.eye(4)[k], np.eye(4)[3])
                jumps += [(kron(PAULI_OPS[k], lower), g / 3.0),
                          (kron(PAULI_OPS[k], lower.T), f)]
            return lindblad_superoperator(kron(np.eye(2), he), jumps)

        static = DepolarizingModel(gamma=gamma, phi=phi, omega=omega)
        assert np.abs(assemble_generator(static) - written_out(gamma, phi)).max() < 1e-14
        modulated = DepolarizingModel(gamma=gamma, phi=phi, omega=omega,
                                      modulation=b)
        for t, gen in zip(self.TIMES, assemble_generator(modulated, self.TIMES)):
            bt = float(b(float(t)))
            want = written_out(gamma * (1.0 + bt), phi * (1.0 - bt))
            assert np.abs(gen - want).max() < 1e-14

    def test_driven_stack_builds_no_lindblad_form(self, monkeypatch):
        m = DepolarizingModel(gamma=1.0, phi=0.7, omega=1.5,
                              modulation=sine_modulation(0.4, 0.9))
        assemble_generator(m)  # builds the parts once
        calls = []
        monkeypatch.setattr(models, "lindblad_superoperator",
                            lambda *args: calls.append(args))
        gens = assemble_generator(m, np.linspace(0.0, 3.0, 63))
        assert gens.shape == (63, 64, 64) and not calls

    @pytest.mark.parametrize("modulation", [
        pytest.param(lambda t: np.where(t > 0.5, 1.0, 0.2), id="reaches-one"),
        pytest.param(lambda t: np.where(t > 0.5, -1.5, 0.2), id="below-minus-one"),
        pytest.param(lambda t: np.where(t > 0.5, np.nan, 0.2), id="nan"),
        pytest.param(lambda t: 0.3 * math.sin(t), id="scalar-only"),
        pytest.param(lambda t: 0.3 if t < 0.5 else 0.2, id="branching"),
        pytest.param(lambda t: np.zeros(2), id="wrong-shape"),
    ])
    @pytest.mark.parametrize("omega", [0.0, 1.5], ids=["stacked", "driven"])
    def test_bad_modulation_inside_a_block_raises(self, modulation, omega):
        m = DepolarizingModel(gamma=1.0, phi=1.0, omega=omega,
                              modulation=modulation)
        with pytest.raises(InvariantViolation):
            assemble_generator(m, np.linspace(0.0, 1.0, 11))


class TestPauliBlocks:
    """The depolarizing generator, environment included, splits into four
    blocks, one per Pauli component of the qubit, in both representations;
    ``assemble_generator(..., blocks=True)`` gives them."""

    REPRESENTATIONS = pytest.mark.parametrize("stacked", [True, False],
                                              ids=["stacked", "full"])

    @staticmethod
    def changes(stacked):
        """T and its way back as dense matrices, from their gathers."""
        into, back = models._pauli_gathers(stacked)
        eye = np.eye(16 if stacked else 64)
        return qcore.gathered(eye, into), qcore.gathered(eye, back)

    @staticmethod
    def block_mask(d):
        return np.kron(np.eye(4), np.ones((d // 4, d // 4))).astype(bool)

    @REPRESENTATIONS
    def test_unit_parts_have_no_off_block_entries(self, stacked):
        t, _ = self.changes(stacked)
        parts = models._depolarizing_parts(stacked)
        assert len(parts) == (2 if stacked else 3)  # gamma, phi (, omega)
        for part in parts:
            changed = t @ part @ t.T / 2
            assert not changed[~self.block_mask(len(t))].any()
            assert np.abs(changed).max() > 0

    @REPRESENTATIONS
    def test_way_back_is_the_transpose_halved(self, stacked):
        t, back = self.changes(stacked)
        assert np.array_equal(back, t.T / 2)
        # each new coordinate is the sum or difference of two old ones
        assert set(np.unique(t)) == {-1.0, 0.0, 1.0}
        assert np.array_equal(np.count_nonzero(t, axis=1), np.full(len(t), 2))
        assert np.array_equal(t @ back, np.eye(len(t)))

    @pytest.mark.parametrize("make", STACK_MODELS)
    def test_block_form_maps_back_to_the_dense_generator(self, make):
        m = make(np.random.default_rng(32))
        times = TestGeneratorStack.TIMES
        dense = assemble_generator(m, times)
        blocks = assemble_generator(m, times, blocks=True)
        nb, into, back = models.block_basis(m)
        d = dense.shape[-1]
        assert blocks.shape == times.shape + (nb, d // nb, d // nb)
        assert np.array_equal(assemble_generator(m, 0.13, blocks=True), blocks[1])
        full = np.zeros(dense.shape, dtype=blocks.dtype)
        for j in range(nb):
            part = slice(j * d // nb, (j + 1) * d // nb)
            full[:, part, part] = blocks[:, j]
        if into is None:
            assert nb == 1 and back is None
            assert np.array_equal(full, dense)
        else:
            t, way_back = self.changes(models.uses_stacked(m))
            assert np.abs(way_back @ full @ t - dense).max() <= 1e-15

    @pytest.mark.parametrize("modulation", [
        pytest.param(lambda t: np.where(t > 0.5, 1.0, 0.2), id="reaches-one"),
        pytest.param(lambda t: np.where(t > 0.5, np.nan, 0.2), id="nan"),
        pytest.param(lambda t: 0.3 * math.sin(t), id="scalar-only"),
    ])
    @pytest.mark.parametrize("omega", [0.0, 1.5], ids=["stacked", "driven"])
    def test_checks_raise_through_the_block_form(self, modulation, omega):
        m = DepolarizingModel(gamma=1.0, phi=1.0, omega=omega,
                              modulation=modulation)
        with pytest.raises(InvariantViolation):
            assemble_generator(m, np.linspace(0.0, 1.0, 11), blocks=True)

    def test_rates_that_round_to_zero_raise_through_the_block_form(self):
        # the smallest gamma halved by the modulation is zero
        m = DepolarizingModel(gamma=5e-324, phi=1.0,
                              modulation=lambda t: np.full(np.shape(t), -0.5))
        with pytest.raises(InvariantViolation, match="stay positive"):
            assemble_generator(m, np.linspace(0.0, 1.0, 11), blocks=True)


class TestStochasticEnv:
    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_populations_independent_of_system_state(self, seed):
        rng = np.random.default_rng(seed)
        m = random_stochastic_env(rng, nc=3)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        grid = TimeGrid.regular(2.0, 0.5)
        series_a = propagate(m, models.initial_state(m, rho_a), grid)
        series_b = propagate(m, models.initial_state(m, rho_b), grid)
        gen_cl = classical_rate_generator(m)
        for i, t in enumerate(grid.times):
            pops_a = np.array([np.trace(b).real for b in series_a[i]])
            pops_b = np.array([np.trace(b).real for b in series_b[i]])
            assert np.abs(pops_a - pops_b).max() < 1e-9
            want = matrix_exp(gen_cl * t).real @ m.populations0
            assert np.abs(pops_a - want).max() < 1e-9


class TestClassicalMixture:
    def test_is_the_jump_free_stochastic_environment(self):
        mix = random_classical_mixture(np.random.default_rng(3), nc=3)
        same = StochasticEnvModel(lindblads=mix.lindblads, jumps=(),
                                  populations0=mix.weights)
        assert isinstance(mix, StochasticEnvModel) and mix.jumps == ()
        assert np.array_equal(assemble_generator(mix), assemble_generator(same))
        up, down = projector(basis_ket(2, 0)), projector(basis_ket(2, 1))
        grid = TimeGrid.regular(2.0, 0.1)
        assert np.array_equal(trace_distance_series(mix, up, down, grid=grid).values,
                              trace_distance_series(same, up, down, grid=grid).values)
        rho0s, specs = reference_measurements()
        for scheme in ("d", "r"):
            a, b = (cpf_grid(m, rho0s, None, specs, [0.5, 1.0], [0.5, 1.5],
                             scheme=scheme) for m in (mix, same))
            assert np.array_equal(a.tensors, b.tensors)

    def test_round_trip_keeps_the_mixture_class(self):
        mix = random_classical_mixture(np.random.default_rng(4))
        doc = model_to_dict(mix)
        back = model_from_dict(doc)
        assert doc["class"] == "classical_mixture"
        assert type(back) is ClassicalMixtureModel
        assert np.array_equal(back.weights, mix.weights)
        assert model_to_dict(back) == doc


class TestQuantumBystander:
    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_env_marginal_closed_dynamics(self, seed):
        rng = np.random.default_rng(seed)
        m = random_quantum_bystander(rng, de=2)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        env_gen = m.env_generator()
        for t in (0.4, 1.2):
            evolved = propagate_interval(m, state, 0.0, t)
            got = models.env_marginal(m, evolved)
            want = apply_superop(matrix_exp(env_gen * t), m.env0)
            assert np.abs(got - want).max() < 1e-8


class TestBystanderCheck:
    def test_depolarizing_with_drive(self):
        ok, resid = check_bystander(DepolarizingModel(gamma=1.0, phi=1.0, omega=2.0))
        assert ok and resid < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_bystander_classes_pass(self, seed):
        rng = np.random.default_rng(seed)
        for m in (random_classical_mixture(rng, nc=2),
                  random_stochastic_env(rng, nc=3),
                  random_quantum_bystander(rng, de=3)):
            ok, resid = check_bystander(m)
            assert ok, f"{type(m).__name__} residual {resid}"

    # the check's kernel basis, written out: off-diagonal matrix units, then
    # the differences of consecutive diagonal units
    @staticmethod
    def _traceless(ds):
        ops = []
        for i in range(ds):
            for j in range(ds):
                if i != j:
                    ops.append(np.outer(np.eye(ds)[i], np.eye(ds)[j]))
        for i in range(ds - 1):
            ops.append(np.diag(np.eye(ds)[i] - np.eye(ds)[i + 1]))
        return ops

    def _reference_residual(self, m, gen):
        """Worst environment-marginal residual, per label block (stacked)
        or by partial trace over kron(B, |i><j|) (full)."""
        ds, de = m.ds, m.env_dim
        n = ds * ds
        resid = []
        for b in self._traceless(ds):
            if models.uses_stacked(m):
                for c in range(de):
                    v = np.zeros(de * n, dtype=complex)
                    v[c * n:(c + 1) * n] = vec(b)
                    w = gen @ v
                    resid += [abs(np.trace(unvec(w[k * n:(k + 1) * n], ds)))
                              for k in range(de)]
                continue
            for i in range(de):
                for j in range(de):
                    x = kron(b, np.outer(np.eye(de)[i], np.eye(de)[j]))
                    image = unvec(gen @ vec(x), ds * de)
                    resid.append(np.abs(partial_trace(image, (ds, de),
                                                      "environment")).max())
        return max(resid)

    INSTANCES = [
        pytest.param(lambda rng: random_classical_mixture(rng, nc=3), id="mixture"),
        pytest.param(lambda rng: random_stochastic_env(rng, nc=3), id="stochastic"),
        pytest.param(lambda rng: random_quantum_bystander(rng, de=3), id="bystander"),
        pytest.param(lambda rng: random_unitary_model(rng, de=3), id="unitary"),
        pytest.param(lambda rng: DepolarizingModel(gamma=1.0, phi=0.6), id="depol"),
        pytest.param(lambda rng: DepolarizingModel(gamma=1.0, phi=0.6, omega=1.5),
                     id="depol-driven"),
    ]

    @pytest.mark.parametrize("make", INSTANCES)
    def test_residual_matches_reference(self, make, monkeypatch):
        rng = np.random.default_rng(31)
        m = make(rng)
        gen = assemble_generator(m)
        ok, resid = check_bystander(m)
        want = self._reference_residual(m, gen)
        assert resid == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert ok == (resid < 1e-9)
        # a generic generator on the same space gives O(1) residuals; a
        # closed model is checked through its Hamiltonian, so it gets a
        # generic Hermitian one
        d = gen.shape[0]
        if isinstance(m, UnitaryModel):
            h = random_hermitian(rng, m.ds * m.env_dim)
            noise = lindblad_superoperator(h)
            monkeypatch.setattr(UnitaryModel, "total_hamiltonian", lambda self: h)
        else:
            noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            monkeypatch.setattr(models, "assemble_generator", lambda m, t=0.0, blocks=False: noise)
        ok, resid = check_bystander(m)
        assert not ok
        assert resid == pytest.approx(self._reference_residual(m, noise),
                                      rel=1e-12)

    def test_closed_model_builds_no_superoperator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("superoperator built")

        rng = np.random.default_rng(33)
        m = random_unitary_model(rng, de=16)
        for name in ("assemble_generator", "lindblad_superoperator",
                     "conjugation_superop"):
            monkeypatch.setattr(models, name, refuse)
        ok, resid = check_bystander(m)
        assert not ok and resid > 1e-3
        ok, resid = check_bystander(commuting_interaction_preset())
        assert not ok and resid > 1e-3

    @pytest.mark.parametrize("make", INSTANCES[:1] + INSTANCES[2:3])
    def test_nan_residual_raises(self, make, monkeypatch):
        m = make(np.random.default_rng(32))
        gen = np.array(assemble_generator(m))
        gen[0, 0] = np.nan
        monkeypatch.setattr(models, "assemble_generator", lambda m, t=0.0, blocks=False: gen)
        with pytest.raises(NumericalDriftError):
            check_bystander(m)

    def test_generic_unitary_fails(self):
        g = 1.0
        m = UnitaryModel(
            hs=np.zeros((2, 2), dtype=complex),
            he=PAULI_OPS[2],
            hi=g * kron(PAULI_OPS[0], PAULI_OPS[0]),
            env0=np.diag([0.6, 0.4]).astype(complex),
        )
        ok, resid = check_bystander(m)
        assert not ok
        assert resid > 1e-3 * g


class TestCommutingException:
    def test_env_diagonal_interaction_commutes(self):
        m = UnitaryModel(
            hs=np.zeros((2, 2), dtype=complex),
            he=0.7 * PAULI_OPS[2],
            hi=0.9 * kron(PAULI_OPS[0], PAULI_OPS[2]),
            env0=np.eye(2, dtype=complex) / 2,
        )
        assert interaction_commutes(m)

    def test_anticommuting_pair_fails(self):
        m = UnitaryModel(
            hs=np.zeros((2, 2), dtype=complex),
            he=0.7 * PAULI_OPS[0],
            hi=0.9 * kron(PAULI_OPS[0], PAULI_OPS[2]),
            env0=np.eye(2, dtype=complex) / 2,
        )
        assert not interaction_commutes(m)

    def test_no_interaction_commutes(self):
        m = UnitaryModel(
            hs=PAULI_OPS[2],
            he=0.7 * PAULI_OPS[0],
            hi=np.zeros((4, 4), dtype=complex),
            env0=np.eye(2, dtype=complex) / 2,
        )
        assert interaction_commutes(m)


class TestRandomUnitaryDecomposition:
    def test_dephasing_two_member_ensemble(self):
        m = commuting_interaction_preset()
        parts = random_unitary_decomposition(m)
        assert len(parts) == 2
        assert [w for w, _ in parts] == pytest.approx([0.75, 0.25])
        rng = np.random.default_rng(4)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        for t in (0.5, 1.3, 2.2):
            mix = sum(w * apply_superop(fam(t), rho0) for w, fam in parts)
            full = models.sys_marginal(m, propagate_interval(m, state, 0.0, t))
            assert np.abs(mix - full).max() < 1e-9

    def test_free_system_single_unitary(self):
        hs = 0.8 * PAULI_OPS[2]
        m = UnitaryModel(hs=hs, he=0.5 * PAULI_OPS[2],
                         hi=np.zeros((4, 4), dtype=complex),
                         env0=np.diag([0.3, 0.7]).astype(complex))
        parts = random_unitary_decomposition(m)
        t = 1.1
        u = matrix_exp(-1j * t * hs)
        want = np.kron(u.conj(), u)
        for _, fam in parts:
            assert np.abs(fam(t) - want).max() < 1e-10

    def test_invalid_model_rejected(self):
        m = exchange_preset()
        with pytest.raises(InvariantViolation):
            random_unitary_decomposition(m)

    def test_degenerate_env_spectrum_not_trusted(self):
        # a zero environment Hamiltonian commutes with everything, but the
        # propagator is still not block diagonal for an exchange coupling
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        m = UnitaryModel(hs=np.zeros((2, 2)), he=np.zeros((2, 2)),
                         hi=kron(sm.conj().T, sm) + kron(sm, sm.conj().T),
                         env0=np.eye(2) / 2)
        assert interaction_commutes(m)  # vacuously
        with pytest.raises(InvariantViolation):
            random_unitary_decomposition(m)


class TestBornMarkov:
    def test_witnesses_vanish(self):
        rng = np.random.default_rng(8)
        sys_gen = random_lindblad_generator(rng, 2)
        env0 = random_density_matrix(rng, 2)
        m = born_markov_model(sys_gen, env0)
        rho0s, specs = reference_measurements()
        pd = cpf_joint_deterministic(m, rho0s, None, specs, 0.8, 0.6)
        pr = cpf_joint_random(m, rho0s, None, specs, None, 0.8, 0.6)
        assert np.nanmax(np.abs(cpf_correlation(pd, specs))) < 1e-10
        assert np.nanmax(np.abs(cpf_correlation(pr, specs))) < 1e-10
        assert markov_factorization_gap(pd) < 1e-10

    def test_bound_terms_vanish_and_td_monotone(self):
        rng = np.random.default_rng(9)
        sys_gen = random_lindblad_generator(rng, 2)
        env0 = random_density_matrix(rng, 2)
        m = born_markov_model(sys_gen, env0)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 2)
        b = trace_distance_bound(m, rho, sig, env0, 0.7, 0.5)
        assert b.env_term < 1e-10
        assert b.corr_rho < 1e-10
        assert b.corr_sigma < 1e-10
        assert b.increment <= 1e-12
        trace = trace_distance_series(m, rho, sig, env0,
                                      grid=TimeGrid.regular(3.0, 0.05))
        assert not trace.has_revival()


class TestModelFiles:
    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_roundtrip_every_class(self, seed):
        rng = np.random.default_rng(seed)
        instances = [
            random_classical_mixture(rng, nc=2),
            random_stochastic_env(rng, nc=2),
            random_quantum_bystander(rng, de=2),
            random_unitary_model(rng),
            DepolarizingModel(gamma=1.2, phi=0.8, omega=0.5,
                              modulation=sine_modulation(0.4, 0.01)),
        ]
        for m in instances:
            m2 = model_from_dict(model_to_dict(m))
            assert type(m2) is type(m)
            g1 = assemble_generator(m, t=0.3)
            g2 = assemble_generator(m2, t=0.3)
            assert np.abs(g1 - g2).max() < 1e-12

    def test_save_load_file(self, tmp_path):
        m = exchange_preset()
        path = tmp_path / "model.json"
        models.save_model(m, path)
        m2 = models.load_model(path)
        assert np.abs(m2.hi - m.hi).max() == 0.0

    def test_labels_save_as_integers(self, tmp_path):
        # numpy integer labels save as JSON integers, and a label of
        # integral float value loads as an int
        m = random_stochastic_env(np.random.default_rng(3), nc=3)
        jumps = tuple(EnvJump(src=np.int64(j.src), dst=np.int32(j.dst),
                              rate=j.rate, kraus=j.kraus) for j in m.jumps)
        path = tmp_path / "model.json"
        models.save_model(StochasticEnvModel(lindblads=m.lindblads, jumps=jumps,
                                             populations0=m.populations0), path)
        doc = model_to_dict(m)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=1) + "\n"
        doc["parameters"]["jumps"][0]["dst"] = float(doc["parameters"]["jumps"][0]["dst"])
        back = model_from_dict(doc)
        assert type(back.jumps[0].dst) is int
        assert model_to_dict(back) == model_to_dict(m)

    def test_failed_save_leaves_the_file_alone(self, tmp_path):
        # a modulation the format cannot spell fails before the file is opened
        m = DepolarizingModel(gamma=1.0, phi=1.0, modulation=lambda t: 0.1 * t)
        path = tmp_path / "model.json"
        path.write_text("previous\n", encoding="utf-8")
        with pytest.raises(InvariantViolation, match="only sine_modulation"):
            models.save_model(m, path)
        assert path.read_text(encoding="utf-8") == "previous\n"

    def test_numpy_scalar_rates_save_as_numbers(self, tmp_path):
        # numpy scalars save as the Python numbers they hold, so an integer
        # rate still writes as an integer
        path = tmp_path / "model.json"
        models.save_model(DepolarizingModel(gamma=1, phi=np.int64(2)), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["parameters"] == {"gamma": 1, "phi": 2, "omega": 0.0}
        assert type(doc["parameters"]["phi"]) is int
        m = random_stochastic_env(np.random.default_rng(3), nc=2)
        j = m.jumps[0]
        jumps = (EnvJump(src=j.src, dst=j.dst, rate=np.float32(0.5),
                         kraus=j.kraus),) + m.jumps[1:]
        models.save_model(StochasticEnvModel(lindblads=m.lindblads, jumps=jumps,
                                             populations0=m.populations0), path)
        assert models.load_model(path).jumps[0].rate == 0.5

    def test_single_precision_rates_take_double_populations(self):
        m = DepolarizingModel(gamma=np.float32(0.5), phi=1.0)
        assert type(m.gamma) is np.float32  # the rate is kept as given
        assert np.array_equal(m.populations0,
                              DepolarizingModel(gamma=0.5, phi=1.0).populations0)

    @pytest.mark.parametrize("make, path, value", [
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0),
         ("parameters", "omega"), True),
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0),
         ("parameters", "phi"), "0.5"),
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0),
         ("parameters", "gamma"), None),
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0,
                                   modulation=sine_modulation(0.3, 0.5)),
         ("parameters", "modulation", "amplitude"), "0.3"),
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0), ("initial_env", 0), True),
        (lambda: DepolarizingModel(gamma=1.0, phi=1.0), ("initial_env", 3), "0.25"),
        (lambda: random_stochastic_env(np.random.default_rng(3)),
         ("parameters", "jumps", 0, "rate"), False),
        (lambda: random_stochastic_env(np.random.default_rng(3)),
         ("parameters", "generators", 0, 1, 1, 0), "0.0"),
        (exchange_preset, ("parameters", "h_env", 0, 0, 1), True),
    ], ids=["omega-true", "phi-string", "gamma-null", "amplitude-string",
            "population-true", "population-string", "rate-false",
            "matrix-string", "matrix-true"])
    def test_every_number_must_be_a_json_number(self, make, path, value):
        doc = model_to_dict(make())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvariantViolation,
                           match=f"numbers must be JSON numbers, got {value!r}"):
            model_from_dict(doc)

    @pytest.mark.parametrize("header", [{"de_or_nc": True}, {"ds": "2"}])
    def test_header_must_hold_the_model_dimensions(self, header):
        # a one-label mixture, so that true would equal its count
        g = random_lindblad_generator(np.random.default_rng(3), 2)
        doc = model_to_dict(ClassicalMixtureModel(lindblads=(g,), weights=[1.0]))
        assert model_from_dict(doc).env_dim == 1
        doc.update(header)
        with pytest.raises(InvariantViolation, match="does not match"):
            model_from_dict(doc)

    def test_bad_format_rejected(self):
        with pytest.raises(InvariantViolation):
            model_from_dict({"format": "qflow-model/999", "class": "unitary"})

    @pytest.mark.parametrize("edit", [
        lambda d: d["parameters"].pop("h_env"),
        lambda d: d.pop("initial_env"),
        lambda d: d["parameters"].update(h_system="not a matrix"),
        lambda d: d["parameters"].update(h_interaction=[[1.0, 2.0]]),
        lambda d: d.update(parameters=[1, 2]),
    ])
    def test_malformed_document_rejected(self, edit):
        doc = model_to_dict(exchange_preset())
        edit(doc)
        with pytest.raises(InvariantViolation):
            model_from_dict(doc)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InvariantViolation):
            models.load_model(path)
        path.write_text("{", encoding="utf-8")
        with pytest.raises(InvariantViolation):
            models.load_model(path)


class TestInvariantEnforcement:
    @pytest.mark.parametrize("make", [
        lambda env0: UnitaryModel(hs=PAULI_OPS[2], he=PAULI_OPS[0],
                                  hi=kron(PAULI_OPS[0], PAULI_OPS[0]), env0=env0),
        lambda env0: QuantumBystanderModel(ls=np.zeros((4, 4)), le=np.zeros((4, 4)),
                                           collisions=(), env0=env0),
    ], ids=["unitary", "bystander"])
    def test_environment_state_must_match_the_environment(self, make):
        env0 = random_density_matrix(np.random.default_rng(2), 3)
        with pytest.raises(InvariantViolation, match="environment state has "
                           "dimension 3, but the model's environment has "
                           "dimension 2"):
            make(env0)
        make(env0[:2, :2] / np.trace(env0[:2, :2]))

    def test_mixture_weights_must_normalize(self):
        rng = np.random.default_rng(1)
        g = random_lindblad_generator(rng, 2)
        with pytest.raises(InvariantViolation):
            ClassicalMixtureModel(lindblads=(g,), weights=np.array([0.7]))

    def test_jump_kraus_must_be_cptp(self):
        with pytest.raises(InvariantViolation):
            EnvJump(src=0, dst=1, rate=0.5, kraus=(0.5 * np.eye(2),))

    def test_kraus_sets_are_checked_without_superoperators(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qcore, "kraus_superoperator",
                            lambda *a, **k: calls.append(a))
        # completeness residual 5e-10 passes, 2e-9 fails the 1e-9 bound
        for build in (EnvJump, Collision):
            args = (0, 1) if build is EnvJump else (np.eye(2),)
            build(*args, 0.5, (np.sqrt(1 + 5e-10) * np.eye(2),))
            for kraus in ((), (np.sqrt(1 + 2e-9) * np.eye(2),),
                          (0.5 * np.eye(2),), (np.eye(2), np.eye(3))):
                with pytest.raises(InvariantViolation):
                    build(*args, 0.5, kraus)
        assert calls == []

    def test_jump_kraus_must_act_on_the_system(self):
        jump = EnvJump(src=0, dst=1, rate=0.5, kraus=(np.eye(3),))
        with pytest.raises(InvariantViolation):
            StochasticEnvModel(lindblads=(np.zeros((4, 4)),) * 2, jumps=(jump,),
                               populations0=np.array([0.5, 0.5]))

    def test_collision_rate_nonnegative(self):
        with pytest.raises(InvariantViolation):
            Collision(op=np.eye(2), rate=-1.0, kraus=(np.eye(2),))

    def test_unitary_hermitian_required(self):
        with pytest.raises(InvariantViolation):
            UnitaryModel(hs=np.array([[0.0, 1.0], [0.0, 0.0]]),
                         he=np.zeros((2, 2)),
                         hi=np.zeros((4, 4)),
                         env0=np.eye(2) / 2)

    def test_unitary_nan_hamiltonian_rejected(self):
        with pytest.raises(InvariantViolation):
            UnitaryModel(hs=np.array([[np.nan, 0.0], [0.0, 0.0]]),
                         he=np.zeros((2, 2)),
                         hi=np.zeros((4, 4)),
                         env0=np.eye(2) / 2)

    def test_depolarizing_rates_positive(self):
        with pytest.raises(InvariantViolation):
            DepolarizingModel(gamma=0.0, phi=1.0)

    @pytest.mark.parametrize("build", [
        lambda: DepolarizingModel(gamma=np.nan, phi=1.0),
        lambda: DepolarizingModel(gamma=np.inf, phi=1.0),
        lambda: DepolarizingModel(gamma=1.0, phi=np.nan),
        lambda: DepolarizingModel(gamma=1.0, phi=1.0, omega=np.nan),
        lambda: DepolarizingModel(gamma=1.0, phi=1.0, omega=np.inf),
        lambda: DepolarizingModel(gamma=1.0, phi=1.0,
                                  populations0=[np.nan, 0.0, 0.0, 1.0]),
        lambda: EnvJump(src=0, dst=1, rate=np.nan, kraus=(np.eye(2),)),
        lambda: EnvJump(src=0, dst=1, rate=np.inf, kraus=(np.eye(2),)),
        lambda: EnvJump(src=0, dst=1, rate=0.5,
                        kraus=(np.array([[np.nan, 0.0], [0.0, 1.0]]),)),
        lambda: Collision(op=np.eye(2), rate=np.nan, kraus=(np.eye(2),)),
        lambda: Collision(op=np.array([[np.nan, 0.0], [0.0, 1.0]]), rate=0.5,
                          kraus=(np.eye(2),)),
        lambda: ClassicalMixtureModel(lindblads=(np.full((4, 4), np.nan),),
                                      weights=np.array([1.0])),
        lambda: ClassicalMixtureModel(
            lindblads=(np.zeros((4, 4)), np.zeros((4, 4))),
            weights=np.array([np.nan, 1.0])),
        lambda: StochasticEnvModel(lindblads=(np.zeros((4, 4)),), jumps=(),
                                   populations0=np.array([np.nan])),
        lambda: StochasticEnvModel(lindblads=(), jumps=(),
                                   populations0=np.array([])),
        lambda: solve_channel_coefficients(1.0, 1.0, [np.nan, 0.0, 0.0, 1.0],
                                           TimeGrid.regular(0.1, 0.05)),
        lambda: RandomSchemePolicy([[np.nan, np.nan], [0.5, 0.5]]),
        lambda: MeasurementSpec(vectors=np.full((2, 2), np.nan),
                                outcomes=(1.0, -1.0)),
        lambda: MeasurementSpec(vectors=np.eye(2), outcomes=(np.nan, -1.0)),
        lambda: sine_modulation(0.5, np.nan),
        lambda: sine_modulation(np.nan, 0.01),
        # a scalar time list or an empty basis, not a numpy error
        lambda ref=reference_measurements(): cpf_grid(
            DepolarizingModel(gamma=1.0, phi=1.0), ref[0], None, ref[1],
            ts=0.5, taus=[0.5]),
        lambda ref=reference_measurements(): cpf_grid(
            DepolarizingModel(gamma=1.0, phi=1.0), ref[0], None, ref[1],
            ts=[0.5], taus=0.5),
        lambda ref=reference_measurements(): cpf_equal_times(
            DepolarizingModel(gamma=1.0, phi=1.0), ref[0], None, ref[1],
            ts=0.5),
        lambda: MeasurementSpec(np.zeros((2, 0)), []),
    ])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(InvariantViolation):
            build()

    def test_modulation_must_keep_rates_positive(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0,
                              modulation=lambda t: 1.5 * np.sin(t))
        with pytest.raises(InvariantViolation):
            assemble_generator(m, t=np.pi / 2)


class TestStateHelpers:
    def test_stacked_marginals(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rng = np.random.default_rng(11)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        assert np.abs(models.sys_marginal(m, state) - rho0).max() < 1e-14
        env = models.env_marginal(m, state)
        assert np.abs(np.diag(env).real - m.populations0).max() < 1e-14

    def test_full_marginals(self):
        rng = np.random.default_rng(12)
        m = random_quantum_bystander(rng, de=3)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        assert np.abs(models.sys_marginal(m, state) - rho0).max() < 1e-14
        assert np.abs(models.env_marginal(m, state) - m.env0).max() < 1e-14

    # single-body state ops against per-block (stacked) and kron or
    # partial-trace (full) references, on general complex operators
    LAYOUTS = [
        pytest.param(lambda rng: random_stochastic_env(rng, nc=3), True,
                     id="stacked"),
        pytest.param(lambda rng: random_quantum_bystander(rng, de=3), False,
                     id="full"),
    ]

    @staticmethod
    def _operator(rng, m, stacked):
        shape = (m.env_dim, m.ds, m.ds) if stacked else (m.ds * m.env_dim,) * 2
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_flatten_round_trip(self, make, stacked):
        rng = np.random.default_rng(21)
        m = make(rng)
        x = self._operator(rng, m, stacked)
        v = models.flatten_state(m, x)
        want = np.concatenate([vec(b) for b in x]) if stacked else vec(x)
        assert np.array_equal(v, want)
        assert np.array_equal(models.unflatten_state(m, v), x)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_trace_and_resymmetrized(self, make, stacked):
        rng = np.random.default_rng(22)
        m = make(rng)
        x = self._operator(rng, m, stacked)
        blocks = x if stacked else [x]
        want = sum(np.trace(b).real for b in blocks)
        assert models.state_trace(m, x) == pytest.approx(want, abs=1e-13)
        herm = np.array([0.5 * (b + b.conj().T) for b in blocks])
        assert np.array_equal(models.resymmetrized(m, x),
                              herm if stacked else herm[0])

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_bipartite_trace_distance(self, make, stacked):
        rng = np.random.default_rng(23)
        m = make(rng)
        a = models.resymmetrized(m, self._operator(rng, m, stacked))
        b = models.resymmetrized(m, self._operator(rng, m, stacked))
        pairs = zip(a, b) if stacked else [(a, b)]
        want = sum(0.5 * np.abs(np.linalg.eigvalsh(pa - pb)).sum()
                   for pa, pb in pairs)
        assert models.bipartite_trace_distance(m, a, b) == pytest.approx(
            want, abs=1e-12)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_bipartite_trace_distance_of_a_batch(self, make, stacked):
        # one value per pair of states; a stacked state still sums its blocks
        rng = np.random.default_rng(25)
        m = make(rng)
        a = models.resymmetrized(m, np.array(
            [self._operator(rng, m, stacked) for _ in range(3)]))
        b = models.resymmetrized(m, np.array(
            [self._operator(rng, m, stacked) for _ in range(3)]))
        batch = models.bipartite_trace_distance(m, a, b)
        assert batch.shape == (3,)
        for i in range(3):
            blocks = zip(a[i], b[i]) if stacked else [(a[i], b[i])]
            want = sum(0.5 * np.abs(np.linalg.eigvalsh(pa - pb)).sum()
                       for pa, pb in blocks)
            assert batch[i] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_expect_system_projector(self, make, stacked):
        rng = np.random.default_rng(24)
        m = make(rng)
        x = self._operator(rng, m, stacked)
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        if stacked:
            want = sum((ket.conj() @ b @ ket).real for b in x)
        else:
            lift = kron(np.outer(ket, ket.conj()), np.eye(m.env_dim))
            want = np.trace(lift @ x).real
        assert models.expect_system_projector(m, x, ket) == pytest.approx(
            want, abs=1e-12)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_four_ops_against_references(self, make, stacked):
        rng = np.random.default_rng(25)
        m = make(rng)
        ds, de = m.ds, m.env_dim
        x = self._operator(rng, m, stacked)
        ket = rng.normal(size=ds) + 1j * rng.normal(size=ds)
        ket /= np.linalg.norm(ket)
        sys_op = rng.normal(size=(ds, ds)) + 1j * rng.normal(size=(ds, ds))
        env_op = rng.normal(size=(de, de)) + 1j * rng.normal(size=(de, de))
        if stacked:
            want_sys = x.sum(axis=0)
            want_env = np.diag([np.trace(b) for b in x])
            want_proj = np.diag([ket.conj() @ b @ ket for b in x])
            want_prod = np.array([env_op[c, c] * sys_op for c in range(de)])
        else:
            lift = kron(np.outer(ket, ket.conj()), np.eye(de))
            want_sys = partial_trace(x, (ds, de), "system")
            want_env = partial_trace(x, (ds, de), "environment")
            want_proj = partial_trace(lift @ x @ lift, (ds, de), "environment")
            want_prod = kron(sys_op, env_op)
        close = lambda got, want: np.abs(got - want).max() < 1e-12
        assert close(models.sys_marginal(m, x), want_sys)
        assert close(models.env_marginal(m, x), want_env)
        assert close(models.env_after_projection(m, x, ket), want_proj)
        assert close(models.product_with_env(m, sys_op, env_op), want_prod)

    @pytest.mark.parametrize("make, stacked", LAYOUTS)
    def test_leading_axis_matches_single_calls(self, make, stacked):
        rng = np.random.default_rng(26)
        m = make(rng)
        ds, de = m.ds, m.env_dim
        xs = np.array([self._operator(rng, m, stacked) for _ in range(3)])
        ket = rng.normal(size=ds) + 1j * rng.normal(size=ds)
        syss = rng.normal(size=(3, ds, ds)) + 1j * rng.normal(size=(3, ds, ds))
        envs = rng.normal(size=(3, de, de)) + 1j * rng.normal(size=(3, de, de))
        vs = np.array([models.flatten_state(m, x) for x in xs])
        cases = [
            (models.flatten_state(m, xs), vs),
            (models.unflatten_state(m, vs),
             [models.unflatten_state(m, v) for v in vs]),
            (models.state_trace(m, xs), [models.state_trace(m, x) for x in xs]),
            (models.sys_marginal(m, xs), [models.sys_marginal(m, x) for x in xs]),
            (models.env_marginal(m, xs), [models.env_marginal(m, x) for x in xs]),
            (models.env_after_projection(m, xs, ket),
             [models.env_after_projection(m, x, ket) for x in xs]),
            (models.product_with_env(m, syss, envs),
             [models.product_with_env(m, a, e) for a, e in zip(syss, envs)]),
            # one factor shared across the leading axis
            (models.product_with_env(m, syss[0], envs),
             [models.product_with_env(m, syss[0], e) for e in envs]),
        ]
        for got, want in cases:
            assert np.array_equal(got, np.array(want))

    def test_stacked_ops_are_complex_linear(self):
        # the stacked environment marginals used to keep only real parts
        rng = np.random.default_rng(27)
        m = random_stochastic_env(rng, nc=3)
        x = self._operator(rng, m, True)
        ket = np.array([0.6, 0.8j])
        for op in (lambda s: models.env_marginal(m, s),
                   lambda s: models.env_after_projection(m, s, ket)):
            assert np.abs(op(x).imag).max() > 0.1
            assert np.abs(op(1j * x) - 1j * op(x)).max() < 1e-14
        env = np.diag([1.0 + 2.0j, 0.5j, -1.0])
        prod = models.product_with_env(m, np.eye(2), env)
        assert np.array_equal(prod, np.array([z * np.eye(2) for z in np.diag(env)]))

    def test_classical_env_rejects_coherences(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0 = np.eye(2, dtype=complex) / 2
        env = np.full((4, 4), 0.25, dtype=complex)
        with pytest.raises(InvariantViolation):
            models.initial_state(m, rho0, env)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("env", [
        pytest.param([0.25, 0.25, 0.25, 0.25 + 5e-11], id="sum-off-by-5e-11"),
        pytest.param([0.5, 0.5, 1e-13, -1e-13], id="negative"),
        pytest.param([0.5, 0.5, 0.0, np.nan], id="nan"),
        pytest.param([0.5, 0.5], id="too-few"),
        pytest.param(np.full((4, 2), 0.25), id="non-square"),
        pytest.param(np.diag([0.25] * 4) + np.diag([np.nan] * 3, 1),
                     id="nan-coherence"),
    ])
    def test_classical_env_populations_are_probabilities(self, env):
        # the same check, and tolerance, as the model's own populations0
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0 = np.eye(2, dtype=complex) / 2
        with pytest.raises(InvariantViolation):
            models.initial_state(m, rho0, np.asarray(env))
        if np.ndim(env) == 1 and len(env) == 4:
            with pytest.raises(InvariantViolation):
                DepolarizingModel(gamma=1.0, phi=1.0, populations0=env)

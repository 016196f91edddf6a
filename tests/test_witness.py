import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qflow import models, witness
from qflow.evolve import TimeGrid, propagate_interval, trace_distance_factor
from qflow.models import (
    DepolarizingModel,
    UnitaryModel,
    commuting_interaction_preset,
    exchange_preset,
    random_classical_mixture,
    random_quantum_bystander,
    random_stochastic_env,
    random_unitary_model,
)
from qflow.qcore import (
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    kron,
    projector,
    random_density_matrix,
)
from qflow.witness import (
    MeasurementSpec,
    RandomSchemePolicy,
    cpf_correlation,
    cpf_equal_times,
    cpf_grid,
    cpf_joint_deterministic,
    cpf_joint_random,
    markov_factorization_gap,
    random_measurement,
    random_policy,
    reference_measurements,
    tilted_measurement,
    trace_distance_bound,
    trace_distance_series,
)

seeds = st.integers(0, 2**32 - 1)


def closed_form_balanced(t, tau):
    et, eu = np.exp(-t), np.exp(-tau)
    return (4.0 / 81.0) * (1 - et) * (1 - eu) * (2 + et + eu + 5 * et * eu)


class TestMeasurementSpec:
    def test_z_basis(self):
        z = MeasurementSpec.z_basis()
        assert z.n_outcomes == 2
        assert list(z.outcomes) == [1.0, -1.0]

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvariantViolation):
            MeasurementSpec(vectors=np.array([[1.0, 1.0], [0.0, 0.0]]),
                            outcomes=(1.0, -1.0))

    def test_rejects_outcome_mismatch(self):
        with pytest.raises(InvariantViolation):
            MeasurementSpec(vectors=np.eye(2), outcomes=(1.0,))

    def test_policy_rows_must_normalize(self):
        with pytest.raises(InvariantViolation):
            RandomSchemePolicy(np.array([[0.5, 0.6], [0.5, 0.5]]))


class TestTraceDistanceSeries:
    def test_identical_preparations(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho = np.eye(2, dtype=complex) / 2
        trace = trace_distance_series(m, rho, rho, grid=TimeGrid.regular(1.0, 0.1))
        assert np.abs(trace.values).max() < 1e-14

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_static_depolarizing_factorizes(self, seed):
        rng = np.random.default_rng(seed)
        phi = float(rng.uniform(0.3, 3.0))
        m = DepolarizingModel(gamma=1.0, phi=phi)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 2)
        grid = TimeGrid.regular(4.0, 0.05)
        trace = trace_distance_series(m, rho, sig, grid=grid)
        want = trace_distance_factor(1.0, phi, grid.times) * trace.values[0]
        assert np.abs(trace.values - want).max() < 1e-8
        assert not trace.has_revival()

    def test_revival_flag_semantics(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        up = np.diag([1.0, 0.0]).astype(complex)
        down = np.diag([0.0, 1.0]).astype(complex)
        trace = trace_distance_series(m, up, down, grid=TimeGrid.regular(2.0, 0.1))
        assert trace.revivals.dtype == bool
        assert not trace.revivals[-1]


class TestTraceDistanceBound:
    def test_stationary_bystander_env_term_vanishes(self):
        m = DepolarizingModel(gamma=1.0, phi=0.7)  # stationary populations
        rng = np.random.default_rng(0)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 2)
        b = trace_distance_bound(m, rho, sig, None, 0.9, 0.4)
        assert b.env_term < 1e-9
        assert b.slack > -1e-9

    @pytest.mark.parametrize("rate", [1e10, 1e100])
    def test_drifting_propagator_raises_in_both_witnesses(self, rate):
        # the exponential of stiff rates at a gap of 0.25 loses the trace
        # (at 1e100 it is the zero matrix); the bound and the series both
        # check the propagated states and name the drifting time
        m = DepolarizingModel(gamma=rate, phi=rate)
        up, down = projector([1.0, 0.0]), projector([0.0, 1.0])
        with pytest.raises(NumericalDriftError, match=r"at t=0\.25 exceeds"):
            trace_distance_bound(m, up, down, None, 0.25, 0.25)
        with pytest.raises(NumericalDriftError, match=r"at t=0\.25 exceeds"):
            trace_distance_series(m, up, down, grid=TimeGrid.regular(0.5, 0.25))

    def test_one_stepper_per_bound(self, monkeypatch):
        # both endpoints are stepped by one stepper: one generator assembly
        calls = []
        assemble = models.assemble_generator

        def counting(model, t=0.0, blocks=False):
            calls.append(t)
            return assemble(model, t, blocks)

        monkeypatch.setattr(models, "assemble_generator", counting)
        m = random_stochastic_env(np.random.default_rng(3), nc=3)
        up, down = projector([1.0, 0.0]), projector([0.0, 1.0])
        trace_distance_bound(m, up, down, None, 0.6, 0.3)
        assert len(calls) == 1

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_slack_nonnegative_random_unitary(self, seed):
        rng = np.random.default_rng(seed)
        m = random_unitary_model(rng)
        rho = random_density_matrix(rng, 2, pure=True)
        sig = random_density_matrix(rng, 2)
        t = float(rng.uniform(0.1, 2.0))
        tau = float(rng.uniform(0.1, 2.0))
        b = trace_distance_bound(m, rho, sig, m.env0, t, tau)
        assert b.slack > -1e-9


class TestJointTensors:
    def test_cpf_vanishes_at_t_zero(self):
        rho0s, specs = reference_measurements()
        for m in (DepolarizingModel(gamma=1.0, phi=1.0), exchange_preset()):
            p = cpf_joint_deterministic(m, rho0s, None, specs, 0.0, 0.9)
            assert np.nanmax(np.abs(cpf_correlation(p, specs))) < 1e-10

    def test_commuting_trivial_dynamics_gives_zero(self):
        m = UnitaryModel(hs=np.zeros((2, 2)), he=np.zeros((2, 2)),
                         hi=np.zeros((4, 4)), env0=np.eye(2) / 2)
        rho0s, specs = reference_measurements()
        p = cpf_joint_deterministic(m, rho0s, None, specs, 1.0, 1.0)
        assert np.nanmax(np.abs(cpf_correlation(p, specs))) < 1e-10

    def test_balanced_rates_closed_form(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        for t, tau in ((0.4, 0.9), (1.0, 1.0), (2.5, 0.3)):
            p = cpf_joint_deterministic(m, rho0s, None, specs, t, tau)
            got = cpf_correlation(p, specs)
            assert np.abs(got - closed_form_balanced(t, tau)).max() < 1e-10

    def test_conditional_symmetry(self):
        m = DepolarizingModel(gamma=1.0, phi=2.0)
        rho0s, specs = reference_measurements()
        p = cpf_joint_deterministic(m, rho0s, None, specs, 0.8, 1.2)
        c = cpf_correlation(p, specs)
        assert abs(c[0] - c[1]) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_tensors_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        choice = seed % 3
        if choice == 0:
            m = random_classical_mixture(rng, nc=2)
        elif choice == 1:
            m = random_stochastic_env(rng, nc=2)
        else:
            m = random_quantum_bystander(rng, de=2)
        spec = random_measurement(rng)
        prep = random_density_matrix(rng, 2)
        for scheme in ("d", "r"):
            res = cpf_grid(m, prep, None, (spec, spec, spec),
                           [0.6], [0.8], scheme=scheme,
                           policy=random_policy(rng, 2, 2))
            p = res.tensors[0, 0]
            assert p.min() > -1e-12
            assert abs(p.sum() - 1.0) < 1e-9


class TestSchemeSignatures:
    @settings(max_examples=12, deadline=None)
    @given(seeds)
    def test_bystander_random_scheme_null(self, seed):
        # the random-scheme correlation vanishes identically for every
        # bystander instance; the deterministic response rate is a
        # statistical claim and lives in the acceptance suite
        rng = np.random.default_rng(seed)
        choice = seed % 3
        if choice == 0:
            m = random_classical_mixture(rng, nc=int(rng.integers(2, 4)))
        elif choice == 1:
            m = random_stochastic_env(rng, nc=int(rng.integers(2, 4)))
        else:
            m = random_quantum_bystander(rng, de=int(rng.integers(2, 4)))
        spec = random_measurement(rng)
        prep = random_density_matrix(rng, 2, pure=True)
        pol = random_policy(rng, 2, 2)
        specs = (spec, spec, spec)
        res_r = cpf_grid(m, prep, None, specs, [0.7, 1.7], [0.9], "r", pol)
        assert res_r.max_abs() < 1e-10

    def test_bystander_deterministic_response_known_seeds(self):
        for seed in (0, 1, 2, 3, 4, 5):
            rng = np.random.default_rng(seed)
            m = (random_classical_mixture(rng, nc=2),
                 random_stochastic_env(rng, nc=2),
                 random_quantum_bystander(rng, de=2))[seed % 3]
            spec = random_measurement(rng)
            prep = random_density_matrix(rng, 2, pure=True)
            res_d = cpf_grid(m, prep, None, (spec, spec, spec),
                             [0.4, 1.1, 2.3], [0.5, 1.3], "d")
            assert res_d.max_abs() > 1e-6

    def test_exchange_model_bidirectional(self):
        m = exchange_preset()
        rho0s, specs = reference_measurements()
        pd = cpf_joint_deterministic(m, rho0s, m.env0, specs, 1.0, 1.0)
        pr = cpf_joint_random(m, rho0s, m.env0, specs, None, 1.0, 1.0)
        assert np.nanmax(np.abs(cpf_correlation(pd, specs))) > 1e-3
        assert np.nanmax(np.abs(cpf_correlation(pr, specs))) > 1e-3

    def test_commuting_exception_one_sided(self):
        m = commuting_interaction_preset()
        spec = tilted_measurement(np.pi / 3)
        specs = (spec, spec, spec)
        rho0s, _ = reference_measurements()
        pd = cpf_joint_deterministic(m, rho0s, m.env0, specs, 1.0, 1.0)
        pr = cpf_joint_random(m, rho0s, m.env0, specs, None, 1.0, 1.0)
        assert np.nanmax(np.abs(cpf_correlation(pd, specs))) > 1e-6
        assert np.nanmax(np.abs(cpf_correlation(pr, specs))) < 1e-10


class TestCpfCorrelation:
    def test_product_tensor_gives_zero(self):
        rng = np.random.default_rng(1)
        pz = rng.uniform(size=2)
        pz /= pz.sum()
        py = rng.uniform(size=2)
        py /= py.sum()
        px = rng.uniform(size=2)
        px /= px.sum()
        tensor = np.einsum("z,y,x->zyx", pz, py, px)
        _, specs = reference_measurements()
        c = cpf_correlation(tensor, specs)
        assert np.abs(c).max() < 1e-15

    def test_frozen_balanced_values(self):
        # closed-form evaluations frozen from the analytic expression
        assert closed_form_balanced(1.0, 1.0) == pytest.approx(0.06733474641, abs=1e-10)
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        p = cpf_joint_deterministic(m, rho0s, None, specs, 1.0, 1.0)
        c = cpf_correlation(p, specs)
        assert c[0] == pytest.approx(0.06733474641, abs=1e-10)
        p = cpf_joint_deterministic(m, rho0s, None, specs, 20.0, 20.0)
        c = cpf_correlation(p, specs)
        assert c[0] == pytest.approx(8.0 / 81.0, abs=1e-3)

    def test_undefined_conditional_reported_as_nan(self):
        tensor = np.zeros((2, 2, 2))
        tensor[:, 0, :] = 0.25  # all mass on the first conditional
        _, specs = reference_measurements()
        c = cpf_correlation(tensor, specs)
        assert not np.isnan(c[0])
        assert np.isnan(c[1])


class TestMarkovGap:
    def test_born_markov_factorizes(self):
        rng = np.random.default_rng(2)
        m = models.born_markov_model(models.random_lindblad_generator(rng, 2),
                                     random_density_matrix(rng, 2))
        rho0s, specs = reference_measurements()
        p = cpf_joint_deterministic(m, rho0s, None, specs, 0.7, 0.5)
        assert markov_factorization_gap(p) < 1e-10

    def test_classical_mixture_deterministic_gap_positive(self):
        rng = np.random.default_rng(3)
        m = random_classical_mixture(rng, nc=2)
        rho0s, specs = reference_measurements()
        p = cpf_joint_deterministic(m, rho0s, None, specs, 1.0, 1.0)
        assert markov_factorization_gap(p) > 1e-6

    def test_random_scheme_bystander_gap_vanishes(self):
        rng = np.random.default_rng(4)
        m = random_stochastic_env(rng, nc=3)
        rho0s, specs = reference_measurements()
        p = cpf_joint_random(m, rho0s, None, specs, None, 1.0, 1.0)
        assert markov_factorization_gap(p) < 1e-10


# Every CPF entry point goes through one validation: an unknown scheme, a
# policy whose shape is not (nx, ny) and a negative, infinite or NaN time
# are configuration errors, raised before any propagation.  The
# trace-distance entry points reject the same times, on static and on
# modulated models alike.
_POL33 = RandomSchemePolicy.uniform(3, 3)
_POL23 = RandomSchemePolicy.uniform(2, 3)
_DOWN = np.diag([0.0, 1.0])
_MODULATED = DepolarizingModel(gamma=1.0, phi=1.0,
                               modulation=models.sine_modulation(0.3, 0.2))
NON_FINITE_TIME_CALLS = (
    ("series-inf-t", lambda m, r, s: trace_distance_series(
        m, r, _DOWN, grid=TimeGrid(times=[0.0, np.inf], step=0.1))),
    ("bound-inf-t", lambda m, r, s: trace_distance_bound(m, r, _DOWN, None,
                                                         np.inf, 0.5)),
    ("bound-inf-tau", lambda m, r, s: trace_distance_bound(m, r, _DOWN, None,
                                                           0.5, np.inf)),
    ("bound-overflowing-sum", lambda m, r, s: trace_distance_bound(
        m, r, _DOWN, None, 1e308, 1e308)),
    ("bound-nan-t", lambda m, r, s: trace_distance_bound(m, r, _DOWN, None,
                                                         np.nan, 0.5)),
    ("bound-nan-tau", lambda m, r, s: trace_distance_bound(m, r, _DOWN, None,
                                                           0.5, np.nan)),
    ("grid-inf-t", lambda m, r, s: cpf_grid(m, r, None, s, [np.inf], [0.4])),
    ("grid-inf-tau", lambda m, r, s: cpf_grid(m, r, None, s, [0.5], [np.inf])),
    ("equal-inf-t", lambda m, r, s: cpf_equal_times(m, r, None, s,
                                                    [0.0, np.inf])),
    ("random-inf-tau", lambda m, r, s: cpf_joint_random(m, r, None, s, None,
                                                        0.5, np.inf)),
)
BAD_CALLS = [pytest.param(call, id=name) for name, call in (
    ("grid-scheme", lambda m, r, s: cpf_grid(m, r, None, s, [0.5], [0.4], "x")),
    ("equal-scheme", lambda m, r, s: cpf_equal_times(m, r, None, s, [0.5], "x")),
    ("grid-policy-3x3", lambda m, r, s: cpf_grid(m, r, None, s, [0.5], [0.4],
                                                 "r", _POL33)),
    ("grid-policy-2x3", lambda m, r, s: cpf_grid(m, r, None, s, [0.5], [0.4],
                                                 "r", _POL23)),
    ("equal-policy-3x3", lambda m, r, s: cpf_equal_times(m, r, None, s, [0.5],
                                                         "r", _POL33)),
    ("equal-policy-2x3", lambda m, r, s: cpf_equal_times(m, r, None, s, [0.5],
                                                         "r", _POL23)),
    ("random-policy-3x3", lambda m, r, s: cpf_joint_random(m, r, None, s, _POL33,
                                                           0.5, 0.5)),
    ("random-policy-2x3", lambda m, r, s: cpf_joint_random(m, r, None, s, _POL23,
                                                           0.5, 0.5)),
    ("grid-negative-t", lambda m, r, s: cpf_grid(m, r, None, s, [-0.5, 0.5], [0.4])),
    ("grid-negative-tau", lambda m, r, s: cpf_grid(m, r, None, s, [0.5], [-0.4, 0.4])),
    ("grid-nan-t", lambda m, r, s: cpf_grid(m, r, None, s, [np.nan], [0.4])),
    ("equal-negative-t", lambda m, r, s: cpf_equal_times(m, r, None, s,
                                                         [-0.5, 0.0, 0.5])),
    ("deterministic-negative-t", lambda m, r, s: cpf_joint_deterministic(
        m, r, None, s, -0.5, 0.5)),
    ("deterministic-negative-tau", lambda m, r, s: cpf_joint_deterministic(
        m, r, None, s, 0.5, -0.5)),
    ("deterministic-nan-tau", lambda m, r, s: cpf_joint_deterministic(
        m, r, None, s, 0.5, np.nan)),
    ("random-negative-t", lambda m, r, s: cpf_joint_random(m, r, None, s, None,
                                                           -0.5, 0.5)),
    ("random-negative-tau", lambda m, r, s: cpf_joint_random(m, r, None, s, None,
                                                             0.5, -0.5)),
) + NON_FINITE_TIME_CALLS] + [
    pytest.param(lambda m, r, s, call=call: call(_MODULATED, r, s),
                 id=f"modulated-{name}")
    for name, call in NON_FINITE_TIME_CALLS]


class TestGridEvaluators:
    def test_grid_matches_single_point(self):
        m = DepolarizingModel(gamma=1.0, phi=0.5)
        rho0s, specs = reference_measurements()
        res = cpf_grid(m, rho0s, None, specs, [0.5, 1.0], [0.4, 1.1], "d")
        for it, t in enumerate(res.ts):
            for itau, tau in enumerate(res.taus):
                p = cpf_joint_deterministic(m, rho0s, None, specs, t, tau)
                assert np.abs(res.tensors[it, itau] - p).max() < 1e-12

    def test_equal_times_matches_grid_diagonal(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        ts = np.arange(0.0, 1.61, 0.4)
        res = cpf_equal_times(m, rho0s, None, specs, ts)
        for it, t in enumerate(ts):
            if t == 0.0:
                continue
            p = cpf_joint_deterministic(m, rho0s, None, specs, t, t)
            assert np.abs(res.tensors[it, 0] - p).max() < 1e-12

    def test_equal_times_on_a_non_uniform_diagonal(self):
        m = DepolarizingModel(gamma=1.0, phi=0.5)
        rho0s, specs = reference_measurements()
        ts = np.array([0.1, 0.3, 0.35, 1.2, 2.0])
        res = cpf_equal_times(m, rho0s, None, specs, ts)
        for it, t in enumerate(ts):
            p = cpf_grid(m, rho0s, None, specs, [t], [t]).tensors[0, 0]
            assert np.abs(res.tensors[it, 0] - p).max() < 1e-13

    def test_rejects_decreasing_grids(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        with pytest.raises(InvariantViolation):
            cpf_grid(m, rho0s, None, specs, [1.0, 0.5], [0.4], "d")
        with pytest.raises(InvariantViolation):
            cpf_equal_times(m, rho0s, None, specs, [1.0, 0.5])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", BAD_CALLS)
    def test_every_entry_point_rejects_bad_configuration(self, call):
        m = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        with pytest.raises(InvariantViolation):
            call(m, rho0s, specs)

    @pytest.mark.parametrize("make", [
        lambda: DepolarizingModel(gamma=1.0, phi=1.0),
        lambda: DepolarizingModel(gamma=1.0, phi=1.0, omega=0.5),
        exchange_preset,
    ], ids=["stacked", "driven", "unitary"])
    def test_states_of_the_wrong_dimension_name_both(self, make):
        # a qutrit state or measurement on a qubit model
        m, grid = make(), TimeGrid.regular(0.5, 0.25)
        rho0s, specs = reference_measurements()
        qutrit = np.eye(3, dtype=complex) / 3
        with pytest.raises(InvariantViolation, match="system state has "
                           "dimension 3, but the model's system has dimension 2"):
            trace_distance_series(m, qutrit, rho0s, grid=grid)
        with pytest.raises(InvariantViolation, match="preparation has "
                           "dimension 3, but the model's system has dimension 2"):
            cpf_grid(m, qutrit, None, specs, [0.5], [0.5])
        z3 = MeasurementSpec(vectors=np.eye(3), outcomes=(1.0, 0.0, -1.0))
        for i in range(3):
            wrong = specs[:i] + (z3,) + specs[i + 1:]
            with pytest.raises(InvariantViolation, match="measurement has "
                               "dimension 3, but the model's system has "
                               "dimension 2"):
                cpf_grid(m, rho0s, None, wrong, [0.5], [0.5])

    def test_full_environment_state_of_the_wrong_dimension(self):
        m = exchange_preset()
        rho0s, _ = reference_measurements()
        with pytest.raises(InvariantViolation, match="environment state has "
                           "dimension 3, but the model's environment has "
                           "dimension 2"):
            trace_distance_series(m, rho0s, projector(np.array([0, 1.0])),
                                  np.eye(3) / 3, grid=TimeGrid.regular(0.5, 0.25))

    def test_modulated_model_uses_anchored_propagation(self):
        b = models.sine_modulation(0.3, 0.2)  # fast enough to matter
        m = DepolarizingModel(gamma=1.0, phi=1.0, modulation=b)
        m_static = DepolarizingModel(gamma=1.0, phi=1.0)
        rho0s, specs = reference_measurements()
        p_mod = cpf_joint_deterministic(m, rho0s, None, specs, 2.0, 1.0)
        p_static = cpf_joint_deterministic(m_static, rho0s, None, specs, 2.0, 1.0)
        assert np.abs(p_mod.sum() - 1.0) < 1e-9
        # the modulation visibly changes the joint statistics
        assert np.abs(p_mod - p_static).max() > 1e-4


# Independent reference for the CPF engine: exact propagators from
# scipy.linalg.expm of the assembled generator, and the measurement chain
# written out per block (stacked states) or with kron and partial traces
# (full states).  The bases are complex, so a readout or relay that keeps
# only a real-linear part of the state would fail.
REFERENCE_MODELS = [pytest.param(make, id=name) for name, make in (
    ("classical_mixture", lambda rng: random_classical_mixture(rng, nc=3)),
    ("stochastic_env", lambda rng: random_stochastic_env(rng, nc=3)),
    ("quantum_bystander", lambda rng: random_quantum_bystander(rng, de=3)),
    ("unitary", lambda rng: random_unitary_model(rng, de=3)),
    ("depolarizing", lambda rng: DepolarizingModel(gamma=1.0, phi=0.6)),
    ("depolarizing_driven", lambda rng: DepolarizingModel(gamma=1.0, phi=0.6,
                                                          omega=1.3)),
)]


def _reference_cpf(m, rho0s, specs, ts, taus, scheme, policy):
    """P[t, tau, z, y, x] of the three-measurement chain, state by state."""
    gen = models.assemble_generator(m)
    ds, de = m.ds, m.env_dim
    stacked = isinstance(m, (models.ClassicalMixtureModel,
                             models.StochasticEnvModel)) or (
        isinstance(m, DepolarizingModel) and m.omega == 0.0)

    def evolve(state, dt):
        prop = scipy.linalg.expm(gen * dt)
        if stacked:
            v = prop @ np.concatenate([b.flatten(order="F") for b in state])
            return [v[c * ds * ds:(c + 1) * ds * ds].reshape(ds, ds, order="F")
                    for c in range(de)]
        return (prop @ state.flatten(order="F")).reshape(ds * de, ds * de,
                                                         order="F")

    def env_part(state):
        return np.einsum("abad->bd", state.reshape(ds, de, ds, de))

    if stacked:
        pops = (m.weights if isinstance(m, models.ClassicalMixtureModel)
                else m.populations0)
    else:
        env0 = (np.diag(m.populations0).astype(complex)
                if isinstance(m, DepolarizingModel) else m.env0)
    kets = [spec.vectors.T for spec in specs]
    n = [spec.n_outcomes for spec in specs]
    out = np.empty((len(ts), len(taus), n[2], n[1], n[0]))
    for ix, kx in enumerate(kets[0]):
        px = float((kx.conj() @ rho0s @ kx).real)
        pi_x = np.outer(kx, kx.conj())
        start = ([p * pi_x for p in pops] if stacked
                 else np.kron(pi_x, env0))
        for it, t in enumerate(ts):
            state_t = evolve(start, t)
            for iy, ky in enumerate(kets[1]):
                pi_y = np.outer(ky, ky.conj())
                w = 1.0 if scheme == "d" else policy.matrix[ix, iy]
                if stacked and scheme == "d":
                    relay = [(ky.conj() @ b @ ky).real * pi_y for b in state_t]
                elif stacked:
                    relay = [np.trace(b).real * pi_y for b in state_t]
                elif scheme == "d":
                    lift = np.kron(pi_y, np.eye(de))
                    relay = np.kron(pi_y, env_part(lift @ state_t @ lift))
                else:
                    relay = np.kron(pi_y, env_part(state_t))
                for itau, tau in enumerate(taus):
                    final = evolve(relay, tau)
                    for iz, kz in enumerate(kets[2]):
                        if stacked:
                            val = sum((kz.conj() @ b @ kz).real for b in final)
                        else:
                            lift = np.kron(np.outer(kz, kz.conj()), np.eye(de))
                            val = np.trace(lift @ final).real
                        out[it, itau, iz, iy, ix] = px * w * val
    return out


class TestCpfReference:
    @pytest.mark.parametrize("make", REFERENCE_MODELS)
    @pytest.mark.parametrize("scheme", ["d", "r"])
    def test_grid_matches_independent_reference(self, make, scheme):
        rng = np.random.default_rng(2024)
        m = make(rng)
        specs = tuple(random_measurement(rng) for _ in range(3))
        policy = random_policy(rng, 2, 2)
        rho0s = random_density_matrix(rng, 2)
        ts, taus = [0.0, 0.35, 1.2], [0.25, 0.8]
        res = cpf_grid(m, rho0s, None, specs, ts, taus, scheme=scheme,
                       policy=policy)
        want = _reference_cpf(m, rho0s, specs, ts, taus, scheme, policy)
        assert np.abs(res.tensors - want).max() < 1e-12


# Per-point reference for the whole-grid engine: every (t, tau) propagated
# on its own with propagate_interval and read with the state ops.  The grid
# is not uniform and its taus repeat across t, and the modulated model takes
# the RK4 path, where each t's relays are stepped.
ENGINE_MODELS = REFERENCE_MODELS + [pytest.param(
    lambda rng: DepolarizingModel(gamma=1.0, phi=0.6,
                                  modulation=models.sine_modulation(0.4, 0.7)),
    id="depolarizing_modulated")]
ENGINE_STEP = 0.05


def _per_point_cpf(m, rho0s, specs, ts, taus_of, scheme, policy):
    """P[t, tau, z, y, x], one propagation per point."""
    spec_x, spec_y, spec_z = specs
    out = np.empty((len(ts), len(taus_of[0]), spec_z.n_outcomes,
                    spec_y.n_outcomes, spec_x.n_outcomes))
    for ix in range(spec_x.n_outcomes):
        kx = spec_x.ket(ix)
        px = (kx.conj() @ rho0s @ kx).real
        start = models.initial_state(m, projector(kx))
        for it, t in enumerate(ts):
            state = propagate_interval(m, start, 0.0, t, ENGINE_STEP)
            for iy in range(spec_y.n_outcomes):
                env = (models.env_after_projection(m, state, spec_y.ket(iy))
                       if scheme == "d" else models.env_marginal(m, state))
                relay = models.product_with_env(m, spec_y.projector(iy), env)
                w = 1.0 if scheme == "d" else policy.matrix[ix, iy]
                for itau, tau in enumerate(taus_of[it]):
                    final = propagate_interval(m, relay, t, t + tau, ENGINE_STEP)
                    sys = models.sys_marginal(m, final)
                    for iz in range(spec_z.n_outcomes):
                        kz = spec_z.ket(iz)
                        out[it, itau, iz, iy, ix] = px * w * (
                            kz.conj() @ sys @ kz).real
    return out


class TestWholeGridEngine:
    @staticmethod
    def _inputs(make):
        rng = np.random.default_rng(77)
        m = make(rng)
        specs = tuple(random_measurement(rng) for _ in range(3))
        return m, random_density_matrix(rng, 2), specs, random_policy(rng, 2, 2)

    @pytest.mark.parametrize("make", ENGINE_MODELS)
    @pytest.mark.parametrize("scheme", ["d", "r"])
    def test_product_grid_matches_per_point(self, make, scheme):
        m, rho0s, specs, policy = self._inputs(make)
        ts, taus = [0.0, 0.3, 0.45, 1.1], [0.0, 0.3, 0.75]
        res = cpf_grid(m, rho0s, None, specs, ts, taus, scheme=scheme,
                       policy=policy, step=ENGINE_STEP)
        want = _per_point_cpf(m, rho0s, specs, ts, [taus] * len(ts), scheme,
                              policy)
        assert np.abs(res.tensors - want).max() < 1e-12

    @pytest.mark.parametrize("make", [ENGINE_MODELS[1], ENGINE_MODELS[-1]])
    def test_blocks_of_one_time_agree(self, make, monkeypatch):
        # a block per t exercises the offsets of every block after the first
        m, rho0s, specs, policy = self._inputs(make)
        ts, taus, diagonal = [0.0, 0.3, 0.45, 1.1], [0.0, 0.3, 0.75], [0.2, 0.4]

        def both():
            return [cpf_grid(m, rho0s, None, specs, ts, taus, step=ENGINE_STEP),
                    cpf_equal_times(m, rho0s, None, specs, diagonal,
                                    step=ENGINE_STEP)]

        whole = both()
        monkeypatch.setattr(witness, "_CPF_BLOCK_ENTRIES", 1)
        split = both()
        for a, b in zip(whole, split):
            assert np.abs(a.tensors - b.tensors).max() < 1e-15

    @pytest.mark.parametrize("make", ENGINE_MODELS)
    @pytest.mark.parametrize("scheme", ["d", "r"])
    def test_equal_times_match_per_point(self, make, scheme):
        m, rho0s, specs, policy = self._inputs(make)
        ts = np.arange(5) * 0.25
        res = cpf_equal_times(m, rho0s, None, specs, ts, scheme=scheme,
                              policy=policy, step=ENGINE_STEP)
        want = _per_point_cpf(m, rho0s, specs, ts, ts[:, None], scheme, policy)
        assert np.abs(res.tensors - want).max() < 1e-12
        # the correlations of the whole grid come from one batched call
        single = [cpf_correlation(p, specs) for p in res.tensors[:, 0]]
        assert np.allclose(res.values[:, :, 0].T, single, rtol=0, atol=1e-15,
                           equal_nan=True)

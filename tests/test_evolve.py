import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflow import cli, evolve, models, witness
from qflow.evolve import (
    ChannelCoefficients,
    PropagatorCache,
    TimeGrid,
    adiabatic_weight,
    coherent_weight_series,
    default_step,
    depolarizing_weight,
    propagate,
    propagate_interval,
    solve_channel_coefficients,
    stationary_populations,
    stationary_populations_vector,
    stepping_cache,
    trace_distance_factor,
)
from qflow.models import (
    DepolarizingModel,
    commuting_interaction_preset,
    exchange_preset,
    random_classical_mixture,
    random_quantum_bystander,
    random_stochastic_env,
    random_unitary_model,
    sine_modulation,
)
from qflow.qcore import (
    InvariantViolation,
    NumericalDriftError,
    PAULI_OPS,
    gathered,
    matrix_exp,
    random_density_matrix,
)

seeds = st.integers(0, 2**32 - 1)


class TestTimeGrid:
    def test_regular(self):
        g = TimeGrid.regular(1.0, 0.25)
        assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_regular_ends_at_or_before_t_max(self):
        # t_max within 1e-9 of a whole number of steps is the last time;
        # otherwise the last whole step before it is
        assert np.allclose(TimeGrid.regular(1.0, 0.3).times,
                           [0.0, 0.3, 0.6, 0.9])
        assert np.allclose(TimeGrid.regular(0.3, 0.1).times,
                           [0.0, 0.1, 0.2, 0.3])
        assert TimeGrid.regular(6.0, 0.01).times.size == 601
        assert TimeGrid.regular(0.05, 0.1).times.tolist() == [0.0]

    def test_rejects_decreasing(self):
        with pytest.raises(InvariantViolation):
            TimeGrid(times=np.array([0.0, 0.5, 0.4]), step=0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times", [
        pytest.param([0.0, np.nan, 1.0], id="nan-inside"),
        pytest.param([np.nan], id="nan"),
        pytest.param([0.0, np.inf], id="inf-last"),
        pytest.param([np.inf], id="inf"),
        pytest.param([-1.0, 0.0], id="negative"),
    ])
    def test_rejects_non_finite_or_negative_times(self, times):
        with pytest.raises(InvariantViolation):
            TimeGrid(times=np.array(times), step=0.1)

    def test_default_step(self):
        assert default_step(1.0, 4.0) == pytest.approx(0.0025)
        assert default_step(0.2) == pytest.approx(0.01)

    @pytest.mark.parametrize("t_max, step", [
        (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf),
        (np.nan, 0.1), (np.inf, 0.1), (-1.0, 0.1),
    ])
    def test_regular_rejects_bad_bounds(self, t_max, step):
        with pytest.raises(InvariantViolation):
            TimeGrid.regular(t_max, step)


class TestPropagatorCache:
    def test_semigroup(self):
        rng = np.random.default_rng(0)
        gen = models.random_lindblad_generator(rng, 2)
        cache = PropagatorCache(gen)
        lhs = cache.at(0.7 + 0.4)
        rhs = cache.at(0.7) @ cache.at(0.4)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_cache_hit_is_same_object(self):
        gen = np.zeros((4, 4))
        cache = PropagatorCache(gen)
        assert cache.at(0.5) is cache.at(0.5)

    # RK4 at step 1e-3 stays within 2e-10 of the exponential on these models
    RK4_STEP, RK4_TOL = 1e-3, 1e-8

    @pytest.mark.parametrize("de", [2, 3, 4, 6])
    def test_unitary_eigh_matches_superoperator_exponential(self, de):
        # every stepping form against the exponential of the assembled
        # generator: closed models in state space, a real generator, a
        # complex one (Hermitian basis) and RK4
        rng = np.random.default_rng(100 + de)
        forms = [(m, "auto", evolve._ClosedCache, 1e-12) for m in (
            random_unitary_model(rng, de=de), exchange_preset(),
            commuting_interaction_preset())]
        forms += [
            (DepolarizingModel(gamma=1.0, phi=0.5 * de), "auto",
             PropagatorCache, 1e-12),
            (random_stochastic_env(rng, nc=de), "auto", PropagatorCache, 1e-12),
            (random_stochastic_env(rng, nc=de), "rk4", evolve._RK4Stepper,
             self.RK4_TOL),
        ]
        assert not models.assemble_generator(forms[3][0]).imag.any()
        assert models.assemble_generator(forms[4][0]).imag.any()
        for m, kind, form, tol in forms:
            stepper = stepping_cache(m, kind, self.RK4_STEP)
            assert type(stepper) is form
            gen = models.assemble_generator(m)
            d = gen.shape[0]
            cols = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
            rows = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
            for dt in (0.05, 0.7, 2.0):
                want = matrix_exp(gen * dt)
                got = evolve.series(stepper, cols, [dt])[0]
                assert np.abs(got - want @ cols).max() < tol
                got = evolve.series(stepper, cols[:, 0], [dt])[0]
                assert np.abs(got - want @ cols[:, 0]).max() < tol
                if form is evolve._RK4Stepper:
                    assert not hasattr(stepper, "carry_rows")
                else:
                    got = witness._effects(rows, np.array([dt]), stepper)[0]
                    assert np.abs(got - rows @ want).max() < tol
            times = [0.5, 0.5, 0.55, 1.25, 1.95]  # gaps 0, 0.05, 0.7, 0.7
            got = evolve.series(stepper, cols, times, t0=0.5)
            assert got.shape == (len(times), d, 3)
            assert np.array_equal(got, _advanced(stepper, cols, times, t0=0.5))

    def test_zero_gap_copies_the_columns(self, monkeypatch):
        # every stepping form; RK4 assembles no generator for the gap
        rng = np.random.default_rng(17)
        forms = [
            (random_unitary_model(rng, de=3), evolve._ClosedCache),
            (random_stochastic_env(rng, nc=3), PropagatorCache),
            (DepolarizingModel(gamma=1.0, phi=0.7,
                               modulation=sine_modulation(0.5, 1.0)),
             evolve._RK4Stepper),
        ]
        calls = []
        assemble = models.assemble_generator

        def counting(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(models, "assemble_generator", counting)
        for m, form in forms:
            stepper = stepping_cache(m)
            assert type(stepper) is form
            cols = evolve._columns(m, models.initial_state(
                m, random_density_matrix(rng, 2)))
            calls.clear()
            got = evolve.series(stepper, cols, [0.7, 0.7], t0=0.7)
            assert np.array_equal(got[0], cols) and np.array_equal(got[1], cols)
            assert calls == []

    def test_empty_time_lists_keep_their_shapes(self):
        m = DepolarizingModel(gamma=1.0, phi=0.7)
        state0 = models.initial_state(m, np.diag([1.0, 0.0]))
        assert propagate(m, state0, TimeGrid(times=[], step=0.1)).shape == (
            0, 4, 2, 2)
        rho0s, specs = witness.reference_measurements()
        modulated = DepolarizingModel(gamma=1.0, phi=0.7,
                                      modulation=sine_modulation(0.5, 1.0))
        for model in (m, exchange_preset(), modulated):
            assert witness.cpf_grid(model, rho0s, None, specs, [],
                                    [0.5]).values.shape == (2, 0, 1)
            assert witness.cpf_grid(model, rho0s, None, specs, [0.5],
                                    []).values.shape == (2, 1, 0)

    COMPLEX_GENERATORS = [pytest.param(make, id=name) for name, make in (
        ("stochastic", lambda rng: random_stochastic_env(rng, nc=3)),
        ("stochastic-qutrit", lambda rng: random_stochastic_env(rng, ds=3, nc=2)),
        ("mixture", lambda rng: random_classical_mixture(rng, nc=3)),
        ("bystander", lambda rng: random_quantum_bystander(rng, de=3)),
        ("driven-depolarizing", lambda rng: DepolarizingModel(
            gamma=1.0, phi=0.7, omega=1.5)),
    )]

    @pytest.mark.parametrize("make", COMPLEX_GENERATORS)
    def test_complex_generators_are_exponentiated_in_real_arithmetic(
            self, make, monkeypatch):
        m = make(np.random.default_rng(41))
        gen = models.assemble_generator(m)
        assert gen.imag.any()
        args = []

        def recording(a):
            args.append(a)
            return matrix_exp(a)

        monkeypatch.setattr(evolve, "matrix_exp", recording)
        cache = stepping_cache(m)
        for dt in (0.05, 0.7, 2.0):
            err = np.abs(cache.at(dt) - matrix_exp(gen * dt)).max()
            assert err < 1e-13
        assert len(args) == 3
        assert all(np.isrealobj(a) for a in args)

    def test_real_generators_are_exponentiated_as_they_are(self):
        m = DepolarizingModel(gamma=1.0, phi=0.7)
        gen = models.assemble_generator(m)
        assert not gen.imag.any()
        cache = stepping_cache(m)
        for dt in (0.05, 0.7, 2.0):
            assert np.array_equal(cache.at(dt), matrix_exp(gen * dt))

    def test_other_models_cache_their_propagators(self):
        m = random_stochastic_env(np.random.default_rng(1), nc=3)
        cache = stepping_cache(m)
        assert cache.at(0.3) is cache.at(0.3)


class TestClosedModelsInStateSpace:
    @staticmethod
    def reference_series(m, rho, sigma, times):
        """System trace distances from an eigh of the total Hamiltonian,
        with every propagator and partial trace written out."""
        ds, de = m.ds, m.env_dim
        h = (np.kron(m.hs, np.eye(de)) + np.kron(np.eye(ds), m.he) + m.hi)
        energies, vecs = np.linalg.eigh(h)
        out = []
        for t in times:
            u = (vecs * np.exp(-1j * energies * t)) @ vecs.conj().T
            r, s = (u @ np.kron(x, m.env0) @ u.conj().T for x in (rho, sigma))
            diff = np.einsum("abcb->ac", (r - s).reshape(ds, de, ds, de))
            out.append(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
        return np.array(out)

    def test_large_environment_series_matches_eigh(self):
        # one (ds de)^2-square superoperator at de = 64 takes 4 GiB
        import tracemalloc
        rng = np.random.default_rng(64)
        m = random_unitary_model(rng, de=64)
        rho = random_density_matrix(rng, 2)
        sigma = random_density_matrix(rng, 2)
        grid = TimeGrid.regular(1.0, 0.05)
        rho0s, specs = witness.reference_measurements()
        tracemalloc.start()
        try:
            trace = witness.trace_distance_series(m, rho, sigma, grid=grid,
                                                  with_bound_terms=True)
            res = witness.cpf_grid(m, rho0s, None, specs, [0.25, 0.5],
                                   [0.25, 0.5], scheme="d")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = self.reference_series(m, rho, sigma, grid.times)
        assert np.abs(trace.values - want).max() < 1e-12
        assert res.tensors.shape == (2, 2, 2, 2, 2)
        assert peak < 2 ** 27  # 128 MiB


def _advanced(stepper, v, times, t0=0.0):
    """The columns v stepped through ``times`` one gap at a time, by a
    one-gap series per gap."""
    out = []
    for t in times:
        v = evolve.series(stepper, v, [t], t0)[0]
        out.append(v)
        t0 = t
    return np.array(out)


class TestRunStepping:
    """A run of gaps with one cache key takes about log2 of its length
    products of the squared propagator; it must agree with stepping gap by
    gap, through a one-gap series for state columns and one-tau effects
    for readout rows."""

    FORMS = [pytest.param(make, form, id=name) for name, make, form in (
        ("real-generator", lambda rng: DepolarizingModel(gamma=1.0, phi=0.7),
         PropagatorCache),
        ("hermitian-basis", lambda rng: random_stochastic_env(rng, nc=3),
         PropagatorCache),
        ("closed", lambda rng: random_unitary_model(rng, de=3),
         evolve._ClosedCache),
    )]

    @staticmethod
    def _inputs(make, form, batch=2):
        """A model, its stepper and a batch of its states."""
        rng = np.random.default_rng(31)
        m = make(rng)
        stepper = stepping_cache(m)
        assert type(stepper) is form
        states = np.array([models.initial_state(m, random_density_matrix(rng, 2))
                           for _ in range(batch)])
        return m, stepper, states

    def test_forms_cover_both_exponential_arithmetics(self):
        (real, _), (stochastic, _) = (p.values for p in self.FORMS[:2])
        rng = np.random.default_rng(31)
        assert not models.assemble_generator(real(rng)).imag.any()
        assert models.assemble_generator(stochastic(rng)).imag.any()

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []
        at = PropagatorCache.at

        def counting(cache, dt):
            calls.append(dt)
            return at(cache, dt)

        monkeypatch.setattr(PropagatorCache, "at", counting)
        return calls

    @staticmethod
    def _count_products(monkeypatch, form):
        calls = []
        stepped = form._stepped

        def counting(src, p, dst):
            calls.append(len(src))
            stepped(src, p, dst)

        monkeypatch.setattr(form, "_stepped", staticmethod(counting))
        return calls

    @pytest.mark.parametrize("make, form", FORMS)
    def test_uniform_run_matches_chained_advance(self, make, form, lookups,
                                                 monkeypatch):
        m, stepper, states = self._inputs(make, form)
        cols = evolve._columns(m, states)
        products = self._count_products(monkeypatch, form)
        times = np.arange(1, 601) * 0.01  # 600 gaps of one key
        got = evolve.series(stepper, cols, times)
        assert len(lookups) == 1
        assert sum(products) == 600 and len(products) <= 2 * np.log2(600)
        assert np.abs(got - _advanced(stepper, cols, times)).max() < 1e-12

    def test_large_propagator_steps_a_short_run_unsquared(self, monkeypatch):
        # squaring a 256 x 256 propagator costs far more than the three
        # product calls it would save on a run of four gaps; the propagator
        # is cached first, as a short run of an uncached gap takes the
        # Taylor action instead of an exponential
        gen = models.random_lindblad_generator(np.random.default_rng(6), 16)
        cols = np.random.default_rng(7).normal(size=(256, 2)) + 0j
        times = [0.1, 0.2, 0.3, 0.4]
        products = self._count_products(monkeypatch, PropagatorCache)
        acting = PropagatorCache(gen)
        acted = evolve.series(acting, cols, times)
        assert products == [] and acting._cache == {}
        stepper = PropagatorCache(gen)
        stepper.at(0.1)
        got = evolve.series(stepper, cols, times)
        assert products == [1, 1, 1, 1]
        assert np.abs(got - _advanced(stepper, cols, times)).max() < 1e-12
        assert np.abs(acted - got).max() < 1e-12

    @pytest.mark.parametrize("make, form", FORMS)
    def test_mixed_gaps_match_chained_advance(self, make, form, lookups):
        # from 0.5: a zero gap, three gaps of 0.1, four of 0.25, one of 0.7
        m, stepper, states = self._inputs(make, form)
        cols = evolve._columns(m, states)
        times = [0.5, 0.6, 0.7, 0.8, 1.05, 1.3, 1.55, 1.8, 2.5]
        got = evolve.series(stepper, cols, times, t0=0.5)
        assert len(lookups) == 3
        assert np.array_equal(got[0], cols)
        want = _advanced(stepper, cols, times, t0=0.5)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("make, form", FORMS)
    def test_effects_match_chained_carry(self, make, form, lookups):
        m, stepper, _ = self._inputs(make, form)
        projectors = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        rows = models.flatten_state(m, models.product_with_env(
            m, projectors, np.eye(m.env_dim))).conj()
        taus = np.arange(601) * 0.01  # a zero gap, then 600 of one key
        got = witness._effects(rows, taus[:, None], stepper)
        assert got.shape == (601, 1) + rows.shape
        assert len(lookups) == 1
        want, e = [rows], rows
        for gap in np.diff(taus):  # one-tau effects, chained
            e = witness._effects(e, np.array([gap]), stepper)[0]
            want.append(e)
        assert np.abs(got[:, 0] - np.array(want)).max() < 1e-12

    @pytest.mark.parametrize("make, form", FORMS[:2])
    def test_series_is_written_in_place(self, make, form):
        # a run writes its products into the series: beside it, propagate
        # holds only its two blocks of re-symmetrization temporaries and a
        # few D x D propagators, never a copy of a run
        import tracemalloc

        m, _, states = self._inputs(make, form, batch=8)
        d = evolve._columns(m, states).shape[0]
        grid = TimeGrid.regular(6.0, 0.01)
        propagate(m, states, grid)  # builds the cached basis of the layout
        tracemalloc.start()
        try:
            series = propagate(m, states, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.shape[0] == 601
        assert peak <= (series.nbytes + 2 * 16 * evolve._SERIES_BLOCK_ENTRIES
                        + 16 * 16 * d * d)


@pytest.fixture
def expm_calls(monkeypatch):
    """Count the exponentials the propagator caches compute."""
    calls = []

    def counting(m):
        calls.append(m.shape[0])
        return matrix_exp(m)

    monkeypatch.setattr(evolve, "matrix_exp", counting)
    return calls


class TestExponentialCount:
    def test_unitary_witnesses_skip_matrix_exp(self, expm_calls):
        m = exchange_preset()
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        grid = TimeGrid.regular(1.0, 0.25)
        witness.trace_distance_series(m, up, down, grid=grid,
                                      with_bound_terms=True)
        rho0s, specs = witness.reference_measurements()
        for scheme in ("d", "r"):
            witness.cpf_grid(m, rho0s, None, specs, grid.times, grid.times,
                             scheme=scheme)
        assert expm_calls == []

    def test_trace_distance_series_shares_one_cache(self, expm_calls):
        m = random_stochastic_env(np.random.default_rng(2), nc=3)
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        witness.trace_distance_series(m, up, down,
                                      grid=TimeGrid.regular(1.0, 0.25))
        assert len(expm_calls) == 1  # one gap, shared by both preparations

    def test_modulated_series_steps_the_pair_once(self, monkeypatch):
        # the two preparations are columns of one RK4 propagation, and each
        # substep's start, midpoint and end are assembled once, the end
        # being the next start: 2 n + 1 stage times per gap of n substeps,
        # against twice that if the pair were stepped separately
        calls = []
        assemble = models.assemble_generator

        def counting(model, t=0.0, blocks=False):
            calls.append(np.size(t))
            return assemble(model, t, blocks)

        monkeypatch.setattr(models, "assemble_generator", counting)
        m = DepolarizingModel(gamma=1.0, phi=1.0,
                              modulation=sine_modulation(0.3, 0.5))
        grid = TimeGrid(times=np.array([0.0, 0.5, 1.0]), step=0.1)
        witness.trace_distance_series(m, np.diag([1.0, 0.0]),
                                      np.diag([0.0, 1.0]), grid=grid)
        substeps = 5  # per gap of 0.5 at step 0.1
        assert sum(calls) == 2 * (2 * substeps + 1)


    def test_fig1b_makes_one_exponential_per_ratio(self, expm_calls, tmp_path):
        # the effects of every tau and the past states share one gap
        assert cli.main(["fig1b", "--phi-over-gamma", "0.3,1,3",
                         "--out", str(tmp_path / "fig1b.csv")]) == 0
        assert len(expm_calls) <= 3


def _ring(nc, real=False):
    """A stochastic environment whose labels hop to their ring neighbours:
    D = 4 nc.  With ``real``, no label Lindbladian and Pauli kicks, so that
    its generator is real."""
    rng = np.random.default_rng(nc)
    jumps = tuple(models.EnvJump(
        src=c, dst=(c + step) % nc, rate=float(rng.uniform(0.5, 1.5)),
        kraus=(PAULI_OPS[c % 3],) if real else models.random_cptp_kraus(rng, 2))
        for c in range(nc) for step in (1, -1))
    lindblads = tuple(np.zeros((4, 4)) if real
                      else models.random_lindblad_generator(rng, 2)
                      for _ in range(nc))
    return models.StochasticEnvModel(lindblads=lindblads, jumps=jumps,
                                     populations0=np.full(nc, 1.0 / nc))


class TestHermitianBasis:
    """The gathers of ``_hermitian_basis`` as dense matrices: T, conj(T),
    T^dag and T^T, in a stacked layout (nc blocks of ds x ds) and a full one
    (one N x N block)."""

    LAYOUTS = pytest.mark.parametrize("make", [
        pytest.param(lambda rng: random_stochastic_env(rng, nc=3), id="stacked"),
        pytest.param(lambda rng: random_quantum_bystander(rng, de=3), id="full"),
    ])

    @staticmethod
    def layout(m):
        ds, de = models.dims(m)
        return (de, ds) if models.uses_stacked(m) else (1, ds * de)

    @LAYOUTS
    def test_gathers_are_t_and_its_conjugates(self, make):
        m = make(np.random.default_rng(40))
        nblocks, b = self.layout(m)
        assert nblocks == (3 if models.uses_stacked(m) else 1)
        eye = np.eye(nblocks * b * b)
        t, conj, dag, tr = (gathered(eye, g)
                            for g in evolve._hermitian_basis(nblocks, b))
        assert np.abs(t @ t.conj().T - eye).max() <= 1e-15
        assert np.array_equal(conj, t.conj())
        assert np.array_equal(dag, t.conj().T)
        assert np.array_equal(tr, t.T)

    @LAYOUTS
    def test_generator_is_real_in_the_basis(self, make):
        m = make(np.random.default_rng(41))
        gen = models.assemble_generator(m)
        assert gen.imag.any()
        basis = evolve._hermitian_basis(*self.layout(m))
        t = gathered(np.eye(len(gen)), basis[0])
        dense = t @ gen @ t.conj().T
        scale = np.abs(gen).max()
        assert np.abs(dense.imag).max() <= 1e-14 * scale
        changed = evolve._conjugated(gen, *basis[:2])
        assert np.abs(changed - dense).max() <= 1e-14 * scale
        back = evolve._conjugated(changed.real, *basis[2:])
        assert np.abs(back - gen).max() <= 1e-14 * scale
        cache = PropagatorCache(gen, basis)
        assert np.array_equal(cache._exponent, changed.real)
        assert cache.at(0.3).flags.c_contiguous


class TestTaylorAction:
    """A short run of an uncached gap on a large generator is stepped by the
    action of its exponential, without one, to 1e-13 of the exponential."""

    MODELS = [pytest.param(real, id=name) for name, real in (
        ("hermitian-basis", False), ("real-generator", True))]

    @staticmethod
    def _dense(m, dt):
        return matrix_exp(models.assemble_generator(m) * dt)

    @pytest.mark.parametrize("real", MODELS)
    def test_columns_match_the_exponential(self, real, expm_calls):
        m = _ring(64, real)
        stepper = stepping_cache(m)
        assert stepper._exponent.shape == (256, 256)
        assert (stepper._basis is None) == real
        cols = np.random.default_rng(1).normal(size=(256, 3, 2)) @ [1, 1j]
        got = evolve.series(stepper, cols, [0.25, 0.5, 0.75, 1.0])
        assert expm_calls == []
        p, want, v = self._dense(m, 0.25), [], cols
        for _ in range(4):
            v = p @ v
            want.append(v)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("real", MODELS)
    def test_rows_match_the_exponential(self, real, expm_calls):
        m = _ring(64, real)
        stepper = stepping_cache(m)
        rows = np.random.default_rng(2).normal(size=(2, 256, 2)) @ [1, 1j]
        taus = np.array([0.0, 0.3, 0.6])
        got = np.empty((3,) + rows.shape, dtype=complex)
        stepper.carry_rows(got, rows, taus)
        assert expm_calls == []
        p = self._dense(m, 0.3)
        want = np.array([rows, rows @ p, rows @ p @ p])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_short_run_takes_no_exponential(self, expm_calls):
        m = _ring(64)
        pair = np.array([models.initial_state(m, np.diag([1.0, 0.0])),
                         models.initial_state(m, np.diag([0.0, 1.0]))])
        propagate(m, pair, TimeGrid.regular(1.0, 0.25))
        assert expm_calls == []

    def test_a_long_run_takes_one_exponential(self, expm_calls):
        m = _ring(64)
        state = models.initial_state(m, np.diag([1.0, 0.0]))
        propagate(m, state, TimeGrid.regular(6.0, 0.01))
        assert expm_calls == [256]

    @pytest.mark.parametrize("argv, count", [
        pytest.param(argv, count, id=" ".join(argv)) for argv, count in (
            (["fig1a"], 3), (["fig1b"], 3), (["fig2"], 5), (["td"], 1),
            (["bound"], 1), (["cpf", "--scheme", "d"], 1),
            (["cpf", "--scheme", "r"], 1), (["td", "--omega", "1"], 1),
            (["bound", "--omega", "1"], 1), (["cpf", "--omega", "1"], 1))])
    def test_small_models_keep_their_exponentials(self, argv, count,
                                                  expm_calls, tmp_path):
        # D = 16 (stacked) and D = 64 (driven): exponentials only, as before
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
        assert len(expm_calls) == count
        assert max(expm_calls) <= 64

    def test_huge_gaps_take_the_exponential(self):
        # a non-finite 1-norm times the gap never plans the action, so the
        # overflow is reported by the exponential
        stepper = stepping_cache(_ring(64))
        with pytest.raises(NumericalDriftError):
            evolve.series(stepper, np.ones((256, 1)), [1e307])
        assert stepper._taylor_plan(1.0, np.inf, 1, 256) is None


class TestRk4Blocks:
    """``_rk4_span`` assembles a stack of stage generators per call in the
    block form, for a run of gaps with one substep count, at the classic
    running-sum stage times bit for bit, and steps each gap as one product
    of step matrices, within rounding of the classic RK4."""

    MODELS = [pytest.param(make, id=name) for name, make in (
        ("modulated", lambda rng: DepolarizingModel(
            gamma=1.0, phi=0.7, modulation=sine_modulation(0.4, 0.9))),
        ("modulated_driven", lambda rng: DepolarizingModel(
            gamma=1.0, phi=0.7, omega=1.5, modulation=sine_modulation(0.4, 0.9))),
        ("static", lambda rng: random_stochastic_env(rng, nc=3)),
    )]
    STEP, T0 = 0.01, 0.3

    @staticmethod
    def classic_rk4(model, v, t0, t1, step):
        n = max(1, int(np.ceil((t1 - t0) / step - 1e-12)))
        h = (t1 - t0) / n
        t = t0
        for _ in range(n):
            k1 = models.assemble_generator(model, t) @ v
            k2 = models.assemble_generator(model, t + 0.5 * h) @ (v + 0.5 * h * k1)
            k3 = models.assemble_generator(model, t + 0.5 * h) @ (v + 0.5 * h * k2)
            k4 = models.assemble_generator(model, t + h) @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        return v, n

    @staticmethod
    def block_of(model):
        """Substeps one stack holds: 2 m + 1 stage times of nb blocks of
        n x n within ``_RK4_STACK_ENTRIES``."""
        nb = models.block_basis(model)[0]
        d = np.size(models.assemble_generator(model), 0)
        return max(1, (evolve._RK4_STACK_ENTRIES * nb // d ** 2 - 1) // 2)

    def rk4_series(self, model, v, times, t0, step):
        return evolve.series(stepping_cache(model, "rk4", step), v, times, t0)

    @pytest.mark.parametrize("make", MODELS)
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["vector", "matrix"])
    @pytest.mark.parametrize("substeps", [
        pytest.param(lambda block: max(1, block // 2), id="part-block"),
        pytest.param(lambda block: block, id="one-block"),
        pytest.param(lambda block: 2 * block + 3, id="blocks-and-remainder"),
        pytest.param(lambda block: 1, id="one-substep"),
        # levels of 6, 3 and 2 products: one odd one out carried up
        pytest.param(lambda block: 6, id="even"),
    ])
    def test_matches_classic_rk4(self, make, columns, substeps):
        # the step product reorders the roundings; the worst relative
        # deviation measured over these cases is 3.3e-15
        rng = np.random.default_rng(41)
        m = make(rng)
        d = np.size(models.assemble_generator(m), 0)
        n = substeps(self.block_of(m))
        v = rng.normal(size=(d,) + columns) + 1j * rng.normal(size=(d,) + columns)
        t1 = self.T0 + n * self.STEP
        want, n_classic = self.classic_rk4(m, v, self.T0, t1, self.STEP)
        assert n_classic == n
        got = self.rk4_series(m, v, [t1], self.T0, self.STEP)[0]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("make", MODELS)
    def test_series_matches_classic_rk4_gap_by_gap(self, make):
        # substep counts 3, 3, 0 (a zero gap), 7, 7, 7, longer than one
        # stack, and 3 again: runs that share a stack, split one, or copy
        rng = np.random.default_rng(43)
        m = make(rng)
        d = np.size(models.assemble_generator(m), 0)
        counts = [3, 3, 0, 7, 7, 7, 2 * self.block_of(m) + 5, 3]
        times = self.T0 + np.cumsum(counts) * self.STEP
        v = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        got = self.rk4_series(m, v, times, self.T0, self.STEP)
        t0, want = self.T0, v
        for t, entry in zip(times, got):
            if t != t0:
                want = self.classic_rk4(m, want, t0, t, self.STEP)[0]
            assert np.abs(entry - want).max() <= 1e-13 * np.abs(want).max()
            t0 = t

    def test_static_series_is_chained_one_gap_series(self):
        # a stack of several gaps steps each gap with its own product, in
        # the same order as one gap per call
        rng = np.random.default_rng(44)
        m = random_stochastic_env(rng, nc=3)
        stepper = stepping_cache(m, "rk4", self.STEP)
        counts = [4, 4, 4, 0, 9, 9, 2 * self.block_of(m) + 1, 1, 1]
        times = self.T0 + np.cumsum(counts) * self.STEP
        v = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        got = evolve.series(stepper, v, times, self.T0)
        assert np.array_equal(got, _advanced(stepper, v, times, self.T0))

    @staticmethod
    def capture(monkeypatch):
        """The stage times of each ``assemble_generator`` call, checking
        that it asks for the block form and that its stack holds at most
        ``_RK4_STACK_ENTRIES`` entries."""
        stacks = []
        assemble = models.assemble_generator

        def capturing(model, t=0.0, blocks=False):
            stacks.append(np.array(t))
            gens = assemble(model, t, blocks)
            assert blocks and gens.size <= evolve._RK4_STACK_ENTRIES
            return gens

        monkeypatch.setattr(models, "assemble_generator", capturing)
        return stacks

    def test_stage_times_are_the_running_sum(self, monkeypatch):
        m = DepolarizingModel(gamma=1.0, phi=0.7,
                              modulation=sine_modulation(0.4, 0.9))
        block = self.block_of(m)
        stacks = self.capture(monkeypatch)
        # one gap longer than two stacks, then two gaps of 7 substeps that
        # share one stack; at this step the running sum differs from
        # t0 + i h in the last bits
        counts = [2 * block + 3, 7, 7]
        times = self.T0 + np.cumsum(counts) * 0.0123
        self.rk4_series(m, np.ones(16, dtype=complex), times, self.T0, 0.0123)
        assert [s.shape for s in stacks] == [(1, 2 * block + 1)] * 2 + [
            (1, 7), (2, 15)]
        # a row per gap (or part of one): its substeps' ends, then midpoints
        want, t0 = [], self.T0
        for n, t1 in zip(counts, times):
            h, t = (t1 - t0) / n, t0
            for first in range(0, n, block):
                ends, mids = [t], []
                for _ in range(min(block, n - first)):
                    mids.append(t + 0.5 * h)
                    t += h
                    ends.append(t)
                want.append(ends + mids)
            t0 = t1
        got = [row for stack in stacks for row in stack]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def assembly_sizes(self, monkeypatch, t0, times, step):
        """The number of times of each ``assemble_generator`` call that one
        modulated series makes."""
        stacks = self.capture(monkeypatch)
        m = DepolarizingModel(gamma=1.0, phi=0.7,
                              modulation=sine_modulation(0.4, 0.9))
        self.rk4_series(m, np.ones(16, dtype=complex), times, t0, step)
        return [s.size for s in stacks]

    def test_one_assembly_per_block(self, monkeypatch):
        block = self.block_of(DepolarizingModel(
            gamma=1.0, phi=0.7, modulation=sine_modulation(0.4, 0.9)))
        n = 2 * block + 3
        sizes = self.assembly_sizes(monkeypatch, self.T0,
                                    [self.T0 + n * self.STEP], self.STEP)
        # 511 stage times of four 4 x 4 blocks: 32,704 entries, at most 2^15
        assert block == 255
        assert sizes == [2 * block + 1, 2 * block + 1, 2 * 3 + 1]

    def test_unit_gaps_share_a_block(self, monkeypatch):
        # a unit output gap at step 0.02 is 50 substeps: five such gaps,
        # 505 stage times, are one assembly
        sizes = self.assembly_sizes(monkeypatch, 3.0, np.arange(4.0, 10.0), 0.02)
        assert sizes == [5 * (2 * 50 + 1), 2 * 50 + 1]

    def test_an_over_long_gap_is_refused_before_any_stepping(self, monkeypatch):
        # the third gap needs more than _RK4_MAX_SUBSTEPS substeps: nothing
        # is assembled for the two gaps before it
        stacks = self.capture(monkeypatch)
        m = DepolarizingModel(gamma=1.0, phi=0.7,
                              modulation=sine_modulation(0.4, 0.9))
        step = 0.02
        times = [1.0, 2.0, 2.0 + 2 * step * evolve._RK4_MAX_SUBSTEPS]
        with pytest.raises(InvariantViolation, match="RK4 substeps"):
            self.rk4_series(m, np.ones(16, dtype=complex), times, 0.0, step)
        assert stacks == []

    @pytest.mark.parametrize("value", [1.0, np.nan], ids=["reaches-one", "nan"])
    def test_bad_modulation_inside_a_span_raises(self, value):
        # a NaN rate would otherwise surface only as trace drift
        m = DepolarizingModel(gamma=1.0, phi=1.0,
                              modulation=lambda t: np.where(t > 0.35, value, 0.2))
        state = models.initial_state(m, np.diag([1.0, 0.0]))
        with pytest.raises(InvariantViolation):
            propagate(m, state, TimeGrid(times=np.array([0.0, 0.5]), step=0.1))


    def test_huge_span_is_refused_before_stepping(self):
        # ceil(1e12 / 0.005) substeps would run for years
        m = DepolarizingModel(gamma=1.0, phi=1.0,
                              modulation=sine_modulation(0.5, 0.01))
        start = time.perf_counter()
        with pytest.raises(InvariantViolation, match="RK4 substeps"):
            witness.trace_distance_bound(m, np.diag([1.0, 0.0]),
                                         np.diag([0.0, 1.0]), None, 1e12, 1.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_substep_is_numeric_breach(self):
        # one RK4 substep of 1e300 overflows to non-finite columns, which
        # the trace check reports
        m = DepolarizingModel(gamma=1.0, phi=1.0,
                              modulation=sine_modulation(0.3, 0.5))
        state = models.initial_state(m, np.diag([1.0, 0.0]))
        grid = TimeGrid(times=np.array([0.0, 1e300]), step=1e300)
        with pytest.raises(NumericalDriftError, match="trace drift"):
            propagate(m, state, grid)


class TestPropagate:
    def test_zero_generator_constant(self):
        m = models.born_markov_model(np.zeros((4, 4), dtype=complex),
                                     np.eye(2, dtype=complex) / 2)
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        series = propagate(m, models.initial_state(m, rho0),
                           TimeGrid.regular(2.0, 0.5))
        for state in series:
            assert np.abs(state - series[0]).max() < 1e-14

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_depolarizing_marginal_form(self, seed):
        # symmetric initial populations make the reduced map depolarizing
        rng = np.random.default_rng(seed)
        gamma, phi = 1.0, float(rng.uniform(0.3, 3.0))
        m = DepolarizingModel(gamma=gamma, phi=phi)
        rho0 = random_density_matrix(rng, 2)
        grid = TimeGrid.regular(2.0, 0.25)
        series = propagate(m, models.initial_state(m, rho0), grid)
        coeffs = solve_channel_coefficients(
            gamma, phi, m.populations0, TimeGrid(times=grid.times,
                                                 step=default_step(gamma, phi)))
        w = coeffs.weight()
        for i in range(grid.times.size):
            marginal = models.sys_marginal(m, series[i])
            pauli_part = sum(p @ rho0 @ p for p in PAULI_OPS[:3])
            want = w[i] * rho0 + (1 - w[i]) / 3.0 * pauli_part
            assert np.abs(marginal - want).max() < 1e-9

    def test_modulated_marginal_matches_coefficient_oracle(self):
        # the stacked RK4 state path against the 16-coefficient RK4 at the
        # same step; they differ by rounding only (6e-16 measured)
        b = sine_modulation(0.6, 0.8)
        m = DepolarizingModel(gamma=1.0, phi=0.6, modulation=b)
        rho0 = random_density_matrix(np.random.default_rng(5), 2)
        grid = TimeGrid.regular(3.0, 0.02)
        series = propagate(m, models.initial_state(m, rho0), grid)
        w = solve_channel_coefficients(1.0, 0.6, m.populations0, grid,
                                       modulation=b).weight()
        pauli_part = sum(p @ rho0 @ p for p in PAULI_OPS[:3])
        want = (w[:, None, None] * rho0
                + ((1 - w) / 3.0)[:, None, None] * pauli_part)
        assert np.abs(models.sys_marginal(m, series) - want).max() < 1e-12
        # the modulation moves the weight off its static value
        assert np.abs(w - depolarizing_weight(1.0, 0.6, grid.times)).max() > 1e-3

    def test_unitary_purity_conserved(self):
        rng = np.random.default_rng(3)
        m = random_unitary_model(rng)
        ket = rng.normal(size=4) + 1j * rng.normal(size=4)
        ket /= np.linalg.norm(ket)
        state = np.outer(ket, ket.conj())
        series = propagate(m, state, TimeGrid.regular(3.0, 0.1))
        for s in series:
            purity = np.trace(s @ s).real
            assert abs(purity - 1.0) < 1e-9

    def test_exponential_vs_stepped_agreement(self):
        m = DepolarizingModel(gamma=1.0, phi=0.8)
        rng = np.random.default_rng(4)
        rho0 = random_density_matrix(rng, 2)
        state = models.initial_state(m, rho0)
        grid = TimeGrid.regular(1.5, default_step(1.0, 0.8))
        exp_series = propagate(m, state, grid)
        rk_series = propagate(m, state, grid, stepper="rk4")
        err = models.bipartite_trace_distance(m, exp_series[-1], rk_series[-1])
        assert err < 1e-8

    def test_stepper_is_auto_or_rk4(self):
        m = DepolarizingModel(gamma=1.0, phi=0.8)
        state = models.initial_state(m, np.diag([1.0, 0.0]))
        with pytest.raises(InvariantViolation):
            propagate(m, state, TimeGrid.regular(1.0, 0.5), stepper="expm")

    @pytest.mark.parametrize("preset", [exchange_preset,
                                        commuting_interaction_preset])
    def test_rk4_agrees_with_eigh_on_unitary_models(self, preset):
        m = preset()
        rho0 = random_density_matrix(np.random.default_rng(6), 2)
        state = models.initial_state(m, rho0)
        grid = TimeGrid(times=np.linspace(0.0, 2.0, 9), step=0.005)
        exact = propagate(m, state, grid)
        stepped = propagate(m, state, grid, stepper="rk4")
        assert np.abs(exact - stepped).max() < 1e-8

    def test_nan_trace_raises(self):
        from qflow.qcore import NumericalDriftError

        # overflowing rates turn the exponential into NaN, which must not
        # slip through the drift comparison
        m = DepolarizingModel(gamma=1e200, phi=1e200)
        rho0 = random_density_matrix(np.random.default_rng(0), 2)
        with pytest.raises(NumericalDriftError):
            propagate(m, models.initial_state(m, rho0),
                      TimeGrid.regular(0.1, 0.05))

    @pytest.mark.parametrize("make", [
        lambda rng: random_stochastic_env(rng, nc=3),
        lambda rng: random_quantum_bystander(rng, de=3)],
        ids=["stacked", "full"])
    def test_series_is_hermitian_bit_for_bit(self, make):
        # an anti-Hermitian part of the initial state survives the dynamics;
        # every returned state is re-symmetrized
        rng = np.random.default_rng(6)
        m = make(rng)
        state0 = models.initial_state(m, random_density_matrix(rng, 2))
        kick = rng.normal(size=state0.shape) * 1e-9
        series = propagate(m, state0 + kick - kick.swapaxes(-1, -2),
                           TimeGrid.regular(1.0, 0.25))
        assert np.array_equal(series, series.conj().swapaxes(-1, -2))

    def test_drift_names_the_first_drifting_time(self, monkeypatch):
        # the steps from t = 0.5 on gain 1% of trace, so the drift first
        # passes 1e-8 at t = 0.5 and grows after it; one time per block
        # checks the offsets of the blocks after the first
        series = evolve.series
        monkeypatch.setattr(evolve, "_SERIES_BLOCK_ENTRIES", 1)

        def leaky(stepper, v, times, t0=0.0):
            out = series(stepper, v, times, t0)
            leaks = np.cumsum(np.asarray(times) >= 0.5)
            return out * (1.01 ** leaks).reshape((-1,) + (1,) * v.ndim)

        monkeypatch.setattr(evolve, "series", leaky)
        m = random_stochastic_env(np.random.default_rng(4), nc=3)
        rho0 = random_density_matrix(np.random.default_rng(5), 2)
        with pytest.raises(NumericalDriftError, match=r"at t=0\.5 exceeds"):
            propagate(m, models.initial_state(m, rho0),
                      TimeGrid.regular(1.0, 0.25))

    def test_trace_drift_raises(self):
        from qflow.qcore import NumericalDriftError

        # stiff rates with a coarse step destabilize the fixed-step rule
        m = DepolarizingModel(gamma=20.0, phi=20.0)
        rho0 = random_density_matrix(np.random.default_rng(0), 2)
        with pytest.raises(NumericalDriftError):
            propagate(m, models.initial_state(m, rho0),
                      TimeGrid.regular(5.0, 0.5), stepper="rk4")


BATCH_MODELS = [pytest.param(make, id=name) for name, make in (
    ("classical_mixture", lambda rng: random_classical_mixture(rng, nc=3)),
    ("stochastic_env", lambda rng: random_stochastic_env(rng, nc=3)),
    ("quantum_bystander", lambda rng: random_quantum_bystander(rng, de=3)),
    ("unitary", lambda rng: random_unitary_model(rng, de=3)),
    ("depolarizing", lambda rng: DepolarizingModel(gamma=1.0, phi=0.7)),
    ("depolarizing_driven", lambda rng: DepolarizingModel(gamma=1.0, phi=0.7,
                                                          omega=1.5)),
    ("depolarizing_modulated", lambda rng: DepolarizingModel(
        gamma=1.0, phi=0.7, modulation=sine_modulation(0.3, 0.5))),
)]


class TestBatchPropagation:
    """States with a leading batch axis are stepped as the columns of one
    matrix and agree with one propagation per state."""

    @staticmethod
    def _pair(make):
        rng = np.random.default_rng(31)
        m = make(rng)
        pair = np.array([models.initial_state(m, random_density_matrix(rng, 2))
                         for _ in range(2)])
        return m, pair

    @pytest.mark.parametrize("stepper", ["auto", "rk4"])
    @pytest.mark.parametrize("make", BATCH_MODELS)
    def test_propagate_matches_single_states(self, make, stepper):
        m, pair = self._pair(make)
        grid = TimeGrid(times=np.array([0.0, 0.3, 0.7, 1.0]), step=0.05)
        batch = propagate(m, pair, grid, stepper=stepper)
        assert batch.shape == (grid.times.size,) + pair.shape
        for i, state in enumerate(pair):
            single = propagate(m, state, grid, stepper=stepper)
            assert np.abs(batch[:, i] - single).max() < 1e-14

    @pytest.mark.parametrize("make", BATCH_MODELS)
    def test_propagate_interval_matches_single_states(self, make):
        m, pair = self._pair(make)
        batch = propagate_interval(m, pair, 0.2, 0.9, step=0.05)
        assert batch.shape == pair.shape
        for i, state in enumerate(pair):
            single = propagate_interval(m, state, 0.2, 0.9, step=0.05)
            assert np.abs(batch[i] - single).max() < 1e-14

    @pytest.mark.parametrize("stepper", ["auto", "rk4"])
    def test_drift_is_checked_per_state(self, stepper):
        m, pair = self._pair(lambda rng: random_stochastic_env(rng, nc=3))
        pair[1].flat[0] = np.nan
        with pytest.raises(NumericalDriftError):
            propagate(m, pair, TimeGrid.regular(1.0, 0.5), stepper=stepper)


class TestSpans:
    """Every stepping form refuses a span that runs backwards or has a
    non-finite end before stepping, and steps nothing across a zero span."""

    FORMS = [pytest.param(make, form, id=name) for name, make, form in (
        ("exponential", lambda: DepolarizingModel(gamma=1.0, phi=0.7),
         PropagatorCache),
        ("closed", lambda: random_unitary_model(np.random.default_rng(5), de=3),
         evolve._ClosedCache),
        ("rk4", lambda: DepolarizingModel(gamma=1.0, phi=0.7,
                                          modulation=sine_modulation(0.5, 1.0)),
         evolve._RK4Stepper),
    )]

    @pytest.mark.parametrize("make, form", FORMS)
    @pytest.mark.parametrize("t0, t1", [(1.0, 0.0), (0.0, np.nan),
                                        (0.0, np.inf), (-np.inf, 0.0)],
                             ids=["backwards", "nan", "inf", "inf-start"])
    def test_bad_span_raises(self, make, form, t0, t1):
        m = make()
        assert type(stepping_cache(m)) is form
        state = models.initial_state(m, np.diag([1.0, 0.0]))
        with pytest.raises(InvariantViolation):
            propagate_interval(m, state, t0, t1)

    @pytest.mark.parametrize("make, form", FORMS)
    def test_zero_span_returns_the_states(self, make, form):
        # nothing is stepped: the states come back re-symmetrized only
        m = make()
        state = models.initial_state(m, random_density_matrix(
            np.random.default_rng(8), 2))
        got = propagate_interval(m, state, 0.5, 0.5)
        assert np.array_equal(got, models.resymmetrized(m, state))


class TestClosedForms:
    def test_weight_at_zero(self):
        for phi in (0.25, 1.0, 4.0):
            assert depolarizing_weight(1.0, phi, 0.0) == pytest.approx(1.0)

    def test_weight_balanced_rates(self):
        # closed form reduces to (1 + e^{-g t} + e^{-2 g t}) / 3
        for t in (0.0, 0.5, 1.0, 3.0):
            want = (1 + np.exp(-t) + np.exp(-2 * t)) / 3.0
            assert depolarizing_weight(1.0, 1.0, t) == pytest.approx(want, abs=1e-14)

    def test_weight_long_time_limit(self):
        assert depolarizing_weight(1.0, 1.0, 60.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_weight_rejects_bad_rates(self):
        with pytest.raises(InvariantViolation):
            depolarizing_weight(-1.0, 1.0, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("func", [
        lambda: depolarizing_weight(1e308, 1e308, 0.5),
        lambda: stationary_populations(1e308, 1e308),
        lambda: DepolarizingModel(gamma=1e308, phi=1e308),
    ], ids=["weight", "populations", "model"])
    def test_overflowing_rate_sum_names_the_rates(self, func):
        with pytest.raises(InvariantViolation, match="gamma=1e.308, phi=1e.308"):
            func()

    def test_factor_at_zero(self):
        assert trace_distance_factor(1.0, 2.0, 0.0) == pytest.approx(1.0)

    def test_factor_balanced_unit_time(self):
        want = 1 / 9 + (4 / 9) * (np.exp(-1) + np.exp(-2))
        got = trace_distance_factor(1.0, 1.0, 1.0)
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(0.33476, abs=5e-6)

    def test_factor_long_time(self):
        assert trace_distance_factor(1.0, 1.0, 60.0) == pytest.approx(1 / 9, abs=1e-12)

    def test_stationary_balanced(self):
        assert stationary_populations(1.0, 1.0) == pytest.approx((0.5, 1 / 6, 1 / 6, 1 / 6))

    def test_stationary_strong_return(self):
        p4, p1, p2, p3 = stationary_populations(1.0, 1e9)
        assert p4 == pytest.approx(1.0, abs=1e-8)
        assert max(p1, p2, p3) < 1e-9

    def test_stationary_is_rate_matrix_null_space(self):
        gamma, phi = 1.0, 2.7
        w = np.zeros((4, 4))
        for k in range(3):
            w[k, 3] += gamma / 3.0
            w[3, k] += phi
        w -= np.diag(w.sum(axis=0))
        pops = stationary_populations_vector(gamma, phi)
        assert np.abs(w @ pops).max() < 1e-10


class TestChannelCoefficients:
    def test_pauli_product_table(self):
        # sigma_k sigma_m is sigma_r times a phase, labels x, y, z, 1 as 0-3
        for k, sk in enumerate(PAULI_OPS):
            for m, sm in enumerate(PAULI_OPS):
                overlaps = [abs(np.trace(sr.conj().T @ sk @ sm)) for sr in PAULI_OPS]
                assert np.allclose(overlaps, np.eye(4)[evolve._PAULI_PRODUCT[k, m]] * 2)

    def test_initial_data(self):
        pops = np.array([0.1, 0.2, 0.3, 0.4])
        coeffs = solve_channel_coefficients(1.0, 1.0, pops,
                                            TimeGrid.regular(0.5, 0.005))
        assert np.abs(coeffs.coeffs[0, :, 3] - pops).max() == 0.0
        assert np.abs(coeffs.coeffs[0, :, :3]).max() == 0.0

    def test_weight_matches_closed_form(self):
        for phi in (0.25, 1.0, 4.0):
            grid = TimeGrid.regular(6.0, default_step(1.0, phi))
            coeffs = solve_channel_coefficients(
                1.0, phi, stationary_populations_vector(1.0, phi), grid)
            err = np.abs(coeffs.weight()
                         - depolarizing_weight(1.0, phi, grid.times)).max()
            assert err < 1e-8

    def test_populations_match_rate_matrix(self):
        gamma, phi = 1.0, 0.6
        pops0 = np.array([0.4, 0.1, 0.2, 0.3])
        grid = TimeGrid.regular(3.0, default_step(gamma, phi))
        coeffs = solve_channel_coefficients(gamma, phi, pops0, grid)
        w = np.zeros((4, 4))
        for k in range(3):
            w[k, 3] += gamma / 3.0
            w[3, k] += phi
        w -= np.diag(w.sum(axis=0))
        for i, t in enumerate(grid.times):
            want = matrix_exp(w * t).real @ pops0
            assert np.abs(coeffs.populations()[i] - want).max() < 1e-9

    def test_pauli_columns_share_the_complement(self):
        grid = TimeGrid.regular(2.0, 0.005)
        coeffs = solve_channel_coefficients(
            1.0, 1.0, stationary_populations_vector(1.0, 1.0), grid)
        w = coeffs.weight()
        for j in range(3):
            assert np.abs(coeffs.channel_column(j) - (1 - w) / 3.0).max() < 1e-9

    @pytest.mark.parametrize("phi", [0.25, 1.0, 4.0])
    def test_constant_step_matches_staged_stages(self, phi):
        # a zero modulation takes the stage-by-stage RK4 path on the same
        # substeps; on validate's grid the two agree to a relative 2e-14
        grid = TimeGrid.regular(3.0, 0.0025)
        pops = stationary_populations_vector(1.0, phi)
        fixed = solve_channel_coefficients(1.0, phi, pops, grid).coeffs
        staged = solve_channel_coefficients(1.0, phi, pops, grid,
                                            modulation=lambda t: 0.0).coeffs
        assert np.abs(fixed - staged).max() <= 1e-13 * np.abs(staged).max()

    @pytest.mark.parametrize("modulation", [None, lambda t: 0.0],
                             ids=["constant", "staged"])
    def test_unstable_step_raises_drift(self, modulation):
        # the fastest mode, lambda = -(gamma + phi), has h * lambda = -5 at step
        # 0.0025, outside RK4's real stability interval (about -2.79); at step
        # 0.001 it is -2
        pops = np.full(4, 0.25)
        with pytest.raises(NumericalDriftError, match="normalization drift"):
            solve_channel_coefficients(1000.0, 1000.0, pops,
                                       TimeGrid.regular(3.0, 0.0025),
                                       modulation=modulation)
        solve_channel_coefficients(1000.0, 1000.0, pops,
                                   TimeGrid.regular(3.0, 0.001),
                                   modulation=modulation)

    @pytest.mark.parametrize("value", [1.0, np.nan], ids=["reaches-one", "nan"])
    def test_bad_modulation_raises(self, value):
        b = lambda t: np.where(t > 0.35, value, 0.2)
        with pytest.raises(InvariantViolation):
            solve_channel_coefficients(1.0, 1.0, np.full(4, 0.25),
                                       TimeGrid.regular(0.5, 0.1), modulation=b)
        with pytest.raises(InvariantViolation):
            adiabatic_weight(1.0, 1.0, b, np.array([0.0, 0.5]))


class TestAdiabaticWeight:
    def test_no_modulation_reduces_to_stationary(self):
        got = adiabatic_weight(1.0, 1.0, 0.0, 10.0)
        want = (1.0 + 3.0) / 12.0  # stationary closed-form value
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(depolarizing_weight(1.0, 1.0, 1e9), abs=1e-9)

    def test_amplitude_continuity(self):
        t = np.array([100.0])
        base = adiabatic_weight(1.0, 1.0, sine_modulation(0.0 + 1e-12, 0.01), t)
        dev1 = adiabatic_weight(1.0, 1.0, sine_modulation(0.02, 0.01), t) - base
        dev2 = adiabatic_weight(1.0, 1.0, sine_modulation(0.01, 0.01), t) - base
        assert abs(dev1 - 2 * dev2) < 1e-4 * abs(dev1)

    def test_rejects_saturated_modulation(self):
        with pytest.raises(InvariantViolation):
            adiabatic_weight(1.0, 1.0, 1.0, 5.0)

    def test_warns_on_imbalanced_rates(self):
        with pytest.warns(UserWarning):
            adiabatic_weight(1.0, 4.0, 0.0, 5.0)

    def test_tracks_modulated_integration(self):
        # slow drive: long-time weight is the overlap of frozen initial
        # populations with the instantaneous stationary ones
        b = sine_modulation(0.4, 0.01)
        m = DepolarizingModel(gamma=1.0, phi=1.0, modulation=b)
        grid = TimeGrid(times=np.arange(0.0, 120.0 + 1e-9, 40.0), step=0.005)
        coeffs = solve_channel_coefficients(1.0, 1.0, m.populations0, grid,
                                            modulation=b)
        got = coeffs.weight()[1:]
        want = adiabatic_weight(1.0, 1.0, b, grid.times[1:])
        assert np.abs(got - want).max() < 5e-3


class TestCoherentWeight:
    def test_starts_at_one(self):
        grid = TimeGrid.regular(1.0, 0.01)
        w = coherent_weight_series(1.0, 1.0, 3.0, grid)
        assert w[0] == pytest.approx(1.0)

    def test_drive_free_matches_incoherent_oracle(self):
        grid = TimeGrid.regular(4.0, 0.005)
        w = coherent_weight_series(1.0, 1.0, 0.0, grid)
        oracle = solve_channel_coefficients(
            1.0, 1.0, np.array([0.0, 0.0, 0.0, 1.0]), grid).weight()
        assert np.abs(w - oracle).max() < 1e-8

    def test_strong_drive_revives(self):
        grid = TimeGrid.regular(10.0, 0.005)
        w = coherent_weight_series(1.0, 1.0, 5.0, grid)
        d = np.abs(4 * w - 1) / 3.0
        assert np.diff(d).max() > 1e-3

    def test_env_marginal_system_independent(self):
        m = DepolarizingModel(gamma=1.0, phi=1.0, omega=2.0,
                              populations0=np.array([0.0, 0.0, 0.0, 1.0]))
        rng = np.random.default_rng(5)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        for t in (0.5, 2.0):
            ea = models.env_marginal(m, propagate_interval(
                m, models.initial_state(m, rho_a), 0.0, t))
            eb = models.env_marginal(m, propagate_interval(
                m, models.initial_state(m, rho_b), 0.0, t))
            assert np.abs(ea - eb).max() < 1e-10

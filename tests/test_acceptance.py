"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 8 checks the driven-environment columns against the
closed-form solution of the (p4, S, Y) system (``coherent_reference``): at
gamma = phi the drive gives a complex eigenvalue pair for every omega > 0, so
p4 undershoots its stationary value and d rebounds even at omega/gamma = 0.5.
"""

import time

import numpy as np
import pytest

from qflow import models
from qflow.cli import main as cli_main
from qflow.evolve import (
    TimeGrid,
    coherent_weight_series,
    adiabatic_weight,
    default_step,
    depolarizing_weight,
    solve_channel_coefficients,
    stationary_populations_vector,
    trace_distance_factor,
)
from qflow.models import (
    DepolarizingModel,
    commuting_interaction_preset,
    exchange_preset,
    random_classical_mixture,
    random_quantum_bystander,
    random_stochastic_env,
    random_unitary_decomposition,
    random_unitary_model,
    sine_modulation,
)
from qflow.qcore import apply_superop, random_density_matrix
from qflow.witness import (
    cpf_correlation,
    cpf_grid,
    cpf_joint_deterministic,
    cpf_joint_random,
    random_measurement,
    random_policy,
    reference_measurements,
    tilted_measurement,
    trace_distance_bound,
    trace_distance_series,
)

RATIOS = (0.25, 1.0, 4.0)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def closed_form_balanced(t, tau):
    et, eu = np.exp(-t), np.exp(-tau)
    return (4.0 / 81.0) * (1 - et) * (1 - eu) * (2 + et + eu + 5 * et * eu)


def test_criterion_1_closed_form_weight():
    t0 = time.time()
    worst = 0.0
    for ratio in RATIOS:
        grid = TimeGrid.regular(6.0, default_step(1.0, ratio))
        coeffs = solve_channel_coefficients(
            1.0, ratio, stationary_populations_vector(1.0, ratio), grid)
        err = np.abs(coeffs.weight()
                     - depolarizing_weight(1.0, ratio, grid.times)).max()
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    assert report(1, ok, f"max err {worst:.2e} (<1e-8), {elapsed:.2f}s (<5s)")


def test_criterion_2_trace_distance_factorization():
    rng = np.random.default_rng(42)
    grid = TimeGrid.regular(6.0, 0.01)
    worst = 0.0
    revived = False
    for _ in range(20):
        ratio = float(rng.choice(RATIOS))
        m = DepolarizingModel(gamma=1.0, phi=ratio)
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 2)
        trace = trace_distance_series(m, rho, sig, grid=grid)
        want = trace_distance_factor(1.0, ratio, grid.times) * trace.values[0]
        worst = max(worst, np.abs(trace.values - want).max())
        revived = revived or trace.has_revival()
    ok = worst < 1e-8 and not revived
    assert report(2, ok, f"max |D - d*D0| {worst:.2e} (<1e-8), revivals={revived}")


def test_criterion_3_cpf_closed_form_grid():
    t0 = time.time()
    m = DepolarizingModel(gamma=1.0, phi=1.0)
    rho0s, specs = reference_measurements()
    ts = np.linspace(0.0, 6.0, 50)
    res = cpf_grid(m, rho0s, None, specs, ts, ts, scheme="d")
    want = closed_form_balanced(ts[:, None], ts[None, :])
    err = np.abs(res.values[0] - want).max()
    sym = np.abs(res.values[0] - res.values[1]).max()
    elapsed = time.time() - t0
    ok = err < 1e-6 and sym < 1e-10 and elapsed < 60.0
    assert report(3, ok, f"max err {err:.2e} (<1e-6), y-asymmetry {sym:.2e} "
                         f"(<1e-10), {elapsed:.1f}s (<60s)")


def test_criterion_4_stationary_cpf():
    rho0s, specs = reference_measurements()
    worst = 0.0
    for ratio in RATIOS:
        m = DepolarizingModel(gamma=1.0, phi=ratio)
        p = cpf_joint_deterministic(m, rho0s, None, specs, 20.0, 20.0)
        got = cpf_correlation(p, specs)[0]
        want = 8 * (1 - 3 * ratio) ** 2 * (1 + 3 * ratio) / (81 * (1 + ratio) ** 4)
        worst = max(worst, abs(got - want))
    ok = worst < 1e-3
    assert report(4, ok, f"max |cpf - stationary| {worst:.2e} (<1e-3)")


def test_criterion_5_bystander_signature():
    t0 = time.time()
    n_instances = 102
    responded = 0
    worst_r = 0.0
    for seed in range(n_instances):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            m = random_classical_mixture(rng, nc=int(rng.integers(2, 4)))
        elif kind == 1:
            m = random_stochastic_env(rng, nc=int(rng.integers(2, 4)))
        else:
            m = random_quantum_bystander(rng, de=int(rng.integers(2, 4)))
        spec = random_measurement(rng)
        prep = random_density_matrix(rng, 2, pure=True)
        policy = random_policy(rng, 2, 2)
        specs = (spec, spec, spec)
        res_d = cpf_grid(m, prep, None, specs, [0.4, 1.1, 2.3], [0.5, 1.3], "d")
        res_r = cpf_grid(m, prep, None, specs, [0.4, 1.1, 2.3], [0.5, 1.3], "r",
                         policy)
        worst_r = max(worst_r, res_r.max_abs())
        responded += res_d.max_abs() > 1e-6
    elapsed = time.time() - t0
    rate = responded / n_instances
    ok = worst_r < 1e-10 and rate >= 0.95 and elapsed < 120.0
    assert report(5, ok, f"{n_instances} instances, max |cpf_r| {worst_r:.2e} "
                         f"(<1e-10), response rate {rate:.1%} (>=95%), "
                         f"{elapsed:.1f}s (<120s)")


def test_criterion_6_unitary_signature():
    rho0s, specs = reference_measurements()
    ex = exchange_preset()
    pd = cpf_joint_deterministic(ex, rho0s, ex.env0, specs, 1.0, 1.0)
    pr = cpf_joint_random(ex, rho0s, ex.env0, specs, None, 1.0, 1.0)
    ex_d = np.nanmax(np.abs(cpf_correlation(pd, specs)))
    ex_r = np.nanmax(np.abs(cpf_correlation(pr, specs)))

    cm = commuting_interaction_preset()
    tilt = tilted_measurement(np.pi / 3)
    tspecs = (tilt, tilt, tilt)
    pd2 = cpf_joint_deterministic(cm, rho0s, cm.env0, tspecs, 1.0, 1.0)
    pr2 = cpf_joint_random(cm, rho0s, cm.env0, tspecs, None, 1.0, 1.0)
    cm_d = np.nanmax(np.abs(cpf_correlation(pd2, tspecs)))
    cm_r = np.nanmax(np.abs(cpf_correlation(pr2, tspecs)))

    parts = random_unitary_decomposition(cm)
    rng = np.random.default_rng(6)
    rho0 = random_density_matrix(rng, 2)
    worst_mix = 0.0
    state = models.initial_state(cm, rho0)
    from qflow.evolve import propagate_interval
    for t in (0.5, 1.0, 2.0):
        mix = sum(w * apply_superop(fam(t), rho0) for w, fam in parts)
        full = models.sys_marginal(cm, propagate_interval(cm, state, 0.0, t))
        worst_mix = max(worst_mix, np.abs(mix - full).max())

    ok = (ex_d > 1e-3 and ex_r > 1e-3 and cm_r < 1e-10 and cm_d > 1e-6
          and worst_mix < 1e-9)
    assert report(6, ok, f"exchange |cpf_d| {ex_d:.3f} (>1e-3), |cpf_r| "
                         f"{ex_r:.3f} (>1e-3); commuting |cpf_r| {cm_r:.1e} "
                         f"(<1e-10), |cpf_d| {cm_d:.3f} (>1e-6); ensemble "
                         f"mismatch {worst_mix:.1e} (<1e-9)")


def test_criterion_7_bound_slack():
    rng = np.random.default_rng(1234)
    worst = np.inf
    evaluated = [
        (DepolarizingModel(gamma=1.0, phi=1.0), None),
        (DepolarizingModel(gamma=1.0, phi=1.0, omega=2.0), None),
        (random_classical_mixture(rng, nc=2), None),
        (random_stochastic_env(rng, nc=3), None),
        (random_quantum_bystander(rng, de=2), None),
        (exchange_preset(), exchange_preset().env0),
        (commuting_interaction_preset(), commuting_interaction_preset().env0),
    ]
    for m, env0 in evaluated:
        rho = random_density_matrix(rng, 2)
        sig = random_density_matrix(rng, 2)
        b = trace_distance_bound(m, rho, sig, env0, 0.8, 0.6)
        worst = min(worst, b.slack)
    for _ in range(100):
        m = random_unitary_model(rng)
        rho = random_density_matrix(rng, 2, pure=True)
        sig = random_density_matrix(rng, 2)
        b = trace_distance_bound(m, rho, sig, m.env0,
                                 float(rng.uniform(0.1, 2.0)),
                                 float(rng.uniform(0.1, 2.0)))
        worst = min(worst, b.slack)

    bm = models.born_markov_model(models.random_lindblad_generator(rng, 2),
                                  random_density_matrix(rng, 2))
    rho = random_density_matrix(rng, 2)
    sig = random_density_matrix(rng, 2)
    control = trace_distance_bound(bm, rho, sig, None, 0.7, 0.5)
    terms = max(control.env_term, control.corr_rho, control.corr_sigma)
    ok = worst > -1e-9 and terms < 1e-10
    assert report(7, ok, f"min slack {worst:.3e} (>=-1e-9), control terms "
                         f"{terms:.1e} (<1e-10)")


def coherent_reference(gamma, phi, omega, t):
    """Fourth-level population p4(t) of the driven four-level environment.

    Closed form, independent of qflow.  With jumps 4->k at rate gamma/3,
    k->4 at rate phi and the drive (omega/2)(|k><4| + h.c.), k = 1..3, the
    variables p4, S = sum_{j,k<=3} rho_jk and Y = Im sum_k rho_k4 close:
        p4' = phi - (gamma+phi) p4 + omega Y
        S'  = gamma p4 - phi S - 3 omega Y
        Y'  = -(3 omega/2) p4 + (omega/2) S - ((gamma+phi)/2) Y
    from (1, 0, 0); solved by the eigen-decomposition of the 3x3 block.
    """
    a = np.array([[-(gamma + phi), 0.0, omega],
                  [gamma, -phi, -3.0 * omega],
                  [-1.5 * omega, 0.5 * omega, -(gamma + phi) / 2.0]])
    stationary = np.linalg.solve(a, [-phi, 0.0, 0.0])
    lam, vecs = np.linalg.eig(a)
    coef = np.linalg.solve(vecs, np.array([1.0, 0.0, 0.0]) - stationary)
    modes = vecs[0] * coef
    return stationary[0] + (np.exp(np.outer(t, lam)) @ modes).real


def test_criterion_8_coherent_revivals():
    # At gamma = phi the drive gives the (p4, S, Y) block a complex pair for
    # every omega > 0, so p4 undershoots and d = |4 p4 - 1|/3 rebounds even
    # at omega/gamma = 0.5 (max per-step increase ~2.5e-5 here).  Both drive
    # columns are pinned to the closed form in ``coherent_reference``.
    grid = TimeGrid.regular(10.0, 0.005)

    w5 = coherent_weight_series(1.0, 1.0, 5.0, grid)
    d5 = np.abs(4 * w5 - 1) / 3
    inc5 = np.diff(d5).max()

    w05 = coherent_weight_series(1.0, 1.0, 0.5, grid)
    d05 = np.abs(4 * w05 - 1) / 3
    inc05 = np.diff(d05).max()
    ref_err = max(
        np.abs(w05 - coherent_reference(1.0, 1.0, 0.5, grid.times)).max(),
        np.abs(w5 - coherent_reference(1.0, 1.0, 5.0, grid.times)).max())

    w0 = coherent_weight_series(1.0, 1.0, 0.0, grid)
    oracle = solve_channel_coefficients(
        1.0, 1.0, np.array([0.0, 0.0, 0.0, 1.0]), grid).weight()
    inc_err = np.abs(w0 - oracle).max()

    clause_strong = inc5 > 1e-3
    clause_weak = ref_err < 1e-8
    clause_oracle = inc_err < 1e-8
    ok = clause_strong and clause_weak and clause_oracle
    assert report(8, ok, f"omega=5 max increase {inc5:.2e} (>1e-3): "
                         f"{'ok' if clause_strong else 'no'}; omega=0.5,5 "
                         f"closed-form err {ref_err:.1e} (<1e-8): "
                         f"{'ok' if clause_weak else 'no'}, omega=0.5 max "
                         f"increase {inc05:.2e}; omega=0 oracle err "
                         f"{inc_err:.1e} (<1e-8): "
                         f"{'ok' if clause_oracle else 'no'}")


def test_criterion_9_slow_modulation():
    t0 = time.time()
    b = sine_modulation(0.5, 0.01)
    m = DepolarizingModel(gamma=1.0, phi=1.0, modulation=b)
    period = 2 * np.pi / 0.01
    sample = TimeGrid(times=np.arange(0.0, period + 5.0, 1.0), step=0.02)
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    trace = trace_distance_series(m, up, down, grid=sample)
    mask = sample.times > 50.0
    d_full = trace.values[mask]
    w_ad = adiabatic_weight(1.0, 1.0, b, sample.times[mask])
    d_ad = np.abs(4 * w_ad - 1) / 3
    peak = d_ad.max()
    dev = np.abs(d_full - d_ad).max()
    revived = bool((np.diff(d_full) > 1e-6).any())

    rho0s, specs = reference_measurements()
    res_r = cpf_grid(m, rho0s, None, specs, [150.0], [40.0], scheme="r",
                     step=0.02)
    worst_r = res_r.max_abs()
    elapsed = time.time() - t0
    ok = revived and dev <= 0.05 * peak and worst_r < 1e-10
    assert report(9, ok, f"revivals={revived}, envelope dev {dev:.4f} of peak "
                         f"{peak:.4f} ({dev/peak:.1%} <= 5%), |cpf_r| "
                         f"{worst_r:.2e} (<1e-10), {elapsed:.1f}s")


def test_criterion_10_byte_identical_outputs(tmp_path):
    ok = True
    detail = []
    for cmd in ("fig1a", "fig1b", "fig2"):
        paths = [tmp_path / f"{cmd}_{i}.csv" for i in (0, 1)]
        for p in paths:
            code = cli_main([cmd, "--out", str(p), "--seed", "42"])
            ok = ok and code == 0
        same = paths[0].read_bytes() == paths[1].read_bytes()
        ok = ok and same
        detail.append(f"{cmd}={'identical' if same else 'DIFFERS'}")
    assert report(10, ok, ", ".join(detail))

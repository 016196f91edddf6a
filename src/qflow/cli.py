"""Command-line front end.

Subcommands reproduce the reference figure datasets as CSV, run sweeps on
preset or file-defined models, and run the validation suite.  Time is
reported in units of the inverse base rate; outputs are byte-identical for
identical configuration and seed (fixed-step integration, 12 significant
digits, newline-terminated rows).

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric-invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

import numpy as np

from . import __version__, models
from .evolve import (
    TimeGrid,
    coherent_weight_series,
    default_rk4_step,
    depolarizing_weight,
    solve_channel_coefficients,
    stationary_populations_vector,
    trace_distance_factor,
)
from .qcore import (
    InvariantViolation,
    NumericalDriftError,
    basis_ket,
    projector,
    random_density_matrix,
)
from .witness import (
    REVIVAL_TOL,
    MeasurementSpec,
    cpf_correlation,
    cpf_equal_times,
    cpf_grid,
    cpf_joint_deterministic,
    random_measurement,
    random_policy,
    reference_measurements,
    trace_distance_bound,
    trace_distance_series,
)


def _write_csv(args, header: list, rows, **extra) -> None:
    """CSV whose ``#`` line echoes the command, ``extra``, the grid and the
    seed.  A column is spelled as its first cell: ``%d`` for bool and
    integer cells (flags as 1/0), ``%.12g`` for every other number."""
    meta = {"command": args.command, **extra, "tmax": args.tmax,
            "step": args.step, "seed": args.seed}
    buf = io.StringIO()
    echo = " ".join(f"{k}={v}" for k, v in meta.items())
    buf.write(f"# qflow {__version__} {echo}\n")
    buf.write(",".join(header) + "\n")
    line = None
    for row in rows:
        row = tuple(row)
        if line is None:
            line = ",".join("%d" if isinstance(x, (int, np.integer, np.bool_))
                            else "%.12g" for x in row) + "\n"
        buf.write(line % row)
    _write_text(args.out, buf.getvalue())


def _write_text(out_path, data: str) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(data)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)


def _float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _resolve_model(args):
    if args.model:
        return models.load_model(args.model)
    return models.DepolarizingModel(gamma=args.gamma, phi=args.phi,
                                    omega=args.omega)


def _balanced_cpf(t, tau):
    """Closed-form deterministic CPF at gamma = phi = 1."""
    et, eu = np.exp(-t), np.exp(-tau)
    return (4.0 / 81.0) * (1 - et) * (1 - eu) * (2 + et + eu + 5 * et * eu)


def _driven_p4(omega, t):
    """Closed-form fourth-level population at gamma = phi = 1 from the pure
    fourth level.  With p4, S = sum_{j,k<=3} rho_jk and Y = Im sum_k rho_k4,
    the drive closes the linear system x' = a x + (1, 0, 0), solved through
    the eigen-decomposition of a."""
    a = np.array([[-2.0, 0.0, omega], [1.0, -1.0, -3.0 * omega],
                  [-1.5 * omega, 0.5 * omega, -1.0]])
    fixed = np.linalg.solve(a, [-1.0, 0.0, 0.0])
    lam, vecs = np.linalg.eig(a)
    modes = vecs[0] * np.linalg.solve(vecs, [1.0, 0.0, 0.0] - fixed)
    return fixed[0] + (np.exp(np.outer(t, lam)) @ modes).real


def _preset_pair(ds: int):
    up = projector(basis_ket(ds, 0))
    down = projector(basis_ket(ds, 1))
    return up, down


def _preset_measurements(ds: int):
    if ds == 2:
        return reference_measurements()
    vecs = np.eye(ds, dtype=complex)
    spec = MeasurementSpec(vectors=vecs, outcomes=ds - 1 - 2 * np.arange(ds))
    ket = np.ones(ds, dtype=complex) / np.sqrt(ds)
    return projector(ket), (spec, spec, spec)


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------

def cmd_fig1a(args) -> int:
    ratios = args.phi_over_gamma
    grid = TimeGrid.regular(args.tmax, args.step)

    def column(ratio):
        d_analytic = trace_distance_factor(1.0, ratio, grid.times)
        model = models.DepolarizingModel(gamma=1.0, phi=ratio)
        up, down = _preset_pair(2)
        trace = trace_distance_series(model, up, down, grid=grid)
        err = np.abs(trace.values - d_analytic * trace.values[0]).max()
        if err > 1e-8:
            raise NumericalDriftError(
                f"propagated trace distance deviates from the closed form "
                f"by {err:.2e} at phi/gamma={ratio:g}"
            )
        if trace.has_revival():
            raise NumericalDriftError(
                f"unexpected revival for static rates at phi/gamma={ratio:g}"
            )
        return d_analytic

    cols = [column(ratio) for ratio in ratios]
    header = ["t"] + [f"d(phi_over_gamma={r:g})" for r in ratios]
    rows = zip(grid.times, *cols)
    _write_csv(args, header, rows, phi_over_gamma=args_list(ratios))
    return 0


def args_list(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def cmd_fig1b(args) -> int:
    ratios = args.phi_over_gamma
    grid = TimeGrid.regular(args.tmax, args.step)
    rho0s, specs = reference_measurements()

    def column(ratio):
        model = models.DepolarizingModel(gamma=1.0, phi=ratio)
        res = cpf_equal_times(model, rho0s, None, specs, grid.times, scheme="d")
        cpf = res.values[0, :, 0]
        if ratio == 1.0:
            err = np.abs(cpf - _balanced_cpf(grid.times, grid.times)).max()
            if not err <= 1e-8:  # NaN fails
                raise NumericalDriftError(f"phi/gamma=1 column deviates from "
                                          f"the closed form by {err:.2e}")
        return cpf

    cols = [column(ratio) for ratio in ratios]
    header = ["t"] + [f"cpf(phi_over_gamma={r:g})" for r in ratios]
    rows = zip(grid.times, *cols)
    _write_csv(args, header, rows, phi_over_gamma=args_list(ratios))
    return 0


def cmd_fig2(args) -> int:
    ratios = args.omega_over_gamma
    grid = TimeGrid.regular(args.tmax, args.step)

    def column(ratio):
        w = coherent_weight_series(1.0, 1.0, ratio, grid)
        err = np.abs(w - _driven_p4(ratio, grid.times)).max()
        if not err <= 1e-8:  # NaN fails
            raise NumericalDriftError(f"omega/gamma={ratio:g} column deviates "
                                      f"from the closed form by {err:.2e}")
        d = np.abs(4.0 * w - 1.0) / 3.0
        revival = np.zeros(d.size, dtype=bool)
        revival[:-1] = np.diff(d) > REVIVAL_TOL
        return d, revival

    results = [column(ratio) for ratio in ratios]
    header = ["t"]
    cols = []
    for r, (d, rev) in zip(ratios, results):
        header += [f"d(omega_over_gamma={r:g})", f"revival(omega_over_gamma={r:g})"]
        cols += [d, rev]
    rows = zip(grid.times, *cols)
    _write_csv(args, header, rows, omega_over_gamma=args_list(ratios))
    return 0


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------

def _series_grid(model, args) -> TimeGrid:
    """The output grid of ``td`` and ``bound``.  Its step is the RK4 substep
    of a time-dependent model, so there it is at most the model's default,
    as ``cpf`` integrates; the output times stay those of ``--step``."""
    grid = TimeGrid.regular(args.tmax, args.step)
    if not models.is_time_dependent(model):
        return grid
    return TimeGrid(grid.times, min(grid.step, default_rk4_step(model)))


def cmd_td(args) -> int:
    model = _resolve_model(args)
    grid = _series_grid(model, args)
    up, down = _preset_pair(model.ds)
    trace = trace_distance_series(model, up, down, grid=grid)
    header = ["t", "trace_distance", "revival"]
    rows = zip(trace.times, trace.values, trace.revivals)
    _write_csv(args, header, rows, model=args.model or "depolarizing")
    return 0


def cmd_bound(args) -> int:
    """Bound terms per grid point; the last row has no next point, so its
    ``increment_next`` and ``slack_next`` are NaN (the only NaN cells)."""
    model = _resolve_model(args)
    grid = _series_grid(model, args)
    up, down = _preset_pair(model.ds)
    trace = trace_distance_series(model, up, down, grid=grid,
                                  with_bound_terms=True)
    n = trace.times.size
    header = ["t", "trace_distance", "env_term", "corr_rho", "corr_sigma",
              "increment_next", "slack_next"]
    rows = []
    for i in range(n):
        if i + 1 < n:
            inc = trace.values[i + 1] - trace.values[i]
            slack = (trace.env_terms[i] + trace.corr_rho[i]
                     + trace.corr_sigma[i] - inc)
        else:
            inc, slack = np.nan, np.nan
        rows.append((trace.times[i], trace.values[i], trace.env_terms[i],
                     trace.corr_rho[i], trace.corr_sigma[i], inc, slack))
    _write_csv(args, header, rows, model=args.model or "depolarizing")
    return 0


def cmd_cpf(args) -> int:
    model = _resolve_model(args)
    rho0s, specs = _preset_measurements(model.ds)
    grid = TimeGrid.regular(args.tmax, args.step)
    ts = grid.times[grid.times > 0] if args.skip_zero else grid.times
    res = cpf_grid(model, rho0s, None, specs, ts, ts, scheme=args.scheme)
    ny = res.values.shape[0]
    header = ["t", "tau"] + [
        f"cpf(y={specs[1].outcomes[iy]:g})" for iy in range(ny)
    ]
    rows = []
    for it, t in enumerate(res.ts):
        for itau, tau in enumerate(res.taus):
            rows.append((t, tau, *res.values[:, it, itau]))
    _write_csv(args, header, rows, model=args.model or "depolarizing",
               scheme=args.scheme)
    return 0


def cmd_check_bystander(args) -> int:
    model = _resolve_model(args)
    verdict, residual = models.check_bystander(model)
    _write_text(args.out, f"bystander={'true' if verdict else 'false'} "
                          f"residual={residual:.3e}\n")
    return 0


# ---------------------------------------------------------------------------
# validation suite
# ---------------------------------------------------------------------------

def _validate_checks(seed: int):
    rng = np.random.default_rng(seed)
    checks = []

    grid = TimeGrid.regular(3.0, 0.0025)
    for ratio in (0.25, 1.0, 4.0):
        coeffs = solve_channel_coefficients(
            1.0, ratio, stationary_populations_vector(1.0, ratio), grid)
        err = np.abs(coeffs.weight()
                     - depolarizing_weight(1.0, ratio, grid.times)).max()
        checks.append((f"weight closed form phi/gamma={ratio:g}", err < 1e-8,
                       f"max err {err:.2e}"))

    model = models.DepolarizingModel(gamma=1.0, phi=1.0)
    rho0s, specs = reference_measurements()
    for t, tau in ((0.5, 0.5), (1.0, 1.0), (2.0, 1.0)):
        p = cpf_joint_deterministic(model, rho0s, None, specs, t, tau)
        err = np.abs(cpf_correlation(p, specs) - _balanced_cpf(t, tau)).max()
        checks.append((f"cpf closed form t={t:g} tau={tau:g}", err < 1e-6,
                       f"max err {err:.2e}"))

    worst_r, worst_d = 0.0, np.inf
    for _ in range(6):
        cls = rng.integers(3)
        if cls == 0:
            m = models.random_classical_mixture(rng, nc=int(rng.integers(2, 4)))
        elif cls == 1:
            m = models.random_stochastic_env(rng, nc=int(rng.integers(2, 4)))
        else:
            m = models.random_quantum_bystander(rng, de=int(rng.integers(2, 4)))
        spec = random_measurement(rng)
        pol = random_policy(rng, 2, 2)
        prep = random_density_matrix(rng, 2, pure=True)
        res_d = cpf_grid(m, prep, None, (spec, spec, spec),
                         [0.7, 1.7], [0.9], scheme="d")
        res_r = cpf_grid(m, prep, None, (spec, spec, spec),
                         [0.7, 1.7], [0.9], scheme="r", policy=pol)
        worst_r = max(worst_r, res_r.max_abs())
        worst_d = min(worst_d, res_d.max_abs())
    checks.append(("bystander random-scheme null", worst_r < 1e-10,
                   f"max |cpf_r| {worst_r:.2e}"))
    checks.append(("bystander deterministic response", worst_d > 1e-6,
                   f"min instance max |cpf_d| {worst_d:.2e}"))

    worst_slack = np.inf
    for _ in range(10):
        m = models.random_unitary_model(rng)
        rho = projector(random_measurement(rng).ket(0))
        sig = projector(random_measurement(rng).ket(1))
        b = trace_distance_bound(m, rho, sig, m.env0, float(rng.uniform(0.2, 2.0)),
                                 float(rng.uniform(0.2, 2.0)))
        worst_slack = min(worst_slack, b.slack)
    checks.append(("revival bound slack", worst_slack > -1e-9,
                   f"min slack {worst_slack:.3e}"))
    return checks


def cmd_validate(args) -> int:
    checks = _validate_checks(args.seed)
    failures = 0
    lines = []
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    _write_text(args.out, "\n".join(lines) + "\n")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser that reports bad input as one stderr line, exit 2;
    subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"qflow: configuration error: {message}\n")


def _subcommand(sub, name: str, func, help: str, grid=None,
                model: bool = False) -> argparse.ArgumentParser:
    """Subparser accepting only the flags ``func`` reads: ``--out``; the
    model flags when ``model``; ``--tmax``, ``--step`` and ``--seed``, all
    echoed by the CSV ``#`` line, when a ``(tmax, step)`` default ``grid``
    is given."""
    # no prefix matching: "fig2 --omega" must not mean --omega-over-gamma
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(func=func)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    if model:
        p.add_argument("--gamma", type=float, default=1.0,
                       help="base decay rate (time unit anchor)")
        p.add_argument("--phi", type=float, default=1.0, help="return rate")
        p.add_argument("--omega", type=float, default=0.0,
                       help="coherent drive frequency")
        p.add_argument("--model", default=None,
                       help="model definition JSON file")
    if grid is not None:
        p.add_argument("--tmax", type=float, default=grid[0])
        p.add_argument("--step", type=float, default=grid[1])
        p.add_argument("--seed", type=int, default=42)
    return p


@functools.cache  # one parser per process, built on the first call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qflow",
        description="memory-effect witnesses for system-environment models",
    )
    parser.add_argument("--version", action="version",
                        version=f"qflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help in (
            ("fig1a", cmd_fig1a, "trace-distance decay factor dataset"),
            ("fig1b", cmd_fig1b, "equal-time past-future correlation dataset")):
        p = _subcommand(sub, name, func, help, grid=(6.0, 0.01))
        p.add_argument("--phi-over-gamma", type=_float_list,
                       default=(0.25, 1.0, 4.0))

    p = _subcommand(sub, "fig2", cmd_fig2, "driven-environment population "
                    "factor |4 p4 - 1|/3 dataset", grid=(10.0, 0.005))
    p.add_argument("--omega-over-gamma", type=_float_list,
                   default=(0.0, 0.5, 1.0, 2.0, 5.0))

    _subcommand(sub, "td", cmd_td, "trace-distance series for a model",
                grid=(6.0, 0.01), model=True)
    _subcommand(sub, "bound", cmd_bound, "revival bound terms along a grid",
                grid=(4.0, 0.05), model=True)
    p = _subcommand(sub, "cpf", cmd_cpf,
                    "past-future correlations on a (t, tau) grid",
                    grid=(5.0, 0.25), model=True)
    p.add_argument("--scheme", choices=("d", "r"), default="d")
    p.add_argument("--skip-zero", action="store_true",
                   help="drop t=0 from the grid")

    _subcommand(sub, "check-bystander", cmd_check_bystander,
                "test environment-marginal independence", model=True)
    p = _subcommand(sub, "validate", cmd_validate,
                    "run the oracle/property suite")
    p.add_argument("--seed", type=_seed, default=42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"qflow: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # missing, unreadable or unwritable file
        print(f"qflow: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalDriftError as exc:
        print(f"qflow: numeric invariant breached: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads.

Each workload turns a seed into inputs and a list of operations.  An
operation is one CLI invocation or one library call; its check decides from
the output alone whether the call was right.  qflow receives only the
generated inputs: model files, argv lists, states and grids.  The inputs are
drawn so that the amount of work does not depend on the seed: list lengths,
dimensions and grids are fixed, only values change.

Why these four (see ``predictions.json`` for the metrics each one moves):

* ``figures``: the reference datasets, one small stacked model with thousands
  of short propagations and the most propagator-cache misses.
* ``model_files``: ``--model`` traffic over all five model classes; the only
  user of ``load_model`` and of the full-representation depolarizing path, and
  the heaviest user of the propagator cache.
* ``modulated``: the only time-dependent path (RK4 over generator assembly),
  with no matrix exponentials at all.
* ``env_scale``: environment-size sweep where ``matrix_exp`` on generators of
  dimension up to 1024 dominates time and memory.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from qflow import cli, models, witness
from qflow.evolve import TimeGrid


@dataclass(frozen=True)
class Op:
    """One operation.  ``call`` runs qflow and returns its output; ``check``
    returns None when that output is right and a one-line reason otherwise."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliRun:
    code: int
    out: str
    err: str


# ---------------------------------------------------------------------------
# seeded inputs: values drawn with numpy, not with qflow's own generators
# ---------------------------------------------------------------------------

def _hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (g + g.conj().T)


def _lindblad(h, jumps):
    """Column-stacking superoperator of -i[H, .] plus the jump dissipators."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        n = op.conj().T @ op
        gen = gen + rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, n)
                            - 0.5 * np.kron(n.T, eye))
    return gen


def _random_generator(rng, d):
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return _lindblad(_hermitian(rng, d), [(op, rng.uniform(0.2, 1.0))])


def _random_kraus(rng, d, n=2):
    ks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in ks))
    inv_sqrt = (v * w ** -0.5) @ v.conj().T
    return [k @ inv_sqrt for k in ks]


def _random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_probs(rng, n):
    p = rng.uniform(0.1, 1.0, size=n)
    return p / p.sum()


def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _proj(ket):
    return np.outer(ket, ket.conj())


def _witness_inputs(rng, ds):
    """Antipodal pure pair, measurement basis (used for all three
    measurements), random-scheme policy and CPF preparation."""
    pair = _random_unitary(rng, ds)
    spec = witness.MeasurementSpec.from_unitary(_random_unitary(rng, ds))
    policy = witness.RandomSchemePolicy(
        np.array([_random_probs(rng, ds) for _ in range(ds)]))
    rho0s = _proj(_random_unitary(rng, ds)[:, 0])
    return _proj(pair[:, 0]), _proj(pair[:, 1]), spec, policy, rho0s


def _json_matrix(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _depolarizing_d(ratio, t):
    """Closed-form trace-distance factor |4 w - 1| / 3 at gamma = 1."""
    gp = 1.0 + ratio
    w = ((1.0 + 3.0 * ratio ** 2) / (3.0 * gp ** 2)
         + 4.0 * ratio / (3.0 * gp ** 2) * np.exp(-gp * t)
         + 2.0 / (3.0 * gp) * np.exp(-ratio * t))
    return np.abs(4.0 * w - 1.0) / 3.0


def _balanced_cpf(t, tau):
    """Closed-form deterministic CPF at gamma = phi = 1."""
    et, eu = np.exp(-t), np.exp(-tau)
    return (4.0 / 81.0) * (1 - et) * (1 - eu) * (2 + et + eu + 5 * et * eu)


def _trace_distance(a, b):
    diff = a - b
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def _reduce(state, ds, de, keep):
    r = state.reshape(ds, de, ds, de)
    return np.einsum("abcb->ac", r) if keep == "s" else np.einsum("abad->bd", r)


class _UnitaryReference:
    """Reduced-state propagation of a closed model through an eigh of H."""

    def __init__(self, h, ds):
        self.evals, self.vecs = np.linalg.eigh(h)
        self.ds, self.de = ds, h.shape[0] // ds

    def evolve(self, state, t):
        u = (self.vecs * np.exp(-1j * self.evals * t)) @ self.vecs.conj().T
        return u @ state @ u.conj().T

    def td_series(self, rho, sigma, env, times):
        ds, de = self.ds, self.de
        r0, s0 = np.kron(rho, env), np.kron(sigma, env)
        return np.array([
            _trace_distance(_reduce(self.evolve(r0, t), ds, de, "s"),
                            _reduce(self.evolve(s0, t), ds, de, "s"))
            for t in times
        ])

    def cpf_tensors(self, rho0s, env, vectors, ts, taus, scheme, policy):
        ds, de = self.ds, self.de
        n = vectors.shape[1]
        lift = [np.kron(_proj(vectors[:, i]), np.eye(de)) for i in range(n)]
        out = np.empty((len(ts), len(taus), n, n, n))
        for ix in range(n):
            px = float((vectors[:, ix].conj() @ rho0s @ vectors[:, ix]).real)
            for it, t in enumerate(ts):
                state_t = self.evolve(np.kron(_proj(vectors[:, ix]), env), t)
                for iy in range(n):
                    if scheme == "d":
                        relay = lift[iy] @ state_t @ lift[iy]
                    else:
                        relay = policy[ix, iy] * np.kron(
                            _proj(vectors[:, iy]), _reduce(state_t, ds, de, "e"))
                    for itau, tau in enumerate(taus):
                        final = self.evolve(relay, tau)
                        for iz in range(n):
                            out[it, itau, iz, iy, ix] = px * np.trace(
                                lift[iz] @ final).real
        return out


# checks on library outputs (TdTrace and CpfResult)

def _in_unit_interval(d):
    if not (d.min() >= -1e-12 and d.max() <= 1.0 + 1e-9):
        return f"trace distance outside [0, 1]: {d.min():.3g}..{d.max():.3g}"
    return None


def _null(cpf_values):
    """Bystander random-scheme CPF vanishes (NaN marks undefined cells)."""
    vals = cpf_values[~np.isnan(cpf_values)]
    if not (vals.size and np.abs(vals).max() < 1e-10):
        return "bystander random-scheme CPF is not null"
    return None


def _trace_distances_in_range(trace):
    return _in_unit_interval(trace.values)


def _slack_ok(slack):
    if not slack.min() >= -1e-9:
        return f"revival bound slack {slack.min():.3e} below -1e-9"
    return None


def _bound_slack_ok(trace):
    inc = np.diff(trace.values)
    return _slack_ok((trace.env_terms + trace.corr_rho + trace.corr_sigma)[:-1] - inc)


def _random_scheme_null(res):
    return _null(res.values)


def _no_signalling(res):
    """The (y, x) marginal of P[z, y, x] cannot depend on tau."""
    marg = res.tensors.sum(axis=2)
    err = np.abs(marg - marg[:, :1]).max()
    return None if err < 1e-10 else f"(y, x) marginal changes with tau by {err:.2e}"


def _first_failure(*checks):
    return lambda out: next((why for why in (c(out) for c in checks) if why), None)


# ---------------------------------------------------------------------------
# CLI operations and CSV checks
# ---------------------------------------------------------------------------

def _cli_call(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
        return CliRun(code, out.getvalue(), err.getvalue())
    return call


def _cli_op(name, argv, *checks):
    """A CLI operation must exit 0, write the same bytes on every pass and
    pass each extra check on its standard output."""
    first = {}

    def check(run):
        if run.code != 0:
            return f"exit {run.code}: {run.err.strip()[:200]}"
        if first.setdefault("out", run.out) != run.out:
            return "output bytes differ from the first pass"
        return _first_failure(*checks)(run.out)

    return Op(name, _cli_call(argv), check)


def _csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def _csv_list(values):
    return ",".join(f"{v:g}" for v in values)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def figures(seed: int, workdir: Path) -> list[Op]:
    """fig1a, fig1b and fig2 on their default grids, seeded rate ratios."""
    rng = np.random.default_rng(seed)
    ratios = [round(rng.uniform(0.2, 0.5), 3), 1.0, round(rng.uniform(2.0, 5.0), 3)]
    omegas = [0.0] + sorted(round(x, 3) for x in rng.uniform(0.3, 6.0, size=4))

    def fig1a_closed_form(out):
        header, rows = _csv(out)
        for j, r in enumerate(ratios, start=1):
            err = np.abs(rows[:, j] - _depolarizing_d(r, rows[:, 0])).max()
            if not err <= 1e-9:
                return f"{header[j]} deviates from the closed form by {err:.2e}"
        return None

    def fig1b_closed_form(out):
        header, rows = _csv(out)
        col = header.index("cpf(phi_over_gamma=1)")
        t = rows[:, 0]
        err = np.abs(rows[:, col] - _balanced_cpf(t, t)).max()
        if not err <= 1e-6:
            return f"phi/gamma=1 column deviates from the closed form by {err:.2e}"
        return None

    common = ["--seed", str(seed)]
    return [
        _cli_op("fig1a", ["fig1a", "--phi-over-gamma", _csv_list(ratios)] + common,
                fig1a_closed_form),
        _cli_op("fig1b", ["fig1b", "--phi-over-gamma", _csv_list(ratios)] + common,
                fig1b_closed_form),
        _cli_op("fig2", ["fig2", "--omega-over-gamma", _csv_list(omegas)] + common),
    ]


def _model_documents(rng):
    """One ``qflow-model/1`` document per model class, small dimensions."""
    ds = 2

    def label_generators(n):
        return [_json_matrix(_random_generator(rng, ds)) for _ in range(n)]

    def kraus():
        return [_json_matrix(k) for k in _random_kraus(rng, ds)]

    nc = 3
    docs = {
        "classical_mixture": {
            "ds": ds, "de_or_nc": nc,
            "parameters": {"generators": label_generators(nc)},
            "initial_env": _random_probs(rng, nc).tolist(),
        },
        "stochastic_env": {
            "ds": ds, "de_or_nc": nc,
            "parameters": {
                "generators": label_generators(nc),
                "jumps": [{"src": s, "dst": d, "rate": rng.uniform(0.2, 1.5),
                           "kraus": kraus()}
                          for s in range(nc) for d in range(nc) if s != d],
            },
            "initial_env": _random_probs(rng, nc).tolist(),
        },
    }
    de = 3
    docs["quantum_bystander"] = {
        "ds": ds, "de_or_nc": de,
        "parameters": {
            "system_generator": _json_matrix(_random_generator(rng, ds)),
            "env_generator": _json_matrix(_random_generator(rng, de)),
            "collisions": [
                {"op": _json_matrix(rng.normal(size=(de, de))
                                    + 1j * rng.normal(size=(de, de))),
                 "rate": rng.uniform(0.2, 1.0), "kraus": kraus()}
                for _ in range(2)
            ],
        },
        "initial_env": _json_matrix(_random_density(rng, de)),
    }
    docs["unitary"] = {
        "ds": ds, "de_or_nc": de,
        "parameters": {
            "h_system": _json_matrix(_hermitian(rng, ds)),
            "h_env": _json_matrix(_hermitian(rng, de)),
            "h_interaction": _json_matrix(_hermitian(rng, ds * de)),
        },
        "initial_env": _json_matrix(_random_density(rng, de)),
    }
    # omega > 0 selects the full bipartite representation
    docs["depolarizing"] = {
        "ds": ds, "de_or_nc": 4,
        "parameters": {"gamma": 1.0, "phi": rng.uniform(0.5, 2.0),
                       "omega": rng.uniform(0.5, 3.0)},
        "initial_env": _random_probs(rng, 4).tolist(),
    }
    for cls, doc in docs.items():
        doc.update({"format": "qflow-model/1", "class": cls})
    return docs


def model_files(seed: int, workdir: Path) -> list[Op]:
    """td, bound, cpf (both schemes) and check-bystander over seeded model
    files of every class, then ``validate``."""
    rng = np.random.default_rng(seed)
    docs = _model_documents(rng)

    def trace_distances_in_range(out):
        return _in_unit_interval(_csv(out)[1][:, 1])

    def bound_holds(out):
        header, rows = _csv(out)
        return _slack_ok(rows[:-1, header.index("slack_next")])

    def random_scheme_null(out):
        return _null(_csv(out)[1][:, 2:])

    def verdict(expected):
        want = f"bystander={'true' if expected else 'false'} "

        def check(out):
            return None if out.startswith(want) else f"expected {want.strip()}, got {out.strip()}"
        return check

    def validate_passes(out):
        failed = [line for line in out.splitlines() if not line.startswith("PASS")]
        return f"validate reported {failed[0]}" if failed else None

    ops = []
    for cls, doc in docs.items():
        path = workdir / f"{cls}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        bystander = cls != "unitary"
        model = ["--model", str(path)]
        ops += [
            _cli_op(f"{cls}:td", ["td"] + model, trace_distances_in_range),
            _cli_op(f"{cls}:bound", ["bound"] + model, bound_holds),
            _cli_op(f"{cls}:cpf-d", ["cpf", "--scheme", "d"] + model),
            _cli_op(f"{cls}:cpf-r", ["cpf", "--scheme", "r"] + model,
                    *([random_scheme_null] if bystander else [])),
            _cli_op(f"{cls}:check-bystander", ["check-bystander"] + model,
                    verdict(bystander)),
        ]
    # validate runs at its default seed: with seeds drawn from the workload
    # seed, its "bystander deterministic response" check fails on about four
    # seeds in ten (a defect of the check's threshold, reported in CHANGES.md)
    ops.append(_cli_op("validate", ["validate"], validate_passes))
    return ops


MODULATION_AMPLITUDE = 0.5
MODULATION_FREQUENCY = 0.01


def _adiabatic_d(t):
    """Slow-modulation envelope at gamma = phi = 1 from stationary populations."""
    b = MODULATION_AMPLITUDE * np.sin(MODULATION_FREQUENCY * t)
    gamma_t, phi_t = 1.0 + b, 1.0 - b
    total = gamma_t + phi_t
    w = 0.5 * phi_t / total + 0.5 * gamma_t / (3.0 * total)
    return np.abs(4.0 * w - 1.0) / 3.0


def modulated(seed: int, workdir: Path) -> list[Op]:
    """Criterion-9 configuration: sine-modulated depolarizing rates over one
    period, a seeded antipodal state pair, measurement basis and policy."""
    rng = np.random.default_rng(seed)
    model = models.DepolarizingModel(
        gamma=1.0, phi=1.0,
        modulation=models.sine_modulation(MODULATION_AMPLITUDE, MODULATION_FREQUENCY))
    rho, sigma, spec, policy, rho0s = _witness_inputs(rng, 2)
    period = 2.0 * np.pi / MODULATION_FREQUENCY
    grid = TimeGrid(times=np.arange(0.0, period + 5.0, 1.0), step=0.02)
    late = grid.times > 50.0

    def td_call():
        return witness.trace_distance_series(model, rho, sigma, grid=grid)

    def revives_on_the_envelope(trace):
        d = trace.values[late]
        envelope = _adiabatic_d(grid.times[late])
        dev, peak = np.abs(d - envelope).max(), envelope.max()
        if not dev <= 0.05 * peak:
            return f"envelope deviation {dev:.3g} above 5% of peak {peak:.3g}"
        if not (np.diff(d) > 1e-6).any():
            return "no trace-distance revival under slow modulation"
        return None

    def cpf_call():
        return witness.cpf_grid(model, rho0s, None, (spec, spec, spec),
                                [150.0], [40.0], scheme="r", policy=policy,
                                step=0.02)

    return [Op("td-series", td_call, revives_on_the_envelope),
            Op("cpf-r", cpf_call, _random_scheme_null)]


UNITARY_ENV_DIMS = (4, 8, 16)
STOCHASTIC_LABELS = (4, 16, 64)
SCALE_TMAX, SCALE_STEP = 1.0, 0.25
SCALE_CPF_TIMES = (0.25, 0.5)


def _scaled_unitary(rng, ds, de):
    """Unitary model whose total Hamiltonian has spectral norm 2, so that the
    exponentials cost the same for every seed."""
    hs, he, hi = _hermitian(rng, ds), _hermitian(rng, de), _hermitian(rng, ds * de)
    total = np.kron(hs, np.eye(de)) + np.kron(np.eye(ds), he) + hi
    c = 2.0 / np.linalg.norm(total, 2)
    env0 = _random_density(rng, de)
    return models.UnitaryModel(hs=c * hs, he=c * he, hi=c * hi, env0=env0), c * total


def _ring_stochastic(rng, ds, nc):
    """Stochastic environment whose labels hop to their ring neighbours."""
    jumps = tuple(
        models.EnvJump(src=c, dst=(c + step) % nc, rate=rng.uniform(0.5, 1.5),
                       kraus=tuple(_random_kraus(rng, ds)))
        for c in range(nc) for step in (1, -1)
    )
    return models.StochasticEnvModel(
        lindblads=tuple(_random_generator(rng, ds) for _ in range(nc)),
        jumps=jumps, populations0=_random_probs(rng, nc))


def _scale_ops(label, model, h, rng, grid, ts):
    """Bound-term series and both CPF schemes for one env_scale model; ``h``
    is the total Hamiltonian of a unitary model, None for a classical one."""
    rho, sigma, spec, policy, rho0s = _witness_inputs(rng, 2)
    specs = (spec, spec, spec)

    # qflow is looked up at call time so that the traced run sees its wrappers
    def td_call():
        return witness.trace_distance_series(model, rho, sigma, grid=grid,
                                             with_bound_terms=True)

    def cpf_call(scheme):
        return lambda: witness.cpf_grid(model, rho0s, None, specs, ts, ts,
                                        scheme=scheme, policy=policy)

    if h is None:  # a classical environment is a bystander
        td_check = _first_failure(_trace_distances_in_range, _bound_slack_ok)
        checks = {"d": _no_signalling,
                  "r": _first_failure(_random_scheme_null, _no_signalling)}
    else:
        ref = _UnitaryReference(h, 2)

        def td_matches(trace):
            want = ref.td_series(rho, sigma, model.env0, grid.times)
            err = np.abs(trace.values - want).max()
            if not err <= 1e-8:
                return f"trace distances deviate from the eigh reference by {err:.2e}"
            return None

        def tensors_match(scheme):
            def check(res):
                want = ref.cpf_tensors(rho0s, model.env0, spec.vectors, ts, ts,
                                       scheme, policy.matrix)
                err = np.abs(res.tensors - want).max()
                if not err <= 1e-8:
                    return f"joint tensors deviate from the eigh reference by {err:.2e}"
                return None
            return check

        td_check = _first_failure(td_matches, _bound_slack_ok)
        checks = {s: tensors_match(s) for s in ("d", "r")}
    return [Op(f"{label}:td-bound", td_call, td_check)] + [
        Op(f"{label}:cpf-{s}", cpf_call(s), checks[s]) for s in ("d", "r")]


def env_scale(seed: int, workdir: Path) -> list[Op]:
    """Unitary and stochastic models of growing environment size: bound-term
    trace-distance series and CPF grids in both schemes on a short grid."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid.regular(SCALE_TMAX, SCALE_STEP)
    ts = np.array(SCALE_CPF_TIMES)
    cases = [(f"unitary-de{de}", *_scaled_unitary(rng, 2, de))
             for de in UNITARY_ENV_DIMS]
    cases += [(f"stochastic-nc{nc}", _ring_stochastic(rng, 2, nc), None)
              for nc in STOCHASTIC_LABELS]
    return [op for label, model, h in cases
            for op in _scale_ops(label, model, h, rng, grid, ts)]


WORKLOADS = {
    "figures": figures,
    "model_files": model_files,
    "modulated": modulated,
    "env_scale": env_scale,
}

# the speed.py reference unit of the same kind as each workload's dominant
# work: short numpy calls on tiny matrices, or dense products
REFERENCE_UNIT = {
    "figures": "dispatch",
    "model_files": "dispatch",
    "modulated": "dispatch",
    "env_scale": "dense",
}

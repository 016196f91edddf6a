"""Tests of the benchmark harness itself: tracing leaves outputs alone, every
check catches a corrupted output, the seed changes inputs but not the amount
of work, and the declared metrics match what the harness computes."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.workloads import CliRun  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
SEED, OTHER_SEED = 3, 4


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One pass per (workload, seed, traced), run on first use.  Traced and
    untraced passes share a workdir: the CSV header echoes model file paths."""
    cache, workdirs = {}, {}

    def get(name, seed, traced):
        key = (name, seed, traced)
        if key not in cache:
            if (name, seed) not in workdirs:
                workdirs[name, seed] = tmp_path_factory.mktemp(f"{name}-{seed}")
            workdir = workdirs[name, seed]
            ops = workloads.WORKLOADS[name](seed, workdir)
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
            try:
                outs = [op.call() for op in ops]
            finally:
                tracer.uninstall()
            cache[key] = {
                "names": [op.name for op in ops],
                "outs": outs,
                "checks": [op.check(out) for op, out in zip(ops, outs)],
                "metrics": tracing.layer_metrics(tracer.take()) if traced else None,
            }
        return cache[key]

    return get


def _fresh_op(name, op_name, tmp_path):
    ops = workloads.WORKLOADS[name](SEED, tmp_path)
    return next(op for op in ops if op.name == op_name)


def _output(passes, name, op_name):
    run = passes(name, SEED, True)
    return run["outs"][run["names"].index(op_name)]


def _edit_csv(text, column, row, value):
    """Replace one cell, addressed by header name and data-row index."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[start].rstrip("\n").split(",").index(column)
    cells = lines[start + 1 + row].rstrip("\n").split(",")
    cells[col] = value
    lines[start + 1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_operation_passes_its_check(passes, name):
    run = passes(name, SEED, True)
    assert [c for c in run["checks"] if c] == []


@pytest.mark.parametrize("name", ["figures", "model_files"])
def test_csv_bytes_identical_with_tracing_on_and_off(passes, name):
    plain, traced = passes(name, SEED, False), passes(name, SEED, True)
    assert [o.out for o in plain["outs"]] == [o.out for o in traced["outs"]]


def _cli(out):
    return CliRun(0, out, "")


CLI_CORRUPTIONS = [
    ("figures", "fig1a",
     lambda t: _edit_csv(t, "d(phi_over_gamma=1)", 100, "0.5")),
    ("figures", "fig1b",
     lambda t: _edit_csv(t, "cpf(phi_over_gamma=1)", 300, "0.01")),
    ("model_files", "unitary:td", lambda t: _edit_csv(t, "trace_distance", 5, "1.5")),
    ("model_files", "stochastic_env:bound", lambda t: _edit_csv(t, "slack_next", 3, "-1e-06")),
    ("model_files", "quantum_bystander:cpf-r", lambda t: _edit_csv(t, "cpf(y=1)", 30, "1e-06")),
    ("model_files", "depolarizing:check-bystander",
     lambda t: t.replace("bystander=true", "bystander=false")),
    ("model_files", "unitary:check-bystander",
     lambda t: t.replace("bystander=false", "bystander=true")),
    ("model_files", "validate", lambda t: t.replace("PASS", "FAIL", 1)),
]


@pytest.mark.parametrize("name,op_name,corrupt", CLI_CORRUPTIONS,
                         ids=[c[1] for c in CLI_CORRUPTIONS])
def test_cli_checks_catch_corrupted_output(passes, tmp_path, name, op_name, corrupt):
    good = _output(passes, name, op_name).out
    bad = corrupt(good)
    assert bad != good
    assert _fresh_op(name, op_name, tmp_path).check(_cli(good)) is None
    assert _fresh_op(name, op_name, tmp_path).check(_cli(bad)) is not None


def test_cli_checks_catch_exit_codes_and_changed_bytes(passes, tmp_path):
    op = _fresh_op("figures", "fig2", tmp_path)
    good = _output(passes, "figures", "fig2").out
    assert op.check(_cli(good)) is None
    assert op.check(_cli(good.replace("\n", "\n ", 1))) is not None
    assert op.check(CliRun(3, good, "numeric invariant breached")) is not None


def _bump(a, index, delta):
    a = np.array(a, dtype=float)
    a[index] += delta
    return a


LIBRARY_CORRUPTIONS = [
    ("modulated", "td-series",
     lambda r: dataclasses.replace(r, values=r.values * 1.2)),
    ("modulated", "td-series",
     lambda r: dataclasses.replace(r, values=np.minimum.accumulate(r.values))),
    ("modulated", "cpf-r",
     lambda r: dataclasses.replace(r, values=_bump(r.values, (0, 0, 0), 1e-6))),
    ("env_scale", "unitary-de8:td-bound",
     lambda r: dataclasses.replace(r, values=_bump(r.values, 2, 1e-6))),
    ("env_scale", "unitary-de4:td-bound",
     lambda r: dataclasses.replace(r, env_terms=r.env_terms - 10.0)),
    ("env_scale", "unitary-de4:cpf-d",
     lambda r: dataclasses.replace(r, tensors=_bump(r.tensors, (1, 0, 0, 0, 0), 1e-6))),
    ("env_scale", "stochastic-nc16:cpf-d",
     lambda r: dataclasses.replace(r, tensors=_bump(r.tensors, (0, 1, 0, 0, 0), 1e-6))),
    ("env_scale", "stochastic-nc4:cpf-r",
     lambda r: dataclasses.replace(r, values=_bump(r.values, (0, 1, 1), 1e-6))),
]


@pytest.mark.parametrize("name,op_name,corrupt", LIBRARY_CORRUPTIONS,
                         ids=[f"{c[1]}-{i}" for i, c in enumerate(LIBRARY_CORRUPTIONS)])
def test_library_checks_catch_corrupted_output(passes, tmp_path, name, op_name, corrupt):
    good = _output(passes, name, op_name)
    op = _fresh_op(name, op_name, tmp_path)
    assert op.check(good) is None
    assert op.check(corrupt(good)) is not None


COUNT_METRICS = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]


def _fingerprint(out):
    return out.out if isinstance(out, CliRun) else np.asarray(out.values).tobytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_operation_counts(passes, name):
    a, b = passes(name, SEED, True), passes(name, OTHER_SEED, True)
    assert a["names"] == b["names"]
    assert [_fingerprint(o) for o in a["outs"]] != [_fingerprint(o) for o in b["outs"]]
    assert ({k: a["metrics"][k] for k in COUNT_METRICS if k in a["metrics"]}
            == {k: b["metrics"][k] for k in COUNT_METRICS if k in b["metrics"]})


def test_modulated_makes_no_exponentials(passes):
    metrics = passes("modulated", SEED, True)["metrics"]
    assert metrics["qcore.matrix_exp.calls"] == 0
    assert metrics["models.assemble_generator.calls"] > 0


def test_declared_metrics_match_the_harness():
    computed = set(tracing.layer_metrics([]))
    from_run = {"cli.out_bytes", "trace.overhead_s", "import.qflow_s",
                "import.scipy_linalg_s"}
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    assert per_layer == computed | from_run
    assert {p["metric"] for p in PREDICTIONS["predictions"]} == per_layer
    assert ({w["name"] for w in DECLARED["workloads"]}
            == set(workloads.WORKLOADS) == set(PREDICTIONS["workloads"]))
    assert {m["name"] for m in DECLARED["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}


def test_tracer_restores_every_binding():
    from qflow import cli, evolve, witness

    before = (cli.main, witness.propagate, evolve.matrix_exp,
              evolve.PropagatorCache.at)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert witness.propagate is not before[1]
        assert evolve.matrix_exp is not before[2]
    finally:
        tracer.uninstall()
    assert (cli.main, witness.propagate, evolve.matrix_exp,
            evolve.PropagatorCache.at) == before


def test_speed_gauge_samples_while_running_and_restores_the_handler():
    import signal
    from time import perf_counter

    from perfbench import speed

    before = signal.getsignal(signal.SIGALRM)
    gauge = speed.SpeedGauge("dense")
    with gauge:
        start = perf_counter()
        while perf_counter() - start < 0.5:
            sum(range(1000))
    assert len(gauge.units) >= 3
    assert gauge.spent == pytest.approx(sum(gauge.units))
    assert 0.0 < gauge.factor() < float("inf")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert set(workloads.REFERENCE_UNIT) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_UNIT.values()) <= set(speed.UNITS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

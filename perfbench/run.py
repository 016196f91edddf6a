"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Run from the repository root; qflow is imported from ``src/`` with no
install step.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run; both are declared, with their units,
in ``BENCHMARK.json``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it, each
starting with ``#``, give provenance and the samples behind each median.
"""

import os

# One BLAS thread, fixed before numpy loads (also in the set-up probes):
# results must not depend on how many cores other processes leave free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("QFLOW_JOBS", None)  # keep the CLI on its serial path

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7   # fresh processes behind setup_s and the import metrics
MIN_PASSES = 3     # timed passes per run, even when one pass outlasts --seconds
MIN_TRACED = 2     # traced and untraced passes each, in a traced run


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _probe(workload, seed, workdir, importtime):
    """One fresh process: returns its probe record, plus the cumulative
    import time of scipy.linalg when ``importtime`` is set."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(ROOT / "perfbench" / "probe.py"), workload, str(seed), str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        record["scipy_linalg_s"] = 0.0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.linalg":
                record["scipy_linalg_s"] = int(fields[1]) * 1e-6
    return record


def _run_pass(ops, tracer, op_base, failures, gauge):
    """Run every operation once; return the summed wall time of the calls
    (checks are not timed, nor the units of a running speed gauge) and the
    CLI output bytes."""
    wall, out_bytes = 0.0, 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        gauge_before = gauge.spent
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # any raise is a failed operation
            wall += perf_counter() - start - (gauge.spent - gauge_before)
            failures.append(f"{op.name}: raised {exc!r}")
            traceback.print_exc(file=sys.stderr)
            continue
        wall += perf_counter() - start - (gauge.spent - gauge_before)
        out_bytes += len(getattr(out, "out", "").encode())
        try:
            why = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            why = f"check raised {exc!r}"
        if why:
            failures.append(f"{op.name}: {why}")
    return wall, out_bytes


def _provenance(args):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qflow" / "__init__.py").is_file():
        return _fail(f"no qflow sources under {ROOT / 'src'}")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _measure(args, declared, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, declared, workdir):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import speed
    from perfbench import tracer as tracing
    from perfbench import workloads

    # the gauges run only in untraced runs: their units would count in the
    # spans' self times.  Set-up is import and input building, interpreter
    # work on every workload.
    setup_gauge = speed.SpeedGauge("dispatch")
    gauge = speed.SpeedGauge(workloads.REFERENCE_UNIT[args.workload])
    probes, setups = [], []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        first = len(setup_gauge.units)
        with setup_gauge if args.trace == 0 else contextlib.nullcontext():
            probes.append(_probe(args.workload, args.seed, probe_dir, args.trace == 1))
        if args.trace == 0:
            setups.append(probes[-1]["setup_s"] * setup_gauge.factor(first))

    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    failures = []
    attempted = 0

    def run_pass(tracer=None):
        nonlocal attempted
        wall, out_bytes = _run_pass(ops, tracer, attempted, failures, gauge)
        attempted += len(ops)
        return wall, out_bytes

    run_pass()  # warm-up: caches, lazy imports, first-pass reference bytes
    start = perf_counter()
    if args.trace == 0:
        walls, measured, durations = [], [], []
        with gauge:
            while (len(walls) < MIN_PASSES
                   or perf_counter() - start + statistics.median(durations) <= args.seconds):
                pass_start, first = perf_counter(), len(gauge.units)
                measured.append(run_pass()[0])
                walls.append(measured[-1] * gauge.factor(first))
                durations.append(perf_counter() - pass_start)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"wall_s": walls, "setup_s": setups,
                   "measured wall_s": measured,
                   "measured setup_s": [p["setup_s"] for p in probes],
                   f"{workloads.REFERENCE_UNIT[args.workload]} units (count, mean s)": [
                       len(gauge.units), statistics.fmean(gauge.units)]}
        section = "end_to_end"
    else:
        tracer = tracing.Tracer()
        plain, traced, per_pass, out_bytes = [], [], [], 0
        last_spans = []
        while (min(len(plain), len(traced)) < MIN_TRACED
               or perf_counter() - start + statistics.median(plain)
               + statistics.median(traced) <= args.seconds):
            plain.append(run_pass()[0])
            tracer.install()
            try:
                wall, out_bytes = run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(wall)
            last_spans = tracer.take()
            per_pass.append(tracing.layer_metrics(last_spans))
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracing.write_jsonl(last_spans, spans_path)
        metrics = {key: statistics.median(p[key] for p in per_pass)
                   for key in per_pass[0]}
        metrics.update({
            "cli.out_bytes": out_bytes,
            "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
            "import.qflow_s": statistics.median(p["import_s"] for p in probes),
            "import.scipy_linalg_s": statistics.median(p["scipy_linalg_s"] for p in probes),
        })
        samples = {"untraced wall_s": plain, "traced wall_s": traced,
                   "spans (last traced pass)": [len(last_spans), str(spans_path)]}
        section = "per_layer"

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json {section}")
    print("# provenance " + json.dumps(_provenance(args)))
    for label, values in samples.items():
        print(f"# {label}: {json.dumps(values)}")
    print(f"# fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for why in failures[:20]:
        print(f"perfbench: FAILED {why}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

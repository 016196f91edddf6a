"""Set-up probe, run in a fresh process by ``run.py``.

Times ``import qflow.cli`` and then the building of one workload's inputs,
and prints one JSON line: ``{"import_s": ..., "setup_s": ...}``.  ``setup_s``
runs from before the import to the point where the first operation could
start.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    start = perf_counter()
    import qflow.cli  # noqa: F401
    imported = perf_counter()
    from perfbench import workloads
    workloads.WORKLOADS[name](seed, workdir)
    ready = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": ready - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

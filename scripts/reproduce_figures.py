#!/usr/bin/env python3
"""Regenerate the three reference figure datasets into ./out/.

Equivalent to running the fig1a/fig1b/fig2 subcommands with their default
grids.
"""

import argparse
import pathlib
import sys

from qflow.cli import main as qflow_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    common = ["--seed", str(args.seed)]
    for cmd in ("fig1a", "fig1b", "fig2"):
        target = outdir / f"{cmd}.csv"
        code = qflow_main([cmd, "--out", str(target)] + common)
        if code != 0:
            print(f"{cmd} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

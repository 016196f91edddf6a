#!/usr/bin/env python3
"""Dump the outputs of a qflow checkout, or compare two such dumps.

    python3 scripts/compare_outputs.py dump --root CHECKOUT --seed 7 --out a.npz
    python3 scripts/compare_outputs.py compare a.npz b.npz

``dump`` imports qflow and ``perfbench.workloads`` from the checkout at
``--root`` (the one holding this script by default) and runs every operation
of the four benchmark workloads at ``--seed`` once, plus the CLI commands at
their defaults and the three figure commands once more at other ratios and
grids.  On two sine-modulated depolarizing model files, one undriven
(stacked) and one driven (full), it runs the CLI's RK4 paths: ``td``,
``bound`` and ``cpf --scheme d|r`` at their defaults, and ``td`` and
``bound`` at ``--step 0.5``, which integrate at a substep below the output
step.  Each CLI run is stored as its exit code, standard output and
standard error; each library result as the arrays of its fields.  It also
stores the ``save_model`` text of one instance of each of the five model
classes drawn at ``--seed``, and the text after one load and re-save.  Model files are written under a relative
directory of a fresh temporary working directory, so CSV headers that echo
their paths agree between checkouts.

``compare`` prints one line per entry that differs: text (CLI bytes, model
files) must be equal, arrays equal by ``np.array_equal`` (NaN equal to NaN,
same shape); arrays that are not get their largest absolute and relative
deviation, and so does text that differs only in its numbers.  A model file
that differs is followed by a unified diff of its two texts, so a change of
the file format reads as one.  It exits 0 when every entry is identical and
1 otherwise.
"""

import argparse
import dataclasses
import difflib
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

CLI_RUNS = (["fig1a"], ["fig1b"], ["fig2"], ["td"], ["bound"],
            ["cpf", "--scheme", "d"], ["cpf", "--scheme", "r"],
            ["check-bystander"], ["validate"],
            ["fig1a", "--phi-over-gamma", "0.5,2", "--tmax", "2"],
            ["fig1b", "--phi-over-gamma", "1,3", "--tmax", "1.5",
             "--step", "0.05"],
            ["fig2", "--omega-over-gamma", "0.7,3", "--tmax", "3"])

# sine-modulated depolarizing model files by drive frequency, and the
# commands run on each
MODULATED_FILES = {"modulated.json": 0.0, "modulated-driven.json": 1.5}
MODULATED_COMMANDS = (["td"], ["bound"], ["cpf", "--scheme", "d"],
                      ["cpf", "--scheme", "r"], ["td", "--step", "0.5"],
                      ["bound", "--step", "0.5"])

# a number as the CLI writes it, in CSV fields and header comments
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _entries(name, out):
    """The stored arrays of one output, keyed under ``name``."""
    if dataclasses.is_dataclass(out):
        fields = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
        if "code" in fields:  # a CLI run: text compared byte for byte
            return {f"{name}/{k}": np.array(str(v)) for k, v in fields.items()}
        return {f"{name}/{k}": np.asarray(v) for k, v in fields.items()
                if v is not None}
    return {name: np.asarray(out)}


def _model_file_texts(models, seed: int) -> dict:
    """``save_model`` text of one seeded instance of each model class, and
    its text after one load and re-save."""
    rng = np.random.default_rng(seed)
    entries = {}
    path = Path("models") / "saved.json"
    for model in (models.random_classical_mixture(rng),
                  models.random_stochastic_env(rng),
                  models.random_quantum_bystander(rng),
                  models.random_unitary_model(rng),
                  models.DepolarizingModel(
                      gamma=1.0, phi=0.7, omega=1.5,
                      modulation=models.sine_modulation(0.4, 0.9))):
        name = f"model/{type(model).__name__}"
        models.save_model(model, path)
        entries[f"{name}/saved"] = np.array(path.read_text(encoding="utf-8"))
        models.save_model(models.load_model(path), path)
        entries[f"{name}/resaved"] = np.array(path.read_text(encoding="utf-8"))
    return entries


def dump(root: Path, seed: int, out: Path) -> None:
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import workloads
    from qflow import models

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for wname, make in workloads.WORKLOADS.items():
                workdir = Path(wname)
                workdir.mkdir()
                for op in make(seed, workdir):
                    entries.update(_entries(f"{wname}/{op.name}", op.call()))
            runs = list(CLI_RUNS)
            Path("models").mkdir()
            for name, omega in MODULATED_FILES.items():
                path = Path("models") / name
                models.save_model(models.DepolarizingModel(
                    gamma=1.0, phi=0.7, omega=omega,
                    modulation=models.sine_modulation(0.4, 0.9)), path)
                runs += [argv + ["--model", str(path)]
                         for argv in MODULATED_COMMANDS]
            entries.update(_model_file_texts(models, seed))
            for argv in runs:
                run = workloads._cli_call(argv)()
                entries.update(_entries("cli/" + " ".join(argv), run))
        finally:
            os.chdir(cwd)
    np.savez(out, **entries)
    print(f"{len(entries)} entries from {root} at seed {seed} -> {out}")


def _deviation(a, b) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    if a.dtype.kind in "US" or b.dtype.kind in "US":
        a, b = str(a), str(b)
        if NUMBER.split(a) != NUMBER.split(b):
            return "text differs"
        a, b = (np.array(NUMBER.findall(x), dtype=float) for x in (a, b))
        return "numbers in the text: " + _deviation(a, b)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(a.astype(complex) - b.astype(complex))
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    if not np.isfinite(diff[~(np.isnan(a) & np.isnan(b))]).all():
        return "NaN or infinity in one dump only"
    return (f"max abs {np.nanmax(diff):.3e}, "
            f"max rel {np.nanmax(np.where(diff > 0, rel, 0.0)):.3e}")


def compare(path_a: Path, path_b: Path) -> int:
    a, b = np.load(path_a), np.load(path_b)
    differ = 0
    for key in sorted(set(a.files) | set(b.files)):
        if key not in a.files or key not in b.files:
            print(f"{key}: only in {path_a if key in a.files else path_b}")
            differ += 1
        elif not np.array_equal(a[key], b[key],
                                equal_nan=a[key].dtype.kind in "fc"):
            print(f"{key}: {_deviation(a[key], b[key])}")
            if key.startswith("model/"):
                sys.stdout.writelines(difflib.unified_diff(
                    str(a[key]).splitlines(True), str(b[key]).splitlines(True),
                    str(path_a), str(path_b)))
            differ += 1
    total = len(set(a.files) | set(b.files))
    print(f"{total - differ} of {total} entries identical")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="run the workloads and CLI commands")
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parents[1])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("compare", help="compare two dumps")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args()
    if args.command == "dump":
        dump(args.root.resolve(), args.seed, args.out.resolve())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

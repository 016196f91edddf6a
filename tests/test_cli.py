import argparse
import copy
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import qflow
from qflow import cli, models
from qflow.cli import main
from qflow.witness import cpf_equal_times


def run(argv):
    return main(argv)


REPO = Path(__file__).resolve().parents[1]
FRESH_ENV = {**os.environ, "PYTHONPATH": str(Path(qflow.__file__).resolve().parents[1])}


def run_alone(argv):
    """(exit code, stdout, stderr) of ``argv`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "qflow.cli", *argv],
                          env=FRESH_ENV, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_here(argv):
    """(exit code, stdout, stderr) of ``argv`` in this process, through the
    parser that earlier calls built."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(x) for x in row] for row in rows])
    return comment, header, data


class TestFigureCommands:
    def test_fig1a_values(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert run(["fig1a", "--tmax", "2", "--step", "0.01",
                    "--out", str(out)]) == 0
        comment, header, data = read_csv(out)
        assert comment.startswith("# qflow 0.1.0 command=fig1a")
        assert header[0] == "t"
        assert data[0, 1:] == pytest.approx([1.0, 1.0, 1.0])
        i = np.argmin(np.abs(data[:, 0] - 1.0))
        want = 1 / 9 + (4 / 9) * (np.exp(-1) + np.exp(-2))
        assert data[i, 2] == pytest.approx(want, abs=1e-9)

    def test_fig1b_values(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert run(["fig1b", "--tmax", "1", "--step", "0.05",
                    "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert data[0, 1:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        i = np.argmin(np.abs(data[:, 0] - 1.0))
        want = 4 / 81 * (1 - np.exp(-1)) ** 2 * (2 + 2 * np.exp(-1) + 5 * np.exp(-2))
        assert data[i, 2] == pytest.approx(want, abs=1e-9)

    def test_fig1b_stationary_tail(self, tmp_path):
        out = tmp_path / "fig1b_tail.csv"
        assert run(["fig1b", "--tmax", "20", "--step", "0.5",
                    "--phi-over-gamma", "1", "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert data[-1, 1] == pytest.approx(8 / 81, abs=1e-3)

    def test_fig1b_closed_form_breach(self, tmp_path, monkeypatch, capsys):
        def perturbed(*args, **kwargs):
            res = cpf_equal_times(*args, **kwargs)
            res.values[0, -1, 0] += 1e-7
            return res

        monkeypatch.setattr(cli, "cpf_equal_times", perturbed)
        out = tmp_path / "fig1b.csv"
        assert run(["fig1b", "--tmax", "1", "--step", "0.05",
                    "--phi-over-gamma", "0.5,1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert "phi/gamma=1 column" in captured.err
        assert not out.exists()

    def test_fig2_closed_form_breach(self, tmp_path, monkeypatch, capsys):
        # the drive columns are checked against the (p4, S, Y) closed form
        series = cli.coherent_weight_series

        def perturbed(gamma, phi, omega, grid):
            bump = 1e-7 if omega == 2.0 else 0.0
            return series(gamma, phi, omega, grid) + bump

        monkeypatch.setattr(cli, "coherent_weight_series", perturbed)
        out = tmp_path / "fig2.csv"
        assert run(["fig2", "--tmax", "2", "--omega-over-gamma", "0,0.5,2",
                    "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert "omega/gamma=2 column" in captured.err
        assert not out.exists()
        monkeypatch.setattr(cli, "coherent_weight_series", series)
        assert run(["fig2", "--tmax", "2", "--omega-over-gamma", "0,0.5,2",
                    "--out", str(out)]) == 0

    def test_fig2_revival_flags(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["fig2", "--tmax", "4", "--step", "0.01",
                    "--omega-over-gamma", "0,5", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        # drive-free column monotone, strong drive revives
        assert data[:, 2].max() == 0.0
        assert data[:, 4].max() == 1.0


class TestDeterminism:
    def test_identical_bytes_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(["fig1a", "--tmax", "1.5", "--step", "0.01",
                        "--out", str(path), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommands:
    def test_td_monotone_static(self, tmp_path):
        out = tmp_path / "td.csv"
        assert run(["td", "--tmax", "2", "--step", "0.05",
                    "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert data[0, 1] == pytest.approx(1.0)
        assert data[:, 2].max() == 0.0

    def test_grid_never_runs_past_tmax(self, tmp_path):
        # 1 is not a whole number of steps of 0.3: the last row is at 0.9
        out = tmp_path / "td.csv"
        assert run(["td", "--tmax", "1", "--step", "0.3",
                    "--out", str(out)]) == 0
        comment, _, data = read_csv(out)
        assert "tmax=1.0 step=0.3" in comment
        assert np.allclose(data[:, 0], [0.0, 0.3, 0.6, 0.9])

    def test_bound_slack_nonnegative(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert run(["bound", "--tmax", "1.5", "--step", "0.1",
                    "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        slack = data[:-1, header.index("slack_next")]
        assert slack.min() > -1e-9

    def test_bound_nan_cells_are_the_last_row_next_terms(self, tmp_path):
        # the last grid point has no next point, as the README documents
        out = tmp_path / "bound.csv"
        assert run(["bound", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        rows, cols = np.nonzero(np.isnan(data))
        assert set(zip(rows, cols)) == {
            (data.shape[0] - 1, header.index("increment_next")),
            (data.shape[0] - 1, header.index("slack_next"))}

    def test_bound_slack_on_exchange_model(self, tmp_path):
        path = tmp_path / "exchange.json"
        models.save_model(models.exchange_preset(), path)
        out = tmp_path / "bound.csv"
        assert run(["bound", "--model", str(path), "--tmax", "3",
                    "--step", "0.25", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        slack = data[:-1, header.index("slack_next")]
        assert slack.min() > -1e-9

    @pytest.mark.parametrize("command, columns", [
        ("td", ["trace_distance"]),
        ("bound", ["trace_distance", "env_term", "corr_rho", "corr_sigma"]),
    ])
    def test_modulated_series_do_not_depend_on_the_step(self, command, columns,
                                                        tmp_path):
        # a modulated model is integrated at no more than its default RK4
        # substep, so a coarse output grid reads the fine one's values
        path = tmp_path / "model.json"
        models.save_model(models.DepolarizingModel(
            gamma=1.0, phi=1.0, modulation=models.sine_modulation(0.5, 2.0)), path)
        data = {}
        for step in ("0.5", "0.01"):
            out = tmp_path / f"{step}.csv"
            assert run([command, "--model", str(path), "--tmax", "4",
                        "--step", step, "--out", str(out)]) == 0
            _, header, data[step] = read_csv(out)
        coarse, fine = data["0.5"], data["0.01"]
        common = np.flatnonzero(np.isin(np.round(fine[:, 0], 9),
                                        np.round(coarse[:, 0], 9)))
        assert common.size == coarse.shape[0] == 9
        cols = [header.index(c) for c in columns]
        assert np.abs(coarse[:, cols] - fine[np.ix_(common, cols)]).max() <= 1e-8

    def test_cpf_random_scheme_null_on_bystander(self, tmp_path):
        out = tmp_path / "cpf.csv"
        assert run(["cpf", "--scheme", "r", "--tmax", "2", "--step", "0.5",
                    "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert np.abs(data[:, 2:]).max() < 1e-10

    def test_model_file_loading(self, tmp_path):
        path = tmp_path / "model.json"
        models.save_model(models.exchange_preset(), path)
        out = tmp_path / "td.csv"
        assert run(["td", "--model", str(path), "--tmax", "2",
                    "--step", "0.05", "--out", str(out)]) == 0
        _, _, data = read_csv(out)
        assert data[0, 1] == pytest.approx(1.0)

    def test_check_bystander_text(self, tmp_path, capsys):
        assert run(["check-bystander", "--omega", "2"]) == 0
        captured = capsys.readouterr()
        assert "bystander=true" in captured.out
        path = tmp_path / "model.json"
        models.save_model(models.exchange_preset(), path)
        assert run(["check-bystander", "--model", str(path)]) == 0
        captured = capsys.readouterr()
        assert "bystander=false" in captured.out


class TestExitCodes:
    def test_missing_model_file_is_config_error(self, tmp_path, capsys):
        assert run(["td", "--model", str(tmp_path / "nope.json")]) == 2

    def test_invalid_rates_are_config_errors(self, capsys):
        assert run(["td", "--gamma", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["fig1a", "--gamma", "2"],
        ["fig1b", "--model", "model.json"],
        ["fig2", "--omega", "1"],
        ["fig2", "--phi", "2"],
        ["validate", "--tmax", "1"],
        ["validate", "--step", "0.1"],
        ["check-bystander", "--tmax", "1"],
        ["check-bystander", "--seed", "3"],
        ["fig1b", "--jobs", "2"],
    ])
    def test_flags_a_command_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["td", "--bogus", "1"],
        ["td", "--tmax"],
        ["cpf", "--gamma", "-inf"],
        ["fig1a", "--phi-over-gamma", "abc"],
        [],
    ], ids=["unknown-flag", "missing-value", "negative-inf", "bad-list",
            "no-subcommand"])
    def test_parser_errors_are_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")

    def test_help_and_version_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"qflow {qflow.__version__}\n"
        with pytest.raises(SystemExit) as exc:
            run(["td", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qflow td")

    def test_negative_validate_seed_is_config_error(self):
        code, out, err = run_alone(["validate", "--seed", "-1"])
        assert code == 2
        assert out == b""
        assert len(err.splitlines()) == 1
        assert err.startswith(b"qflow: configuration error:")
        assert b"non-negative" in err and b"Traceback" not in err

    def test_validate_passes(self, tmp_path):
        out = tmp_path / "validate.txt"
        assert run(["validate", "--out", str(out)]) == 0
        text = out.read_text()
        assert "FAIL" not in text
        assert "PASS" in text

    @pytest.mark.parametrize("argv", [
        ["td", "--step", "0"],
        ["td", "--step", "nan"],
        ["td", "--tmax", "nan"],
        ["cpf", "--tmax", "-1"],
    ])
    def test_bad_grid_is_config_error(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")

    @pytest.mark.parametrize("argv", [
        ["td", "--tmax", "1e300"],
        ["td", "--tmax", "1e12", "--step", "1"],
    ], ids=["too-many-points", "grid-too-large"])
    def test_unallocatable_grid_is_config_error(self, argv, capsys):
        # the grid's allocation fails at once, so the peak resident size
        # (KiB on Linux) does not grow by anything near the grid's size
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert run(argv) == 2
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 2 ** 16
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")

    def test_unreadable_model_path_is_config_error(self, tmp_path, capsys):
        assert run(["td", "--model", str(tmp_path)]) == 2  # a directory
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"format": "qflow-model/1", ', encoding="utf-8")
        assert run(["td", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "not a JSON document" in err

    def test_missing_parameter_is_config_error(self, tmp_path, capsys):
        doc = models.model_to_dict(models.exchange_preset())
        del doc["parameters"]["h_system"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["td", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'h_system'" in err

    @staticmethod
    def _assert_config_error(code, capsys):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["check-bystander"], ["td"], ["cpf"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--gamma", "--phi", "--omega"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameters_are_config_errors(self, command, flag, value,
                                                     capsys):
        self._assert_config_error(run(command + [flag, value]), capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["check-bystander"], ["td"], ["cpf"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("make, path, value", [
        (lambda rng: models.random_classical_mixture(rng),
         ("parameters", "generators", 0, 1, 2, 0), float("nan")),
        (lambda rng: models.random_stochastic_env(rng),
         ("parameters", "jumps", 0, "rate"), float("nan")),
        (lambda rng: models.random_stochastic_env(rng),
         ("parameters", "jumps", 1, "rate"), float("inf")),
        (lambda rng: models.random_quantum_bystander(rng),
         ("parameters", "collisions", 0, "rate"), float("nan")),
        (lambda rng: models.random_quantum_bystander(rng),
         ("parameters", "collisions", 0, "op", 0, 1, 0), float("nan")),
        (lambda rng: models.random_quantum_bystander(rng),
         ("parameters", "env_generator", 0, 1, 1), float("inf")),
        (lambda rng: models.random_unitary_model(rng),
         ("parameters", "h_env", 0, 0, 0), float("nan")),
        (lambda rng: models.DepolarizingModel(gamma=1.0, phi=1.0),
         ("parameters", "gamma"), float("nan")),
        (lambda rng: models.DepolarizingModel(gamma=1.0, phi=1.0, omega=0.5),
         ("parameters", "omega"), float("inf")),
        (lambda rng: models.random_stochastic_env(rng),
         ("parameters", "jumps", 0, "src"), float("inf")),
        (lambda rng: models.random_quantum_bystander(rng),
         ("parameters", "collisions", 0, "kraus", 0, 0, 0, 0), float("inf")),
        (lambda rng: models.random_unitary_model(rng),
         ("parameters", "h_system", 0, 0, 0), float("inf")),
    ], ids=["mixture-generator", "jump-rate-nan", "jump-rate-inf",
            "collision-rate", "collision-op", "env-generator-inf", "unitary-h",
            "depolarizing-gamma", "depolarizing-omega-inf", "jump-src-inf",
            "collision-kraus-inf", "unitary-h-inf"])
    def test_non_finite_model_files_are_config_errors(self, command, make, path,
                                                      value, tmp_path, capsys):
        doc = models.model_to_dict(make(np.random.default_rng(5)))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity
        self._assert_config_error(run(command + ["--model", str(model)]), capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["check-bystander"], ["td"], ["cpf"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("make, key", [
        (lambda rng: models.random_stochastic_env(rng), ("generators", 1)),
        (lambda rng: models.random_classical_mixture(rng), ("generators", 0)),
        (lambda rng: models.random_quantum_bystander(rng), ("system_generator",)),
        (lambda rng: models.random_quantum_bystander(rng), ("env_generator",)),
    ], ids=["stochastic", "mixture", "bystander-system", "bystander-env"])
    def test_hermiticity_breaking_generators_are_config_errors(
            self, command, make, key, tmp_path, capsys):
        doc = models.model_to_dict(make(np.random.default_rng(5)))
        target = doc["parameters"]
        for k in key[:-1]:
            target = target[k]
        pairs = np.asarray(target[key[-1]])
        gen = pairs[..., 0] + 1j * pairs[..., 1]
        # add X -> [P, X], P = |0><0|: trace preserving, but it maps a
        # Hermitian X to an anti-Hermitian one
        d = int(round(np.sqrt(len(gen))))
        p, eye = np.diag(np.eye(d)[0]), np.eye(d)
        gen = gen + np.kron(eye, p) - np.kron(p, eye)
        target[key[-1]] = np.stack([gen.real, gen.imag], axis=-1).tolist()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        self._assert_config_error(run(command + ["--model", str(model)]), capsys)

    # one-level systems pass every other model check; a real 2 x 2 matrix
    # in the document's [re, im] pairs is [[[a, 0], [b, 0]], [[c, 0], [d, 0]]]
    ONE_LEVEL_DOCUMENTS = {
        "mixture": {"class": "classical_mixture",
                    "parameters": {"generators": [[[[0.0, 0.0]]]] * 2},
                    "initial_env": [0.5, 0.5]},
        "unitary": {"class": "unitary",
                    "parameters": {
                        "h_system": [[[1.0, 0.0]]],
                        "h_env": [[[0.0, 0.0], [1.0, 0.0]],
                                  [[1.0, 0.0], [0.0, 0.0]]],
                        "h_interaction": [[[0.0, 0.0], [0.5, 0.0]],
                                          [[0.5, 0.0], [0.0, 0.0]]]},
                    "initial_env": [[[1.0, 0.0], [0.0, 0.0]],
                                    [[0.0, 0.0], [0.0, 0.0]]]},
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["td"], ["bound"], ["cpf"],
                                         ["check-bystander"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("name", sorted(ONE_LEVEL_DOCUMENTS))
    def test_one_level_systems_are_config_errors(self, command, name, tmp_path,
                                                 capsys):
        doc = {"format": "qflow-model/1", **self.ONE_LEVEL_DOCUMENTS[name]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        self._assert_config_error(run(command + ["--model", str(model)]), capsys)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["bound", "--step", "1e200", "--phi", "1e200"],
        ["td", "--step", "1e200", "--omega", "1e200"],
        ["cpf", "--step", "1e200", "--omega", "1e200"],
    ], ids=["real-generator", "hermitian-basis", "cpf"])
    def test_overflowing_time_gaps_are_numeric_breach(self, argv, capsys):
        # one gap of 1e200, the grid 0, --step: G dt overflows
        assert run(argv + ["--tmax", "1e200"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: numeric invariant breached:")

    @pytest.mark.filterwarnings("error")
    def test_modulated_gap_past_the_substep_limit_is_config_error(self, tmp_path,
                                                                  capsys):
        # a modulated model is integrated at its default RK4 substep, not at
        # --step, so a gap of 1e300 needs too many substeps and is refused
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_FUZZ_DOCUMENTS["DepolarizingModel"]),
                         encoding="utf-8")
        assert run(["td", "--step", "1e300", "--model", str(model),
                    "--tmax", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")
        assert "RK4 substeps" in captured.err

    @pytest.mark.parametrize("command", [["td"], ["cpf"], ["cpf", "--scheme", "r"]])
    def test_overflowing_rates_are_numeric_breach(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(command + ["--gamma", "1e200", "--phi", "1e200",
                              "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: numeric invariant breached:")
        assert not out.exists()  # no row, so no NaN row, was written

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["td"], ["cpf"], ["cpf", "--scheme", "r"]])
    def test_overflowing_exponential_is_one_line(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(command + ["--gamma", "1e200", "--phi", "1e200",
                              "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert "matrix exponential" in captured.err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", [["td"], ["cpf"], ["check-bystander"]])
    def test_overflowing_rate_sum_names_the_rates(self, command, capsys):
        # gamma + phi overflows; the error must not blame populations0
        assert run(command + ["--gamma", "1e308", "--phi", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: configuration error:")
        assert "gamma=1e+308, phi=1e+308" in captured.err

    @pytest.mark.parametrize("argv", [
        ["fig1a", "--phi-over-gamma", "1e200"],
        ["fig2", "--omega-over-gamma", "1e200"],
    ])
    def test_overflowing_figure_ratios_are_numeric_breach(self, argv, tmp_path,
                                                          capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--tmax", "1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("qflow: numeric invariant breached:")
        assert not out.exists()


def _fuzz_documents():
    """One small document per model class; the depolarizing one is
    modulated, so that its modulation leaves are fuzzed too."""
    rng = np.random.default_rng(11)
    return {type(m).__name__: models.model_to_dict(m) for m in (
        models.random_classical_mixture(rng),
        models.random_stochastic_env(rng),
        models.random_quantum_bystander(rng, n_collisions=1),
        models.random_unitary_model(rng),
        models.DepolarizingModel(gamma=1.0, phi=0.8, omega=0.5,
                                 modulation=models.sine_modulation(0.3, 0.5)),
    )}


_FUZZ_DOCUMENTS = _fuzz_documents()


def _leaf_paths(node, path=()):
    """Paths to every number and list below ``node``, lists included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
        return
    if path:
        yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))


def _replaced(node, kind):
    """NaN, +-inf, a negative number, an empty list, or a wrong shape: a
    list one entry short (or doubled when it has one) and a number
    turned into a pair."""
    if kind == "shape":
        if isinstance(node, list):
            return node[:-1] if len(node) > 1 else node + node
        return [node, node]
    return {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
            "negative": -0.75, "empty": []}[kind]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cls", sorted(_FUZZ_DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(pick=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["nan", "inf", "-inf", "negative", "empty", "shape"]))
def test_fuzzed_model_documents_exit_cleanly(cls, pick, kind, tmp_path_factory):
    """Any one leaf of a model document broken: exit 0 with a finite CSV,
    or exit 2 or 3 with one stderr line and no traceback."""
    doc = copy.deepcopy(_FUZZ_DOCUMENTS[cls])
    paths = list(_leaf_paths({"parameters": doc["parameters"],
                              "initial_env": doc["initial_env"]}))
    path = paths[pick % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _replaced(parent[path[-1]], kind)
    model = tmp_path_factory.mktemp("fuzz") / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["td", "--model", str(model), "--tmax", "0.2",
                    "--step", "0.1"])
    assert code in (0, 2, 3), (path, kind)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        rows = out.getvalue().splitlines()[2:]
        cells = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert cells.shape == (3, 3) and np.isfinite(cells).all(), (path, kind)
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, (path, kind)


# The argv fuzz draws a subcommand, a subset of its flags and one value per
# flag: an ordinary value half of the time, an edge value otherwise.  --tmax
# is always given, at 0.5 when ordinary, so an accepted grid has about 100
# points or fewer (fig2 at its default step: 101).
_EDGE_NUMBERS = ["nan", "inf", "-inf", "-0.75", "0", "1e-300", "1e200",
                 "1e300", "x"]


def _number(ordinary):
    return st.one_of(st.just(ordinary), st.sampled_from(_EDGE_NUMBERS))


_GRID_FLAGS = ("--tmax", "--step", "--seed")
_MODEL_FLAGS = ("--gamma", "--phi", "--omega", "--model")
_ARGV_FLAGS = {
    "fig1a": _GRID_FLAGS + ("--phi-over-gamma",),
    "fig1b": _GRID_FLAGS + ("--phi-over-gamma",),
    "fig2": _GRID_FLAGS + ("--omega-over-gamma",),
    "td": _GRID_FLAGS + _MODEL_FLAGS,
    "bound": _GRID_FLAGS + _MODEL_FLAGS,
    "cpf": _GRID_FLAGS + _MODEL_FLAGS + ("--scheme", "--skip-zero"),
    "check-bystander": _MODEL_FLAGS,
    "validate": ("--seed",),
}
_RATIO_LISTS = st.lists(_number("1"), max_size=3).map(",".join)
_ARGV_VALUES = {
    "--gamma": _number("1"),
    "--phi": _number("0.7"),
    "--omega": _number("1.5"),
    "--tmax": _number("0.5"),
    "--step": _number("0.1"),
    "--seed": _number("3"),
    "--scheme": st.sampled_from(["d", "r", "x", ""]),
    "--phi-over-gamma": _RATIO_LISTS,
    "--omega-over-gamma": _RATIO_LISTS,
    "--model": st.sampled_from(["missing", "directory"]
                               + sorted(_FUZZ_DOCUMENTS)),
    "--out": st.sampled_from(["-", "directory"]),
}


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """A missing file, a directory and one valid model file per class."""
    root = tmp_path_factory.mktemp("argv")
    paths = {"missing": root / "missing.json", "directory": root}
    for cls, doc in _FUZZ_DOCUMENTS.items():
        paths[cls] = root / f"{cls}.json"
        paths[cls].write_text(json.dumps(doc), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}


def _nan_allowed(command, header, last):
    """Whether a NaN cell is documented: ``bound``'s last-row next terms,
    ``cpf``'s values of negligible conditional probability."""
    if command == "bound":
        return last and header in ("increment_next", "slack_next")
    return command == "cpf" and header.startswith("cpf(")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exit_cleanly(data, argv_paths):
    """Any subcommand with any subset of its flags at edge values: exit 0,
    2 or 3 (``validate`` also 1, its failed verdict), no traceback, one
    stderr line on an error, and no NaN outside the documented cells."""
    command = data.draw(st.sampled_from(sorted(_ARGV_FLAGS)), label="command")
    known = _ARGV_FLAGS[command] + ("--out",)
    given_ = data.draw(st.lists(st.booleans(), min_size=len(known),
                                max_size=len(known)), label="flags")
    argv = [command]
    for flag, drawn in zip(known, given_):
        if not (drawn or flag == "--tmax"):
            continue
        if flag == "--skip-zero":
            argv.append(flag)
            continue
        value = data.draw(_ARGV_VALUES[flag], label=flag)
        if flag in ("--model", "--out"):
            value = argv_paths.get(value, value)
        argv.append(f"{flag}={value}")
    code, out, err = run_here(argv)
    out, err = out.decode(), err.decode()
    event(f"{command} exit {code}")
    assert code in ((0, 1, 2, 3) if command == "validate" else (0, 2, 3)), argv
    assert "Traceback" not in err, argv
    if code in (2, 3):
        assert out == "" and len(err.splitlines()) == 1, (argv, err)
        return
    assert err == "", argv
    if command in ("check-bystander", "validate"):
        return
    # a directory --out exits 2, so a success wrote its CSV to stdout
    lines = out.splitlines()
    header = lines[1].split(",")
    for i, line in enumerate(lines[2:]):
        for name, cell in zip(header, line.split(",")):
            if not np.isfinite(float(cell)):
                assert cell == "nan" and _nan_allowed(
                    command, name, i == len(lines) - 3), (argv, i, name, cell)


def test_cli_import_loads_no_scipy():
    code = ("import sys, qflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=FRESH_ENV, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


class TestParserReuse:
    def test_built_on_first_call_not_at_import(self):
        code = ("import qflow.cli as c; n = c.build_parser.cache_info().currsize; "
                "c.build_parser(); print(n, c.build_parser.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], env=FRESH_ENV,
                             check=True, capture_output=True, text=True).stdout
        assert out == "0 1\n"
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("first, second", [
        (["fig1a", "--phi-over-gamma", "2"], ["fig1a"]),
        (["cpf", "--skip-zero"], ["cpf"]),
        (["cpf", "--skip-zero", "--scheme", "x"], ["cpf", "--scheme", "r"]),
    ], ids=["ratio-list", "flag", "after-parse-error"])
    def test_values_do_not_leak_between_calls(self, first, second):
        # ``second`` runs twice, so a default that one call mutates shows too
        run_here(["td", "--tmax", "0.1"])  # the parser is built and used
        here = [run_here(first), run_here(second), run_here(second)]
        alone = [run_alone(first), run_alone(second)]
        assert here == alone + alone[1:]
        assert here[0][0] in (0, 2) and here[1][0] == 0

    def test_reproduce_script_matches_three_cli_processes(self, tmp_path):
        subprocess.run([sys.executable, str(REPO / "scripts" / "reproduce_figures.py"),
                        "--outdir", str(tmp_path / "script")],
                       env=FRESH_ENV, check=True, capture_output=True)
        for cmd in ("fig1a", "fig1b", "fig2"):
            alone = tmp_path / f"{cmd}.csv"
            assert run_alone([cmd, "--out", str(alone), "--seed", "42"])[0] == 0
            assert (tmp_path / "script" / f"{cmd}.csv").read_bytes() == alone.read_bytes()

    def test_slow_modulation_demo_runs(self, tmp_path):
        # one period at frequency 0.5 is about 0.3 s of stepping
        out = tmp_path / "slow.csv"
        subprocess.run([sys.executable, str(REPO / "scripts" / "slow_modulation_demo.py"),
                        "--frequency", "0.5", "--out", str(out)],
                       env=FRESH_ENV, check=True, capture_output=True)
        comment, header = out.read_text(encoding="utf-8").splitlines()[:2]
        assert comment.endswith(" cpf_random_late=0.000e+00")
        assert header == "t,d_full,d_adiabatic,revival"


def _reference_cell(x) -> str:
    """The per-cell CSV spelling of earlier releases."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


class TestCsvSpelling:
    ARGS = dict(command="bound", tmax=4.0, step=0.05, seed=42, out=None)

    def _written(self, columns, capsys):
        cli._write_csv(argparse.Namespace(**self.ARGS), ["a", "b", "c", "d", "e"],
                       columns, model="depolarizing")
        comment, header, body = capsys.readouterr().out.split("\n", 2)
        assert comment == ("# qflow 0.1.0 command=bound model=depolarizing "
                           "tmax=4.0 step=0.05 seed=42")
        assert header == "a,b,c,d,e"
        return body

    def test_cells_spelled_as_before(self, capsys):
        rows = [
            (0.0, -0.0, 1e-300, 2.5e17, np.True_),
            (np.float64(-0.0), np.float64(1e-300), np.float64(2.5e17),
             np.float64(1 / 3), np.False_),
            (np.float64(0.1), np.float32(0.1), -np.inf, 123456789012.5, np.True_),
            (6.0, 1e-5, 0.30000000000000004, -7.25e-310, np.False_),
            (4.0, 0.5, 0.1, np.nan, np.False_),  # bound's last row
        ]
        want = "".join(",".join(_reference_cell(x) for x in row) + "\n"
                       for row in rows)
        assert self._written(list(zip(*rows)), capsys) == want

    def test_integer_columns(self, capsys):
        rows = [(1, np.int64(-7), True, 0.5, np.bool_(False)),
                (0, np.int32(12), False, 2.0, np.bool_(True))]
        want = "".join(",".join(_reference_cell(x) for x in row) + "\n"
                       for row in rows)
        assert self._written(list(zip(*rows)), capsys) == want == (
            "1,-7,1,0.5,0\n0,12,0,2,1\n")

    def test_columns_are_written_as_rows_of_numpy_scalars_were(self, capsys):
        # the row writer of earlier releases: numpy scalars, each row spelled
        # as the first row's cells
        rng = np.random.default_rng(7)
        columns = [np.arange(50) * 0.01, rng.normal(size=50) * 1e3,
                   rng.integers(-9, 9, size=50), rng.random(50) > 0.5,
                   np.where(rng.random(50) > 0.8, np.nan,
                            rng.normal(size=50) * 1e-9)]
        rows = list(zip(*columns))
        line = ",".join("%d" if isinstance(x, (int, np.integer, np.bool_))
                        else "%.12g" for x in rows[0]) + "\n"
        want = "".join(line % row for row in rows)
        assert "nan" in want
        assert self._written(columns, capsys) == want

    def test_no_rows_is_header_only(self, capsys):
        assert self._written([()] * 5, capsys) == ""
        code, out, err = run_here(["cpf", "--skip-zero", "--tmax", "0"])
        assert code == 0 and err == b""
        assert out.decode().splitlines()[1:] == ["t,tau,cpf(y=1),cpf(y=-1)"]

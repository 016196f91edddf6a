import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qflow
from qflow import cli, models
from qflow.cli import main
from qflow.witness import cpf_equal_times


def run(argv):
    return main(argv)


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
    ], ids=["mixture-generator", "jump-rate-nan", "jump-rate-inf",
            "collision-rate", "collision-op", "env-generator-inf", "unitary-h",
            "depolarizing-gamma", "depolarizing-omega-inf"])
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


def test_cli_import_loads_no_scipy():
    src = str(Path(qflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, qflow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"

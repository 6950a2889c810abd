"""End-to-end command-line behavior: files, exit codes, determinism, schemas."""

import json
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

jsonschema = pytest.importorskip("jsonschema")

from surro import cli, lemmas
from surro.cli import main

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "src" / "surro" / "configs"
DOCS = REPO / "docs"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_bundled_gd_config(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIGS / "gd_diag.json"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "all verdicts pass" in out
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert rates["theory"]["rho_sup"] == pytest.approx(0.6)
    assert rates["theory"]["rho_inf"] == pytest.approx(0.6)
    assert set(rates["verdicts"].values()) == {"pass"}
    schema = json.loads((DOCS / "rates.schema.json").read_text())
    jsonschema.validate(rates, schema)
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "n,theta_0,theta_1,err_l2,q_gap,residual"


def test_run_newton_reports_superlinear(tmp_path):
    code = main(["run", "--config", str(CONFIGS / "newton_quartic.json"), "--out", str(tmp_path)])
    assert code == 0
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert rates["empirical"]["superlinear"] is True
    assert rates["verdicts"]["exact"] == "pass"
    jsonschema.validate(rates, json.loads((DOCS / "rates.schema.json").read_text()))


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--config", str(CONFIGS / "em_population.json"),
                     "--out", str(out), "--plot"]) == 0
    for name in ("trace.csv", "rates.json", "plot.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_missing_field_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "bad.json",
        json.dumps(
            {
                "name": "bad",
                "algorithm": "mirror_descent",
                "objective": {"type": "quartic_1d"},
                "mirror_map": {"type": "quadratic"},
                "domain": {"type": "full_space", "q": 1},
            }
        ),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "mirror_descent requires field eta" in capsys.readouterr().err


def test_run_verdict_failure_exits_two(tmp_path):
    cfg = _write(
        tmp_path,
        "wrong_star.json",
        json.dumps(
            {
                "name": "wrong_star",
                "algorithm": "gradient_descent",
                "objective": {"type": "quadratic_form", "h": [[1.0, 0.0], [0.0, 4.0]]},
                "eta": 0.4,
                "theta0": [1.0, 1.0],
                "theta_star": [0.5, 0.0],
                "stop": {"max_iters": 200, "residual_tol": 1e-13},
            }
        ),
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_run_with_control_characters_in_name_writes_readable_json(tmp_path):
    cfg = dict(json.loads((CONFIGS / "gd_diag.json").read_text()), name="gd\tdiag\r")
    assert main(["run", "--config", _write(tmp_path, "tab.json", json.dumps(cfg)),
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "rates.json").read_text())["name"] == "gd\tdiag\r"


def test_run_plot_with_markup_in_name_writes_well_formed_svg(tmp_path):
    name = "a<b & c>"
    cfg = dict(json.loads((CONFIGS / "gd_diag.json").read_text()), name=name)
    assert main(["run", "--config", _write(tmp_path, "markup.json", json.dumps(cfg)),
                 "--out", str(tmp_path / "out"), "--plot"]) == 0
    root = ElementTree.parse(tmp_path / "out" / "plot.svg").getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == name


@pytest.mark.parametrize("argv", [
    ["lemmas", "--trials", "abc"], ["run", "--out", "x"], [],
], ids=["bad_int", "missing_required", "no_command"])
def test_usage_errors_exit_one_with_argparse_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1].startswith("surro")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0
    assert "usage: surro" in capsys.readouterr().out


def test_run_nonexistent_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),  # a directory
    (b"\xff\xfe{}", "cannot read config"),  # not UTF-8
    (b'{"name": ', "config is not valid JSON"),
], ids=["directory", "undecodable", "invalid_json"])
def test_unreadable_config_exits_one(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    path.mkdir() if content is None else path.write_bytes(content)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_lemmas_prints_each_counterexample_and_exits_two(monkeypatch, capsys):
    found = lemmas.SuiteResult("domination", 3, [{"x": [0.5, 0.25], "norm_x": 1.5}])
    monkeypatch.setattr(cli.lemma_suites, "run_all",
                        lambda trials, seed: [lemmas.SuiteResult("rate_identity", 3), found])
    assert main(["lemmas", "--trials", "3"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("trials=3      ok")
    assert lines[1].endswith("trials=3      1 counterexample(s)")
    assert lines[2:] == ["  x = [0.5  0.25]", "  norm_x = 1.5"]


def test_lemmas_usage_and_success(capsys):
    assert main(["lemmas", "--trials", "0"]) == 1
    assert main(["lemmas", "--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --trials must be >= 1",
                                                    "error: --seed must be >= 0"]
    assert main(["lemmas", "--trials", "30", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "rate_identity" in out and "ok" in out


def test_lemmas_deterministic_stream(capsys):
    assert main(["lemmas", "--trials", "20", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["lemmas", "--trials", "20", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_sweep_command_outputs(tmp_path):
    cfg = _write(
        tmp_path,
        "sweep.json",
        json.dumps(
            {
                "name": "gauss_mini",
                "model": {
                    "type": "gaussian_latent",
                    "sigma_x2": 1.0,
                    "sigma_y2": 1.0,
                    "theta_star": 1.0,
                },
                "ks": [40, 80],
                "seeds": [0, 1, 2],
            }
        ),
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "k,seed,rho_samp,abs_dev,theta_hat"
    assert len(rows) == 1 + 6
    summary = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "k,median_abs_dev,q90_abs_dev"
    assert len(summary) == 3
    for line in rows[1:]:
        assert float(line.split(",")[3]) <= 1e-6


def test_sweep_empty_seeds_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "sweep.json",
        json.dumps(
            {
                "name": "bad",
                "model": {"type": "mixture", "theta_star": 1.0},
                "ks": [10],
                "seeds": [],
            }
        ),
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "seeds" in capsys.readouterr().err


def test_sweep_malformed_ks_exits_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "sweep.json",
        json.dumps({"name": "bad", "model": {"type": "mixture", "theta_star": 1.0},
                    "ks": ["a"], "seeds": [0]}),
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ks" in err


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "surro.cli", "lemmas", "--trials", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_run_that_overflows_exits_one_without_traceback(tmp_path):
    cfg = json.loads((CONFIGS / "gd_diag.json").read_text())
    cfg["eta"] = 1e300  # accepted by the schema; the iterates overflow on the first step
    path = _write(tmp_path, "huge_eta.json", json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "surro.cli", "run", "--config", path, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr

"""End-to-end command-line behavior: files, exit codes, determinism, schemas."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest

jsonschema = pytest.importorskip("jsonschema")

from surro import cli, lemmas
from surro.cli import main
from surro.config import CONFIG_DIR

REPO = Path(__file__).resolve().parents[1]
DOCS = REPO / "docs"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_bundled_gd_config(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIG_DIR / "gd_diag.json"), "--out", str(tmp_path)])
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
    config = str(CONFIG_DIR / "newton_quartic.json")
    code = main(["run", "--config", config, "--out", str(tmp_path)])
    assert code == 0
    rates = json.loads((tmp_path / "rates.json").read_text())
    assert rates["empirical"]["superlinear"] is True
    assert rates["verdicts"]["exact"] == "pass"
    jsonschema.validate(rates, json.loads((DOCS / "rates.schema.json").read_text()))


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "--config", str(CONFIG_DIR / "em_population.json"),
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


def test_run_that_never_reaches_the_given_theta_star_exits_two(tmp_path):
    # theta* on a face of the simplex: rho_sup there is 1 - 2e-10, so the
    # measured rate (~1 - 2e-8) passes every rate check, yet the run converges
    # to (0.5, 0.3, 0.2) and its error against theta* stays at 0.616
    cfg = json.loads((CONFIG_DIR / "entropy_simplex_md.json").read_text())
    cfg["theta_star"] = [0.999999998, 1e-9, 1e-9]
    path = _write(tmp_path, "face_star.json", json.dumps(cfg))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates["stop_reason"] == "converged"
    assert 1.0 - 1e-9 < rates["theory"]["rho_sup"] < 1.0
    assert set(rates["verdicts"].values()) == {"fail"}


def test_run_from_the_fixed_point_writes_null_q_gap_rates(tmp_path):
    cfg = json.loads((CONFIG_DIR / "gd_diag.json").read_text())
    cfg["theta0"] = [0, 0]  # an exact fixed point: a single-point trace
    path = _write(tmp_path, "at_star.json", json.dumps(cfg))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates["n_iterates"] == 1
    assert rates["empirical"]["q_gap_slope"] is None
    assert rates["empirical"]["q_gap_rate"] is None
    assert rates["verdicts"]["q_gap"] == "inapplicable"
    jsonschema.validate(rates, json.loads((DOCS / "rates.schema.json").read_text()))


_FROZEN_STARTS = {
    "gd_diag": lambda cfg: cfg.update(eta=1e-300),
    "em_population": lambda cfg: cfg["latent_model"].update(sigma_y2=1e300),
    "alpha_em_quarter": lambda cfg: cfg["latent_model"].update(sigma_x2=1e-300),
    "mirror_prox_ball": lambda cfg: cfg.update(eta=1e-12),
}


@pytest.mark.parametrize("name", sorted(_FROZEN_STARTS))
def test_run_that_never_leaves_theta0_exits_two(tmp_path, name):
    # the first step rounds back to theta0, so the trace is one point at distance
    # 1.4 or 1 from theta*; rho_sup rounds to 1 in the first three, not in mirror_prox_ball
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    _FROZEN_STARTS[name](cfg)
    path = _write(tmp_path, "frozen.json", json.dumps(cfg))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates["n_iterates"] == 1 and rates["stop_reason"] == "converged"
    assert (rates["theory"]["rho_sup"] == 1.0) is (name != "mirror_prox_ball")
    assert set(rates["verdicts"].values()) == {"fail"}


def _one_point_gd(scale):
    """gd_diag frozen at theta0 by "eta": 1e-300, with theta* and theta0 a distance
    scale * 1e-10 apart at norm scale."""
    return lambda cfg: cfg.update(eta=1e-300, theta0=[scale * (1 + 1e-10), 0.0],
                                  theta_star=[scale, 0.0])


def _simplex_gd_1e17(cfg):
    del cfg["mirror_map"]
    cfg.update(algorithm="gradient_descent", eta=1e17)


def _huge_latent(cfg):
    cfg["latent_model"].update(theta_star=1e300)
    cfg.update(theta0=[1e300], theta_star=[5e299])


# the analysis squares distances: a norm above ~1.34e154 cannot be taken.
# case -> (config, its changes, exit code, the stderr it prints)
_HUGE_NORMS = {
    "offset_1e200": ("gd_diag", lambda cfg: cfg.update(eta=1e-300, theta0=[2e200, 0.0],
                                                       theta_star=[1e200, 0.0]),
                     1, "error: cannot take the norm of an iterate's offset from theta*: "
                        "its square overflows\n"),
    "latent_1e300": ("em_population", _huge_latent,
                     1, "error: cannot take the norm of an iterate's offset from theta*: "
                        "its square overflows\n"),
    # the offset, 1e150, can be squared; |theta*| = 1e160, which sets the floor, cannot
    "theta_star_1e160": ("gd_diag", _one_point_gd(1e160),
                         1, "error: cannot take the norm of theta* or of Q(theta*, theta*): "
                            "its square overflows\n"),
    # every norm can be squared: a one-point run away from theta* fails its verdicts
    "theta_star_1e150": ("gd_diag", _one_point_gd(1e150), 2, ""),
    # the first step, 1e17 times the gradient, is too large for the simplex projection
    "simplex_eta_1e17": ("entropy_simplex_md", _simplex_gd_1e17,
                         1, "error: point [ 3.e+16  3.e-01 -3.e+16] cannot be projected "
                            "onto the simplex in floating point\n"),
}


@pytest.mark.parametrize("case", sorted(_HUGE_NORMS))
def test_run_with_huge_norms_ends_without_traceback_warning_or_pass(tmp_path, capsys, case):
    name, change, code, err = _HUGE_NORMS[case]
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    change(cfg)
    path = _write(tmp_path, "huge.json", json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == err


def test_sweep_with_a_huge_theta_star_runs_without_warning(tmp_path):
    # both of em_sample's blocks are analytic, so no finite-difference step is
    # formed from |theta_hat| ~ 1e300, whose square overflows
    cfg = json.loads((CONFIG_DIR / "sweep_gaussian.json").read_text())
    cfg["model"]["theta_star"] = 1e300
    cfg.update(ks=[3], seeds=[0])
    path = _write(tmp_path, "huge_sweep.json", json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 0
    row = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == 0.5 and float(row[4]) == pytest.approx(1e300)


def test_run_with_control_characters_in_name_writes_readable_json(tmp_path):
    cfg = dict(json.loads((CONFIG_DIR / "gd_diag.json").read_text()), name="gd\tdiag\r")
    assert main(["run", "--config", _write(tmp_path, "tab.json", json.dumps(cfg)),
                 "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "rates.json").read_text())["name"] == "gd\tdiag\r"


def test_run_plot_with_markup_in_name_writes_well_formed_svg(tmp_path):
    name = "a<b & c>"
    cfg = dict(json.loads((CONFIG_DIR / "gd_diag.json").read_text()), name=name)
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
    cfg = json.loads((CONFIG_DIR / "gd_diag.json").read_text())
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


def test_run_whose_python_floats_overflow_exits_one_without_traceback(tmp_path):
    cfg = json.loads((CONFIG_DIR / "newton_quartic.json").read_text())
    cfg["theta0"] = [1e200]  # the quartic's Hessian 3 v**2 + 1 overflows a Python float
    path = _write(tmp_path, "huge_start.json", json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "surro.cli", "run", "--config", path, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_run_with_a_huge_rate_pair_reaches_its_verdicts(tmp_path):
    # rho_sup ~ 2e299: the exact-regime test once squared it and raised OverflowError
    cfg = {"name": "lse", "algorithm": "gradient_descent",
           "objective": {"type": "log_sum_exp", "q": 2, "scale": 1e-300}, "eta": 0.4,
           "theta0": [1.0, 1.0], "stop": {"max_iters": 50}}
    path = _write(tmp_path, "lse.json", json.dumps(cfg))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
    rates = json.loads((tmp_path / "o" / "rates.json").read_text())
    assert rates["theory"]["rho_sup"] > 1e154


def test_mirror_prox_half_step_failure_is_reported_once(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "mirror_prox_ball.json").read_text())
    cfg["eta"] = 1e6  # the half step's inner solve hits its iteration cap
    path = _write(tmp_path, "huge_eta.json", json.dumps(cfg))
    with pytest.warns(UserWarning, match="not below gamma/beta"):
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inner minimization failed at theta=")
    assert err.count("inner minimization failed") == 1


_STEP_SIZE_WARNING = ("warning: step size eta=0.6 is not below gamma/beta=0.5; "
                      "global convergence of the extragradient scheme is not guaranteed")


def _eta_06_config(tmp_path):
    cfg = json.loads((CONFIG_DIR / "mirror_prox_ball.json").read_text())
    # gamma/beta = 0.5: the hypothesis audit warns, and the run converges away from
    # theta* at rho_sup > 1, so every verdict fails
    cfg["eta"] = 0.6
    return _write(tmp_path, "eta.json", json.dumps(cfg))


def test_step_size_warning_is_one_line_without_a_source_location(tmp_path):
    # a fresh interpreter shows the warning through its own default showwarning
    proc = subprocess.run(
        [sys.executable, "-m", "surro.cli", "run", "--config", _eta_06_config(tmp_path),
         "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [_STEP_SIZE_WARNING]


def test_main_formats_warnings_only_while_it_runs(tmp_path):
    """Library callers keep their own warning format once main returns."""
    path = _eta_06_config(tmp_path)
    shown = []
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda *args: shown.append(warnings.formatwarning(*args[:4]))
        before = warnings.formatwarning
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert warnings.formatwarning is before
    assert shown == [_STEP_SIZE_WARNING + "\n"]


@pytest.mark.xfail(strict=True, reason="ROADMAP.md item 14: the outer stop is absolute. At "
                   "theta* ~ 1e3 the run converges (final error 1.3e-13, rate 0.6) into a "
                   "2-cycle whose residual 1.1e-13 never gets under residual_tol 1e-13, so it "
                   "stops as stalled and every verdict fails")
def test_gd_run_far_from_the_origin_converges(tmp_path):
    cfg = json.loads((CONFIG_DIR / "gd_diag.json").read_text())
    cfg["objective"]["c"] = [-1000.0, 4000.0 / 3.0]  # grad = H theta + c: theta* below
    cfg.update(theta_star=[1000.0, -1000.0 / 3.0], theta0=[1001.0, -1000.0 / 3.0 + 1.0])
    path = _write(tmp_path, "far.json", json.dumps(cfg))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0


def _mirror_prox_ball_at(tmp_path, eta, **changes):
    cfg = json.loads((CONFIG_DIR / "mirror_prox_ball.json").read_text())
    cfg.update(eta=eta, **changes)
    path = _write(tmp_path, "eta.json", json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the gamma/beta audit from eta = 0.5 up
        return main(["run", "--config", path, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("eta, code", [(0.4, 0), (0.5, 0), (0.55, 2), (0.6, 2)])
def test_mirror_prox_past_gamma_over_beta_fails_off_the_given_minimizer(tmp_path, eta, code):
    # gamma/beta = 0.5; from eta = 0.55 theta* is unstable (rho_sup 1.03 and 1.14) and
    # the run settles at a spurious fixed point 0.84 and 1.03 from it, which no
    # contraction bound can excuse
    assert _mirror_prox_ball_at(tmp_path, eta) == code


@pytest.mark.xfail(strict=True, reason="ROADMAP.md item 15(b): with theta* 'auto' the run "
                   "analyses the spurious fixed point it reached (rho_sup 0.978) and passes")
def test_mirror_prox_past_gamma_over_beta_fails_at_an_auto_located_spurious_point(tmp_path):
    assert _mirror_prox_ball_at(tmp_path, 0.55, theta_star="auto") == 2

"""Acceptance gate: every registered experiment at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion; the same experiments back `surro suite`.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from surro import cli, config, rates, suite
from surro.suite import REGISTRY, run_suite

DOCS = Path(__file__).resolve().parents[1] / "docs"


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_suite()}


def _check(results, name):
    r = results[name]
    print(r.line())
    assert r.passed, f"{name} failed: {r.measured}"
    return r


def test_e1_gradient_descent_rate(results):
    r = _check(results, "E1")
    assert abs(r.measured["empirical_rate"] - 0.6) <= 5e-3
    assert set(r.measured["verdicts"].values()) == {"pass"}


def test_e2_exact_rate_regime(results):
    r = _check(results, "E2")
    assert r.measured["rho_inf"] == pytest.approx(0.4)
    assert r.measured["rho_sup"] == pytest.approx(0.6)


def test_e3_prox_spectrum_identity(results):
    r = _check(results, "E3")
    assert r.measured["identity_gap_quadratic"] <= 1e-6
    assert r.measured["identity_gap_entropy"] <= 1e-6
    assert r.measured["prox_rho_inf_quadratic"] >= 0.75 - 1e-9
    assert r.measured["prox_rho_inf_entropy"] >= 0.75 - 1e-9


def test_e4_population_em_ratio(results):
    r = _check(results, "E4")
    assert r.measured["curvature_gap"] <= 1e-6
    assert abs(r.measured["empirical_rate"] - 0.5) <= 5e-3


def test_e5_sample_rate_convergence(results):
    r = _check(results, "E5")
    med = r.measured["mixture_medians"]
    assert all(a > b for a, b in zip(med, med[1:]))
    assert r.measured["gaussian_max_dev"] <= 1e-6


def test_e6_alpha_em_optimum(results):
    r = _check(results, "E6")
    assert r.measured["alpha_opt"] == pytest.approx(0.5)
    assert r.measured["rho_opt"] == pytest.approx(0.0, abs=1e-9)
    assert r.measured["rate_at_half"] < 0.05
    assert abs(r.measured["rate_at_quarter"] - 1.0 / 3.0) <= 0.02


def test_e7_newton_curvature(results):
    r = _check(results, "E7")
    assert abs(r.measured["a_tilde"] - 1.0) <= 1e-6
    assert abs(r.measured["b_tilde"]) <= 1e-6


def test_e8_surrogate_gap_decay(results):
    r = _check(results, "E8")
    assert r.measured["gd_q_gap_rate"] <= r.measured["gd_rho_sup"] + 0.02
    assert r.measured["em_q_gap_rate"] <= r.measured["em_rho_sup"] + 0.02


def test_e9_ball_map_global_convergence(results):
    r = _check(results, "E9")
    assert r.measured["worst_error"] <= 1e-10
    assert len(r.measured["errors"]) == 8


def test_e10_linalg_property_suites(results):
    r = _check(results, "E10")
    assert all(n == 0 for n in r.measured["failures"].values())
    assert all(n >= 1000 for n in r.measured["trials"].values())


def test_e11_acceleration(results):
    r = _check(results, "E11")
    assert r.measured["em_accel_error"] <= 1e-8
    assert r.measured["gd_accel_error"] <= 1e-10
    assert r.measured["em_plain_error"] == pytest.approx(0.05)


def test_e12_reparametrization(results):
    r = _check(results, "E12")
    assert r.measured["interior_gap"] <= 1e-5
    assert r.measured["original_rate"] == pytest.approx(0.5, abs=1e-3)
    assert r.measured["reparam_rate"] == pytest.approx(2.0, abs=1e-3)


def test_experiments_read_the_bundled_configs(tmp_path, monkeypatch):
    """E1 is gd_diag: a changed step size in the config moves E1's rates with it."""
    configs = tmp_path / "configs"
    shutil.copytree(config.CONFIG_DIR, configs)
    cfg = json.loads((configs / "gd_diag.json").read_text())
    (configs / "gd_diag.json").write_text(json.dumps(dict(cfg, eta=0.3)))
    monkeypatch.setattr(suite, "CONFIG_DIR", configs)
    r = suite.run_experiment("E1")
    # diag(1, 4) at step 0.3: the iteration map's eigenvalues are 1 - 0.3 and 1 - 1.2
    assert r.measured["rho_sup"] == pytest.approx(0.7)
    assert r.measured["rho_inf"] == pytest.approx(0.2)
    assert r.measured["empirical_rate"] == pytest.approx(0.7, abs=5e-3)
    assert not r.passed


@pytest.mark.parametrize("name", ["E3", "E6", "E8"])
def test_rate_comparisons_read_the_verdict_tolerance(name, monkeypatch):
    """E3, E6 and E8 compare rates within rates.DEFAULT_RATE_TOL: planted at -1, where
    suite and rates read it, no comparison holds."""
    for tol, passed in ((0.02, True), (-1.0, False)):
        monkeypatch.setattr(rates, "DEFAULT_RATE_TOL", tol)
        monkeypatch.setattr(suite, "DEFAULT_RATE_TOL", tol, raising=False)
        assert suite.run_experiment(name).passed is passed


def test_registry_is_complete(results):
    assert list(REGISTRY) == [f"E{i}" for i in range(1, 13)]
    assert set(results) == set(REGISTRY)


def test_suite_payload_validates_against_documented_schema(results, tmp_path, monkeypatch,
                                                          capsys):
    """`surro suite` in process, on the fixture's results: suite.json matches its schema."""
    jsonschema = pytest.importorskip("jsonschema")
    monkeypatch.setattr(cli, "run_suite", lambda: list(results.values()))
    assert cli.main(["suite", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(f"all {len(results)} experiments pass\n")
    payload = json.loads((tmp_path / "suite.json").read_text())
    jsonschema.validate(payload, json.loads((DOCS / "suite.schema.json").read_text()))
    assert [entry["name"] for entry in payload] == list(results)

    failing = [dataclasses.replace(r, passed=r.name != "E3") for r in results.values()]
    monkeypatch.setattr(cli, "run_suite", lambda: failing)
    assert cli.main(["suite", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.endswith("FAILED: E3\n")

"""Config schema: fail-closed validation and problem assembly."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surro.cli import main
from surro.config import (
    CONFIG_DIR, ConfigInvalid, assemble, assemble_sweep, validate, validate_sweep
)
from surro.domains import Simplex


def _base(algorithm, **extra):
    cfg = {"name": "t", "algorithm": algorithm}
    cfg.update(extra)
    return cfg


GD = dict(
    objective={"type": "quadratic_form", "h": [[1.0, 0.0], [0.0, 4.0]]},
    eta=0.4,
    theta0=[1.0, 1.0],
    theta_star=[0.0, 0.0],
)


def test_missing_required_fields_are_named():
    with pytest.raises(ConfigInvalid, match="mirror_descent requires field eta"):
        validate(
            _base(
                "mirror_descent",
                objective={"type": "quartic_1d"},
                mirror_map={"type": "quadratic"},
                domain={"type": "full_space", "q": 1},
            )
        )
    with pytest.raises(ConfigInvalid, match="em_sample requires field data"):
        validate(
            _base(
                "em_sample",
                latent_model={
                    "type": "gaussian_latent",
                    "sigma_x2": 1.0,
                    "sigma_y2": 1.0,
                    "theta_star": 0.0,
                },
            )
        )


def test_unknown_fields_rejected_everywhere():
    cfg = _base("gradient_descent", **GD)
    cfg["extra_knob"] = 1
    with pytest.raises(ConfigInvalid, match="unknown field 'extra_knob'"):
        validate(cfg)
    cfg = _base("gradient_descent", **GD)
    cfg["stop"] = {"max_iters": 10, "typo": 1}
    with pytest.raises(ConfigInvalid, match="unknown field 'typo'"):
        validate(cfg)
    cfg = _base("gradient_descent", **dict(GD, objective={"type": "quartic_1d", "junk": 2}))
    with pytest.raises(ConfigInvalid, match="unknown field 'junk'"):
        assemble(cfg)
    ball = {"type": "ball", "center": [0.0, 0.0], "radius": 5.0, "open": True}
    with pytest.raises(ConfigInvalid, match="unknown field 'open'"):  # every domain is closed
        assemble(_base("gradient_descent", **dict(GD, domain=ball)))


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigInvalid, match="unknown algorithm"):
        validate(_base("simulated_annealing"))


def test_assemble_gradient_descent_round_trip():
    asm = assemble(_base("gradient_descent", **GD))
    assert asm.problem.q == 2
    np.testing.assert_allclose(asm.theta0, [1.0, 1.0])
    np.testing.assert_allclose(asm.theta_star, [0.0, 0.0])
    assert asm.stop.max_iters == 10_000
    step = asm.problem.closed_form_step(np.array([1.0, 1.0]))
    np.testing.assert_allclose(step, [0.6, -0.6])


def test_assemble_random_theta0_is_deterministic_and_feasible():
    cfg = _base(
        "mirror_descent",
        objective={"type": "shifted_quadratic", "target": [0.5, 0.3, 0.2]},
        mirror_map={"type": "neg_entropy"},
        eta=0.2,
        domain={"type": "simplex", "q": 3},
        theta0="random",
    )
    a = assemble(cfg)
    b = assemble(cfg)
    np.testing.assert_array_equal(a.theta0, b.theta0)
    assert Simplex(3).contains(a.theta0, tol=1e-9)
    np.testing.assert_array_equal(assemble(dict(cfg, theta0="random(0)")).theta0, a.theta0)
    cfg["theta0"] = "random(99)"
    c = assemble(cfg)
    assert not np.array_equal(a.theta0, c.theta0)


def test_assemble_em_sample_with_drawn_data():
    cfg = _base(
        "em_sample",
        latent_model={
            "type": "gaussian_latent",
            "sigma_x2": 1.0,
            "sigma_y2": 1.0,
            "theta_star": 1.0,
        },
        data={"k": 25, "seed": 3},
        theta0=[0.0],
    )
    asm = assemble(cfg)
    assert "k=25" in asm.problem.label
    again = assemble(cfg)
    # identical draw both times
    assert asm.problem.eval_q(np.zeros(1), np.ones(1)) == again.problem.eval_q(
        np.zeros(1), np.ones(1)
    )


def test_assemble_em_sample_with_literal_data():
    """data given as the observations themselves is used as is, for em_sample and alpha_em."""
    y = [0.5, 2.0, 4.0]
    asm = assemble(_base("em_sample", latent_model=GAUSS, data=y, theta0=[0.0]))
    assert "k=3" in asm.problem.label
    # the EM fixed point is the sample mean
    np.testing.assert_allclose(asm.problem.closed_form_step(np.array([13 / 6])), [13 / 6],
                               rtol=1e-15)
    aem = assemble(_base("alpha_em", **dict(AEM, data=y)))
    assert aem.problem.label == "alpha_em(alpha=0.25, mode=sample)"
    assert asm.problem.eval_q(np.ones(1), np.ones(1)) == assemble(
        _base("em_sample", latent_model=GAUSS, data=[0.5, 2, 4], theta0=[0.0])
    ).problem.eval_q(np.ones(1), np.ones(1))


@pytest.mark.parametrize("extra", [{"mode": "population"}, {"mode": "sample", "data": [1.0]}],
                         ids=["population", "sample"])
def test_a_config_setting_mode_exits_1_naming_it(extra, tmp_path, capsys):
    # alpha_em's mode is read from its data: observations given means sample mode
    cfg = _base("alpha_em", **AEM, **extra)
    with pytest.raises(ConfigInvalid) as info:
        assemble(cfg)
    assert info.value.field == "mode"
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown field 'mode' in config\n"


def test_alpha_em_with_data_and_no_mode_runs_sample_mode(tmp_path):
    # the data were once ignored: such a config ran population mode, fixed point theta_star 1
    path = tmp_path / "aem.json"
    path.write_text(json.dumps(_base("alpha_em", **dict(AEM, data=[1.5, 2.0, 2.5],
                                                        theta0=[3.0], theta_star="auto"))))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rates = json.loads((tmp_path / "out" / "rates.json").read_text())
    assert rates["label"] == "alpha_em(alpha=0.25, mode=sample)"
    assert rates["theta_star"] == pytest.approx([2.0], abs=1e-9)  # the sample mean


def test_theta_star_auto_and_bad_strings():
    cfg = _base("gradient_descent", **dict(GD, theta_star="auto"))
    assert assemble(cfg).theta_star is None
    with pytest.raises(ConfigInvalid, match="theta_star"):
        assemble(_base("gradient_descent", **dict(GD, theta_star="guess")))
    with pytest.raises(ConfigInvalid, match="theta0"):
        assemble(_base("gradient_descent", **dict(GD, theta0="sometimes")))


def test_sweep_validation():
    good = {"name": "s", "model": {"type": "mixture", "theta_star": 1.0},
            "ks": [10, 20], "seeds": [0]}
    assert validate_sweep(good) is None  # the name bench/workloads.py calls
    with pytest.raises(ConfigInvalid, match="seeds must be a nonempty list"):
        assemble_sweep(dict(good, seeds=[]))
    with pytest.raises(ConfigInvalid, match="ks must be ascending"):
        assemble_sweep(dict(good, ks=[20, 10]))
    with pytest.raises(ConfigInvalid, match="unknown field"):
        assemble_sweep(dict(good, typo=1))


def test_assemble_sweep_returns_typed_fields():
    name, model, ks, seeds = assemble_sweep(
        {"name": "s", "model": {"type": "mixture", "theta_star": 1.0}, "ks": [10, 20],
         "seeds": [0, 3]}
    )
    assert (name, model.theta_star, ks, seeds) == ("s", 1.0, [10, 20], [0, 3])


MD = dict(
    objective={"type": "shifted_quadratic", "target": [0.5, 0.3, 0.2]},
    mirror_map={"type": "neg_entropy"},
    eta=0.2,
    domain={"type": "simplex", "q": 3},
    theta0=[0.2, 0.3, 0.5],
    theta_star=[0.5, 0.3, 0.2],
)
GAUSS = {"type": "gaussian_latent", "sigma_x2": 1.0, "sigma_y2": 1.0, "theta_star": 1.0}
AEM = dict(latent_model=GAUSS, alpha=0.25, theta0=[2.0], theta_star=[1.0])
SWEEP = {"name": "s", "model": {"type": "mixture", "theta_star": 1.0}, "ks": [10, 20],
         "seeds": [0]}


def _gd(**changes):
    return _base("gradient_descent", **dict(GD, **changes))


# case -> (config, the field ConfigInvalid must name)
MALFORMED = {
    "box_without_upper": (_gd(domain={"type": "box", "lower": [-2.0, -2.0]}), "upper"),
    "quadratic_form_without_h": (_gd(objective={"type": "quadratic_form"}), "h"),
    "non_pd_h": (_gd(objective={"type": "quadratic_form", "h": [[1.0, 0.0], [0.0, -1.0]]}),
                 "objective"),
    "eta_string": (_gd(eta="fast"), "eta"),
    "eta_zero": (_gd(eta=0), "eta"),
    "full_space_wrong_q": (_gd(domain={"type": "full_space", "q": 3}), "domain"),
    "stop_not_object": (_gd(stop=5), "stop"),
    "stop_max_iters_zero": (_gd(stop={"max_iters": 0}), "stop"),
    "stop_stall_window": (_gd(stop={"max_iters": 100, "stall_window": 20}), "stall_window"),
    "fd_block": (_gd(fd={"step": 1e-4, "richardson": True}), "fd"),
    "seed_string": (_gd(seed="x"), "seed"),
    "seed_zero": (_gd(seed=0), "seed"),  # a start seed is spelled theta0 "random(<seed>)"
    "theta0_random_word": (_gd(theta0="random(x)"), "theta0"),
    "theta_star_wrong_length": (_gd(theta_star=[0.0, 0.0, 0.0]), "theta_star"),
    "theta_star_off_simplex": (_base("mirror_descent", **dict(MD, theta_star=[0.6, 0.3, 0.2])),
                               "theta_star"),
    "log_sum_exp_without_q": (_gd(objective={"type": "log_sum_exp"}), "q"),
    "ball_domain_without_radius": (_gd(domain={"type": "ball", "center": [0.0, 0.0]}), "radius"),
    "affine_slice_without_lower": (
        _gd(domain={"type": "affine_slice", "c": [[1.0, 1.0]], "b": [0.0], "upper": [2.0, 2.0]}),
        "lower",
    ),
    "simplex_face_eps_too_large": (
        _base("mirror_descent", **dict(MD, domain={"type": "simplex", "q": 3, "face_eps": 0.5})),
        "domain",
    ),
    "newton_domain_wrong_q": (
        _base("newton", objective={"type": "quartic_1d"}, domain={"type": "full_space", "q": 2},
              theta0=[1.0]),
        "domain",
    ),
    "sweep_ks_string": (dict(SWEEP, ks=["a"]), "ks"),
    "sweep_seeds_string": (dict(SWEEP, seeds=["a"]), "seeds"),
    "sweep_seeds_negative": (dict(SWEEP, seeds=[-1]), "seeds"),
    "objective_not_object": (_gd(objective=5), "objective"),
    "h_string_entries": (_gd(objective={"type": "quadratic_form", "h": [["a", 0], [0, 1]]}), "h"),
    "theta0_wrong_length": (_gd(theta0=[1.0]), "theta0"),
    "theta0_outside_box": (
        _gd(domain={"type": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]}), "theta0"
    ),
    "alpha_one": (_base("alpha_em", **dict(AEM, alpha=1)), "alpha"),
    "mode_bogus": (_base("alpha_em", **dict(AEM, mode="bogus")), "mode"),
    "sigma_negative": (
        _base("alpha_em", **dict(AEM, latent_model=dict(GAUSS, sigma_x2=-1.0))), "latent_model"
    ),
    "em_population_mixture": (
        _base("em_population", latent_model={"type": "mixture", "theta_star": 1.0}),
        "latent_model",
    ),
    "data_k_zero": (_base("em_sample", latent_model=GAUSS, data={"k": 0}, theta0=[2.0]), "k"),
    "sweep_ks_zero": (dict(SWEEP, ks=[0, 10]), "ks"),
    "objective_type_unknown": (_gd(objective={"type": "cubic"}), "type"),
    "config_not_object": ([_gd()], "config"),
    "data_literal_empty": (_base("em_sample", latent_model=GAUSS, data=[], theta0=[2.0]), "data"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_names_its_field(case, tmp_path, capsys):
    cfg, field = MALFORMED[case]
    command, check = ("sweep", assemble_sweep) if "ks" in cfg else ("run", assemble)
    with pytest.raises(ConfigInvalid) as info:
        check(copy.deepcopy(cfg))
    assert info.value.field == field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


BUNDLED = [
    (path.stem.startswith("sweep"), json.loads(path.read_text()))
    for path in sorted(CONFIG_DIR.glob("*.json"))
]
EDGE_NUMBERS = st.sampled_from([0, -1, 1, 2, 0.5, -0.5, 1e308, -1e308, math.nan, math.inf,
                                -math.inf, 10**20])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 50) | st.floats() | EDGE_NUMBERS
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_bundled_configs_assemble_or_name_the_field(data):
    """Drop one key or replace one value anywhere in a bundled config."""
    is_sweep, cfg = data.draw(st.sampled_from(BUNDLED))
    cfg = copy.deepcopy(cfg)
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        assemble_sweep(cfg) if is_sweep else assemble(cfg)
    except ConfigInvalid as exc:
        assert exc.field is not None, str(exc)

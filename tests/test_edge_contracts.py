"""Smaller contract points: error types, open-domain safety, edge verdicts."""

import ast
import builtins
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import surro
import surro.linalg as linalg
from surro.descent import mirror_descent_problem, mirror_prox_problem, newton_problem
from surro.domains import (
    AffineSlice,
    Box,
    EuclideanBall,
    FullSpace,
    Simplex,
    as_vector,
)
from surro.errors import SurroError
from surro.latent import GaussianLatentModel, TwoComponentMixture, em_population_problem
from surro.mirror_maps import (
    BallMap,
    NegEntropyMap,
    OutsideMirrorDomain,
    QuadraticMap,
)
from surro.objectives import (
    CustomObjective, QuadraticForm, ShiftedQuadratic, SmoothLogSumExp
)
from surro.rates import RatesError, curvature_at, verdicts
from surro.rng import CounterRNG
from surro.surrogate import StopRule, SurrogateProblem, inner_minimize, iterate


_SQUARE = Box(np.zeros(2), np.ones(2))
_LINE = CustomObjective(1, lambda x: float(x[0]), lambda x: np.ones(1))
# id -> (call, error, message): each constructor or validation refusal in src/surro
REFUSALS = {
    "full_space_dimension": (lambda: FullSpace(0), SurroError, "dimension must be >= 1"),
    "simplex_dimension": (lambda: Simplex(0), SurroError, "dimension must be >= 1"),
    "box_shapes": (lambda: Box([0.0, 0.0], [1.0]), SurroError, "equal length"),
    "ball_center": (lambda: EuclideanBall(np.zeros((2, 2)), 1.0), SurroError,
                    "center must be a vector"),
    "ball_radius": (lambda: EuclideanBall([0.0], 0.0), SurroError, "radius must be positive"),
    "slice_rows": (lambda: AffineSlice([[1.0, 1.0]], [1.0, 2.0], _SQUARE), SurroError,
                   "row count of C"),
    "slice_columns": (lambda: AffineSlice([[1.0, 1.0, 1.0]], [1.0], _SQUARE), SurroError,
                      "C column count"),
    "ball_map_r2": (lambda: BallMap(2, 0.0), SurroError, "squared radius must be positive"),
    "quadratic_c": (lambda: QuadraticForm(np.eye(2), np.ones(3)), SurroError,
                    "c must match"),
    "log_sum_exp_scale": (lambda: SmoothLogSumExp(2, scale=0.0), SurroError,
                          "scale must be positive"),
    "custom_without_hessian": (lambda: _LINE.hess(np.zeros(1)), SurroError, "no Hessian"),
    "stop_residual_tol": (lambda: StopRule(residual_tol=0.0), ValueError, "residual_tol"),
    "spectral_norm_vector": (lambda: linalg.spectral_norm(np.ones(3)), linalg.LinalgError,
                             "expected a matrix"),
    "eta_zero": (lambda: mirror_descent_problem(_LINE, QuadraticMap(1), 0.0, FullSpace(1)),
                 SurroError, "eta must be positive"),
    "newton_overflow": (  # a finite Hessian of 1e-320 makes the Newton step infinite
        lambda: newton_problem(CustomObjective(1, float, lambda x: np.ones(1),
                                               lambda x: np.array([[1e-320]])))
        .closed_form_step(np.zeros(1)),
        SurroError, "non-finite step"),
    "mixture_without_data": (lambda: TwoComponentMixture(1.0).sample_problem([]), SurroError,
                             "at least one observation"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_invalid_arguments_are_refused_with_their_reason(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_internal_failure(bad):
    # LAPACK itself returns finite-looking eigenvalues for a NaN entry
    m = np.array([[bad, 1.0], [1.0, 2.0]])
    with pytest.raises(linalg.LinalgError, match="eigh input has non-finite entries"):
        linalg.eigh(m)
    with pytest.raises(linalg.LinalgError, match="eigh input has non-finite entries"):
        linalg.generalized_rate_pair(m, np.eye(2))
    with pytest.raises(linalg.LinalgError, match="rate pair input B has non-finite entries"):
        linalg.generalized_rate_pair(np.eye(2), m)
    with pytest.raises(linalg.LinalgError, match="rate pair input B has non-finite entries"):
        linalg.whitened_eigenvalues(np.eye(2), m)
    # M'M would meet bad * 0 and warn before eigh saw the entry
    d = np.diag([1.0, 2.0, 3.0])
    d[2, 0] = bad
    with pytest.raises(linalg.LinalgError, match="spectral_norm input has non-finite entries"):
        linalg.spectral_norm(d)


def _non_finite_points():
    base = np.array([0.3, 0.3, 0.4])
    for bad in (np.nan, np.inf, -np.inf):
        yield np.full(3, bad)
        for i in range(3):
            point = base.copy()
            point[i] = bad
            yield point
    yield np.array([np.inf, -np.inf, 0.5])


_UNIT_BOX = Box(np.zeros(3), np.ones(3))


@pytest.mark.parametrize(
    "domain",
    [
        FullSpace(3),
        _UNIT_BOX,
        EuclideanBall(np.zeros(3), 1.0),
        Simplex(3),
        # the zero in C meets an infinite third coordinate as 0 * inf
        AffineSlice(np.array([[1.0, 1.0, 0.0]]), np.array([0.6]), _UNIT_BOX),
    ],
    ids=["full", "box", "ball", "simplex", "affine_slice"],
)
def test_contains_alone_rejects_non_finite_points(domain):
    problem = SurrogateProblem(
        domain=domain, eval_q=lambda t, u: 0.0, grad2=lambda t, u: np.zeros(3)
    )
    with np.errstate(all="raise"):
        for point in _non_finite_points():
            assert domain.contains(point) is False
            with pytest.raises(SurroError, match="non-finite coordinates"):
                problem.check_feasible(point)


@pytest.mark.parametrize("phi", [QuadraticMap(3), NegEntropyMap(3), BallMap(3, 1.0)],
                         ids=["quadratic", "neg_entropy", "ball"])
def test_in_domain_alone_rejects_non_finite_points(phi):
    with np.errstate(all="raise"):
        for point in _non_finite_points():
            assert not phi.in_domain(point)
            with pytest.raises(OutsideMirrorDomain):
                phi._require(point)


def test_lapack_failure_raises_internal_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigh", fail)
    with pytest.raises(linalg.LinalgError, match="LAPACK eigh failed: Eigenvalues did not"):
        linalg.eigh([[2.0, 1.0], [1.0, 2.0]])


def test_prox_aux_iterates_stay_feasible():
    center = np.array([0.5, 0.3, 0.2])
    setup = (ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    prox, half = mirror_prox_problem(*setup), mirror_descent_problem(*setup)
    trace = iterate(prox, np.array([0.2, 0.3, 0.5]), StopRule(max_iters=60))
    for point in trace.iterates[:-1]:
        assert Simplex(3).contains(inner_minimize(half, point), tol=1e-12)

    ball = EuclideanBall(np.zeros(2), 1.0)
    setup = (ShiftedQuadratic(np.array([0.3, -0.2])), BallMap(2, 4.0), 0.4, ball)
    prox, half = mirror_prox_problem(*setup), mirror_descent_problem(*setup)
    trace = iterate(prox, np.array([0.9, 0.0]), StopRule(max_iters=40))
    for point in trace.iterates:
        assert ball.contains(point, tol=1e-12)
    for point in trace.iterates[:-1]:
        assert ball.contains(inner_minimize(half, point), tol=1e-12)


def test_curvature_infeasible_perturbation_is_reported():
    center = np.array([0.5, 0.3, 0.2])
    prob = mirror_descent_problem(ShiftedQuadratic(center), NegEntropyMap(3), 0.2, Simplex(3))
    corner = Simplex(3).project(np.array([1.0, 0.0, 0.0]))  # face point
    with pytest.raises(RatesError, match="surrogate evaluation failed at offset"):
        curvature_at(dataclasses.replace(prob, hess22=None, hess12=None), corner)
    # a probe that evaluates but returns an infinite gradient is reported the same way
    wall = SurrogateProblem(domain=FullSpace(1), eval_q=lambda t, u: 0.0,
                            grad2=lambda t, u: np.array([np.inf]) if u[0] > 0 else u - t)
    with pytest.raises(RatesError, match="non-finite derivative probe"):
        curvature_at(wall, np.zeros(1))


def test_empty_window_marks_lower_verdict_inapplicable():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.5))
    trace = iterate(em, np.array([1.5]))  # fixed-point start: single-point trace
    frame = curvature_at(em, np.array([1.5]))
    rep = verdicts(trace, np.array([1.5]), frame, em)
    assert rep.verdicts["lower"] == "inapplicable"
    assert rep.verdicts["upper"] == "pass"


def test_population_rate_is_the_analytic_shrinkage():
    for sx2, sy2 in ((1.0, 1.0), (1.0, 3.0), (2.0, 0.5)):
        model = GaussianLatentModel(sx2, sy2, theta_star=0.0)
        assert model.population_rate() == pytest.approx(sy2 / (sx2 + sy2))


def test_entropy_strong_convexity_on_simplex():
    phi = NegEntropyMap(3)
    dom = Simplex(3)
    gamma = phi.strong_convexity(dom)
    assert gamma == 1.0
    rng = CounterRNG(80)
    for _ in range(100):
        x = dom.sample(rng)
        assert np.linalg.eigvalsh(phi.hess(x)).min() >= gamma - 1e-9


def test_entropy_strong_convexity_on_a_positive_box():
    phi, box = NegEntropyMap(2), Box([0.5, 0.25], [2.0, 4.0])
    gamma = phi.strong_convexity(box)
    assert gamma == 0.25  # 1 / max upper
    rng = CounterRNG(81)
    for _ in range(50):
        assert np.linalg.eigvalsh(phi.hess(box.sample(rng))).min() >= gamma - 1e-12
    # a box that reaches 0, or the whole space, has no positive lower bound
    assert phi.strong_convexity(Box([0.0, 0.25], [2.0, 4.0])) is None
    assert phi.strong_convexity(FullSpace(2)) is None


def test_asymmetry_diagnostic_recorded_on_fd_route():
    em = em_population_problem(GaussianLatentModel(1.0, 1.0, theta_star=1.0))
    frame = curvature_at(dataclasses.replace(em, hess22=None, hess12=None), np.array([1.0]))
    assert frame.asymmetry_diag >= 0.0
    assert frame.asymmetry_diag <= 1e-6  # scalar problems are exactly symmetric


def test_as_vector_returns_a_float_vector_itself_and_converts_the_rest():
    v = np.array([0.5, -1.0, 2.0])
    assert as_vector(v, 3) is v
    converted = [[1, 2, 3], (0.5, -1.0, 2.0), np.array([1, 2, 3]),
                 np.array([0.1, 0.2, 0.3], dtype=np.float32),
                 np.array([0.5, -1.0, 2.0], dtype=">f8")]  # not the native byte order
    for x in converted:
        out = as_vector(x, 3)
        assert out is not x and out.dtype == np.float64 and out.shape == (3,)
        assert out.tobytes() == np.asarray(x, dtype=float).tobytes()
    for x in (0.5, 2, np.float64(0.5), np.array(0.5), np.array(2, dtype=np.int32)):
        out = as_vector(x, 1)  # a 0-d value counts as length 1
        assert out.shape == (1,) and out.dtype == np.float64 and out[0] == float(x)


@pytest.mark.parametrize("bad", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), np.zeros((3, 1)),
                                 [1.0, 2.0], 0.5],
                         ids=["short", "long", "row", "column", "list", "scalar"])
def test_a_wrong_shape_has_one_message_under_every_error_type(bad):
    shape = np.atleast_1d(bad).shape
    message = re.escape(f"expected a vector of length 3, got shape {shape}")
    problem = SurrogateProblem(domain=FullSpace(3), eval_q=lambda t, u: 0.0,
                               grad2=lambda t, u: np.zeros(3))
    with pytest.raises(SurroError, match=message):
        as_vector(bad, 3)
    for call in (FullSpace(3).contains, Simplex(3).project, BallMap(3, 4.0).value,
                 NegEntropyMap(3).grad, problem.check_feasible):
        with pytest.raises(SurroError, match=message):
            call(bad)


def test_a_non_finite_vector_passes_as_vector_and_fails_membership():
    problem = SurrogateProblem(domain=Simplex(3), eval_q=lambda t, u: 0.0,
                               grad2=lambda t, u: np.zeros(3))
    with np.errstate(all="raise"):
        for point in _non_finite_points():
            assert as_vector(point, 3) is point
            for domain in (FullSpace(3), Simplex(3), EuclideanBall(np.zeros(3), 1.0)):
                assert domain.contains(point) is False
            for phi in (QuadraticMap(3), NegEntropyMap(3), BallMap(3, 1.0)):
                assert not phi.in_domain(point)
            with pytest.raises(SurroError, match="non-finite coordinates"):
                problem.check_feasible(point)


def _exception_classes(trees) -> set[str]:
    """Names of the classes in the trees that derive from Exception, directly or not."""
    bases = {node.name: [b.id if isinstance(b, ast.Name) else b.attr for b in node.bases]
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found: set[str] = set()
    while True:
        new = {name for name, names in bases.items() if name not in found and any(
            b in found or (isinstance(getattr(builtins, b, None), type)
                           and issubclass(getattr(builtins, b), Exception)) for b in names)}
        if not new:
            return found
        found |= new


def _caught_names(tree) -> set[str]:
    """Every name an except clause of the module names, through module-level tuples too."""
    tuples = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Tuple) for target in node.targets
              if isinstance(target, ast.Name)}
    todo = [node.type for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None]
    names = set()
    while todo:
        expr = todo.pop()
        if isinstance(expr, ast.Tuple):
            todo.extend(expr.elts)
        elif isinstance(expr, ast.Attribute):
            names.add(expr.attr)
        elif isinstance(expr, ast.Name):
            names.add(expr.id)
            if expr.id in tuples:
                todo.append(tuples.pop(expr.id))
    return names


def test_every_error_class_is_named_by_a_handler():
    # a class that no except clause names is read only through its message, which
    # its nearest caught ancestor carries as well
    trees = [ast.parse(path.read_text()) for path in Path(surro.__file__).parent.glob("*.py")]
    classes = _exception_classes(trees)
    assert {"SurroError", "ConfigInvalid", "InnerSolveFailed"} <= classes
    assert sorted(classes - set().union(*map(_caught_names, trees))) == []

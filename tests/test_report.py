import numpy as np
import pytest

from avekit import problems as pr
from avekit.analysis import signature_of
from avekit.linalg import infinity_norm
from avekit.report import ORTHANT_RTOL, residual_rtol, verify


def check(problem, z, signs=None):
    """verify of z with its own residual and, by default, its own signs."""
    z = np.asarray(z, dtype=float)
    signs = signature_of(z) if signs is None else np.asarray(signs)
    res = pr.residual(problem, z) if np.isfinite(z).all() else np.inf
    return verify(problem, z, signs, res, infinity_norm(problem.a))


@pytest.fixture
def instance():
    return pr.random_instance("norm_lt_half", 5, 3)


def test_the_generating_solution_passes(instance):
    problem, z = instance
    assert check(problem, z)


@pytest.mark.parametrize("k", [0, -60, 60])
def test_residual_bound_is_homogeneous(instance, k):
    # A wrong z in the right orthant fails at every scale of (b, z): at
    # 2^-60 its residual, near 1e-24, would pass any bound with a constant
    # term.
    problem, z = instance
    wrong = z * (1.0 + 1e-6)
    scaled = pr.AveProblem(problem.a, np.ldexp(problem.b, k))
    assert check(scaled, np.ldexp(z, k))
    assert not check(scaled, np.ldexp(wrong, k))


def test_orthant_test_rejects_exact_solution_with_wrong_signs(instance):
    problem, z = instance
    i = int(np.abs(z).argmax())
    signs = signature_of(z)
    signs[i] = -signs[i]
    assert pr.residual(problem, z) <= residual_rtol(5) * np.abs(problem.b).max()
    assert not check(problem, z, signs)


def test_orthant_tolerance_is_relative_to_z():
    problem = pr.AveProblem(np.zeros((2, 2)), np.array([-1e-11, 1.0]))
    # z = b; s_0 = +1 against z_0 = -1e-11, inside 1e-10 |z|_inf.
    assert check(problem, problem.b, [1, 1])
    assert not check(pr.AveProblem(problem.a, np.array([-1e-9, 1.0])), [-1e-9, 1.0], [1, 1])
    assert ORTHANT_RTOL == 1e-10


def test_zero_solution_passes():
    assert check(pr.AveProblem(0.3 * np.eye(3), np.zeros(3)), np.zeros(3))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_z_fails(bad):
    problem = pr.AveProblem(0.3 * np.eye(2), np.ones(2))
    assert not check(problem, [bad, 1.0], [1, 1])


def test_residual_rtol_grows_like_4n_eps():
    eps = np.finfo(float).eps
    assert residual_rtol(2) == pytest.approx(10 * eps, rel=1e-12)
    assert residual_rtol(1000) == pytest.approx(4002 * eps, rel=1e-9)

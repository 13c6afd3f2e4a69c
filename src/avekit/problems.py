"""Problem instances for z - A|z| = b: constructors and seeded generators.

Provides the AveProblem container, instance-from-solution construction,
condition-class random generators, the counterexample instances that
separate the two solvers, and the reduction of equilibrium problems
Bx + max(0, x) = c to AVE form.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ._rng import XorShift64Star, to_uniform
from .analysis import condition_profile
from .errors import GenerationFailed, SingularMatrix, SingularTransform
from .linalg import as_square_matrix, as_vector, infinity_norm, lu_factor, lu_solve


@dataclass(frozen=True)
class AveProblem:
    """The pair (A, b) defining z - A|z| = b."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_square_matrix(self.a)
        b = as_vector(self.b, a.shape[0])
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


def residual(problem: AveProblem, z) -> float:
    """Infinity norm of z - A|z| - b."""
    z = as_vector(z, problem.n)
    return float(np.abs(z - problem.a @ np.abs(z) - problem.b).max())


def from_solution(a, z) -> AveProblem:
    """Build the problem whose right-hand side makes z a solution."""
    a = as_square_matrix(a)
    z = as_vector(z, a.shape[0])
    return AveProblem(a, z - a @ np.abs(z))


@dataclass(frozen=True)
class EquilibriumProblem:
    """The system  matrix @ x + max(0, x) = rhs."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = as_square_matrix(self.matrix)
        c = as_vector(self.rhs, m.shape[0])
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", c)


def from_equilibrium(problem: EquilibriumProblem):
    """Convert Bx + max(0, x) = c into AVE form.

    Rewriting max(0, x) = (x + |x|)/2 gives (2B + I)x + |x| = 2c, so for
    nonsingular M = 2B + I the change A = -M^{-1}, b = 2 M^{-1} c puts the
    system in the form x - A|x| = b with x recovered as the AVE solution
    itself.  Returns (ave_problem, recover_x).
    """
    m = 2.0 * problem.matrix + np.eye(problem.matrix.shape[0])
    try:
        f = lu_factor(m)
    except SingularMatrix as exc:
        raise SingularTransform("2B + I is singular") from exc
    inv = lu_solve(f, np.eye(m.shape[0]))
    b = 2.0 * lu_solve(f, problem.rhs)
    return AveProblem(-inv, b), lambda z: np.asarray(z, dtype=float)


# ---------------------------------------------------------------------------
# Counterexample instances.


def sge_trap_instance(eps: float) -> tuple[AveProblem, np.ndarray]:
    """2x2 instance whose largest-|b| entry carries the wrong sign.

    The unique solution is (eps/2, 1), yet |b_1| > |b_2| with b_1 < 0, so
    a solver that pins signs from the dominant entry of b picks -1 where
    the solution is positive.  Norm is 1/2 + eps.  Returns (problem,
    known_solution).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    a = np.array([[eps / 2.0, (1.0 + eps) / 2.0], [0.0, 0.5]])
    z = np.array([eps / 2.0, 1.0])
    return from_solution(a, z), z


def newton_cycle_instance(a: float = 0.625) -> AveProblem:
    """3x3 circulant instance with b = (1, 1, 1).

    For a = 5/8 the full-step Newton iteration cycles from every starting
    signature that mixes positive and negative signs, while the direct
    elimination solver handles it.
    """
    mat = np.array([[0.0, 0.0, a], [a, 0.0, 0.0], [0.0, a, 0.0]])
    return AveProblem(mat, np.ones(3))


def inflated_identity(eps: float, n: int) -> np.ndarray:
    """(1 + eps) * I: just past the solvability threshold for every eps > 0."""
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    if n < 1:
        raise ValueError("need n >= 1")
    return (1.0 + eps) * np.eye(n)


# ---------------------------------------------------------------------------
# Seeded random generators per condition class.


def _force_abs_row_sum(row: np.ndarray, target: float) -> None:
    """Adjust the largest entry so the float row abs-sum equals target."""
    j = int(np.argmax(np.abs(row)))
    sign = 1.0 if row[j] >= 0 else -1.0
    others = float(np.abs(row).sum() - abs(row[j]))
    row[j] = sign * (target - others)
    for _ in range(100):
        total = float(np.abs(row).sum())
        if total == target:
            return
        row[j] = sign * (abs(row[j]) + (target - total))
    # Fall back to one-ulp shrinks until the sum no longer exceeds target.
    while float(np.abs(row).sum()) > target:
        row[j] = sign * np.nextafter(abs(row[j]), 0.0)


def _signs(r: np.ndarray) -> np.ndarray:
    """The +-1 of a sign draw for each unit draw in r (1 below 0.5)."""
    return np.where(r < 0.5, 1.0, -1.0)


def _draw_with_followers(rng: XorShift64Star, hit, heads: int):
    """Draw ``heads`` head draws, each head r with hit(r) followed by one
    more draw, its follower.

    Returns (the hit mask of the heads, the followers), having drawn
    exactly what the scalar loop would: each batch is the fewest draws
    still certain to be needed.  A draw is a head unless the draw before
    it is a hit head.  So within a batch a draw is a head when an even
    number of draws separate it from the start of its run; a run starts
    at the batch's first draw (one earlier when that draw is a pending
    follower) and after each miss.
    """
    hit_parts, follower_parts = [np.empty(0, dtype=bool)], [np.empty(0)]
    got = 0
    follower_due = False
    while True:
        # Each head still needed takes at least one draw.
        count = heads - got + follower_due
        if count == 0:
            break
        x = rng.random_array(count)
        h = hit(x)
        start = np.arange(count)
        start[1:][h[:-1]] = -1
        start[0] = -1 if follower_due else 0
        np.maximum.accumulate(start, out=start)
        start ^= np.arange(count)
        at = np.flatnonzero((start & 1) == 0)
        head_hit = h[at]
        hit_at = at[head_hit]
        if follower_due:
            follower_parts.append(x[:1])
        follower_due = bool(len(hit_at) and hit_at[-1] == count - 1)
        follower_parts.append(x[hit_at[: len(hit_at) - follower_due] + 1])
        hit_parts.append(head_hit)
        got += len(at)
    return np.concatenate(hit_parts), np.concatenate(follower_parts)


def _gen_norm_lt_half(rng: XorShift64Star, n: int) -> np.ndarray:
    a = rng.uniform_array((n, n))
    targets = rng.uniform_array(n, 0.05, 0.499)
    for i, target in enumerate(targets.tolist()):
        s = float(np.abs(a[i]).sum())
        if s > 0.0:
            a[i] *= target / s
    return a


def _gen_irreducible_half(rng: XorShift64Star, n: int) -> np.ndarray:
    a = np.zeros((n, n))
    cycle = np.array(rng.permutation(n))
    draws = rng.random_array(2 * n).reshape(n, 2)
    a[cycle, np.roll(cycle, -1)] = to_uniform(draws[:, 0], 0.2, 1.0) * _signs(draws[:, 1])
    # Each empty off-diagonal entry, in row-major order, is filled with
    # probability 0.15, by a second draw.
    empty = np.flatnonzero((a == 0.0) & ~np.eye(n, dtype=bool))
    filled, values = _draw_with_followers(rng, lambda r: r < 0.15, len(empty))
    a.flat[empty[filled]] = to_uniform(values, -1.0, 1.0)
    a *= 0.5 / infinity_norm(a)
    sums = np.abs(a).sum(axis=1)
    for i in range(n):
        s = float(np.abs(a[i]).sum())
        if s >= 0.5 or i == int(np.argmax(sums)):
            _force_abs_row_sum(a[i], 0.5)
            sums = np.abs(a).sum(axis=1)
    return a


def _gen_sdd_two_thirds(rng: XorShift64Star, n: int) -> np.ndarray:
    a = rng.uniform_array((n, n))
    np.fill_diagonal(a, 0.0)
    for i in range(n):
        # uniform(1, 1.5) redrawn while it rounds to 1, then a sign.
        u = rng.uniform(1.0, 1.5)
        while u <= 1.0:
            u = rng.uniform(1.0, 1.5)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        off = float(np.abs(a[i]).sum())
        if off == 0.0:
            a[i, (i + 1) % n] = 0.1
            off = 0.1
        a[i, i] = off * u * sign
    a *= rng.uniform(0.25, 0.66) / infinity_norm(a)
    return a


def _gen_tridiag_abs_sym(rng: XorShift64Star, n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("tridiag_abs_sym needs n >= 2")
    a = np.zeros((n, n))
    draws = rng.random_array(3 * (n - 1)).reshape(n - 1, 3)
    mags = to_uniform(draws[:, 0], 0.05, 1.0)
    i = np.arange(n - 1)
    a[i, i + 1] = mags * _signs(draws[:, 1])
    a[i + 1, i] = mags * _signs(draws[:, 2])
    np.fill_diagonal(a, rng.uniform_array(n, -1.0, 1.0))
    a *= rng.uniform(0.3, 0.99) / infinity_norm(a)
    return a


def _gen_norm_lt_third(rng: XorShift64Star, n: int) -> np.ndarray:
    a = rng.uniform_array((n, n))
    hot = rng.below(n)
    hot_target = rng.uniform(0.2, 0.3299)
    targets = np.insert(rng.uniform_array(n - 1, 0.05, hot_target), hot, hot_target)
    for i, target in enumerate(targets.tolist()):
        s = float(np.abs(a[i]).sum())
        if s > 0.0:
            a[i] *= target / s
    return a


def _gen_unconstrained(rng: XorShift64Star, n: int, nu: float) -> np.ndarray:
    a = rng.uniform_array((n, n))
    norm = infinity_norm(a)
    while norm == 0.0:
        a = rng.uniform_array((n, n))
        norm = infinity_norm(a)
    return a * (nu / norm)


GENERATOR_CLASSES = (
    "norm_lt_half",
    "irreducible_half",
    "sdd_two_thirds",
    "tridiag_abs_sym",
    "norm_lt_third",
    "unconstrained",
)


def _class_stream(class_name: str, n: int) -> int:
    return zlib.crc32(class_name.encode()) ^ (n << 33)


def gen_class(class_name: str, n: int, seed: int, nu: float | None = None) -> np.ndarray:
    """Deterministic random matrix satisfying the named condition class.

    Identical (class_name, n, seed) arguments yield a bitwise-identical
    matrix.  The output is re-verified against the class predicate and
    resampled on failure; GenerationFailed after 1000 attempts.
    """
    if class_name not in GENERATOR_CLASSES:
        raise ValueError(f"unknown class {class_name!r}; valid: {', '.join(GENERATOR_CLASSES)}")
    if n < 1 or (class_name == "tridiag_abs_sym" and n < 2):
        raise ValueError(f"invalid dimension {n} for class {class_name!r}")
    if class_name == "unconstrained" and (nu is None or nu <= 0.0):
        raise ValueError("class 'unconstrained' needs a positive norm target nu")

    rng = XorShift64Star(seed, stream=_class_stream(class_name, n))
    for _ in range(1000):
        if class_name == "norm_lt_half":
            a = _gen_norm_lt_half(rng, n)
            ok = condition_profile(a).cond1
        elif class_name == "irreducible_half":
            a = _gen_irreducible_half(rng, n)
            ok = condition_profile(a).cond2
        elif class_name == "sdd_two_thirds":
            a = _gen_sdd_two_thirds(rng, n)
            ok = condition_profile(a).cond3
        elif class_name == "tridiag_abs_sym":
            a = _gen_tridiag_abs_sym(rng, n)
            ok = condition_profile(a).cond4
        elif class_name == "norm_lt_third":
            a = _gen_norm_lt_third(rng, n)
            ok = infinity_norm(a) < 1.0 / 3.0
        else:
            a = _gen_unconstrained(rng, n, float(nu))
            ok = True
        if ok:
            return a
    raise GenerationFailed(f"no admissible {class_name!r} matrix after 1000 attempts")


def random_instance(
    class_name: str,
    n: int,
    seed: int,
    rhs: str = "from-random-z",
    nu: float | None = None,
) -> tuple[AveProblem, np.ndarray | None]:
    """Seeded problem instance of a condition class.

    With rhs="from-random-z" the right-hand side is built from a random
    solution vector z (returned as known solution); with rhs="explicit"
    b is drawn uniformly from [-1, 1]^n and no solution is known.
    """
    a = gen_class(class_name, n, seed, nu=nu)
    rng = XorShift64Star(seed, stream=_class_stream(class_name, n) ^ (1 << 62))
    if rhs == "from-random-z":
        z = rng.uniform_array(n)
        return from_solution(a, z), z
    if rhs == "explicit":
        return AveProblem(a, rng.uniform_array(n)), None
    raise ValueError(f"unknown rhs mode {rhs!r}")

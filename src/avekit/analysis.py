"""Matrix predicates and solvability analysis for z - A|z| = b.

Contains the convergence-condition checks used by the solvers, the Neq
index set, and the sign-real spectral radius computed by two independent
methods (direct signature enumeration and determinant-positivity
bisection).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge
from .linalg import (
    as_square_matrix,
    as_vector,
    char_polys_stack,
    infinity_norm,
    lu_factor,
    lu_solve,
    max_abs_real_roots,
    pivot_threshold,
)

# 2^n signature enumerations are kept below a second of work.
MAX_ENUM_DIM = 12


def signature_of(z) -> np.ndarray:
    """Componentwise sign of z as a +-1 integer vector, with sign(0) = +1.

    Satisfies ``signature_of(z) * z == |z|`` exactly, including signed
    zeros.
    """
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0.0, 1, -1).astype(np.int64)


@lru_cache(maxsize=None)
def signature_stack(n: int, fix_first: bool = False) -> np.ndarray:
    """All sign vectors of length n, optionally with the first sign pinned
    to +1 (halving the enumeration).  Row 0 is all +1; cached, read-only."""
    free = n - 1 if fix_first else n
    idx = np.arange(1 << free, dtype=np.int64)[:, None]
    bits = (idx >> np.arange(free)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    if fix_first:
        signs = np.hstack([np.ones((signs.shape[0], 1)), signs])
    signs.setflags(write=False)
    return signs


def is_irreducible(a) -> bool:
    """True iff the nonzero-pattern digraph of A is strongly connected.

    Every 1x1 matrix counts as irreducible.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if n == 1:
        return True
    adj = a != 0.0

    def reaches_all(edges: np.ndarray) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def is_strictly_diag_dominant(a) -> bool:
    """True iff |a_ii| > sum_{j != i} |a_ij| for every row."""
    a = as_square_matrix(a)
    abs_a = np.abs(a)
    off = abs_a.copy()
    np.fill_diagonal(off, 0.0)
    return bool((np.diag(abs_a) > off.sum(axis=1)).all())


def is_tridiag_abs_symmetric(a) -> bool:
    """True iff a_ij = 0 for |i - j| > 1 and |A| is symmetric."""
    a = as_square_matrix(a)
    n = a.shape[0]
    if n > 2 and (np.triu(a, 2) != 0.0).any():
        return False
    if n > 2 and (np.tril(a, -2) != 0.0).any():
        return False
    abs_a = np.abs(a)
    return bool(np.array_equal(abs_a, abs_a.T))


@dataclass(frozen=True)
class ConditionProfile:
    """Evaluation of the four sufficient solvability conditions.

    cond1: ||A||_inf < 1/2
    cond2: A irreducible and ||A||_inf <= 1/2
    cond3: A strictly diagonally dominant and ||A||_inf <= 2/3
    cond4: |A| tridiagonal-symmetric, ||A||_inf < 1, n >= 2
    """

    norm_inf: float
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    any: bool

    def as_dict(self) -> dict:
        return asdict(self)


def condition_profile(a) -> ConditionProfile:
    a = as_square_matrix(a)
    n = a.shape[0]
    norm = infinity_norm(a)
    c1 = norm < 0.5
    c2 = norm <= 0.5 and is_irreducible(a)
    c3 = norm <= 2.0 / 3.0 and is_strictly_diag_dominant(a)
    c4 = n >= 2 and norm < 1.0 and is_tridiag_abs_symmetric(a)
    return ConditionProfile(
        norm_inf=norm, cond1=c1, cond2=c2, cond3=c3, cond4=c4,
        any=c1 or c2 or c3 or c4,
    )


def neq_set(b, z) -> list[int]:
    """Indices of maximal-|b| entries whose sign disagrees with z there.

    Indices are 0-based.  "Maximal" is exact float equality with
    ||b||_inf, which is what the solvability theory covers.
    """
    b = as_vector(b)
    z = as_vector(z, b.shape[0])
    abs_b = np.abs(b)
    maximal = abs_b == abs_b.max()
    disagree = signature_of(b) != signature_of(z)
    return [int(i) for i in np.nonzero(maximal & disagree)[0]]


def _check_enum_dim(n: int, what: str) -> None:
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"{what} capped at n <= {MAX_ENUM_DIM}")


def rho_sr_enum(a, tol: float = 1e-10) -> float:
    """Sign-real spectral radius by direct enumeration.

    Maximizes the real spectral radius of S*A over all signatures S.  The
    first sign is pinned to +1: S and -S give the same set of |real
    eigenvalue| values, so half the enumeration suffices (verified as a
    unit test rather than assumed silently).
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_enum")
    bound = infinity_norm(a)
    if bound == 0.0:
        return 0.0
    signs = signature_stack(n, fix_first=True)
    mats = signs[:, :, None] * a[None, :, :]
    polys = char_polys_stack(mats)
    # ||S A||_inf == ||A||_inf for every signature, so one bound serves all.
    return float(max_abs_real_roots(polys, bound, tol).max())


def signature_systems(a: np.ndarray, scale: float = 1.0):
    """The stack I - (A/scale)S over all signatures S (in
    ``signature_stack(n)`` order), its determinants, and each matrix's
    ``pivot_threshold``."""
    n = a.shape[0]
    signs = signature_stack(n, fix_first=False)
    mats = np.eye(n)[None, :, :] - (a[None, :, :] / scale) * signs[:, None, :]
    return mats, np.linalg.det(mats), pivot_threshold(mats)


def det_positive_all_signatures(a) -> bool:
    """True iff det(I - AS) clears the singularity threshold for all S."""
    a = as_square_matrix(a)
    _check_enum_dim(a.shape[0], "det_positive_all_signatures")
    _mats, dets, thr = signature_systems(a)
    return bool((dets > thr).all())


def rho_sr_bisect(a, tol: float = 1e-8) -> float:
    """Sign-real spectral radius by determinant-positivity bisection.

    Uses the equivalence rho^R(A/t) < 1 iff det(I - (A/t)S) > 0 for all
    signatures S, and bisects for the infimum of admissible t.  The upper
    bracket is ||A||_inf, or 2||A||_inf if the threshold band rejects it
    (at rho^R = ||A||_inf): there rho((A/t)S) <= 1/2 gives det >= 2^-n.
    Independent of the enumeration route.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_bisect")
    norm = infinity_norm(a)
    if norm == 0.0:
        return 0.0

    def admissible(t: float) -> bool:
        _mats, dets, thr = signature_systems(a, scale=t)
        return bool((dets > thr).all())

    lo = pivot_threshold(a)
    if admissible(lo):
        return 0.0
    hi = norm if admissible(norm) else 2.0 * norm
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def inverse_is_sdd_positive_diag(a) -> bool:
    """True iff (I - A)^{-1} is strictly diagonally dominant with a
    positive diagonal.  The inverse is formed columnwise via LU; raises
    SingularMatrix when I - A is singular."""
    a = as_square_matrix(a)
    n = a.shape[0]
    f = lu_factor(np.eye(n) - a)
    inv = lu_solve(f, np.eye(n))
    return is_strictly_diag_dominant(inv) and bool((np.diag(inv) > 0.0).all())


def rho_sr_sample_lower(a, samples: int = 10_000, seed: int = 0) -> float:
    """Randomized lower bound on the sign-real spectral radius.

    Evaluates max over random x of min_{x_i != 0} |(Ax)_i / x_i|.  Only a
    sanity check on the enumeration, never the primary estimator.
    """
    from ._rng import XorShift64Star

    a = as_square_matrix(a)
    n = a.shape[0]
    rng = XorShift64Star(seed)
    x = rng.uniform_array((samples, n), -1.0, 1.0)
    ax = x @ a.T
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(ax) / np.abs(x)
    ratios[x == 0.0] = np.inf
    return float(ratios.min(axis=1).max())

"""Brute-force reference solver by signature enumeration.

Solves (I - AS) z = b for every signature S and keeps the candidates
that land in the orthant S encodes.  Exponential, so capped at small n;
serves as ground truth for both real solvers.  The linear solves run
through numpy's stacked LAPACK routines, a code path deliberately
disjoint from the hand-rolled LU the solvers use.

A signature whose LAPACK det(I - AS) is at or below its threshold
(``analysis.signature_systems``) counts as singular and gets no
candidate.  Where ||A||_inf < 1 that det sweep is skipped when Price's
bound, less a rounding margin, proves that it would flag no signature
(``analysis._price_certified``): then the stack goes to one
``np.linalg.solve`` and the result is the sweep's bit for bit.  The
orthant test runs in one pass over the whole stack of candidates, and
drops a candidate that overflowed; only the consistent ones get the
residual and deduplication checks, in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import (_check_enum_dim, _price_certified, signature_matrices, signature_stack,
                       signature_systems)
from .errors import NotUnique
from .linalg import infinity_norm
from .problems import AveProblem, residual


@dataclass
class OracleResult:
    """Accepted (signature, solution) pairs plus singular signatures.

    Every listed solution satisfies the residual bound ``1e-10 *
    (|A|_inf |z|_inf + |b|_inf)`` and orthant consistency ``s_i z_i >=
    -1e-10 |z|_inf``; solutions closer than ``1e-9 |z|_inf`` are
    collapsed to their first representative in enumeration order.  All
    three scale with (b, z), so b = 0 gives exactly z = 0.
    """

    solutions: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    singular_signatures: list[np.ndarray] = field(default_factory=list)


def enumerate_solutions(problem: AveProblem) -> OracleResult:
    """Find all solutions of z - A|z| = b by checking every orthant."""
    n = problem.n
    _check_enum_dim(n, "oracle enumeration")
    signs = signature_stack(n, fix_first=False)
    if _price_certified(problem.a):
        mats = signature_matrices(problem.a)
        singular = np.zeros(len(mats), dtype=bool)
    else:
        mats, dets, thresholds = signature_systems(problem.a)
        singular = np.abs(dets) <= thresholds

    candidates = np.full((signs.shape[0], n), np.nan)
    solvable = np.flatnonzero(~singular)
    if solvable.size:
        try:
            systems = mats if solvable.size == len(mats) else mats[solvable]
            candidates[solvable] = np.linalg.solve(systems, problem.b)
        except np.linalg.LinAlgError:
            for i in solvable:
                try:
                    candidates[i] = np.linalg.solve(mats[i], problem.b)
                except np.linalg.LinAlgError:
                    singular[i] = True

    result = OracleResult(
        singular_signatures=[signs[i].astype(np.int64) for i in np.nonzero(singular)[0]]
    )
    a_norm = infinity_norm(problem.a)
    b_norm = float(np.abs(problem.b).max(initial=0.0))
    z_max = np.abs(candidates).max(axis=1)
    tau_sign = 1e-10 * z_max
    # Singular rows hold NaN, which no comparison rejects, and a candidate
    # that overflowed holds inf or NaN; neither is a solution.
    finite = np.isfinite(candidates).all(axis=1)
    consistent = finite & ~(signs * candidates < -tau_sign[:, None]).any(axis=1)
    for i in np.flatnonzero(consistent):
        z = candidates[i]
        if residual(problem, z) > 1e-10 * (a_norm * z_max[i] + b_norm):
            continue
        dedup_tol = 1e-9 * z_max[i]
        if any(np.abs(z - kept).max() <= dedup_tol for _, kept in result.solutions):
            continue
        result.solutions.append((signs[i].astype(np.int64), z))
    return result


def unique_solution(problem: AveProblem) -> np.ndarray:
    """The unique solution, when enumeration finds exactly one.

    Raises NotUnique on zero or multiple solutions (the signature of a
    sign-real spectral radius at or above 1).
    """
    result = enumerate_solutions(problem)
    if len(result.solutions) != 1:
        raise NotUnique(f"found {len(result.solutions)} solutions, expected exactly 1")
    return result.solutions[0][1]

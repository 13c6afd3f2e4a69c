"""Brute-force reference solver by signature enumeration.

Solves (I - AS) z = b for every signature S and keeps the candidates
that land in the orthant S encodes.  Exponential, so capped at small n;
serves as ground truth for both real solvers.  The linear solves run
through numpy's stacked LAPACK routines, a code path deliberately
disjoint from the hand-rolled LU the solvers use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import MAX_ENUM_DIM, signature_stack, signature_systems
from .errors import DimensionTooLarge, NotUnique
from .problems import AveProblem, residual


@dataclass
class OracleResult:
    """Accepted (signature, solution) pairs plus singular signatures.

    Every listed solution satisfies the residual bound
    ``1e-10 * (1 + |b|_inf)`` and orthant consistency ``s_i z_i >=
    -tau_sign``; solutions closer than ``1e-9 * (1 + |z|_inf)`` are
    collapsed to their first representative in enumeration order.
    """

    solutions: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    singular_signatures: list[np.ndarray] = field(default_factory=list)


def enumerate_solutions(problem: AveProblem) -> OracleResult:
    """Find all solutions of z - A|z| = b by checking every orthant."""
    n = problem.n
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"oracle enumeration capped at n <= {MAX_ENUM_DIM}")
    signs = signature_stack(n, fix_first=False)
    mats, dets, thresholds = signature_systems(problem.a)
    singular = np.abs(dets) <= thresholds

    candidates = np.full((signs.shape[0], n), np.nan)
    solvable = np.nonzero(~singular)[0]
    if solvable.size:
        try:
            candidates[solvable] = np.linalg.solve(mats[solvable], problem.b)
        except np.linalg.LinAlgError:
            for i in solvable:
                try:
                    candidates[i] = np.linalg.solve(mats[i], problem.b)
                except np.linalg.LinAlgError:
                    singular[i] = True

    result = OracleResult(
        singular_signatures=[signs[i].astype(np.int64) for i in np.nonzero(singular)[0]]
    )
    b_scale = 1.0 + float(np.abs(problem.b).max(initial=0.0))
    for i in range(signs.shape[0]):
        if singular[i]:
            continue
        z = candidates[i]
        tau_sign = 1e-10 * (1.0 + float(np.abs(z).max()))
        if (signs[i] * z < -tau_sign).any():
            continue
        if residual(problem, z) > 1e-10 * b_scale:
            continue
        dedup_tol = 1e-9 * (1.0 + float(np.abs(z).max()))
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

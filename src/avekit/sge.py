"""Signed Gaussian elimination: a direct solver for z - A|z| = b.

The solver repeatedly pins the sign of the variables carrying the
largest |b| entries, removes each such variable with a rank-1 update
that zeroes its column, and finishes with a scalar solve plus reverse
substitution through the recorded elimination trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import condition_profile
from .errors import PivotBreakdown
from .linalg import pivot_threshold
from .problems import AveProblem, residual
from .report import SolveReport, Status


@dataclass(frozen=True)
class EliminationRecord:
    """One sign-controlled elimination: which index, which sign, which round."""

    index: int
    sign: int
    round: int


def _eliminate_inplace(a: np.ndarray, b: np.ndarray, k: int, s: int, threshold: float) -> None:
    """Zero column k assuming sign(z_k) = s, updating (a, b) in place.

    Removing |z_k| = s z_k from the right-hand side leaves
    (I - A_{*k} e_k^T s) z = b + (A - A_{*k} e_k^T)|z|; inverting the
    rank-1 factor via the Sherman-Morrison form gives the updates below.
    """
    col = a[:, k] * s
    denom = 1.0 - col[k]
    if abs(denom) <= threshold:
        raise PivotBreakdown(f"1 - a[{k},{k}]*({s:+d}) vanished")
    a[:, k] = 0.0
    col /= denom
    b += col * b[k]
    a += np.outer(col, a[k, :])


def max_abs_indices(b: np.ndarray, active, tie_tol: float = 0.0) -> list[int]:
    """Active indices whose |b| entry is maximal (ties per tie_tol)."""
    active = list(active)
    vals = np.abs(b[active])
    top = vals.max()
    return [k for k, v in zip(active, vals) if v >= top * (1.0 - tie_tol)]


def sge_solve(problem: AveProblem, tie_tol: float = 0.0) -> SolveReport:
    """Solve z - A|z| = b by signed Gaussian elimination.

    Each round pins sign(z_k) = sign(b_k) for every maximal-|b| active
    index (all signs read before the round mutates b), eliminates them in
    ascending index order, and recurses on the rest; a final scalar solve
    and reverse substitution recover z.  Sign picks are provably correct
    whenever one of the four sufficient conditions holds; otherwise the
    solve is still attempted and the report is flagged as unguaranteed.

    When some 1 - a_kk*s vanishes, which cannot happen under the
    sufficient conditions, the report has status PIVOT_BREAKDOWN and no z.
    """
    a = problem.a.copy()
    b = problem.b.copy()
    n = problem.n
    profile = condition_profile(problem.a)
    threshold = pivot_threshold(problem.a)

    z = np.zeros(n)
    signs = np.ones(n, dtype=np.int64)
    trace: list[EliminationRecord] = []
    active = list(range(n))
    round_no = 0
    pinned_zero: list[int] = []

    try:
        while len(active) > 1:
            if float(np.abs(b[active]).max()) == 0.0:
                # Closed subsystem with zero right-hand side: its solution is 0.
                pinned_zero = list(active)
                active = []
                break
            chosen = max_abs_indices(b, active, tie_tol)
            picks = [(k, 1 if b[k] >= 0.0 else -1) for k in chosen]
            for k, s in picks:
                _eliminate_inplace(a, b, k, s, threshold)
                trace.append(EliminationRecord(index=k, sign=s, round=round_no))
                signs[k] = s
            active = [i for i in active if i not in chosen]
            round_no += 1

        if len(active) == 1:
            j = active[0]
            s = 1 if b[j] >= 0.0 else -1
            denom = 1.0 - a[j, j] * s
            if abs(denom) <= threshold:
                raise PivotBreakdown(f"scalar stage: 1 - a[{j},{j}]*({s:+d}) vanished")
            z[j] = b[j] / denom
            signs[j] = s
    except PivotBreakdown:
        return SolveReport(
            method="sge",
            status=Status.PIVOT_BREAKDOWN,
            z=None,
            residual=None,
            iterations=0,
            profile=profile,
        )
    for j in pinned_zero:
        z[j] = 0.0

    # Reverse substitution: every eliminated row depends only on entries
    # recovered later (its own and earlier-eliminated columns are zero).
    for record in reversed(trace):
        k = record.index
        z[k] = b[k] + a[k, :] @ np.abs(z)

    return SolveReport(
        method="sge",
        status=Status.CONVERGED,
        z=z,
        residual=residual(problem, z),
        iterations=len(trace),
        profile=profile,
        signs=signs,
        elimination_trace=trace,
    )

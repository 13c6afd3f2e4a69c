"""Signed Gaussian elimination: a direct solver for z - A|z| = b.

With its signs S pinned, z solves (I - A S) z = b.  The solver LU-factors
P (I - A S) P^T with diagonal pivots in pick order, by the Crout-panel
kernel that ``linalg.lu_factor`` uses too: ``lu`` starts as -A, so a
column becomes that of I - A S once it is scaled by its sign and its
pivot gets 1 added.  Each pick is swapped symmetrically to the next
pivot position, its column scaled as it moves, caught up with the open
panel (``linalg.catch_up_column``; the scaling and the +1 commute with
the pending updates, which are linear in the column and never touch I),
and eliminated by ``linalg.elimination_step``, which also
forward-substitutes y; ``linalg.back_substitute`` recovers z.  A list
of positions by index replaces a search of the permutation, and a round
whose largest |y| is unique takes it from one ``argmax``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import condition_profile
from .errors import PivotBreakdown
from .linalg import back_substitute, catch_up_column, elimination_step, threshold_of_norms
from .problems import AveProblem, residual
from .report import SolveReport, Status


@dataclass(frozen=True)
class EliminationRecord:
    """One sign-controlled elimination: which index, which sign, which round."""

    index: int
    sign: int
    round: int


def _pin(lu: np.ndarray, y: np.ndarray, perm: list[int], pos: list[int], p: int, k: int,
         s: int, threshold: float) -> None:
    """Move original index k to pivot position p (``perm`` maps positions
    to indices and ``pos`` indices to positions), make its column that of
    I - A S for sign(z_k) = s, catch it up with the open panel, and raise
    PivotBreakdown when the pivot 1 - a'_kk s vanishes.  The sign is
    applied as the column moves; it commutes with the catch-up, which is
    linear in the column, exactly but for the sign of an entry that
    cancels to zero."""
    q = pos[k]
    if q != p:
        lu[p], lu[q] = lu[q], lu[p].copy()
        col = lu[:, p].copy()
        np.multiply(lu[:, q], s, out=lu[:, p])
        lu[:, q] = col
        y[p], y[q] = y[q], y[p]
        perm[p], perm[q] = k, perm[p]
        pos[k], pos[perm[q]] = p, q
    elif s < 0:
        lu[:, p] *= -1.0
    catch_up_column(lu, p)
    lu[p, p] += 1.0
    if abs(lu[p, p]) <= threshold:
        raise PivotBreakdown(f"1 - a[{k},{k}]*({s:+d}) vanished")


def _round_picks(y: np.ndarray, perm: list[int], p: int) -> list[tuple[int, int]]:
    """(index, sign) of every maximal-|y| index at position p or later,
    in ascending index order, signs read before any is eliminated; empty
    when that y is all zero."""
    mags = np.abs(y[p:])
    i = int(mags.argmax())
    top = mags[i]
    if top == 0.0:
        return []
    if not (mags[i + 1:] == top).any():
        return [(perm[p + i], 1 if y[p + i] >= 0.0 else -1)]
    chosen = sorted((perm[p + i], p + i) for i in np.flatnonzero(mags == top).tolist())
    return [(k, 1 if y[q] >= 0.0 else -1) for k, q in chosen]


def sge_solve(problem: AveProblem) -> SolveReport:
    """Solve z - A|z| = b by signed Gaussian elimination.

    Each round pins sign(z_k) = sign(y_k) for every maximal-|y| index not
    yet eliminated, eliminates them in ascending index order, and
    recurses on the rest; the last index only has its sign pinned, and
    when two or more remain with y = 0 their z is 0.  Sign picks are
    provably correct whenever one of the four sufficient conditions
    holds; otherwise the solve is still attempted and the report is
    flagged as unguaranteed.

    When some pivot 1 - a_kk*s vanishes, which cannot happen under the
    sufficient conditions, the report has status PIVOT_BREAKDOWN and no z.
    """
    n = problem.n
    profile = condition_profile(problem.a)
    threshold = threshold_of_norms(profile.norm_inf)
    lu = -problem.a
    y = problem.b.copy()
    perm = list(range(n))
    pos = list(range(n))
    signs = np.ones(n, dtype=np.int64)
    trace: list[EliminationRecord] = []
    p = 0
    round_no = 0
    try:
        while n - p > 1:
            picks = _round_picks(y, perm, p)
            if not picks:
                # Closed subsystem with zero right-hand side: its solution is 0.
                break
            for k, s in picks:
                _pin(lu, y, perm, pos, p, k, s, threshold)
                elimination_step(lu, p, y)
                trace.append(EliminationRecord(index=k, sign=s, round=round_no))
                signs[k] = s
                p += 1
            round_no += 1

        if n - p == 1:
            signs[perm[p]] = s = 1 if y[p] >= 0.0 else -1
            _pin(lu, y, perm, pos, p, perm[p], s, threshold)
            p += 1
    except PivotBreakdown:
        return SolveReport(
            method="sge",
            status=Status.PIVOT_BREAKDOWN,
            z=None,
            residual=None,
            iterations=0,
            profile=profile,
        )

    z = np.zeros(n)
    z[perm[:p]] = back_substitute(lu[:p, :p], y[:p])
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

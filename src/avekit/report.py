"""Shared solve-report container, termination statuses and the check a
solver's answer must pass before it is reported ``converged``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import ConditionProfile
from .linalg import gamma
from .problems import AveProblem

# A component of z within this share of ||z||_inf of zero may carry
# either sign: it allows a right answer a forward error of up to 1e-10
# relative, where the wrong answers SGE is known to give lie at 1.9e-3 or
# farther outside their orthant.
ORTHANT_RTOL = 1e-10


class Status(str, Enum):
    CONVERGED = "converged"
    UNVERIFIED = "unverified"
    CYCLE = "cycle"
    MAX_ITERATIONS = "max_iterations"
    SINGULAR = "singular"
    NOT_UNIQUE = "not_unique"
    PIVOT_BREAKDOWN = "pivot_breakdown"


@dataclass
class SolveReport:
    """Outcome of a solver run.

    For sge and newton, ``status`` is CONVERGED only for an answer that
    passed ``verify``.
    ``residual`` is always computed against the original (A, b), and is
    inf for a z that is not finite.
    ``profile`` evaluates the sufficient conditions on A; when none held
    (``guaranteed`` is False) the solve was still attempted, but nothing
    is promised.
    """

    method: str
    status: Status
    z: np.ndarray | None
    residual: float | None
    iterations: int
    profile: ConditionProfile
    signs: np.ndarray | None = None
    elimination_trace: list | None = None
    newton_trace: object | None = None

    @property
    def guaranteed(self) -> bool:
        return self.profile.any


def residual_rtol(n: int) -> float:
    """c eps of ``verify``'s residual bound at dimension n: 2 (gamma_3n +
    gamma_(n+2)).

    A backward-stable solve of (I - AS) z = b leaves a residual within
    gamma_3n |I - AS| |z| (Higham, Accuracy and Stability, Theorem 9.4,
    with |L||U| at the size of |I - AS|), and evaluating z - A|z| - b
    adds gamma_(n+2) (|z| + |A||z| + |b|).  As ||z||_inf <= ||A||_inf
    ||z||_inf + ||b||_inf + the residual, both are at most twice their
    coefficient times ||A||_inf ||z||_inf + ||b||_inf: about (4n + 2) eps
    together, 10 eps at n = 2 and 4002 eps at n = 1000."""
    return 2.0 * (gamma(3 * n) + gamma(n + 2))


def verify(problem: AveProblem, z: np.ndarray, signs: np.ndarray, res: float,
           norm_a: float) -> bool:
    """Whether a solver's answer z, found in the orthant of ``signs``,
    earns the status ``converged``.  ``res`` is its residual |z - A|z| -
    b|_inf and ``norm_a`` is ||A||_inf, both of which the solver already
    holds, so the check costs O(n).

    z must be finite and pass two tests:
      * the orthant test s_i z_i >= -``ORTHANT_RTOL`` ||z||_inf;
      * the residual bound res <= ``residual_rtol(n)`` (||A||_inf
        ||z||_inf + ||b||_inf), homogeneous in (b, z), so a problem
        scaled by 2^k is judged as the original.
    Passing says that z solves the equation to rounding; it does not say
    that z is the only solution."""
    if not np.isfinite(z).all():
        return False
    z_max = float(np.abs(z).max(initial=0.0))
    if (signs * z < -ORTHANT_RTOL * z_max).any():
        return False
    b_max = float(np.abs(problem.b).max(initial=0.0))
    # rtol multiplies first, so the bound overflows only where its terms do.
    rtol = residual_rtol(problem.n)
    return math.isfinite(res) and res <= rtol * norm_a * z_max + rtol * b_max

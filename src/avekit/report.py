"""Shared solve-report container and termination statuses."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .analysis import ConditionProfile


class Status(str, Enum):
    CONVERGED = "converged"
    CYCLE = "cycle"
    MAX_ITERATIONS = "max_iterations"
    SINGULAR = "singular"
    NOT_UNIQUE = "not_unique"
    PIVOT_BREAKDOWN = "pivot_breakdown"


@dataclass
class SolveReport:
    """Outcome of a solver run.

    ``residual`` is always computed against the original (A, b).
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

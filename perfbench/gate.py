"""Accuracy gate: which evaluations of a result table count as failed.

An evaluation fails if it raised, returned a non-finite value, or lies
farther from any of its references than that reference's bound.  The gate
never widens a bound; known misses are counted and reported.

Separately, `wrong` flags a value that is off by more than SANITY_REL of
its reference (or than its bound, where that is wider).  A miss of the
stated error estimate by a small factor is an accuracy failure; a value off
in the sixth digit is a wrong answer.  The benchmark reports the first as
`failed` and the second as `correct = false`.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

SANITY_REL = 1e-6


@dataclass(frozen=True)
class Check:
    """One comparison: |value - ref| must not exceed bound."""

    label: str
    value: float
    ref: float
    bound: float

    @property
    def ratio(self) -> float:
        diff = abs(self.value - self.ref)
        if diff == 0.0:
            return 0.0
        if not math.isfinite(diff) or not self.bound > 0.0:
            return math.inf
        return diff / self.bound

    @property
    def wrong(self) -> bool:
        limit = max(self.bound, SANITY_REL * abs(self.ref))
        return not abs(self.value - self.ref) <= limit


@dataclass
class Evaluation:
    """One value of the table with its checks, or the error it raised."""

    name: str
    checks: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ratio(self) -> float:
        return max((c.ratio for c in self.checks), default=0.0)

    @property
    def failed(self) -> bool:
        if self.error is not None:
            return True
        return any(c.ratio > 1.0 for c in self.checks)

    @property
    def wrong(self) -> bool:
        return self.error is not None or any(c.wrong for c in self.checks)

    def describe(self) -> str:
        if self.error is not None:
            return f"{self.name}: {self.error}"
        parts = ", ".join(f"{c.label} {c.ratio:.5g}x bound" for c in self.checks)
        return f"{self.name}: {parts}"


def summarize(evals: list) -> dict:
    """Counts and worst ratio over a list of evaluations."""
    ratios = [e.ratio for e in evals if math.isfinite(e.ratio)]
    return {
        "attempted": len(evals),
        "failed": sum(e.failed for e in evals),
        "wrong": sum(e.wrong for e in evals),
        "err_ratio_max": max(ratios, default=0.0),
    }

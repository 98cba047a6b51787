"""Exponent bookkeeping for Lp -> Lp0 operator ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ExponentConfig:
    """Holds (p, p0) with the conjugates and p* = max{p, p/(p-1)}."""

    p: float
    p0: float

    def __init__(self, p: float, p0: float | None = None):
        if not math.isfinite(p) or p <= 1:
            raise ValueError(f"p must be finite and > 1, got {p}")
        if p0 is None:
            p0 = p
        if not math.isfinite(p0) or p0 <= 1:
            raise ValueError(f"p0 must be finite and > 1, got {p0}")
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "p0", float(p0))

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def pstar(self) -> float:
        return max(self.p, self.q)

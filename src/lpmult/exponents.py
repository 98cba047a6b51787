"""Exponent bookkeeping for Lp -> Lp operator ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ExponentConfig:
    """Holds p with its conjugate q and p* = max{p, p/(p-1)}."""

    p: float

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p <= 1:
            raise ValueError(f"p must be finite and > 1, got {self.p}")
        object.__setattr__(self, "p", float(self.p))

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def pstar(self) -> float:
        return max(self.p, self.q)

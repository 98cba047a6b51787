"""Exponent bookkeeping for Lp -> Lp operator ratios, and `Frozen`, the base of lpmult's
read-only value types."""

from __future__ import annotations

import math


class Frozen:
    """lpmult's one way to declare a read-only value: a subclass's __init__ checks and
    converts its arguments, then sets its __slots__ fields once, in order, here; assigning or
    deleting one then raises AttributeError.  A value compares and hashes by identity."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class ExponentConfig(Frozen):
    """Holds p with its conjugate q and p* = max{p, p/(p-1)}."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        if not math.isfinite(p) or p <= 1:
            raise ValueError(f"p must be finite and > 1, got {p}")
        super().__init__(float(p))

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def pstar(self) -> float:
        return max(self.p, self.q)

"""Degree-zero homogeneous multiplier symbols evaluated on frequency lattices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["MultiplierSymbol"]

_SHAPES = ("scalar", "matrix")


@dataclass(frozen=True)
class MultiplierSymbol:
    """A symbol xi -> scalar or m x m matrix on R^d minus the origin.

    ``evaluator`` must accept an array of shape (..., d) of nonzero
    frequencies and return values of shape (...) or (..., m, m) according
    to ``shape``.  Homogeneous symbols take the zero value of their shape
    at xi = 0; symbols declared ``total`` (e.g. constants) are evaluated
    there as well.
    """

    d: int
    shape: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    m: int = 1
    total: bool = False
    name: str = "symbol"

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")

    def evaluate(self, xi) -> np.ndarray:
        """Evaluate at frequencies of shape (..., d); zeros map to zero unless total."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (self.d,):
            raise ValueError(f"frequency arrays must end in a length-{self.d} axis")
        if self.total:
            return np.asarray(self.evaluator(xi), dtype=complex)
        zero = np.all(xi == 0.0, axis=-1)
        # Dodge the singularity at the origin, then mask the result to zero.
        safe = np.where(zero[..., None], 1.0, xi)
        out = np.asarray(self.evaluator(safe), dtype=complex)
        extra = out.ndim - zero.ndim
        mask = zero.reshape(zero.shape + (1,) * extra)
        return np.where(mask, 0.0, out)


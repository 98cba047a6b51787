"""The symbol type, MultiplierSymbol, and the certified operator families' symbols and targets.

A family is its name and one value, read by rotated (theta), scaled (c), F (z) and
vector (tau, of (Re B, tau I)^T) only; `family_symbol`, the one lookup of a symbol
by name (the 2 x 2 matrix form of B included), and `target_constant` refuse an
unknown name or a non-finite value.

Every scalar family is one formula, a Re B + b Im B, with (a, b) = (1, i)
for B, (1, 0) for Re B, (0, 1) for Im B, (-cos theta, sin theta) for
rotated(theta), (-c, i) for scaled(c) and (-1, z) for F(z).

Sign convention: the scalar Beurling symbol follows the displayed quotient
(xi2^2 - xi1^2 + 2i xi1 xi2) / |xi|^2, so its real part is -1 at (1, 0)
and +1 at (0, 1).  Only the value set {+-1} matters for the lower bounds;
every report records the convention.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .exponents import ExponentConfig, Frozen

FAMILIES = ("beurling", "beurling-real", "beurling-imag", "beurling-matrix",
            "rotated", "scaled", "F", "vector")


class MultiplierSymbol(Frozen):
    """A symbol xi -> scalar (m = 1) or m x m matrix (m > 1) on R^d minus the origin.

    ``evaluator`` must accept an array of shape (..., d) of nonzero
    frequencies and return values of shape (...) when m = 1 and (..., m, m)
    otherwise.  Homogeneous symbols take the zero value of their shape
    at xi = 0; symbols declared ``total`` (e.g. constants) are evaluated
    there as well.
    """

    __slots__ = ("d", "evaluator", "m", "total", "name")

    def __init__(self, d: int, evaluator: Callable[[np.ndarray], np.ndarray], m: int = 1,
                 total: bool = False, name: str = "symbol"):
        if d < 1 or m < 1:
            raise ValueError("d and m must be positive")
        super().__init__(d, evaluator, m, total, name)

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


def _split(xi: np.ndarray):
    x1, x2 = xi[..., 0], xi[..., 1]
    r2 = x1 * x1 + x2 * x2
    return x1, x2, r2


def _beurling_real(xi: np.ndarray) -> np.ndarray:
    x1, x2, r2 = _split(xi)
    return (x2 * x2 - x1 * x1) / r2


def _beurling_imag(xi: np.ndarray) -> np.ndarray:
    x1, x2, r2 = _split(xi)
    return 2.0 * x1 * x2 / r2


def _scalar_family(a: complex, b: complex, name: str) -> MultiplierSymbol:
    """The scalar symbol a Re B + b Im B; (1, 0) gives Re B bit for bit."""

    def evaluator(xi: np.ndarray) -> np.ndarray:
        return a * _beurling_real(xi) + b * _beurling_imag(xi)

    return MultiplierSymbol(d=2, evaluator=evaluator, name=name)


def _beurling_matrix_symbol(xi: np.ndarray) -> np.ndarray:
    """[[mR, mI], [-mI, mR]](xi): a rotation matrix, in the printed form."""
    mr = _beurling_real(xi)
    mi = _beurling_imag(xi)
    out = np.empty(xi.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = mr
    out[..., 0, 1] = mi
    out[..., 1, 0] = -mi
    out[..., 1, 1] = mr
    return out


# --- wrapped MultiplierSymbol constructors -------------------------------

def identity_symbol(d: int = 2) -> MultiplierSymbol:
    return MultiplierSymbol(
        d=d, evaluator=lambda xi: np.ones(xi.shape[:-1], dtype=complex),
        total=True, name="identity")


def beurling_real() -> MultiplierSymbol:
    return family_symbol("beurling-real")


def _check(family: str, value: complex) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not cmath.isfinite(value):
        raise ValueError("family parameters must be finite")


# (a, b) of the scalar families that take no value.
_PARTS = {"beurling": (1.0, 1j), "beurling-real": (1.0, 0.0), "beurling-imag": (0.0, 1.0)}


def family_symbol(family: str, value: complex = 0.0) -> MultiplierSymbol:
    """Symbol of the family at its value; each scalar family is a Re B + b Im B."""
    _check(family, value)
    if family == "beurling-matrix":
        return MultiplierSymbol(d=2, evaluator=_beurling_matrix_symbol, m=2, name=family)
    if family == "vector":
        raise ValueError("the vector family has no symbol; it is certified through Re B")
    if family in _PARTS:
        return _scalar_family(*_PARTS[family], family)
    if family == "rotated":
        return _scalar_family(-math.cos(value), math.sin(value), f"rotated({value})")
    if family == "scaled":
        return _scalar_family(-value, 1j, f"scaled({value})")
    z = complex(value)  # F
    return _scalar_family(-1.0, z, f"F({z})")


# --- target constants ----------------------------------------------------

def tau_admissible(exps: ExponentConfig, tau: float, predicate: str = "def2") -> bool:
    """Admissible tau range for C^tau_{p,p}.

    ``def2``: tau^2 <= p* - 1 for 1 < p < 2, any tau for p >= 2.
    ``cor7``: |tau| <= 1/2 for 1 < p < 2, any tau for p >= 2.
    """
    if predicate not in ("def2", "cor7"):
        raise ValueError(f"unknown admissibility predicate {predicate!r}")
    if exps.p >= 2.0:
        return True
    if predicate == "def2":
        return tau * tau <= exps.pstar - 1.0
    return abs(tau) <= 0.5


def c_tau(exps: ExponentConfig, tau: float, predicate: str = "def2") -> float | None:
    """C^tau = sqrt((p* - 1)^2 + tau^2) when tau is admissible, else None."""
    if tau_admissible(exps, tau, predicate):
        return math.hypot(exps.pstar - 1.0, tau)
    return None


def ceiling(exps: ExponentConfig, tau: float) -> float:
    """U = ((p* - 1)^r + |tau|^r)^(1/r), r = min(p, 2): no ratio ||(G, tau F)||_p / ||F||_p
    of a martingale F and its +-1 transform G passes it, at any p and tau.

    Burkholder gives ||G||_p <= (p* - 1) ||F||_p.  For p >= 2, Minkowski in L^(p/2)
    on |G|^2 + tau^2 |F|^2 gives U = C^tau; for p < 2, (a + b)^(p/2) <= a^(p/2) +
    b^(p/2) pointwise bounds ||(G, tau F)||_p^p by ||G||_p^p + |tau|^p ||F||_p^p."""
    if exps.p >= 2.0:
        return math.hypot(exps.pstar - 1.0, tau)
    return ((exps.pstar - 1.0) ** exps.p + abs(tau) ** exps.p) ** (1.0 / exps.p)


def target_constant(family: str, exps: ExponentConfig, value: complex = 0.0,
                    predicate: str = "def2") -> tuple[float | None, bool]:
    """(published target lower bound for the family at its value and the given
    exponents, whether that target leans on the conjectured ceiling).  The vector
    family has no target, None, where C^tau is not defined (`c_tau`)."""
    _check(family, value)  # then c_tau for every family: an unknown predicate raises
    vector_target = c_tau(exps, value if family == "vector" else 0.0, predicate)
    pstar1 = exps.pstar - 1.0
    if family == "vector":
        return vector_target, False
    if family == "scaled":
        if value == 0.0:
            raise ValueError("scaled family needs c != 0")
        return (pstar1 if abs(value) < 1.0 else abs(value) * pstar1), True
    if family == "F":
        z = complex(value)
        if z.imag == 0.0:
            # Real z reduces to the rotated family; no conjectured ceiling needed.
            return math.sqrt(1.0 + z.real**2) * pstar1, False
        if z.real == 0.0:
            return (pstar1 if abs(z) < 1.0 else abs(z) * pstar1), True
        raise ValueError("F(z) targets cover real z and purely imaginary z only")
    return pstar1, False  # B, its parts, its matrix form and the rotated family

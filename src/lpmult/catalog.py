"""Concrete symbols and target constants for the certified operator families.

A family is its name and one value, read by rotated (theta), scaled (c), F (z) and
vector (tau, of (Re B, tau I)^T) only; `family_symbol`, the one lookup of a symbol
by name, and `target_constant` refuse an unknown name or a non-finite value.

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

import numpy as np

from .exponents import ExponentConfig
from .symbols import MultiplierSymbol

FAMILIES = ("beurling", "beurling-real", "beurling-imag", "beurling-matrix",
            "rotated", "scaled", "F", "vector")


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


def beurling_matrix() -> MultiplierSymbol:
    return MultiplierSymbol(d=2, evaluator=_beurling_matrix_symbol, m=2, name="beurling-matrix")


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
        return beurling_matrix()
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
    """C^tau = sqrt((p* - 1)^2 + tau^2) when p = p0 and tau is admissible, else None."""
    if tau_admissible(exps, tau, predicate) and exps.p == exps.p0:
        return math.hypot(exps.pstar - 1.0, tau)
    return None


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

"""Concrete symbols and target constants for the certified operator families.

Every scalar family is one formula, a Re B + b Im B, with (a, b) = (1, i)
for B, (1, 0) for Re B, (0, 1) for Im B, (-cos theta, sin theta) for
rotated(theta), (-c, i) for scaled(c) and (-1, z) for F(z).

Sign convention: the scalar Beurling symbol follows the displayed quotient
(xi2^2 - xi1^2 + 2i xi1 xi2) / |xi|^2, so its real part is -1 at (1, 0)
and +1 at (0, 1).  Only the value set {+-1} matters for the lower bounds;
every report records the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .symbols import MultiplierSymbol
from .tensor import TensorGridFunction, tensor_lift_apply

__all__ = [
    "FAMILIES",
    "family_symbol",
    "OperatorFamilyParam",
    "TargetConstants",
    "target_constant",
    "tau_admissible",
    "identity_symbol",
    "beurling",
    "beurling_real",
    "beurling_imag",
    "beurling_matrix",
    "rotated",
    "vector_perturbation",
    "complex_vs_matrix_path",
]

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

    return MultiplierSymbol(d=2, shape="scalar", evaluator=evaluator, name=name)


def _beurling_matrix_symbol(xi: np.ndarray, s: float = 1.0) -> np.ndarray:
    """[[mR, s mI], [-s mI, mR]](xi): a rotation matrix; s = 1 is the printed form."""
    mr = _beurling_real(xi)
    mi = s * _beurling_imag(xi)
    out = np.empty(xi.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = mr
    out[..., 0, 1] = mi
    out[..., 1, 0] = -mi
    out[..., 1, 1] = mr
    return out


# --- wrapped MultiplierSymbol constructors -------------------------------

def identity_symbol(d: int = 2) -> MultiplierSymbol:
    return MultiplierSymbol(
        d=d, shape="scalar", evaluator=lambda xi: np.ones(xi.shape[:-1], dtype=complex),
        total=True, name="identity")


def beurling() -> MultiplierSymbol:
    return _scalar_family(1.0, 1j, "beurling")


def beurling_real() -> MultiplierSymbol:
    return _scalar_family(1.0, 0.0, "beurling-real")


def beurling_imag() -> MultiplierSymbol:
    return _scalar_family(0.0, 1.0, "beurling-imag")


def beurling_matrix() -> MultiplierSymbol:
    return MultiplierSymbol(d=2, shape="matrix", evaluator=_beurling_matrix_symbol,
                            m=2, name="beurling-matrix")


def rotated(theta: float) -> MultiplierSymbol:
    """((xi1^2 - xi2^2) cos(theta) + 2 xi1 xi2 sin(theta)) / |xi|^2."""
    return _scalar_family(-math.cos(theta), math.sin(theta), f"rotated({theta})")


def vector_perturbation(base: MultiplierSymbol, tau: float) -> MultiplierSymbol:
    """The stacked symbol (base, tau)^T acting L^p(C) -> L^{p0}(C^2)."""
    if base.shape != "scalar":
        raise ValueError("vector perturbation stacks a scalar symbol over tau")

    def evaluator(xi: np.ndarray) -> np.ndarray:
        top = np.asarray(base.evaluator(xi), dtype=complex)
        out = np.empty(top.shape + (2,), dtype=complex)
        out[..., 0] = top
        out[..., 1] = tau
        return out

    return MultiplierSymbol(
        d=base.d, shape="vector", evaluator=evaluator, m=2,
        total=False, name=f"({base.name}, {tau})")


@dataclass(frozen=True)
class OperatorFamilyParam:
    """Tagged parameters for the operator families in the catalog."""

    family: str
    theta: float = 0.0
    c: float = 1.0
    z: complex = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for v in (self.theta, self.c, self.tau):
            if not math.isfinite(v):
                raise ValueError("family parameters must be finite")
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
            raise ValueError("family parameters must be finite")


def family_symbol(param: OperatorFamilyParam) -> MultiplierSymbol:
    """Symbol of the given family tag; the scalar families pass their (a, b)."""
    fam = param.family
    if fam == "beurling-matrix":
        return beurling_matrix()
    if fam == "vector":
        return vector_perturbation(beurling_real(), param.tau)
    if fam == "rotated":
        return rotated(param.theta)
    if fam == "scaled":
        return _scalar_family(-param.c, 1j, f"scaled({param.c})")
    if fam == "F":
        z = complex(param.z)
        return _scalar_family(-1.0, z, f"F({z})")
    return {"beurling": beurling, "beurling-real": beurling_real,
            "beurling-imag": beurling_imag}[fam]()


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


@dataclass(frozen=True)
class TargetConstants:
    """Target constants attached to a certification run."""

    c_tau: float | None          # sqrt((p*-1)^2 + tau^2) when p = p0 and tau admissible
    external_assumption: bool    # True when the target leans on the conjectured ceiling
    family_target: float


def target_constant(param: OperatorFamilyParam, exps: ExponentConfig,
                    tau: float = 0.0, predicate: str = "def2") -> TargetConstants:
    """Published target lower bound for the family at the given exponents."""
    pstar1 = exps.pstar - 1.0
    admissible = tau_admissible(exps, tau, predicate)
    c_tau = None
    if exps.p == exps.p0 and admissible:
        c_tau = math.hypot(pstar1, tau)

    fam = param.family
    external = False
    if fam == "vector":
        if c_tau is None:
            raise ValueError("vector family target needs p = p0 and admissible tau")
        target = c_tau
    elif fam == "scaled":
        c = param.c
        if c == 0.0:
            raise ValueError("scaled family needs c != 0")
        target = pstar1 if abs(c) < 1.0 else abs(c) * pstar1
        external = True
    elif fam == "F":
        z = complex(param.z)
        if z.imag == 0.0:
            target = math.sqrt(1.0 + z.real**2) * pstar1
            # Real z reduces to the rotated family; no conjectured ceiling needed.
        elif z.real == 0.0:
            target = pstar1 if abs(z) < 1.0 else abs(z) * pstar1
            external = True
        else:
            raise ValueError("F(z) targets cover real z and purely imaginary z only")
    else:  # B, its parts, its matrix form and the rotated family
        target = pstar1

    return TargetConstants(c_tau=c_tau, external_assumption=external,
                           family_target=target)


def complex_vs_matrix_path(f, p: float = 2.0) -> tuple[float, float]:
    """L^p norm of the Beurling action computed two ways; equal to 1e-10.

    Complex path: multiply f-hat by the scalar symbol and take the L^p norm.
    Matrix path: split f = u + iv into real and imaginary parts, apply the
    2x2 matrix symbol to (u-hat, v-hat)^T, and take the L^p norm of the
    resulting pair.  The matrix acts in the complex-multiplication
    representation [[mR, -mI], [mI, mR]], the unitary conjugate (by
    diag(1, -1)) of the printed matrix: both have the same operator norm, but
    only this one reproduces the scalar action componentwise, so the
    pointwise C^2 norm equals |T_B f| exactly.
    """
    if f.m != 0:
        raise ValueError("complex_vs_matrix_path takes a scalar function")
    scalar = tensor_lift_apply(f, beurling(), 0)

    pair = TensorGridFunction(f.grid, 1, np.stack([f.values.real, f.values.imag], axis=-1))
    matrix_sym = MultiplierSymbol(d=2, shape="matrix",
                                  evaluator=lambda xi: _beurling_matrix_symbol(xi, -1.0),
                                  m=2, name="beurling-matrix-cm")
    vec = tensor_lift_apply(pair, matrix_sym, 0)
    return scalar.lp_norm(p), vec.lp_norm(p)

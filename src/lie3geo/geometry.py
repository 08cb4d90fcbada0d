"""Levi-Civita connection and curvature in a left-invariant orthonormal frame.

Everything here assumes the structure constants are expressed in a basis
that is orthonormal for the metric (see ``algebra.orthonormalize``).  On
left-invariant fields the connection coefficients are constants given by
the closed Koszul formula

    Gamma[i,j,k] = <nabla_{e_i} e_j, e_k>
                 = (c[i,j,k] - c[j,k,i] + c[k,i,j]) / 2

and the curvature tensor of R(A,B)C = nabla_A nabla_B C - nabla_B nabla_A C
- nabla_{[A,B]} C reduces to quadratic expressions in Gamma and c.  The sign
convention makes sectional curvature of the round sphere positive:
K(plane(e_i, e_j)) = R[i,j,j,i].

Gamma is linear in the brackets, so the Riemann tensor is quadratic in them:
a fixed linear map of the 81 pairwise products of Milnor's nine components
``m = (c[1,2,:], c[2,0,:], c[0,1,:])`` (``algebra._products``).
``_QUADRATIC`` holds that map below the Jacobi cyclic vector's, polarized
once at import from ``_riemann`` and the cyclic sum themselves, so no formula
is written twice.  The foliation search and :func:`curvature` both read
their Riemann tensor off one product of that map, the search's Jacobi
check (the search's map ``foliation._SEARCH`` stacks 28 more rows below
it, and its first 84 rows give this product bit for bit), and
:func:`_is_constant` makes the one constant-curvature decision on those
rows: for any one input the two flags are one decision, bit for bit.  ``_riemann`` forms the tensor directly from ``Gamma``; it builds the
map and serves the tests as an independent route, which rounds
differently from the map's, by at most 150 eps |c|_F^2 an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    StructureConstants,
    _JACOBI_ROWS,
    _ScaledJacobi,
    _lapack,
    _polarize,
    _readonly,
    _scaled_jacobi,
)

__all__ = [
    "CONSTANT_CURVATURE_TOL",
    "SPECTRUM_MERGE_TOL",
    "ConnectionCoefficients",
    "CurvatureReport",
    "connection",
    "curvature",
    "sectional",
]

# Both tolerances are relative to |c|_F^2, the scale of every curvature.

# Maximum entrywise deviation of the Riemann tensor from the constant
# curvature model tensor before the constant flag is dropped.
CONSTANT_CURVATURE_TOL = 1e-9

# Ricci eigenvalues closer than this merge into one spectral line.
SPECTRUM_MERGE_TOL = 1e-7

# Riemann tensor of constant sectional curvature 1 in an orthonormal basis:
# delta_il delta_jk - delta_ik delta_jl.
_EYE = np.eye(3)
_UNIT_MODEL = np.einsum("il,jk->ijkl", _EYE, _EYE) - np.einsum(
    "ik,jl->ijkl", _EYE, _EYE
)
_UNIT_MODEL.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ConnectionCoefficients:
    """Connection table gamma[i,j,k] = <nabla_{e_i} e_j, e_k>."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _readonly(self.gamma))


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Curvature data of one left-invariant metric.

    ``riemann[i,j,k,l] = <R(e_i, e_j) e_k, e_l>``;
    ``sectional_basis`` holds (K(e0,e1), K(e0,e2), K(e1,e2));
    ``constant_curvature`` is the common sectional curvature when the whole
    tensor matches the constant model within ``CONSTANT_CURVATURE_TOL``
    times ``|c|_F^2``, else None; ``ricci_spectrum`` is an ascending tuple of
    (eigenvalue, multiplicity) pairs.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    sectional_basis: tuple[float, float, float]
    constant_curvature: float | None
    ricci_spectrum: tuple[tuple[float, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "riemann", _readonly(self.riemann))
        object.__setattr__(self, "ricci", _readonly(self.ricci))


def connection(sc: StructureConstants) -> ConnectionCoefficients:
    """Levi-Civita coefficients of the metric making the basis orthonormal.

    Metric compatibility (antisymmetry in the last two slots) and the
    torsion identity gamma[i,j,k] - gamma[j,i,k] = c[i,j,k] hold up to
    round-off, a few eps times the largest bracket: each entry is one
    rounded sum of three brackets, and the sums they compare add the same
    brackets in another order.
    """
    return ConnectionCoefficients(gamma=_gamma(sc.c))


def _gamma(c: np.ndarray) -> np.ndarray:
    """The connection table of the bracket array ``c`` (Koszul formula)."""
    # c.transpose(2, 0, 1)[i,j,k] = c[j,k,i] and c.transpose(1, 2, 0)[i,j,k] = c[k,i,j]
    return 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))


def _merge_spectrum(values: list[float], tol: float) -> tuple[tuple[float, int], ...]:
    """Ascending ``values`` merged into (mean, multiplicity) lines."""
    groups: list[list[float]] = []
    for v in values:
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return tuple((sum(g) / len(g), len(g)) for g in groups)


def curvature(sc: StructureConstants) -> CurvatureReport:
    """Full curvature report for the orthonormal-basis constants.

    The Riemann tensor is read off the products of the nine scaled bracket
    components through ``_QUADRATIC``, by the very call of the foliation
    search's Jacobi check (no Jacobi verdict is taken here), and Ricci and
    the scalar curvature are its traces, so ``ricci`` is the contraction of
    the reported ``riemann`` exactly.  The constant flag is
    :func:`_is_constant` on those rows, the search's decision bit for bit.
    Everything runs on the brackets times the power of two ``2**-k`` of
    ``algebra._normalised``, so the decisions hold at any bracket scale, and
    every value is scaled back by ``4**k`` with ``ldexp``.
    """
    return _curvature(_scaled_jacobi(sc, _QUADRATIC))


def _curvature(check: _ScaledJacobi) -> CurvatureReport:
    """:func:`curvature` from the check ``_scaled_jacobi(sc, _QUADRATIC)``,
    which a caller that verifies Jacobi on it first can reuse."""
    rows, scale_sq, k = check.quadratic[3:], check.scale_sq, check.k
    riemann = rows.reshape(3, 3, 3, 3)
    ricci = np.trace(riemann, axis1=0, axis2=3)
    scalar = float(np.trace(ricci))
    constant = _is_constant(rows, scale_sq)
    spectrum = _merge_spectrum(
        _lapack("eigvalsh_lo", ricci).tolist(), SPECTRUM_MERGE_TOL * scale_sq
    )
    riemann = np.ldexp(riemann, 2 * k)
    return CurvatureReport(
        riemann=riemann,
        ricci=np.ldexp(ricci, 2 * k),
        scalar=math.ldexp(scalar, 2 * k),
        sectional_basis=(
            float(riemann[0, 1, 1, 0]),
            float(riemann[0, 2, 2, 0]),
            float(riemann[1, 2, 2, 1]),
        ),
        constant_curvature=math.ldexp(scalar / 6.0, 2 * k) if constant else None,
        ricci_spectrum=tuple((math.ldexp(v, 2 * k), m) for v, m in spectrum),
    )


def _riemann(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``riemann[i,j,k,l] = <R(e_i, e_j) e_k, e_l>`` from the bracket array
    ``c`` and its connection table ``g``."""
    # gg[i,j,k,l] = g[j,k,m] g[i,m,l]: row (j, k) of g times the matrix g[i];
    # cg[i,j,k,l] = c[i,j,m] g[m,k,l]
    gg = (g.reshape(9, 3) @ g).reshape(3, 3, 3, 3)
    cg = (c.reshape(9, 3) @ g.reshape(3, 9)).reshape(3, 3, 3, 3)
    return gg - gg.transpose(1, 0, 2, 3) - cg


# The quadratic map of the verdict path, read-only, shape (84, 81): applied
# to the products of _products(c), rows 0-2 give the Jacobi cyclic vector and
# rows 3-83 the Riemann tensor of c, flat, as _riemann(c, _gamma(c)) does.
_QUADRATIC = _readonly(
    np.vstack((_JACOBI_ROWS, _polarize(lambda c: _riemann(c, _gamma(c)))))
)

# Ones at the flat indices of riemann[i, j, j, i], whose sum is the scalar
# curvature.
_SCALAR_WEIGHTS = np.zeros(81)
_SCALAR_WEIGHTS[[28 * i + 12 * j for i in range(3) for j in range(3)]] = 1.0
_SCALAR_WEIGHTS.setflags(write=False)


def _is_constant(riemann: np.ndarray, scale_sq: float) -> bool:
    """The constant-curvature decision of the search and of :func:`curvature`.

    ``riemann`` is the flat Riemann tensor of the scaled brackets, as rows
    3-83 of ``_QUADRATIC`` read it off their products in both callers (the
    tests also pass :func:`_riemann`'s tensor), and ``scale_sq`` is their
    ``|c|_F^2``; the test is whether ``riemann`` is entrywise within
    ``CONSTANT_CURVATURE_TOL * scale_sq`` of the constant model of
    curvature ``k_fit = scalar / 6``.  No Ricci spectrum and no report are
    built.
    """
    k_fit = float(riemann @ _SCALAR_WEIGHTS) / 6.0
    deviation = float(np.abs(riemann.reshape(3, 3, 3, 3) - k_fit * _UNIT_MODEL).max())
    return deviation <= CONSTANT_CURVATURE_TOL * scale_sq


def sectional(report: CurvatureReport, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by u and v.

    K(u, v) = <R(u,v)v, u> / (|u|^2 |v|^2 - <u,v>^2); the span must be
    honestly two dimensional.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # refused before any arithmetic, where inf * 0 would warn
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("u and v do not span a plane")
    uu, vv = float(u @ u), float(v @ v)
    gram = uu * vv - float(u @ v) ** 2
    # written so that a NaN from overflow fails it too
    if not (gram > 1e-12 * uu * vv):
        raise ValueError("u and v do not span a plane")
    num = float(np.einsum("ijkl,i,j,k,l->", report.riemann, u, v, v, u))
    return num / gram

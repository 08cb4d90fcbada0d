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

Gamma is linear in the brackets, so the curvature is quadratic in them: a
fixed linear map of the 81 pairwise products of Milnor's nine components
``m = (c[1,2,:], c[2,0,:], c[0,1,:])`` (``algebra._products``).  In three
dimensions the Weyl tensor vanishes and Ricci fixes the whole Riemann tensor
(Milnor 1976): the Koszul tensor of any antisymmetric bracket, Jacobi or
not, is antisymmetric in ``(i, j)`` and in ``(k, l)``, so

    R[i,j,k,l] = eps[i,j,p] eps[k,l,q] B[p,q],  B = Ric^T - (scalar / 2) I,

which ``_RIEMANN_OF_RICCI`` applies exactly.  ``_QUADRATIC`` therefore holds
only the nine Ricci rows below the Jacobi cyclic vector's, polarized once at
import from ``_ricci`` and the cyclic sum themselves, so no formula is
written twice.  The foliation search and :func:`curvature` both read their
Ricci tensor off one product of that map, the search's Jacobi check (the
search's map ``foliation._SEARCH`` stacks 28 more rows below it, and its
first 12 rows give this product bit for bit), and :func:`_is_constant` makes
the one constant-curvature decision on those nine floats: for any one input
the two flags are one decision, bit for bit.  ``_riemann`` forms the tensor
directly from ``Gamma``; it builds the map and serves the tests as an
independent route, which rounds differently from the map's.
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
# curvature model tensor before the constant flag is dropped.  In three
# dimensions that is the largest entry of Ric - (scalar / 3) I, which is what
# _is_constant reads.
CONSTANT_CURVATURE_TOL = 1e-9

# Ricci eigenvalues closer than this merge into one spectral line.
SPECTRUM_MERGE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class ConnectionCoefficients:
    """Connection table gamma[i,j,k] = <nabla_{e_i} e_j, e_k>."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _readonly(self.gamma))


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """Curvature data of one left-invariant metric.

    ``riemann[i,j,k,l] = <R(e_i, e_j) e_k, e_l>``, the exact 3D
    reconstruction ``_RIEMANN_OF_RICCI`` of ``ricci[j,k] = riemann[i,j,k,i]``;
    ``sectional_basis`` holds (K(e0,e1), K(e0,e2), K(e1,e2)), read off
    ``riemann``; ``constant_curvature`` is the common sectional curvature
    ``scalar / 6`` when the whole tensor matches the constant model within
    ``CONSTANT_CURVATURE_TOL`` times ``|c|_F^2``, else None;
    ``ricci_spectrum`` is an ascending tuple of (eigenvalue, multiplicity)
    pairs.
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

    The Ricci tensor is read off the products of the nine scaled bracket
    components through ``_QUADRATIC``, by the very call of the foliation
    search's Jacobi check (no Jacobi verdict is taken here); the scalar
    curvature is its trace, and ``riemann`` is its exact 3D reconstruction
    through ``_RIEMANN_OF_RICCI``, whose entries are 0, +-1/2 and +-1.  The
    constant flag is :func:`_is_constant` on those nine rows, the search's
    decision bit for bit.
    Everything runs on the brackets times the power of two ``2**-k`` of
    ``algebra._normalised``, so the decisions hold at any bracket scale, and
    every value is scaled back by ``4**k`` with ``ldexp``.
    """
    return _curvature(_scaled_jacobi(sc, _QUADRATIC))


def _curvature(check: _ScaledJacobi) -> CurvatureReport:
    """:func:`curvature` from the check ``_scaled_jacobi(sc, _QUADRATIC)``,
    which a caller that verifies Jacobi on it first can reuse."""
    rows, scale_sq, k = check.quadratic[3:], check.scale_sq, check.k
    ricci = rows.reshape(3, 3)
    constant = _is_constant(rows, scale_sq)
    scalar = _trace(rows.tolist())
    spectrum = _merge_spectrum(
        _lapack("eigvalsh_lo", ricci).tolist(), SPECTRUM_MERGE_TOL * scale_sq
    )
    riemann = np.ldexp(_RIEMANN_OF_RICCI @ rows, 2 * k).reshape(3, 3, 3, 3)
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


def _ricci(c: np.ndarray) -> np.ndarray:
    """``ricci[j,k] = riemann[i,j,k,i]`` of the bracket array ``c``, the
    contraction of :func:`_riemann`."""
    return np.trace(_riemann(c, _gamma(c)), axis1=0, axis2=3)


# The quadratic map of the verdict path, read-only, shape (12, 81): applied
# to the products of _products(c), rows 0-2 give the Jacobi cyclic vector and
# rows 3-11 the Ricci tensor of c, flat, as _ricci(c) does.
_QUADRATIC = _readonly(np.vstack((_JACOBI_ROWS, _polarize(_ricci))))


def _riemann_of_ricci() -> np.ndarray:
    """The read-only (81, 9) map from the flat Ricci tensor to the flat
    Riemann tensor in three dimensions: ``riemann[i,j,k,l] = eps[i,j,p]
    eps[k,l,q] b[p,q]`` with ``b = ricci^T - (scalar / 2) I``.

    It holds for the Koszul tensor of every antisymmetric bracket, Jacobi or
    not, since that tensor is antisymmetric in ``(i, j)`` and in ``(k, l)``,
    and its entries are 0, +-1/2 and +-1.
    """
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    eye = np.eye(3)
    # b[p,q] as a map of ricci[a,b]: ricci[q,p] - (ricci[0,0] + ...) delta[p,q] / 2
    b = np.einsum("qa,pb->pqab", eye, eye) - 0.5 * np.einsum("pq,ab->pqab", eye, eye)
    return _readonly(np.einsum("ijp,klq,pqab->ijklab", eps, eps, b).reshape(81, 9))


_RIEMANN_OF_RICCI = _riemann_of_ricci()


def _trace(ricci: list[float]) -> float:
    """The trace of the nine flat Ricci floats ``ricci``, summed in the
    order ``np.trace`` sums it."""
    return ricci[0] + ricci[4] + ricci[8]


def _is_constant(ricci: np.ndarray, scale_sq: float) -> bool:
    """The constant-curvature decision of the search and of :func:`curvature`.

    ``ricci`` is the flat Ricci tensor of the scaled brackets, as rows 3-11
    of ``_QUADRATIC`` read it off their products in both callers, and
    ``scale_sq`` is their ``|c|_F^2``; the test is whether ``ricci`` is
    entrywise within ``CONSTANT_CURVATURE_TOL * scale_sq`` of
    ``(scalar / 3) I``, the Ricci tensor of the constant model of curvature
    ``scalar / 6``.  In three dimensions Ricci fixes Riemann
    (``_RIEMANN_OF_RICCI``), and each entry of the Riemann deviation from
    that model is +- one entry of this one, so the two largest are one.
    No Ricci spectrum and no report are built.
    """
    r = ricci.tolist()
    fit = _trace(r) / 3.0
    deviation = max(
        abs(r[0] - fit), abs(r[1]), abs(r[2]),
        abs(r[3]), abs(r[4] - fit), abs(r[5]),
        abs(r[6]), abs(r[7]), abs(r[8] - fit),
    )
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

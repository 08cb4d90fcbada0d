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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureConstants

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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ConnectionCoefficients:
    """Connection table gamma[i,j,k] = <nabla_{e_i} e_j, e_k>."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _readonly(self.gamma))

    def derivative(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """nabla_u v for coefficient vectors of left-invariant fields."""
        return np.einsum("ijk,i,j->k", self.gamma, u, v)


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
    torsion identity gamma[i,j,k] - gamma[j,i,k] = c[i,j,k] hold exactly.
    """
    c = sc.c
    # c.transpose(2, 0, 1)[i,j,k] = c[j,k,i] and c.transpose(1, 2, 0)[i,j,k] = c[k,i,j]
    gamma = 0.5 * (c - c.transpose(2, 0, 1) + c.transpose(1, 2, 0))
    return ConnectionCoefficients(gamma=gamma)


def _merge_spectrum(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[list[float]] = []
    for v in np.sort(values):
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return tuple((sum(g) / len(g), len(g)) for g in groups)


def curvature(sc: StructureConstants) -> CurvatureReport:
    """Full curvature report for the orthonormal-basis constants.

    Its constant flag is :func:`_is_constant`, the one curvature test that
    the foliation search asks for; the Ricci spectrum is the report's own.
    """
    c = sc.c
    riemann = _riemann(c, connection(sc).gamma)
    ricci = np.trace(riemann, axis1=0, axis2=3)
    scalar = float(np.trace(ricci))
    sectional_basis = (
        float(riemann[0, 1, 1, 0]),
        float(riemann[0, 2, 2, 0]),
        float(riemann[1, 2, 2, 1]),
    )
    scale_sq = float(np.sum(c * c))
    constant = scalar / 6.0 if _is_constant(riemann, scale_sq) else None
    spectrum = _merge_spectrum(
        np.linalg.eigvalsh(ricci), SPECTRUM_MERGE_TOL * scale_sq
    )
    return CurvatureReport(
        riemann=riemann,
        ricci=ricci,
        scalar=scalar,
        sectional_basis=sectional_basis,
        constant_curvature=constant,
        ricci_spectrum=spectrum,
    )


def _riemann(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``riemann[i,j,k,l] = <R(e_i, e_j) e_k, e_l>`` from the bracket array
    ``c`` and its connection table ``g``."""
    # gg[i,j,k,l] = g[j,k,m] g[i,m,l]: row (j, k) of g times the matrix g[i];
    # cg[i,j,k,l] = c[i,j,m] g[m,k,l]
    gg = (g.reshape(9, 3) @ g).reshape(3, 3, 3, 3)
    cg = (c.reshape(9, 3) @ g.reshape(3, 9)).reshape(3, 3, 3, 3)
    return gg - gg.transpose(1, 0, 2, 3) - cg


def _is_constant(riemann: np.ndarray, scale_sq: float) -> bool:
    """Whether ``riemann`` is within ``CONSTANT_CURVATURE_TOL * scale_sq``,
    entrywise, of the constant model of curvature ``scalar / 6``, for
    ``scale_sq = |c|_F^2``.  No Ricci spectrum and no report are built."""
    k_fit = float(np.trace(np.trace(riemann, axis1=0, axis2=3))) / 6.0
    deviation = float(np.abs(riemann - k_fit * _UNIT_MODEL).max())
    return deviation <= CONSTANT_CURVATURE_TOL * scale_sq


def sectional(report: CurvatureReport, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by u and v.

    K(u, v) = <R(u,v)v, u> / (|u|^2 |v|^2 - <u,v>^2); the span must be
    honestly two dimensional.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    uu, vv = float(u @ u), float(v @ v)
    gram = uu * vv - float(u @ v) ** 2
    # written so that NaN and inf fail it too
    if not (gram > 1e-12 * uu * vv):
        raise ValueError("u and v do not span a plane")
    num = float(np.einsum("ijkl,i,j,k,l->", report.riemann, u, v, v, u))
    return num / gram

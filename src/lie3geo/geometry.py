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
    gamma = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    return ConnectionCoefficients(gamma=gamma)


def _merge_spectrum(values: np.ndarray, tol: float) -> tuple[tuple[float, int], ...]:
    groups: list[list[float]] = []
    for v in np.sort(values):
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return tuple((float(np.mean(g)), len(g)) for g in groups)


def curvature(sc: StructureConstants) -> CurvatureReport:
    """Full curvature report for the orthonormal-basis constants."""
    return _curvature(sc, connection(sc).gamma)


def _curvature(sc: StructureConstants, g: np.ndarray) -> CurvatureReport:
    """:func:`curvature` from the connection table ``g`` of ``sc``."""
    c = sc.c
    riemann = (
        np.einsum("jkm,iml->ijkl", g, g)
        - np.einsum("ikm,jml->ijkl", g, g)
        - np.einsum("ijm,mkl->ijkl", c, g)
    )
    ricci = np.einsum("kijk->ij", riemann)
    scalar = float(np.trace(ricci))
    sectional_basis = (
        float(riemann[0, 1, 1, 0]),
        float(riemann[0, 2, 2, 0]),
        float(riemann[1, 2, 2, 1]),
    )
    eye = np.eye(3)
    k_fit = scalar / 6.0
    model = k_fit * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    scale_sq = float(np.sum(c * c))
    deviation = float(np.abs(riemann - model).max())
    constant = k_fit if deviation <= CONSTANT_CURVATURE_TOL * scale_sq else None
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


def sectional(report: CurvatureReport, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by u and v.

    K(u, v) = <R(u,v)v, u> / (|u|^2 |v|^2 - <u,v>^2); the span must be
    honestly two dimensional.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gram = float(u @ u) * float(v @ v) - float(u @ v) ** 2
    if gram <= 1e-12:
        raise ValueError("u and v do not span a plane")
    num = float(np.einsum("ijkl,i,j,k,l->", report.riemann, u, v, v, u))
    return num / gram

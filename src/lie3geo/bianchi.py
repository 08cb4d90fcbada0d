"""Bianchi classification of 3D real Lie algebras (types I .. IX).

The decision procedure runs on the decomposition of the bracket tensor into
a symmetric matrix ``n`` and a vector ``a``:

    c[i,j,k] = sum_l eps[i,j,l] n[l,k] + a[i] delta[j,k] - a[j] delta[i,k]

``a`` vanishes exactly for unimodular algebras, where the sign pattern of
the eigenvalues of ``n`` decides the type.  Otherwise the kernel of the
trace functional tau is a 2D abelian ideal.  Type III is the only
non-unimodular type with a nonzero centre and is recognised by that first;
otherwise the eigenvalue configuration of ad_w restricted to the ideal (with
w normalized so tau(w) = 2) decides the type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    JACOBI_TOL,
    NotLieAlgebraError,
    StructureConstants,
    jacobi_residual,
    orthonormal_frame,
)

__all__ = [
    "TAGS",
    "BianchiType",
    "MilnorDecomposition",
    "milnor_decompose",
    "classify",
    "same_type",
]

TAGS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")

# Types that carry a continuous parameter.
_PARAMETRIC = {"VI", "VII"}

# Relative tolerance deciding unimodularity (norm of a against the bracket
# scale).
_UNIMODULAR_TOL = 1e-9

# Relative tolerance below which an eigenvalue of n counts as zero.
_EIGEN_ZERO_TOL = 1e-8

# Split/double decision for ad_w|u runs on the characteristic discriminant
# (trace/2)^2 - det, measured against (trace/2)^2, which is 1 because w is
# scaled so that tau(w) = tr M = 2.  A threshold on the raw eigenvalue gap is
# useless here: a defective (Jordan) block perturbed at machine precision eps
# splits its eigenvalues by about sqrt(eps), far above any eps-sized gap
# tolerance, while the discriminant itself stays at eps.  ||M||_F^2 is no
# scale for it either: next to type II, M is far from normal and ||M||_F^2
# grows without bound while the split eigenvalues stay at 0 and 2.
_DISC_TOL = 1e-6

# A double-eigenvalue M further than this (relative) from a scalar matrix is
# a genuine Jordan block.
_SCALAR_DEV_TOL = 1e-6

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in (
    (0, 1, 2, 1.0),
    (1, 2, 0, 1.0),
    (2, 0, 1, 1.0),
    (0, 2, 1, -1.0),
    (2, 1, 0, -1.0),
    (1, 0, 2, -1.0),
):
    _EPS3[_i, _j, _k] = _s
_EPS3.setflags(write=False)


@dataclass(frozen=True)
class BianchiType:
    """Classification result: a tag I..IX plus a parameter for VI and VII.

    The parameter is canonicalized: type VI reports the eigenvalue-ratio
    parameter with absolute value >= 1 (positive for the standard family,
    where ad_w|u has eigenvalues of opposite signs), and type VII reports
    alpha >= 0.
    """

    tag: str
    param: float | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown Bianchi tag {self.tag!r}")
        if (self.param is not None) != (self.tag in _PARAMETRIC):
            raise ValueError(f"type {self.tag} takes a parameter iff it is VI or VII")

    def __str__(self) -> str:
        if self.param is None:
            return self.tag
        return f"{self.tag}(alpha={self.param:.6g})"


@dataclass(frozen=True, eq=False)
class MilnorDecomposition:
    """The (n, a) pair of the bracket decomposition above."""

    n: np.ndarray
    a: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Bracket tensor rebuilt from (n, a); inverts milnor_decompose."""
        eye = np.eye(3)
        c = np.einsum("ijl,lk->ijk", _EPS3, self.n)
        c += np.einsum("i,jk->ijk", self.a, eye)
        c -= np.einsum("j,ik->ijk", self.a, eye)
        return c


def milnor_decompose(sc: StructureConstants) -> MilnorDecomposition:
    """Split the bracket tensor into its (n, a) components.

    The decomposition is unique for any antisymmetric tensor and needs no
    Jacobi assumption; for a valid unimodular algebra ``a = 0``, and Jacobi
    itself is equivalent to ``n @ a = 0``.
    """
    m = 0.5 * np.einsum("ijm,ijk->mk", _EPS3, sc.c)
    n = 0.5 * (m + m.T)
    asym = 0.5 * (m - m.T)
    a = 0.5 * np.einsum("mk,pkm->p", asym, _EPS3)
    return MilnorDecomposition(n=n, a=a)


def _centre(sc: StructureConstants) -> tuple[float, np.ndarray]:
    """How close the algebra is to having a centre, and its best direction.

    Returns ``sigma_min / sigma_max`` of the linear map ``u -> c[u]`` (that
    is, ``u -> ad_u``) and the unit right singular vector of ``sigma_min``,
    which spans the centre when the ratio is zero.  The brackets must not
    all vanish.
    """
    _, sigma, vt = np.linalg.svd(sc.c.reshape(3, 9).T)
    return float(sigma[-1] / sigma[0]), vt[-1]


def _classify_unimodular(n: np.ndarray) -> BianchiType:
    eigenvalues = np.linalg.eigvalsh(n)
    scale = float(np.linalg.norm(n))
    if scale == 0.0:
        return BianchiType("I")
    signs = np.zeros(3, dtype=int)
    nonzero = np.abs(eigenvalues) > _EIGEN_ZERO_TOL * scale
    signs[nonzero] = np.sign(eigenvalues[nonzero]).astype(int)
    if (signs < 0).sum() > (signs > 0).sum():
        signs = -signs
    pos = int((signs > 0).sum())
    neg = int((signs < 0).sum())
    if pos == 0 and neg == 0:
        return BianchiType("I")
    if pos + neg == 1:
        return BianchiType("II")
    if pos == 2 and neg == 0:
        return BianchiType("VII", 0.0)
    if pos == 1 and neg == 1:
        return BianchiType("VI", 1.0)
    if pos == 3:
        return BianchiType("IX")
    return BianchiType("VIII")  # pos == 2, neg == 1


def _classify_nonunimodular(sc: StructureConstants, a: np.ndarray) -> BianchiType:
    # III is the only non-unimodular type with a centre.  Next to type II its
    # discriminant rests on round-off, while the centre stays exact.
    if _centre(sc)[0] <= _EIGEN_ZERO_TOL:
        return BianchiType("III")
    # u = ker(tau) is the Euclidean orthogonal complement of a; restrict
    # ad_w to it with w scaled so that tau(w) = 2.
    unit = a / np.linalg.norm(a)
    w = a / float(a @ a)  # tau(w) = 2 <a, w> = 2
    h1, h2 = orthonormal_frame(unit)
    basis = np.column_stack([h1, h2])
    images = np.einsum("i,ijk->jk", w, sc.c)  # images[j, k]: [w, e_j]_k
    m = basis.T @ (images.T @ basis)
    trace = float(np.trace(m))
    det = float(np.linalg.det(m))
    half = 0.5 * trace
    disc = half * half - det
    scale_sq = max(float(np.sum(m * m)), 1e-300)
    if abs(disc) <= _DISC_TOL * half * half:
        # Double eigenvalue: scalar action is type V, a Jordan block is IV.
        deviation = float(np.linalg.norm(m - half * np.eye(2)))
        if deviation > _SCALAR_DEV_TOL * np.sqrt(scale_sq):
            return BianchiType("IV")
        return BianchiType("V")
    if disc < 0.0:
        # Complex pair half*(1 +- i beta) with beta = sqrt(-disc)/half.
        return BianchiType("VII", float(abs(half) / np.sqrt(-disc)))
    root = np.sqrt(disc)
    mu1, mu2 = half + root, half - root
    if min(abs(mu1), abs(mu2)) <= _EIGEN_ZERO_TOL * np.sqrt(scale_sq):
        return BianchiType("III")
    ratio = -mu1 / mu2
    if abs(ratio) < 1.0:
        ratio = 1.0 / ratio
    return BianchiType("VI", float(ratio))


def classify(sc: StructureConstants, tol: float = JACOBI_TOL) -> BianchiType:
    """Classify a valid 3D Lie algebra into its Bianchi type.

    The result is invariant under any well-conditioned change of basis and
    under rescaling of the bracket.  Raises :class:`NotLieAlgebraError` when
    the Jacobi residual exceeds ``tol``.
    """
    residual = jacobi_residual(sc)
    if residual > tol:
        raise NotLieAlgebraError(
            f"not a Lie algebra: Jacobi residual {residual:.3e} exceeds {tol:.3e}"
        )
    dec = milnor_decompose(sc)
    if float(np.linalg.norm(dec.a)) <= _UNIMODULAR_TOL * float(np.linalg.norm(sc.c)):
        return _classify_unimodular(dec.n)
    return _classify_nonunimodular(sc, dec.a)


def same_type(first: BianchiType, second: BianchiType, tol: float = 1e-9) -> bool:
    """Tag equality with the continuous parameter compared within ``tol``.

    Parameters of types VI and VII are computed along different arithmetic
    routes by different callers, so exact float equality is the wrong test.
    The comparison is relative for large parameters.
    """
    if first.tag != second.tag:
        return False
    if first.param is None:
        return second.param is None
    if second.param is None:
        return False
    scale = max(abs(first.param), abs(second.param), 1.0)
    return abs(first.param - second.param) <= tol * scale

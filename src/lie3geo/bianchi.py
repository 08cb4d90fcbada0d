"""Bianchi classification of 3D real Lie algebras (types I .. IX).

The decision procedure runs on the decomposition of the bracket tensor into
a symmetric matrix ``n`` and a vector ``a``:

    c[i,j,k] = sum_l eps[i,j,l] n[l,k] + a[i] delta[j,k] - a[j] delta[i,k]

``a`` vanishes exactly for unimodular algebras, where the sign pattern of
the eigenvalues of ``n`` decides the type.  Otherwise the kernel ``u = a^perp``
of the trace functional tau is a 2D abelian ideal.  Type III is the only
non-unimodular type with a nonzero centre and is recognised by that first;
otherwise the eigenvalues of ``M = ad_w|u``, ``w = a / |a|^2`` (so tau(w) = 2),
decide the type.  As ``[w, v] = n (w x v) + v`` for ``v`` in ``u``, in any
orthonormal basis of ``u`` (for any antisymmetric tensor, Jacobi or not)

    M = I + N J / |a|,  so  tr M = 2,  det M = 1 + det N / |a|^2,
    |M - I|_F = |N|_F / |a|,

with ``N`` the restriction of ``n`` to ``u`` and ``J`` the quarter turn.  For
``e = a / |a|`` and ``q = e . n e``, ``|N|_F^2 = |n|_F^2 - 2 |n e|^2 + q^2``
and ``det N = e . adj(n) e = |n e|^2 - q tr n + sigma_2(n)`` (Cayley-Hamilton),
where ``sigma_2`` sums the principal 2x2 minors of ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    JACOBI_TOL,
    StructureConstants,
    _CYCLIC_I,
    _CYCLIC_J,
    _lapack,
    _norm,
    _require_scaled_lie,
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

# Relative tolerance deciding unimodularity (|a| against |c|_F).
_UNIMODULAR_TOL = 1e-9

# Relative tolerance below which an eigenvalue of n counts as zero.
_EIGEN_ZERO_TOL = 1e-8

# Split/double decision for ad_w|u runs on the characteristic discriminant
# (trace/2)^2 - det = -det N / |a|^2, measured against (trace/2)^2, which is
# 1 because tau(w) = tr M = 2.  A threshold on the raw eigenvalue gap is
# useless here: a defective (Jordan) block perturbed at machine precision eps
# splits its eigenvalues by about sqrt(eps), far above any eps-sized gap
# tolerance, while the discriminant itself stays at eps.  ||M||_F^2 is no
# scale for it either: next to type II, M is far from normal and ||M||_F^2
# grows without bound while the split eigenvalues stay at 0 and 2.
_DISC_TOL = 1e-6

# A double-eigenvalue M further than this (relative) from a scalar matrix is
# a genuine Jordan block.
_SCALAR_DEV_TOL = 1e-6

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


def milnor_decompose(sc: StructureConstants) -> MilnorDecomposition:
    """Split the bracket tensor into its (n, a) components.

    The decomposition is unique for any antisymmetric tensor and needs no
    Jacobi assumption; for a valid unimodular algebra ``a = 0``, and Jacobi
    itself is equivalent to ``n @ a = 0``.
    """
    # m[l] = eps[i,j,l] c[i,j] / 2 = c[i,j] for (i, j, l) cyclic
    return MilnorDecomposition(*_milnor(sc.c[_CYCLIC_I, _CYCLIC_J]))


def _milnor_n(m: np.ndarray) -> np.ndarray:
    """Milnor's ``n`` from the rows ``m = (c[1,2], c[2,0], c[0,1])``."""
    return 0.5 * (m + m.T)


def _milnor_a(m: np.ndarray) -> np.ndarray:
    """Milnor's ``a`` from the rows ``m = (c[1,2], c[2,0], c[0,1])``."""
    # a[l] = eps[l,k,p] asym[p,k] / 2 = asym[j,i] for (i, j, l) cyclic
    return 0.5 * (m[_CYCLIC_J, _CYCLIC_I] - m[_CYCLIC_I, _CYCLIC_J])


# (n, a) as one linear map of m.ravel(), read-only, shape (12, 9): column b
# holds n.ravel() and a of the rows with m.flat[b] = 1 and all others 0.  Its
# entries are 0, +-0.5 and 1, so it gives the bits of the formulas above
# wherever the entries of m are normal numbers.
_MILNOR = np.array(
    [
        np.concatenate((_milnor_n(e).ravel(), _milnor_a(e)))
        for e in np.eye(9).reshape(9, 3, 3)
    ]
).T.copy()
_MILNOR.setflags(write=False)


def _milnor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Milnor's ``(n, a)`` from the rows ``m = (c[1,2], c[2,0], c[0,1])``,
    through one product with ``_MILNOR``."""
    na = _MILNOR @ m.ravel()
    return na[:9].reshape(3, 3), na[9:]


def _centre(c: np.ndarray) -> tuple[float, np.ndarray]:
    """How close the brackets ``c`` come to having a centre, and its best direction.

    Returns ``sigma_min / sigma_max`` of the linear map ``u -> c[u]`` (that
    is, ``u -> ad_u``) and the unit right singular vector of ``sigma_min``,
    which spans the centre when the ratio is zero.  The brackets must not
    all vanish.
    """
    _, sigma, vt = _lapack("svd_s", c.reshape(3, 9).T)
    return float(sigma[-1] / sigma[0]), vt[-1]


def _classify_unimodular(n: np.ndarray) -> BianchiType:
    zero = _EIGEN_ZERO_TOL * _norm(n)
    eigenvalues = _lapack("eigvalsh_lo", n).tolist()
    pos = sum(v > zero for v in eigenvalues)
    neg = sum(v < -zero for v in eigenvalues)
    if neg > pos:
        pos, neg = neg, pos
    if pos == 0:
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


def _ker_tau_invariants(n: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """``(disc, |M - I|_F^2)`` of ``M = ad_w|u = I + N J / |a|`` (see the
    module docstring), where ``disc = 1 - det M = -det N / |a|^2``."""
    aa = float(a @ a)
    na = n @ a
    ne_sq, q = float(na @ na) / aa, float(a @ na) / aa  # |n e|^2, e . n e
    (n00, n01, n02), (_, n11, n12), (_, _, n22) = n.tolist()
    # sigma_2(n) sums the principal 2x2 minors of n
    det_n = ne_sq - q * (n00 + n11 + n22) + (n00 * n11 - n01 * n01)
    det_n += (n00 * n22 - n02 * n02) + (n11 * n22 - n12 * n12)
    # |N|_F^2 >= 0; the max guards round-off in the difference
    norm_sq = max(float(np.vdot(n, n)) - 2.0 * ne_sq + q * q, 0.0)
    return -det_n / aa, norm_sq / aa


def _classify_nonunimodular(c: np.ndarray, n, a) -> BianchiType:
    # III is the only non-unimodular type with a centre.  Next to type II its
    # discriminant rests on round-off, while the centre stays exact.
    if _centre(c)[0] <= _EIGEN_ZERO_TOL:
        return BianchiType("III")
    # tr M = 2, so the eigenvalues of M are 1 +- sqrt(disc)
    disc, deviation_sq = _ker_tau_invariants(n, a)
    scale = math.sqrt(2.0 + deviation_sq)  # |M|_F
    if abs(disc) <= _DISC_TOL:
        # Double eigenvalue: scalar action is type V, a Jordan block is IV.
        if math.sqrt(deviation_sq) > _SCALAR_DEV_TOL * scale:
            return BianchiType("IV")
        return BianchiType("V")
    if disc < 0.0:
        # Complex pair 1 +- i beta with beta = sqrt(-disc).
        return BianchiType("VII", 1.0 / math.sqrt(-disc))
    root = math.sqrt(disc)
    mu1, mu2 = 1.0 + root, 1.0 - root
    if min(abs(mu1), abs(mu2)) <= _EIGEN_ZERO_TOL * scale:
        return BianchiType("III")
    ratio = -mu1 / mu2
    if abs(ratio) < 1.0:
        ratio = 1.0 / ratio
    return BianchiType("VI", ratio)


def classify(sc: StructureConstants, tol: float = JACOBI_TOL) -> BianchiType:
    """Classify a valid 3D Lie algebra into its Bianchi type.

    The result is invariant under any well-conditioned change of basis and
    under rescaling of the bracket, down to any scale: the decision runs on
    the brackets times the exact power of two that the Jacobi check scaled
    them by, and on ``(n, a)`` read off the same nine components.  Raises
    :class:`NotLieAlgebraError` when the Jacobi residual exceeds
    ``tol * |c|_F^2``.
    """
    check = _require_scaled_lie(sc, tol)
    n, a = _milnor(check.m)
    if float(a @ a) <= _UNIMODULAR_TOL * _UNIMODULAR_TOL * check.scale_sq:
        return _classify_unimodular(n)
    return _classify_nonunimodular(check.scaled, n, a)


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

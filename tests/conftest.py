"""Shared helpers for the test suite."""

import numpy as np

# The Levi-Civita symbol eps[i, j, k].
EPS3 = np.zeros((3, 3, 3))
EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
EPS3[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0


def bracket(sc, u, v):
    """Lie bracket [u, v] of two coefficient vectors."""
    return np.einsum("i,j,ijk->k", u, v, sc.c)


def reconstruct(n, a):
    """The bracket tensor with Milnor decomposition ``(n, a)``:
    ``c[i,j,k] = eps[i,j,l] n[l,k] + a[i] delta[j,k] - a[j] delta[i,k]``."""
    eye = np.eye(3)
    c = np.einsum("ijl,lk->ijk", EPS3, n)
    c += np.einsum("i,jk->ijk", a, eye)
    c -= np.einsum("j,ik->ijk", a, eye)
    return c


def random_orthogonal(rng):
    """Haar-ish random rotation or reflection from a QR factorization."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def random_gl(rng, cond_limit=1e3):
    """Random invertible matrix with condition number below cond_limit."""
    while True:
        p = rng.standard_normal((3, 3))
        if np.linalg.cond(p) < cond_limit:
            return p


def random_spd(rng):
    """Well-conditioned random symmetric positive definite matrix."""
    a = rng.standard_normal((3, 3))
    return a @ a.T + 0.5 * np.eye(3)


def brackets_across_scales(seed, per_scale=20):
    """Random antisymmetric bracket tensors (not Lie algebras in general) at
    scales 1e-6 .. 1e6, per_scale of each, as (tensor, random_gl basis)."""
    from lie3geo.algebra import StructureConstants

    rng = np.random.default_rng(seed)
    for k in range(-6, 7):
        for _ in range(per_scale):
            c = 10.0**k * rng.standard_normal((3, 3, 3))
            yield StructureConstants(c), random_gl(rng)


def ad_w_on_ker_tau(sc):
    """``M = B^T ad_w B``: ad_w, ``w = a / |a|^2``, restricted to
    ``ker(tau) = a^perp`` in the orthonormal frame ``B`` of
    ``orthonormal_frame(a / |a|)``.  The frame route to the matrix whose
    invariants ``classify`` reads off Milnor's (n, a) in closed form."""
    from lie3geo.algebra import orthonormal_frame
    from lie3geo.bianchi import milnor_decompose

    a = milnor_decompose(sc).a
    basis = np.column_stack(orthonormal_frame(a / np.linalg.norm(a)))
    images = np.einsum("i,ijk->jk", a / float(a @ a), sc.c)  # [w, e_j]_k
    return basis.T @ (images.T @ basis)


def classify_by_frame(sc):
    """Bianchi type of a non-unimodular algebra from the eigenvalues of
    :func:`ad_w_on_ker_tau`, with ``classify``'s thresholds and order of
    tests: an oracle for its closed form."""
    from lie3geo.bianchi import (
        _DISC_TOL,
        _EIGEN_ZERO_TOL,
        _SCALAR_DEV_TOL,
        BianchiType,
        _centre,
    )

    if _centre(sc.c)[0] <= _EIGEN_ZERO_TOL:
        return BianchiType("III")
    m = ad_w_on_ker_tau(sc)
    half = 0.5 * float(np.trace(m))
    disc = half * half - float(np.linalg.det(m))
    scale = np.sqrt(max(float(np.sum(m * m)), 1e-300))
    if abs(disc) <= _DISC_TOL * half * half:
        deviation = float(np.linalg.norm(m - half * np.eye(2)))
        return BianchiType("IV" if deviation > _SCALAR_DEV_TOL * scale else "V")
    if disc < 0.0:
        return BianchiType("VII", float(abs(half) / np.sqrt(-disc)))
    mu1, mu2 = half + np.sqrt(disc), half - np.sqrt(disc)
    if min(abs(mu1), abs(mu2)) <= _EIGEN_ZERO_TOL * scale:
        return BianchiType("III")
    ratio = -mu1 / mu2
    return BianchiType("VI", float(ratio if abs(ratio) >= 1.0 else 1.0 / ratio))

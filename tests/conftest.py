"""Shared helpers for the test suite."""

import numpy as np


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

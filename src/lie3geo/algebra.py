"""Three-dimensional real Lie algebras as structure-constant tensors.

A Lie algebra is described by its bracket tensor ``c`` with

    [e_i, e_j] = sum_k c[i, j, k] e_k

for a fixed basis ``(e_0, e_1, e_2)``, usually written ``(X, Y, Z)``.  A
left-invariant Riemannian metric on the corresponding simply connected group
is the same thing as an inner product on the algebra; the built-in catalog
carries nine model algebras, each with the metric that makes ``(X, Y, Z)``
orthonormal.  All geometric routines downstream assume an orthonormal basis,
so arbitrary metrics are handled by :func:`orthonormalize` first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DIM",
    "JACOBI_TOL",
    "CONDITION_LIMIT",
    "NotLieAlgebraError",
    "StructureConstants",
    "MetricSpec",
    "CatalogEntry",
    "bracket",
    "jacobi_residual",
    "change_basis",
    "killing_form",
    "ad_matrix",
    "trace_form",
    "orthonormal_frame",
    "orthonormalize",
    "catalog",
    "catalog_names",
    "catalog_info",
    "constants_from_brackets",
]

DIM = 3

# Default absolute tolerance on the Jacobi residual below which a bracket
# tensor is accepted as a Lie algebra.
JACOBI_TOL = 1e-9

# Basis-change matrices with a larger condition number are rejected.
CONDITION_LIMIT = 1e8


class NotLieAlgebraError(ValueError):
    """Raised for structure constants that fail the Jacobi identity."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StructureConstants:
    """Bracket tensor of a (candidate) 3D Lie algebra.

    The tensor is antisymmetrized in its first two indices at construction,
    so bracket antisymmetry holds exactly whatever the input.  The Jacobi
    identity is *not* enforced here; use :meth:`is_valid` or
    :func:`jacobi_residual` to test it.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (DIM, DIM, DIM):
            raise ValueError(
                f"structure constants must have shape {(DIM, DIM, DIM)}, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("structure constants must be finite")
        c = 0.5 * (c - np.einsum("jik->ijk", c))
        object.__setattr__(self, "c", _readonly(c))

    def is_valid(self, tol: float = JACOBI_TOL) -> bool:
        """True if the Jacobi residual is within ``tol``."""
        return jacobi_residual(self) <= tol


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Symmetric positive definite inner product on the algebra."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be {DIM}x{DIM}, got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("metric must be finite")
        scale = max(float(np.abs(g).max()), 1.0)
        if float(np.abs(g - g.T).max()) > 1e-8 * scale:
            raise ValueError("metric must be symmetric")
        g = 0.5 * (g + g.T)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
        object.__setattr__(self, "g", _readonly(g))

    @classmethod
    def identity(cls) -> "MetricSpec":
        return cls(np.eye(DIM))


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """One model algebra: name, optional parameter, constants, metric, and
    its Bianchi type as a ``(tag, param)`` pair (param None except for VI
    and VII, canonicalized as :class:`lie3geo.bianchi.BianchiType` does)."""

    name: str
    alpha: float | None
    constants: StructureConstants
    metric: MetricSpec
    bianchi: tuple[str, float | None]


def bracket(sc: StructureConstants, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lie bracket [u, v] of two coefficient vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.einsum("i,j,ijk->k", u, v, sc.c)


def jacobi_residual(sc: StructureConstants) -> float:
    """Worst-case norm of the Jacobi cyclic sum over basis triples.

    For each triple (i, j, k) the cyclic sum
    ``[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]`` is evaluated and
    the maximum Euclidean norm is returned.  Exactly zero for a Lie algebra.
    """
    c = sc.c
    # T[i,j,k,:] = [e_i, [e_j, e_k]]
    t = np.einsum("jkl,ilm->ijkm", c, c)
    cyc = t + np.einsum("ijkm->jkim", t) + np.einsum("ijkm->kijm", t)
    return float(np.sqrt(np.einsum("ijkm,ijkm->ijk", cyc, cyc)).max())


def change_basis(sc: StructureConstants, p: np.ndarray) -> StructureConstants:
    """Structure constants in the basis ``f_j = sum_i p[i, j] e_i``.

    Rejects nearly singular ``p`` (condition number above
    ``CONDITION_LIMIT``).  Functorial: changing by ``p`` then ``q`` equals
    changing by ``p @ q`` once.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (DIM, DIM):
        raise ValueError(f"basis-change matrix must be {DIM}x{DIM}, got {p.shape}")
    if not np.all(np.isfinite(p)) or np.linalg.cond(p) > CONDITION_LIMIT:
        raise ValueError("basis-change matrix is singular or too ill conditioned")
    pinv = np.linalg.inv(p)
    new_c = np.einsum("ia,jb,ijk,mk->abm", p, p, sc.c, pinv)
    return StructureConstants(new_c)


def killing_form(sc: StructureConstants) -> np.ndarray:
    """Killing form K(i, j) = trace(ad_{e_i} ad_{e_j})."""
    return np.einsum("ikl,jlk->ij", sc.c, sc.c)


def ad_matrix(sc: StructureConstants, u: np.ndarray) -> np.ndarray:
    """Matrix of ad_u = [u, .] acting on coefficient vectors."""
    u = np.asarray(u, dtype=float)
    return np.einsum("i,ijk->kj", u, sc.c)


def trace_form(sc: StructureConstants, u: np.ndarray) -> float:
    """Unimodularity functional tau(u) = trace(ad_u)."""
    return float(np.trace(ad_matrix(sc, u)))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, with the same arithmetic but a small
    fraction of its call overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def orthonormal_frame(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic completion of a unit vector to an orthonormal triple.

    ``h1`` is the normalized cross product of ``u`` with the coordinate axis
    least aligned with it (ties resolved toward the lowest index) and
    ``h2 = u x h1``, so ``(h1, h2, u)`` is a right-handed orthonormal frame.
    """
    u = np.asarray(u, dtype=float)
    k = int(np.argmin(np.abs(u)))
    axis = np.zeros(DIM)
    axis[k] = 1.0
    h1 = _cross(axis, u)
    h1 = h1 / np.linalg.norm(h1)
    h2 = _cross(u, h1)
    return h1, h2


def orthonormalize(sc: StructureConstants, metric: MetricSpec) -> StructureConstants:
    """Rewrite the constants in a basis orthonormal for ``metric``.

    The basis is the (deterministic) Cholesky one: with ``g = L L^T`` lower
    triangular, the new basis is ``f_j = sum_i (L^-T)[i, j] e_i``.  For the
    identity metric the constants are returned unchanged.
    """
    lower = np.linalg.cholesky(metric.g)
    p = np.linalg.inv(lower).T
    return change_basis(sc, p)


def constants_from_brackets(
    xy=(0.0, 0.0, 0.0), zx=(0.0, 0.0, 0.0), zy=(0.0, 0.0, 0.0)
) -> StructureConstants:
    """Build constants from the three independent brackets.

    ``xy``, ``zx``, ``zy`` are the components of [X,Y], [Z,X], [Z,Y] in the
    basis (X, Y, Z); the antisymmetric mirrors are filled in.
    """
    c = np.zeros((DIM, DIM, DIM))
    for (i, j), v in (((0, 1), xy), ((2, 0), zx), ((2, 1), zy)):
        v = np.asarray(v, dtype=float)
        c[i, j, :] = v
        c[j, i, :] = -v
    return StructureConstants(c)


class _CatalogSpec:
    def __init__(self, name, alpha_rule, brackets_text, build, tag, param=None):
        self.name = name
        self.alpha_rule = alpha_rule  # None | "alpha > 0" | "alpha real"
        self.brackets_text = brackets_text
        self.build = build
        self.tag = tag  # Bianchi type
        self.param = param  # None | alpha -> canonical type parameter


def _build_su2():
    # Cyclic sign convention: with these brackets the Killing form is
    # -8 * identity (negative definite, compact type) and the identity
    # metric is bi-invariant with constant curvature +1.  The variant with
    # [Z,X] = 2Y, [Y,Z] = -2X instead has indefinite Killing form and is
    # isomorphic to the SL2R~ entry, not to su(2).
    return constants_from_brackets(xy=(0, 0, 2), zx=(0, 2, 0), zy=(-2, 0, 0))


_CATALOG: dict[str, _CatalogSpec] = {}
for _spec in (
    _CatalogSpec(
        "R3",
        None,
        "[X,Y] = [Y,Z] = [Z,X] = 0",
        lambda a: constants_from_brackets(),
        "I",
    ),
    _CatalogSpec(
        "Nil3",
        None,
        "[X,Y] = Z",
        lambda a: constants_from_brackets(xy=(0, 0, 1)),
        "II",
    ),
    _CatalogSpec(
        "H2xR",
        None,
        "[Y,X] = X",
        lambda a: constants_from_brackets(xy=(-1, 0, 0)),
        "III",
    ),
    _CatalogSpec(
        "G4",
        None,
        "[Z,X] = X, [Z,Y] = X + Y",
        lambda a: constants_from_brackets(zx=(1, 0, 0), zy=(1, 1, 0)),
        "IV",
    ),
    _CatalogSpec(
        "H3",
        None,
        "[Z,X] = X, [Z,Y] = Y",
        lambda a: constants_from_brackets(zx=(1, 0, 0), zy=(0, 1, 0)),
        "V",
    ),
    _CatalogSpec(
        "Sol3",
        "alpha > 0",
        "[Z,X] = alpha*X, [Z,Y] = -Y",
        lambda a: constants_from_brackets(zx=(a, 0, 0), zy=(0, -1, 0)),
        "VI",
        lambda a: max(a, 1.0 / a),
    ),
    _CatalogSpec(
        "G7",
        "alpha real",
        "[Z,X] = alpha*X - Y, [Z,Y] = X + alpha*Y",
        lambda a: constants_from_brackets(zx=(a, -1, 0), zy=(1, a, 0)),
        "VII",
        abs,
    ),
    _CatalogSpec(
        "SL2R~",
        None,
        "[X,Y] = -2Z, [Z,X] = 2Y, [Y,Z] = 2X",
        lambda a: constants_from_brackets(xy=(0, 0, -2), zx=(0, 2, 0), zy=(-2, 0, 0)),
        "VIII",
    ),
    _CatalogSpec(
        "SU2",
        None,
        "[X,Y] = 2Z, [Y,Z] = 2X, [Z,X] = 2Y",
        lambda a: _build_su2(),
        "IX",
    ),
):
    _CATALOG[_spec.name] = _spec


def _normalize_name(name: str) -> str:
    key = name.strip().lower().replace("~", "")
    for canonical in _CATALOG:
        if canonical.lower().replace("~", "") == key:
            return canonical
    raise ValueError(
        f"unknown catalog group {name!r}; available: {', '.join(_CATALOG)}"
    )


def catalog_names() -> list[str]:
    """Canonical names of the nine built-in groups."""
    return list(_CATALOG)


def catalog_info() -> list[dict]:
    """Static description of each catalog entry (for listings)."""
    return [
        {
            "name": spec.name,
            "brackets": spec.brackets_text,
            "alpha": spec.alpha_rule,
        }
        for spec in _CATALOG.values()
    ]


def catalog(name: str, alpha: float | None = None) -> CatalogEntry:
    """Look up a model group by name, with its identity metric.

    ``Sol3`` requires ``alpha > 0`` and ``G7`` requires a real ``alpha``;
    the other entries take no parameter.
    """
    canonical = _normalize_name(name)
    spec = _CATALOG[canonical]
    if spec.alpha_rule is None:
        if alpha is not None:
            raise ValueError(f"{canonical} takes no alpha parameter")
        value = None
    else:
        if alpha is None:
            raise ValueError(f"{canonical} requires an alpha parameter ({spec.alpha_rule})")
        value = float(alpha)
        if not np.isfinite(value):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        if spec.alpha_rule == "alpha > 0" and value <= 0:
            raise ValueError(f"{canonical} requires alpha > 0, got {value}")
    return CatalogEntry(
        name=canonical,
        alpha=value,
        constants=spec.build(value),
        metric=MetricSpec.identity(),
        bianchi=(spec.tag, None if spec.param is None else spec.param(value)),
    )

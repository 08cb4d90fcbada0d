"""Three-dimensional real Lie algebras as structure-constant tensors.

A Lie algebra is described by its bracket tensor ``c`` with

    [e_i, e_j] = sum_k c[i, j, k] e_k

for a fixed basis ``(e_0, e_1, e_2)``, usually written ``(X, Y, Z)``.  A
left-invariant Riemannian metric on the corresponding simply connected group
is the same thing as an inner product on the algebra; the built-in catalog
carries nine model algebras, each with the metric that makes ``(X, Y, Z)``
orthonormal.  All geometric routines downstream assume an orthonormal basis,
so arbitrary metrics are handled by :func:`orthonormalize` first.

Every factorisation an op takes calls numpy.linalg's own LAPACK gufunc
through :func:`_lapack`, under the error state of numpy.linalg's wrapper,
because on 3x3 arrays the wrapper's checks and dispatch cost more than the
factorisation, and skipping them changes no result bit and no error message.
Each gufunc's error state is built once, at import, by the function that
``np.errstate`` calls on every entry, and :func:`_lapack` only sets it around
the call and resets it after.  These are private numpy names; a numpy that
lacks one calls numpy.linalg's public wrappers instead, with the same bits
and messages, a few microseconds slower a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "DIM",
    "JACOBI_TOL",
    "CONDITION_LIMIT",
    "NotLieAlgebraError",
    "StructureConstants",
    "MetricSpec",
    "CatalogEntry",
    "jacobi_residual",
    "change_basis",
    "orthonormal_frame",
    "orthonormalize",
    "catalog",
    "catalog_names",
    "catalog_info",
    "constants_from_brackets",
]

DIM = 3

# Default tolerance on the Jacobi residual below which a bracket tensor is
# accepted as a Lie algebra.  It is relative: the residual is quadratic in the
# brackets, so it is compared with JACOBI_TOL * |c|_F^2.
JACOBI_TOL = 1e-9

# Basis-change matrices with a larger condition number are rejected.
CONDITION_LIMIT = 1e8


class NotLieAlgebraError(ValueError):
    """Raised for structure constants that fail the Jacobi identity."""


def _lapack_error(message: str):
    """An ``np.errstate`` callback raising numpy.linalg's ``LinAlgError``
    with ``message``."""

    def raise_error(err, flag):
        raise np.linalg.LinAlgError(message)

    return raise_error


# The gufuncs of _lapack by name, with the message of numpy.linalg's wrapper
# when LAPACK fails, and each wrapper, called in their place by a numpy that
# lacks a private name (see _lapack_table).
_LAPACK_MESSAGES = {
    "cholesky_lo": "Matrix is not positive definite",
    "eigh_lo": "Eigenvalues did not converge",
    "eigvalsh_lo": "Eigenvalues did not converge",
    "svd_s": "SVD did not converge",
}
_PUBLIC_LAPACK = {
    "cholesky_lo": np.linalg.cholesky,
    "eigh_lo": np.linalg.eigh,
    "eigvalsh_lo": np.linalg.eigvalsh,
    "svd_s": partial(np.linalg.svd, full_matrices=False),
}


def _lapack_table() -> dict[str, tuple]:
    """``name -> (function, context variable, error state)`` for each name of
    ``_LAPACK_MESSAGES``.

    The private route calls numpy.linalg's gufunc with the error state of its
    wrapper, built as np.errstate builds it: a LAPACK failure calls back to
    raise the wrapper's message, and no other floating-point condition warns.
    A numpy without ``numpy._core._ufunc_config._extobj_contextvar``,
    ``_make_extobj`` or one of the gufuncs in ``numpy.linalg._umath_linalg``
    takes the public route: the wrappers themselves, with no context variable
    and no error state.
    """
    try:
        from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
        from numpy.linalg import _umath_linalg

        gufuncs = {name: getattr(_umath_linalg, name) for name in _LAPACK_MESSAGES}
    except (ImportError, AttributeError):
        return {name: (wrapper, None, None) for name, wrapper in _PUBLIC_LAPACK.items()}
    return {
        name: (
            gufuncs[name],
            _extobj_contextvar,
            _make_extobj(
                call=_lapack_error(message),
                invalid="call",
                over="ignore",
                divide="ignore",
                under="ignore",
            ),
        )
        for name, message in _LAPACK_MESSAGES.items()
    }


_LAPACK = _lapack_table()


def _lapack(name: str, a: np.ndarray):
    """numpy.linalg's LAPACK gufunc ``name`` of ``_LAPACK`` applied to the
    float64 array ``a``, as its numpy.linalg wrapper applies it.

    ``cholesky_lo`` is ``np.linalg.cholesky``, ``eigh_lo`` and
    ``eigvalsh_lo`` are ``np.linalg.eigh`` and ``np.linalg.eigvalsh``, and
    ``svd_s`` is ``np.linalg.svd`` with ``full_matrices`` false, which on a
    square matrix is the full SVD bit for bit; several results come as a
    tuple.  The error state is the wrapper's: a LAPACK failure, which
    the gufunc signals as an invalid floating-point operation, raises
    ``LinAlgError`` with the wrapper's message, and no other floating-point
    condition warns.  It is set and reset as ``np.errstate`` enters and
    exits, from the state built once in ``_LAPACK``, whose buffer size
    (which no float64 call reads) is the one in force at import.  On the
    public route of :func:`_lapack_table` the wrapper itself is called.
    """
    function, contextvar, extobj = _LAPACK[name]
    if contextvar is None:
        return function(a)
    token = contextvar.set(extobj)
    try:
        return function(a)
    finally:
        contextvar.reset(token)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float64 array ``x`` by the wrapper's own
    arithmetic, without its dispatch: the square root of the dot product of
    ``x``, raveled in memory order, with itself."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


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
        # NaN, inf and overflow of |c|_F^2 all show in the sum of squares
        if not math.isfinite(float(np.vdot(c, c))):
            raise ValueError("structure constants and |c|_F^2 must be finite")
        object.__setattr__(self, "c", _readonly(_antisymmetrized(c)))

    def is_valid(self, tol: float = JACOBI_TOL) -> bool:
        """True if the Jacobi residual is within ``tol * |c|_F^2``."""
        check = _scaled_jacobi(self)
        return check.residual <= tol * check.scale_sq


def _antisymmetrized(c: np.ndarray) -> np.ndarray:
    """The bracket array ``c`` antisymmetrized in its first two indices, as
    :class:`StructureConstants` stores it."""
    return 0.5 * (c - c.transpose(1, 0, 2))


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Symmetric positive definite inner product on the algebra.

    The lower Cholesky factor ``_lower`` of ``g`` that proves it positive
    definite is kept, read-only, for :func:`orthonormalize`.
    """

    g: np.ndarray
    _lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        if g.shape != (DIM, DIM):
            raise ValueError(f"metric must be {DIM}x{DIM}, got shape {g.shape}")
        # checked on Python floats, which is faster than numpy on nine entries
        g0, g1, g2 = g.tolist()
        entries = g0 + g1 + g2
        if not all(map(math.isfinite, entries)):
            raise ValueError("metric must be finite")
        asymmetry = max(abs(g0[1] - g1[0]), abs(g0[2] - g2[0]), abs(g1[2] - g2[1]))
        if asymmetry > 1e-8 * max(map(abs, entries)):
            raise ValueError("metric must be symmetric")
        # halving first cannot overflow, unlike 0.5 * (g + g.T); the two
        # agree bit for bit wherever the entries exceed 2**-1021
        g = 0.5 * g + 0.5 * g.T
        try:
            lower = _lapack("cholesky_lo", g)
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
        object.__setattr__(self, "g", _readonly(g))
        object.__setattr__(self, "_lower", _readonly(lower))

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


def jacobi_residual(sc: StructureConstants) -> float:
    """Norm of the Jacobi cyclic sum, the worst case over basis triples.

    The cyclic sum ``J(x, y, z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]]`` of an
    antisymmetric bracket is alternating, so in three dimensions one triple
    fixes every triple: ``J(e_i, e_j, e_k) = eps[i,j,k] J(e_0, e_1, e_2)``.
    The Euclidean norm of ``J(e_0, e_1, e_2)`` is therefore the maximum
    over all 27 triples.  Exactly zero for a Lie algebra.  It is measured
    on the brackets times an exact power of two and scaled back, so it
    neither underflows nor overflows however small or large they are; it is
    at most ``|c|_F^2 / sqrt(2)``, which the constructor keeps finite.
    """
    c = sc.c
    # c holds only 0 and +-m, so its largest entry is the largest |m|, and k
    # is _normalised's
    k = math.frexp(float(c.max()))[1]
    m = np.ldexp(c.take(_MILNOR_FLAT), -k)
    return math.ldexp(_jacobi(_JACOBI_ROWS @ _pairwise(m)), 2 * k)


def _jacobi(cyclic: np.ndarray) -> float:
    """The Jacobi residual: the norm of the cyclic vector ``cyclic``, which
    is ``J(e_0, e_1, e_2)`` in its first three entries."""
    cyclic = cyclic[:3]
    return math.sqrt(float(cyclic @ cyclic))


def _cyclic_sum(c: np.ndarray) -> np.ndarray:
    """The Jacobi cyclic sums ``cyc[i,j,k,:] = J(e_i, e_j, e_k)`` of the
    antisymmetric bracket array ``c``, for every basis triple."""
    # t[i,j,k,:] = [e_i, [e_j, e_k]]: row (j, k) of c times the matrix c[i]
    t = (c.reshape(9, 3) @ c).reshape(3, 3, 3, 3)
    return t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)


# (i, j) of the cyclic index triples (i, j, l), l = 0, 1, 2
_CYCLIC_I = np.array([1, 2, 0])
_CYCLIC_J = np.array([2, 0, 1])

# The flat indices of c[_CYCLIC_I, _CYCLIC_J] in c, shape (3, 3).
_MILNOR_FLAT = (9 * _CYCLIC_I + 3 * _CYCLIC_J)[:, None] + np.arange(3)


def _products(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(m, p)`` for an antisymmetric bracket array ``c``: Milnor's rows
    ``m = (c[1,2,:], c[2,0,:], c[0,1,:])``, the nine components that fix
    ``c``, and their 81 pairwise products ``p[9 a + b] = m.flat[a] m.flat[b]``.

    Every quantity quadratic in the brackets is a fixed linear map of ``p``
    (see :func:`_polarize`).
    """
    m = c.take(_MILNOR_FLAT)
    return m, _pairwise(m)


def _pairwise(m: np.ndarray) -> np.ndarray:
    """The 81 pairwise products ``p[9 a + b] = m.flat[a] m.flat[b]`` of the
    nine components ``m``."""
    flat = m.reshape(9, 1)
    return (flat * flat.T).ravel()


def _basis_tensors() -> np.ndarray:
    """The nine basis tensors ``E_a``, shape (9, 3, 3, 3), read-only: the
    antisymmetric brackets whose component ``m.flat[a]`` of
    :func:`_products` is 1 and all others 0."""
    basis = np.zeros((9, DIM, DIM, DIM))
    for a in range(9):
        row, k = divmod(a, DIM)
        basis[a, _CYCLIC_I[row], _CYCLIC_J[row], k] = 1.0
        basis[a, _CYCLIC_J[row], _CYCLIC_I[row], k] = -1.0
    return _readonly(basis)


_BASIS_TENSORS = _basis_tensors()


def _polarize(kernel) -> np.ndarray:
    """The read-only map ``M`` with ``M @ _products(c)[1]`` equal to
    ``kernel(c).ravel()`` for every antisymmetric ``c``, for a ``kernel``
    quadratic in the brackets.

    It is read off the kernel on the basis tensors ``E_a`` of
    ``_BASIS_TENSORS``: column ``9 a + a`` holds ``kernel(E_a)``, and columns
    ``9 a + b`` and ``9 b + a`` each hold half the polarization
    ``kernel(E_a + E_b) - kernel(E_a) - kernel(E_b)``.  The kernels of this
    package take sums and halves of products of the entries 0 and +-1 of the
    basis tensors, so their maps hold small multiples of 1/4, exactly.
    """
    basis = _BASIS_TENSORS
    square = [np.ravel(kernel(e)) for e in basis]
    columns = np.empty((square[0].size, 9, 9))
    for a in range(9):
        columns[:, a, a] = square[a]
        for b in range(a):
            cross = np.ravel(kernel(basis[a] + basis[b])) - square[a] - square[b]
            columns[:, a, b] = columns[:, b, a] = 0.5 * cross
    return _readonly(columns.reshape(-1, 81))


# The cyclic vector J(e_0, e_1, e_2) as a map of the products (3, 81).
_JACOBI_ROWS = _polarize(lambda c: _cyclic_sum(c)[0, 1, 2])


def _normalised(c: np.ndarray) -> tuple[np.ndarray, int]:
    """``(c * 2**-k, k)`` for an antisymmetric bracket array ``c``, with
    ``k`` chosen so that the largest entry of ``c * 2**-k`` lies in [0.5, 1)
    (``k = 0`` for the zero array).

    Scaling by a power of two is exact, so sums and products computed on
    the scaled array are the unscaled ones times a power of two, bit for
    bit, wherever neither overflows nor underflows.  Quadratic quantities
    such as ``|c|_F^2`` and curvatures, which lose precision once the
    brackets fall below about 1e-154, are computed on the scaled array and
    scaled back with ``ldexp``.
    """
    # c is antisymmetric, so its largest entry is its largest absolute value
    k = math.frexp(float(c.max()))[1]
    # ldexp is exact, so the scaled array stays exactly antisymmetric
    return np.ldexp(c, -k), k


class _ScaledJacobi(NamedTuple):
    """The Jacobi check of :func:`_scaled_jacobi`, on the brackets rescaled
    exactly by ``2**-k``."""

    # c * 2**-k of _normalised
    scaled: np.ndarray
    # Milnor's rows of scaled, the components of _products
    m: np.ndarray
    # the quadratic map applied to the products of m; its first three
    # entries are the Jacobi cyclic vector J(e_0, e_1, e_2)
    quadratic: np.ndarray
    # the Jacobi residual, read off quadratic
    residual: float
    # |scaled|_F^2
    scale_sq: float
    k: int


def _scaled_jacobi(
    sc: StructureConstants, rows: np.ndarray = _JACOBI_ROWS
) -> _ScaledJacobi:
    """The Jacobi check of ``sc`` on ``scaled = c * 2**-k`` of
    :func:`_normalised`, with the quadratic map ``rows`` (whose first three
    rows are ``_JACOBI_ROWS``) applied to the products of its components.

    ``residual * 4**k`` and ``scale_sq * 4**k`` are the unscaled values bit
    for bit wherever those neither overflow nor underflow, and
    ``residual <= tol * scale_sq`` decides Jacobi at any bracket scale.
    """
    scaled, k = _normalised(sc.c)
    m, products = _products(scaled)
    q = rows @ products
    return _ScaledJacobi(scaled, m, q, _jacobi(q), float(np.vdot(scaled, scaled)), k)


def _require_scaled_lie(
    sc: StructureConstants, tol: float = JACOBI_TOL, rows: np.ndarray = _JACOBI_ROWS
) -> _ScaledJacobi:
    """:func:`_scaled_jacobi` of ``sc`` and ``rows``, after checking it
    against ``tol``.

    Raises :class:`NotLieAlgebraError` unless the residual is at most
    ``tol * |c|_F^2``: the residual is quadratic in the brackets, so the
    verdict does not change when they are rescaled.  A NaN ``tol`` accepts
    nothing, and neither does an infinite one at the zero algebra, where
    ``inf * 0`` is NaN.
    """
    check = _scaled_jacobi(sc, rows)
    residual, scale_sq = check.residual, check.scale_sq
    # written so that NaN fails it too
    if not (residual <= tol * scale_sq):
        relative = residual / scale_sq if scale_sq else 0.0
        raise NotLieAlgebraError(
            f"not a Lie algebra: Jacobi residual {relative:.3e} * "
            f"|c|_F^2 exceeds {tol:.3e} * |c|_F^2"
        )
    return check


_SINGULAR = "basis-change matrix is singular or too ill conditioned"


def _conditioned_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD ``(u, s, vt)`` of the matrix ``m``, after checking its 2-norm
    condition number ``s[0] / s[-1]`` against ``CONDITION_LIMIT``.

    A non-finite ``m`` is rejected before LAPACK sees it: its SVD need
    not return.
    """
    if not np.isfinite(m).all():
        raise ValueError(_SINGULAR)
    u, s, vt = _lapack("svd_s", m)
    if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise ValueError(_SINGULAR)
    return u, s, vt


def _rebase(
    sc: StructureConstants, p: np.ndarray, pinv: np.ndarray
) -> StructureConstants:
    """:func:`change_basis` by ``p`` given its inverse ``pinv``."""
    return StructureConstants(_rebase_array(sc.c, p, pinv))


def _rebase_array(c: np.ndarray, p: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """The bracket array ``c`` in the basis ``p`` given its inverse ``pinv``,
    before it is antisymmetrized (:func:`_antisymmetrized`)."""
    # new_c[a,b,m] = p[i,a] p[j,b] c[i,j,k] pinv[m,k], one index at a time
    return p.T @ (p.T @ (c @ pinv.T).reshape(3, 9)).reshape(3, 3, 3)


def change_basis(sc: StructureConstants, p: np.ndarray) -> StructureConstants:
    """Structure constants in the basis ``f_j = sum_i p[i, j] e_i``.

    Rejects nearly singular ``p`` (condition number above
    ``CONDITION_LIMIT``).  Functorial: changing by ``p`` then ``q`` equals
    changing by ``p @ q`` once.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (DIM, DIM):
        raise ValueError(f"basis-change matrix must be {DIM}x{DIM}, got {p.shape}")
    u, s, vt = _conditioned_svd(p)
    return _rebase(sc, p, (vt.T / s) @ u.T)


def orthonormal_frame(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic completion of a unit vector to an orthonormal triple.

    ``h1`` is the normalized cross product of ``u`` with the coordinate axis
    least aligned with it (ties resolved toward the lowest index) and
    ``h2 = u x h1``, so ``(h1, h2, u)`` is a right-handed orthonormal frame.
    A vector whose ``h1`` has length zero, such as the zero vector, and a
    ``u`` not of shape (3,) are refused with ValueError.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (DIM,):
        raise ValueError(f"direction must have shape (3,), got {u.shape}")
    h1, h2 = _frame(u.tolist())
    return np.array(h1), np.array(h2)


def _frame(u: list[float]) -> tuple[list[float], list[float]]:
    """:func:`orthonormal_frame` of the three Python floats ``u``, as two
    lists, with the arithmetic of ``np.cross`` and ``np.argmin``.  ``h1`` is
    normalized by ``_norm``, because numpy's dot rounds its sum in a way
    Python floats do not reproduce."""
    u0, u1, u2 = u
    size = (abs(u0), abs(u1), abs(u2))
    # the axis np.argmin(np.abs(u)) picks: the first least, or the first NaN
    k = 0
    for j in (1, 2):
        if size[k] != size[k]:
            break
        if not (size[j] >= size[k]):
            k = j
    e0, e1, e2 = (1.0 if j == k else 0.0 for j in range(3))
    cross = [e1 * u2 - e2 * u1, e2 * u0 - e0 * u2, e0 * u1 - e1 * u0]
    length = _norm(np.array(cross))
    if length == 0.0:
        raise ValueError("cannot complete a vector whose frame has length zero")
    h0, h1, h2 = (x / length for x in cross)
    return [h0, h1, h2], [u1 * h2 - u2 * h1, u2 * h0 - u0 * h2, u0 * h1 - u1 * h0]


def orthonormalize(sc: StructureConstants, metric: MetricSpec) -> StructureConstants:
    """Rewrite the constants in a basis orthonormal for ``metric``.

    The basis is the (deterministic) Cholesky one: with ``g = L L^T`` lower
    triangular (the factor the metric kept when it checked ``g``), the new
    basis is ``f_j = sum_i (L^-T)[i, j] e_i``, and its inverse is ``L^T``
    exactly.  ``L^-1`` is formed in closed form by forward substitution.
    Its condition number is checked as in :func:`change_basis`:
    ``|L|_F |L^-1|_F`` bounds the 2-norm one from above, so a product
    within ``CONDITION_LIMIT`` accepts at once, and only past that bound
    does an SVD of ``L`` decide.  For the identity metric the constants are
    unchanged.
    """
    lower = metric._lower
    (l00, _, _), (l10, l11, _), (l20, l21, l22) = lower.tolist()
    # L^-1 by forward substitution; no product overflows while cond(L) is
    # within CONDITION_LIMIT
    i00, i11, i22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    i10 = -l10 * i00 * i11
    i21 = -l21 * i11 * i22
    i20 = -(l20 * i00 + l21 * i10) * i22
    bound = math.hypot(l00, l10, l11, l20, l21, l22)
    bound *= math.hypot(i00, i10, i11, i20, i21, i22)
    # written so that inf and NaN go to the SVD too
    if not (bound <= CONDITION_LIMIT):
        _conditioned_svd(lower)
    upper = np.array([[i00, i10, i20], [0.0, i11, i21], [0.0, 0.0, i22]])
    return _rebase(sc, upper, lower.T)


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

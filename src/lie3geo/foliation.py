"""Left-invariant conformal foliations by geodesics.

A unit vector ``u`` in the algebra spans a foliation of the group by
geodesics exactly when ``nabla_u u = 0``, and that foliation is conformal
exactly when the horizontal part of ``h -> nabla_h u`` has trace-free
symmetric part zero.  In an orthonormal basis both defects are polynomials
in ``u`` and need no horizontal frame.  With ``T[i,k] = Gamma[i,j,k] u_j``
(the matrix of ``h -> nabla_h u``), ``du = u^T T = nabla_u u`` and the
horizontal shape matrix ``A = T - u du^T``:

    geodesic_residual(u) = |du|
    conformal_residual(u) = sqrt(2) |S0|_F,
        S0 = sym(A) - tr(A) (I - u u^T) / 2

and the total squared residual is

    r(u) = |du|^2 + |A|_F^2 + <A, A^T> - tr(A)^2.

Such a direction is precisely what a harmonic morphism from the group to a
surface needs.  Away from constant curvature every conformal foliation by
geodesics is left-invariant, so the group admits one iff some unit direction
zeroes both residuals; constant-curvature metrics admit a continuum of them
(not all left-invariant) and are handled as a special case, told apart by
the Ricci deviation alone (in three dimensions Ricci fixes Riemann): the
search builds no curvature report.

The search is exact.  In Milnor's ``(n, a)`` decomposition of the brackets,
``nabla_u u = u x n u + a - (a.u) u``, and away from constant curvature the
adapted-bracket families (:func:`enumerate_families`) put every foliation
direction at one of four points, all tried at once:

* ``a = 0``: ``u`` is the eigenvector of a simple eigenvalue of ``n``.  The
  family ``x = y = a = 0`` gives ``n`` the eigenvalues ``(b, b, z)`` along
  ``(X, Y, Z)``, and Nil3 gives ``(0, 0, z)``; ``eigh`` gives ``Z``
  directly, and any basis it picks in the double eigenspace fails.
* ``a != 0``: ``tr ad_u = 2 a.u``, and the Jacobi constraints make
  ``a.u != 0`` force the constant-curvature family ``x = y = z = 0``; so
  ``u`` is orthogonal to ``a`` and the adapted ``a`` vanishes.  The algebra
  is not unimodular, so ``(x, y) != 0``, ``b x = b y = 0`` forces ``b = 0``,
  and ``u`` is central: the right singular vector of least singular value
  of ``u -> c[u]``.

The candidates whose squared residual is at most
``ACCEPT_RESIDUAL_SQ * |c|_F^2`` are kept, antipodally deduplicated; the
others are rejected by their residual.  Non-constant-curvature metrics can
carry at most two such directions, and at most one when the Ricci spectrum
has exactly two distinct eigenvalues, so short direction lists are expected.
A screen measures the four candidates before the residual kernel does: on
the sphere ``r`` is a homogeneous sextic, and its 28 coefficients in the
basis ``(s_j . u)^6`` of the interpolation samples below are a fixed linear
map of the 81 products that the Jacobi check already forms (rows 12-39 of
``_SEARCH``).  The screened values are within ``_SCREEN_SLACK * |c|_F^2``
(``2**-33``, derived in ``_screen``) of the kernel's, so when all four
exceed ``(ACCEPT_RESIDUAL_SQ + _SCREEN_SLACK) * |c|_F^2`` no candidate can
pass and the search returns the empty result without the kernel; on types
IV and VI this decides every search whose candidates stay above the slack.
Otherwise the kernel measures all four.  The screen only rejects, and only
all four at once, so every accepted direction and every reported value is
the kernel's, bit for bit.

A fixed Fibonacci lattice of ``LATTICE_DEFAULT`` (20000) points on the unit
sphere certifies a non-admitting result, one with no witness direction (as
every metric of types IV and VI has none): its floor of ``r`` shows how far
from zero the residual stays.  An admitting result is certified by its
directions' own residuals, and there the floor only measures the lattice
spacing next to them, so the CLI reads it only when no direction is found.
It decides no verdict, and the search never scans it.  The report computes
it on the first read of ``lattice_min_residual`` and caches it, so a caller
that reads only the verdict never waits for it; the report keeps the
search's Jacobi check and builds the connection table from its scaled
brackets on that first read, so a search that the screen decides never
forms the table.  The certificate reads the screen's sextic coefficients
off the same check: a float32 product with a cached table of the basis
``(s_j . p)^6`` at the lattice points ``p`` screens the lattice, and the
points within a rigorous round-off bound are measured again in float64 by
the search's own kernel.  The least value is the one a float64 scan of
``r`` would find.

Each direction found carries the adapted bracket coefficients read off along
it (:func:`adapt_basis`) and the Bianchi type of their family
(:func:`classify_family`); a direction that ``adapt_basis`` rejects makes
the search raise its ``ValueError`` instead of reporting a false positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    JACOBI_TOL,
    MetricSpec,
    StructureConstants,
    _BASIS_TENSORS,
    _ScaledJacobi,
    _frame,
    _lapack,
    _norm,
    _normalised,
    _readonly,
    _rebase_array,
    _require_scaled_lie,
    _scaled_jacobi,
    constants_from_brackets,
    orthonormalize,
)
from .bianchi import BianchiType, _centre, _milnor_n
from .geometry import _QUADRATIC, _gamma, _is_constant

__all__ = [
    "LATTICE_DEFAULT",
    "ACCEPT_RESIDUAL_SQ",
    "CLUSTER_ANGLE",
    "FoliationCandidate",
    "FoliationReport",
    "AdaptedBracketParams",
    "FoliationFamily",
    "residuals",
    "search_directions",
    "adapt_basis",
    "adapted_constants",
    "jacobi_constraints",
    "classify_family",
    "enumerate_families",
    "random_metrics",
    "admits_harmonic_morphism",
]

# The number of points of the certificate lattice.
LATTICE_DEFAULT = 20000

# A direction is accepted when its squared total residual (geodesic^2 +
# conformal^2) is at most this times |c|_F^2; both sides scale like |c|^2.
ACCEPT_RESIDUAL_SQ = 1e-14

# Accepted directions closer than this (radians, antipodally identified)
# merge into one.
CLUSTER_ANGLE = 1e-4

_COS_CLUSTER = math.cos(CLUSTER_ANGLE)

_COEFF_NAMES = ("a", "b", "x", "y", "z")


@dataclass(frozen=True, eq=False)
class FoliationCandidate:
    """One unit direction spanning a conformal foliation by geodesics, with
    the adapted bracket coefficients along it and their family's type."""

    direction: np.ndarray
    geodesic_residual: float
    conformal_residual: float
    adapted: AdaptedBracketParams
    family: BianchiType

    def __post_init__(self):
        object.__setattr__(self, "direction", _readonly(self.direction))

    @property
    def total_residual_sq(self) -> float:
        return self.geodesic_residual**2 + self.conformal_residual**2


@dataclass(frozen=True, eq=False)
class FoliationReport:
    """Search outcome for one orthonormalized metric.

    Constant-curvature metrics short-circuit: a space form carries a
    continuum of conformal foliations by geodesics (not all of them
    left-invariant), so the list is left empty and ``admits`` is true.
    Otherwise ``admits`` is true exactly when the (deduplicated, antipodally
    identified) direction list is nonempty.  ``lattice_min_residual`` is the
    certificate of a non-admitting result, computed at the first read of any
    non-constant report; ``admits`` never waits for it.  The report keeps
    the search's Jacobi check ``_check`` (``None`` on constant curvature):
    the floor screens the lattice with the sextic coefficients the search
    formed there, measures the points that pass with the residual kernel on
    a connection table of the scaled brackets, built only then, and is
    scaled back by ``4**k``.
    """

    constant_curvature: bool
    directions: tuple[FoliationCandidate, ...]
    admits: bool
    lattice_size: int
    _check: _ScaledJacobi | None = field(default=None, repr=False, compare=False)

    @cached_property
    def lattice_min_residual(self) -> float | None:
        """The least squared residual over the ``lattice_size``-point
        Fibonacci lattice; ``None`` on constant curvature."""
        check = self._check
        if check is None:
            return None
        return math.ldexp(_lattice_floor(check), 2 * check.k)


@dataclass(frozen=True)
class AdaptedBracketParams:
    """Bracket coefficients in a frame adapted to a foliation direction Z:

        [X,Y] = x X + y Y + z Z,   [Z,X] = a X + b Y,   [Z,Y] = -b X + a Y

    Instances are plain parameter tuples; nothing is enforced here, so the
    Jacobi constraints (a z = 0, a x + b y = 0, b x - a y = 0) can be probed
    with :func:`jacobi_constraints` on arbitrary values.  Coefficients read
    off an actual foliation direction of a Lie algebra always satisfy them.
    """

    a: float
    b: float
    x: float
    y: float
    z: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.a, self.b, self.x, self.y, self.z)


@dataclass(frozen=True)
class FoliationFamily:
    """One solution family of the Jacobi constraints in the adapted frame."""

    name: str
    zero_coefficients: tuple[str, ...]
    free_coefficients: tuple[str, ...]
    attainable_types: frozenset[str]

    def sample(self, rng: np.random.Generator) -> AdaptedBracketParams:
        """Draw random coefficients with the family's zeros pinned."""
        values = dict.fromkeys(_COEFF_NAMES, 0.0)
        for name in self.free_coefficients:
            values[name] = float(rng.standard_normal())
        return AdaptedBracketParams(**values)


def _fibonacci_points(n: int) -> np.ndarray:
    """The n points of the Fibonacci lattice, shape (n, 3), read-only."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = (2.0 * np.pi) * np.mod(i / golden, 1.0)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return _readonly(np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1))


# The 28 interpolation samples: the northern half of the 56-point lattice,
# because r is even and the 28-point lattice, with near-antipodal pairs, is
# singular.  Condition number 231, Lebesgue constant 11.6 on the lattice.
_SAMPLES = _fibonacci_points(56)[:28]

_EYE = np.eye(3)
_SQRT2 = np.sqrt(2.0)

# The inverse of the interpolation matrix (s_i . s_j)^6 of the samples,
# read-only: it maps r at the samples to the coefficients of the sextic r in
# the basis (s_j . u)^6.
_INVERSE = _readonly(np.linalg.inv((_SAMPLES @ _SAMPLES.T) ** 6))

# The float32 lattice screen's slack, in units of sum|coeff| (see
# _lattice_floor).
_LATTICE_SLACK = 128 * 2.0**-24


@lru_cache(maxsize=1)
def _lattice():
    """The lattice points, shape (n, 3) for ``n = LATTICE_DEFAULT``, and the
    read-only float32 (28, n) table of the float64 powers ``(s . p)^6`` for
    samples ``s`` and points ``p``.  Built row by row, so one float64 row is
    the only temporary."""
    points = _fibonacci_points(LATTICE_DEFAULT)
    table = np.empty((len(_SAMPLES), LATTICE_DEFAULT), dtype=np.float32)
    for row, s in zip(table, _SAMPLES):
        square = (points @ s) ** 2
        np.multiply(square * square, square, out=row)
    table.setflags(write=False)
    return points, table


def _lattice_floor(check: _ScaledJacobi) -> float:
    """The least squared residual over ``_lattice()`` of the scaled brackets
    of the search's Jacobi check ``check``, as a float64 scan with
    ``_residual_vector`` finds it.

    ``coeff = check.quadratic[12:]`` are the sextic coefficients of ``r``
    that ``_screen`` reads, and ``sum_j coeff_j (s_j . u)^6`` is within
    ``_SCREEN_SLACK * C`` of the kernel's ``r`` at every unit ``u``, for
    ``C = check.scale_sq`` (proved in ``_screen``).  For ``S = sum|coeff|``
    and ``e = 2**-24``, each value of the float32 screen ``coeff @ table``
    is within ``31 e S`` of that float64 sextic: ``e S`` each for rounding
    ``coeff`` and the table (``|table| <= 1``), ``28 e S`` for the float32
    sum in any order or with fused multiply-adds, and ``e S`` for
    higher-order terms and the float64 powers.  So the float64 minimiser is
    within ``63 e S`` of the float32 minimum (one ``e S`` rounds the
    threshold), plus ``2 * _SCREEN_SLACK * C``; ``_LATTICE_SLACK * S =
    128 e S`` covers the first.  No normalisation is needed: the brackets
    are scaled, so ``0.5 <= C < 18`` and ``|coeff| < 200``, well inside
    float32's range, and float32 underflow, in rounding tiny coefficients
    and their products, costs at most ``28 * 2**-149``, which
    ``2 * _SCREEN_SLACK * C`` covers.  The points
    that pass are measured again, each by a vector-matrix product of its
    own, so no value depends on which other points passed.
    """
    points, table = _lattice()
    coeff = check.quadratic[12:]
    r32 = coeff.astype(np.float32) @ table
    slack = _LATTICE_SLACK * float(np.abs(coeff).sum())
    bound = np.float32(float(r32.min()) + slack + 2 * _SCREEN_SLACK * check.scale_sq)
    u = points[np.flatnonzero(r32 <= bound), None, :]
    v = _residual_vector(_gamma(check.scaled), u)
    return float(np.vecdot(v, v).min())


def _residual_vector(gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The 12-vector (du, sqrt(2) S0) whose squared norm is r(u), u unit.

    ``u`` may be a stack of directions, shape (..., 3); the result then has
    shape (..., 12).
    """
    shape = u.shape[:-1]
    # t[i, k] = Gamma[i, j, k] u_j, the matrix of h -> nabla_h u
    t = (u @ gamma.transpose(1, 0, 2).reshape(3, 9)).reshape(shape + (3, 3))
    du = (u[..., None, :] @ t)[..., 0, :]
    a = t - u[..., :, None] * du[..., None, :]
    # the diagonal of a is every fourth entry of its rows
    half_trace = 0.5 * a.reshape(shape + (9,))[..., ::4].sum(axis=-1)[..., None, None]
    tangent = _EYE - u[..., :, None] * u[..., None, :]
    s0 = 0.5 * (a + np.swapaxes(a, -1, -2)) - half_trace * tangent
    return np.concatenate((du, _SQRT2 * s0.reshape(shape + (9,))), axis=-1)


def _sextic_rows() -> np.ndarray:
    """The (28, 81) map ``W`` with ``W @ _products(c)[1]`` the coefficients
    of ``r`` in the basis ``(s_j . u)^6`` of the samples ``s_j``.

    At a fixed ``u`` the residual vector is linear in the brackets, so the
    kernel on the nine basis tensors gives its (12, 9) map ``B_j`` at each
    sample, and ``r(s_j) = m . (B_j^T B_j) m`` is row ``j`` of ``R``, flat,
    applied to the products of ``m``; ``W = _INVERSE @ R``.
    """
    b = np.stack([_residual_vector(_gamma(e), _SAMPLES) for e in _BASIS_TENSORS], axis=-1)
    return _INVERSE @ (np.swapaxes(b, 1, 2) @ b).reshape(len(_SAMPLES), 81)


# The quadratic map of the search, read-only, shape (40, 81): rows 0-11 are
# geometry._QUADRATIC (the Jacobi vector and the Ricci tensor), rows 12-39
# the sextic coefficients of r (_sextic_rows).
_SEARCH = _readonly(np.vstack((_QUADRATIC, _sextic_rows())))

# The screen's slack, relative to |c|_F^2: 2**20 e, e = 2**-53 (see _screen).
_SCREEN_SLACK = 2.0**-33


def _screen(stack: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``r`` at the rows of ``stack``, unit directions, through the sextic
    coefficients ``coeff`` of rows 12-39 of ``_SEARCH``.

    Each value is within ``_SCREEN_SLACK * C`` of the kernel's, for
    ``C = |c|_F^2`` of the brackets.  With ``e = 2**-53``: ``m`` holds each
    bracket once, so ``|m|^2 = C / 2`` and every product is at most
    ``C / 2``; on the sphere ``r <= C``; and ``w = sum_j || |W_j| ||_2 =
    21.5``, for ``|W_j|`` the 9x9 matrix of absolute values of row ``j`` of
    ``W``, bounds ``sum |W_jk p_k| <= w C / 2`` and so ``sum |coeff|``.
    Rounding ``W`` (the inverse of a 28x28 matrix of condition 231, then a
    product with ``R``) costs at most ``28 * 231 * sum|W| e = 1.17e6 e`` in
    ``sum |dW|`` (``sum|W| = 181``; 60-digit arithmetic finds 1.8e4 e), so
    ``5.9e5 e C`` on a value, since every power is at most 1.  The
    81-term products and their rounded factors add ``82 e w C / 2 = 880 e
    C``; the powers, with rows unit only to ``8 e``, at most ``45 e`` each,
    so ``480 e C``; the 28-term sum ``28 e w C / 2 = 300 e C``; and the
    kernel's own rounding, on values at most ``C`` and at rows unit only to
    a few ulps, under ``1e3 e C``.  The total is under ``6e5 e C <
    2**20 e C``.  Measured on the tests' corpus, the gap stays below
    ``40 e C``.
    """
    y = stack @ _SAMPLES.T
    y *= y
    return (y * y * y) @ coeff


def residuals(sc: StructureConstants, u: np.ndarray) -> tuple[float, float]:
    """(geodesic, conformal) residuals of the unit direction ``u``.

    Both vanish together exactly when the left-invariant line field through
    ``u`` spans a conformal foliation by geodesics; both are invariant under
    u -> -u and independent of the horizontal frame choice.  They are
    measured on the brackets times an exact power of two and scaled back,
    so their squares do not underflow however small the brackets are.
    """
    scaled, k = _normalised(sc.c)
    v = _unit_residual_vector(scaled, np.asarray(u, dtype=float))
    geo, conf = _norm(v[:3]), _norm(v[3:])
    return math.ldexp(geo, k), math.ldexp(conf, k)


def _unit_residual_vector(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_residual_vector` of the bracket array ``c`` at ``u``, after
    checking that ``u`` is a unit vector of shape (3,)."""
    if u.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {u.shape}")
    # written so that NaN and inf fail it too
    if not (abs(_norm(u) - 1.0) <= 1e-10):
        raise ValueError("direction must be a unit vector")
    return _residual_vector(_gamma(c), u)


def search_directions(
    sc: StructureConstants, tol: float = JACOBI_TOL
) -> FoliationReport:
    """Find every unit direction spanning a conformal foliation by geodesics.

    The constants must be in an orthonormal basis and satisfy Jacobi within
    ``tol * |c|_F^2``.  Constant-curvature metrics are detected first, by
    the Ricci deviation alone (no curvature report is built), and reported
    with an empty direction list.  Otherwise four candidates are tried: the
    eigenvectors of Milnor's ``n`` and the direction closest to the centre,
    which hold every foliation direction (see the module docstring).  When
    the screen (``_screen``) puts all four above
    ``(ACCEPT_RESIDUAL_SQ + _SCREEN_SLACK) * |c|_F^2``, which no candidate
    within its slack of the kernel can pass, the empty result is returned
    without the residual kernel.  Otherwise the kernel measures all four;
    those with squared residual at most
    ``ACCEPT_RESIDUAL_SQ * |c|_F^2`` are antipodally canonicalized,
    deduplicated at ``CLUSTER_ANGLE``, and returned sorted by direction
    components.  The search does not scan the lattice: the report's
    ``lattice_min_residual``, the least squared residual over the fixed
    20000-point (``LATTICE_DEFAULT``) Fibonacci lattice, is computed on its
    first read from the screen's coefficients and the search's own residual
    kernel.  It certifies an
    empty direction list without deciding it; each direction found is
    certified by its own residuals.  Each candidate carries its
    :func:`adapt_basis` coefficients and their :func:`classify_family` type;
    if ``adapt_basis`` rejects an accepted direction, its ``ValueError``
    propagates.  The whole pipeline is deterministic.  Candidates, their
    acceptance and the constant-curvature test run on the brackets times the
    exact power of two ``2**-k`` that the Jacobi check scaled them by, so
    the verdict holds however small the brackets are; residuals and adapted
    coefficients are scaled back with ``ldexp``.  The Jacobi check, the
    constant-curvature test and the screen read one product of the nine
    scaled components through ``_SEARCH``, whose rows 0-11 are
    ``geometry._QUADRATIC``'s (the product's rows 0-11 are its product, bit
    for bit), and the connection table and Milnor's ``n`` come from the same
    scaled brackets.  The table is formed only for the kernel; a search that
    the screen decides leaves it to the report's first certificate read.
    """
    check = _require_scaled_lie(sc, tol, _SEARCH)
    scaled, scale_sq = check.scaled, check.scale_sq
    if _is_constant(check.quadratic[3:12], scale_sq):
        return FoliationReport(
            constant_curvature=True,
            directions=(),
            admits=True,
            lattice_size=LATTICE_DEFAULT,
        )
    # rows: the eigenvectors of Milnor's n and the direction closest to the centre
    eigenvectors = _lapack("eigh_lo", _milnor_n(check.m))[1]
    stack = np.concatenate((eigenvectors.T, _centre(scaled)[1][None]))
    # a NaN at any position fails its comparison and falls through to the kernel
    bound = (ACCEPT_RESIDUAL_SQ + _SCREEN_SLACK) * scale_sq
    if all(value > bound for value in _screen(stack, check.quadratic[12:]).tolist()):
        return FoliationReport(
            constant_curvature=False,
            directions=(),
            admits=False,
            lattice_size=LATTICE_DEFAULT,
            _check=check,
        )
    v = _residual_vector(_gamma(scaled), stack)
    limit = ACCEPT_RESIDUAL_SQ * scale_sq
    rows = stack.tolist()
    found: list[tuple[float, list[float], int]] = []
    for i, r in enumerate(np.vecdot(v, v).tolist()):
        if r <= limit:
            # u -> -u leaves both residual norms exactly unchanged; the first
            # largest |u_j|, as np.argmax picks it, is made positive
            u = rows[i]
            size = [abs(x) for x in u]
            if u[size.index(max(size))] < 0:
                u = [-x for x in u]
            found.append((r, u, i))
    found.sort(key=lambda item: (item[0], *item[1]))

    kept: list[tuple[list[float], int]] = []
    for _, u, i in found:
        # numpy's dot, whose rounding Python floats do not reproduce
        if all(abs(np.dot(u, other)) < _COS_CLUSTER for other, _ in kept):
            kept.append((u, i))

    candidates = []
    norm, k = math.sqrt(scale_sq), check.k
    for u, i in sorted(kept, key=lambda item: item[0]):
        geo, conf = _norm(v[i, :3]), _norm(v[i, 3:])
        adapted = _adapt_basis(
            scaled, u, _norm(stack[i]), geo, conf, norm, check.residual
        )
        # Coefficients forced to zero by the foliation conditions carry noise
        # on the order of the measured residuals, so the family case analysis
        # runs on the coefficients over |c|_F with a zero threshold that
        # scales with the residuals over |c|_F.
        unit = AdaptedBracketParams(*(x / norm for x in adapted.as_tuple()))
        family = classify_family(unit, tol=max(1e-9, 10.0 * max(geo, conf) / norm))
        candidates.append(
            FoliationCandidate(
                direction=u,
                geodesic_residual=math.ldexp(geo, k),
                conformal_residual=math.ldexp(conf, k),
                adapted=_ldexp_params(adapted, k),
                family=family,
            )
        )
    return FoliationReport(
        constant_curvature=False,
        directions=tuple(candidates),
        admits=bool(candidates),
        lattice_size=LATTICE_DEFAULT,
        _check=check,
    )


def adapt_basis(sc: StructureConstants, u: np.ndarray) -> AdaptedBracketParams:
    """Read off the adapted bracket coefficients along a foliation direction.

    The frame is the deterministic completion (X, Y) = orthonormal_frame(u)
    with Z = u, normalized; it is orthonormal, so the rebasing inverts it by
    its transpose.  Raises ValueError("foliation conditions violated ...")
    when the residuals exceed ``tol`` or the rewritten bracket table fails
    to take the adapted shape, which would mark a search false positive.
    ``tol = sqrt(ACCEPT_RESIDUAL_SQ)``, the search's own threshold, and is
    relative: residuals and table entries scale like |c|_F and are compared
    with ``tol * |c|_F``, the quadratic Jacobi constraints with
    ``tol * |c|_F^2``.  As in :func:`search_directions`, these tests run on
    the brackets times an exact power of two, and the coefficients are
    scaled back.
    """
    u = np.asarray(u, dtype=float)
    check = _scaled_jacobi(sc)
    v = _unit_residual_vector(check.scaled, u)
    geo, conf = _norm(v[:3]), _norm(v[3:])
    scale = math.sqrt(check.scale_sq)
    length = math.sqrt(u @ u)
    params = _adapt_basis(
        check.scaled, u.tolist(), length, geo, conf, scale, check.residual
    )
    return _ldexp_params(params, check.k)


def _ldexp_params(params: AdaptedBracketParams, k: int) -> AdaptedBracketParams:
    """``params`` times ``2**k``, each coefficient rounded once."""
    return AdaptedBracketParams(*(math.ldexp(x, k) for x in params.as_tuple()))


def _adapt_basis(
    c: np.ndarray,
    u: list[float],
    length: float,
    geo: float,
    conf: float,
    scale: float,
    jacobi: float,
) -> AdaptedBracketParams:
    """:func:`adapt_basis` of the bracket array ``c`` along the direction
    ``u``, three Python floats of norm ``length`` (by numpy's dot), given
    the geodesic and conformal residuals ``geo`` and ``conf`` of ``u``,
    ``scale = |c|_F`` and the Jacobi residual of ``c``."""
    tol = math.sqrt(ACCEPT_RESIDUAL_SQ)
    if geo > tol * scale or conf > tol * scale:
        raise ValueError(
            "foliation conditions violated along the given direction "
            f"(geodesic residual {geo:.3e}, conformal residual {conf:.3e})"
        )
    z = [x / length for x in u]
    x, y = _frame(z)
    # the columns X, Y, Z, C-contiguous; orthonormal, so the transpose inverts
    frame = np.array(list(zip(x, y, z)))
    table = _rebase_array(c, frame, frame.T).tolist()
    # the brackets [X,Y], [Z,X] and [Z,Y], antisymmetrized as
    # StructureConstants stores them, as Python floats
    xy, zx, zy = (
        [0.5 * (p - q) for p, q in zip(table[i][j], table[j][i])]
        for i, j in ((0, 1), (2, 0), (2, 1))
    )
    deviations = (
        abs(zx[2]),
        abs(zy[2]),
        abs(zx[0] - zy[1]),
        abs(zx[1] + zy[0]),
    )
    if max(deviations) > tol * scale:
        raise ValueError(
            "foliation conditions violated: bracket table does not take the "
            f"adapted form (max deviation {max(deviations):.3e})"
        )
    params = AdaptedBracketParams(
        a=0.5 * (zx[0] + zy[1]),
        b=0.5 * (zx[1] - zy[0]),
        x=xy[0],
        y=xy[1],
        z=xy[2],
    )
    worst = jacobi_constraints(params)
    if not (worst <= max(tol * scale * scale, 10.0 * jacobi)):
        raise ValueError(
            f"foliation conditions violated: Jacobi constraints leak {worst:.3e}"
        )
    return params


def adapted_constants(params: AdaptedBracketParams) -> StructureConstants:
    """Structure constants of the adapted-form brackets."""
    return constants_from_brackets(
        xy=(params.x, params.y, params.z),
        zx=(params.a, params.b, 0.0),
        zy=(-params.b, params.a, 0.0),
    )


def jacobi_constraints(params: AdaptedBracketParams) -> float:
    """Worst violated constraint among a z = 0, a x + b y = 0, b x - a y = 0.

    Zero exactly when the adapted-form brackets satisfy Jacobi; the full
    Jacobi residual of :func:`adapted_constants` is bounded between one and
    sqrt(6) times this value.  A NaN coefficient gives NaN.
    """
    a, b, x, y, z = params.as_tuple()
    terms = (abs(a * z), abs(a * x + b * y), abs(b * x - a * y))
    # max can pass over a NaN, which fails every comparison, so test first
    return math.nan if any(map(math.isnan, terms)) else float(max(terms))


def classify_family(
    params: AdaptedBracketParams, tol: float = 1e-9
) -> BianchiType:
    """Bianchi type of the adapted-form algebra, by family case analysis.

    The constraint variety splits into the three families of
    :func:`enumerate_families`; the coefficients are dispatched to the
    nearest family and its case analysis is applied with ``tol`` deciding
    which coefficients count as zero.  Types IV and VI can never come out.
    A constraint violation beyond ``tol``, or a NaN, raises ``ValueError``.
    """
    worst = jacobi_constraints(params)
    # written so that NaN fails it too
    if not (worst <= tol):
        raise ValueError(
            f"adapted coefficients violate the Jacobi constraints ({worst:.3e})"
        )
    a, b, x, y, z = params.as_tuple()
    distances = (
        max(abs(a), abs(b)),
        max(abs(x), abs(y), abs(z)),
        max(abs(x), abs(y), abs(a)),
    )
    # the first least distance, as np.argmin picks it
    family = distances.index(min(distances))
    if family == 0:
        if abs(x) <= tol and abs(y) <= tol:
            return BianchiType("II") if abs(z) > tol else BianchiType("I")
        return BianchiType("III")
    if family == 1:
        if abs(b) <= tol:
            return BianchiType("V") if abs(a) > tol else BianchiType("I")
        return BianchiType("VII", abs(a / b))
    if abs(b) <= tol:
        return BianchiType("II") if abs(z) > tol else BianchiType("I")
    if abs(z) <= tol:
        return BianchiType("VII", 0.0)
    return BianchiType("IX") if b * z > 0 else BianchiType("VIII")


def enumerate_families() -> tuple[FoliationFamily, FoliationFamily, FoliationFamily]:
    """The three solution families of the adapted Jacobi constraints.

    Their attainable Bianchi types union to {I, II, III, V, VII, VIII, IX};
    no choice of coefficients ever produces type IV or type VI, which is
    exactly why those two groups admit no metric with a conformal foliation
    by geodesics.
    """
    return (
        FoliationFamily(
            name="a=b=0",
            zero_coefficients=("a", "b"),
            free_coefficients=("x", "y", "z"),
            attainable_types=frozenset({"I", "II", "III"}),
        ),
        FoliationFamily(
            name="x=y=z=0",
            zero_coefficients=("x", "y", "z"),
            free_coefficients=("a", "b"),
            attainable_types=frozenset({"I", "V", "VII"}),
        ),
        FoliationFamily(
            name="x=y=a=0",
            zero_coefficients=("x", "y", "a"),
            free_coefficients=("b", "z"),
            attainable_types=frozenset({"I", "II", "VII", "VIII", "IX"}),
        ),
    )


def random_metrics(count: int, seed: int = 42) -> list[MetricSpec]:
    """Reproducible well-conditioned random SPD metrics."""
    return list(_metric_stream(count, seed, "count"))


def _metric_stream(count: int, seed: int, label: str):
    """The metrics of :func:`random_metrics`, drawn one at a time.  A
    negative ``count`` (called ``label`` in the message) or ``seed`` is
    refused at the call, before any metric is drawn."""
    if count < 0:
        raise ValueError(f"{label} must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    return (_random_metric(rng) for _ in range(count))


def _random_metric(rng: np.random.Generator) -> MetricSpec:
    a = rng.standard_normal((3, 3))
    return MetricSpec(a @ a.T + 0.5 * np.eye(3))


def admits_harmonic_morphism(
    sc: StructureConstants,
    trials: int = 100,
    seed: int = 42,
) -> tuple[bool, bool]:
    """(admits with this metric, admits with some sampled metric).

    The first component searches the given orthonormal-basis constants as
    they are; the second repeats the search after orthonormalizing against
    ``trials`` random SPD metrics from a seeded generator, the sequence of
    :func:`random_metrics`, drawn one at a time and only until one admits.
    A negative ``trials`` or ``seed`` is refused before any search.
    """
    metrics = _metric_stream(trials, seed, "trials")
    first = search_directions(sc).admits
    second = any(search_directions(orthonormalize(sc, m)).admits for m in metrics)
    return first, second

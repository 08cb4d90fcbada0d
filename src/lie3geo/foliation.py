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
(not all left-invariant) and are handled as a special case.

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

A deterministic Fibonacci lattice on the unit sphere certifies the result:
homogenised, ``r`` is a quadratic form ``m^T Q m`` in the ten cubic monomials
``m`` of ``u``, with ``Q`` built exactly from ``Gamma``.  As a sextic in
``u``, ``r`` has 28 monomials; a fixed 0/1 fold matrix sums ``Q`` into their
28 weights ``w``, so the scan is one product ``w @ table`` with the cached
(28, n) table of the lattice's sextic monomials.  The least value, re-read
as a sum of squares at its point, is reported as ``lattice_min_residual``.

Each direction found carries the adapted bracket coefficients read off along
it (:func:`adapt_basis`) and the Bianchi type of their family
(:func:`classify_family`); a direction that ``adapt_basis`` rejects makes
the search raise its ``ValueError`` instead of reporting a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .algebra import (
    JACOBI_TOL,
    MetricSpec,
    NotLieAlgebraError,
    StructureConstants,
    change_basis,
    constants_from_brackets,
    jacobi_residual,
    orthonormal_frame,
    orthonormalize,
)
from .bianchi import BianchiType, _centre, milnor_decompose
from .geometry import _curvature, connection

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

LATTICE_DEFAULT = 20000

# A direction is accepted when its squared total residual (geodesic^2 +
# conformal^2) is at most this times |c|_F^2; both sides scale like |c|^2.
ACCEPT_RESIDUAL_SQ = 1e-14

# Accepted directions closer than this (radians, antipodally identified)
# merge into one.
CLUSTER_ANGLE = 1e-4

# search_directions refuses larger lattices before allocating anything.
_LATTICE_MAX = 1_000_000

_COEFF_NAMES = ("a", "b", "x", "y", "z")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True)
class FoliationReport:
    """Search outcome for one orthonormalized metric.

    Constant-curvature metrics short-circuit: a space form carries a
    continuum of conformal foliations by geodesics (not all of them
    left-invariant), so the list is left empty and ``admits`` is true.
    Otherwise ``admits`` is true exactly when the (deduplicated, antipodally
    identified) direction list is nonempty.
    """

    constant_curvature: bool
    directions: tuple[FoliationCandidate, ...]
    admits: bool
    lattice_min_residual: float | None
    lattice_size: int


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


@lru_cache(maxsize=4)
def _lattice(n: int):
    """Deterministic Fibonacci lattice on the sphere, with its sextic table.

    Returns the points, shape (n, 3), and the read-only (28, n) table whose
    row ``s`` holds the sextic monomial ``_SEXTIC[s]`` at every point.  Each
    row is written in place as the product of the two cubic rows of
    ``_SEXTIC_PAIRS[s]``.  The (10, n) cubic rows are a temporary, and no
    gathered (n, 28, 6) array is made: either would raise the peak memory of
    large lattices.
    """
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = (2.0 * np.pi) * np.mod(i / golden, 1.0)
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    points = _readonly(np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1))
    cubic = _cubic_rows(points.T)
    table = np.empty((len(_SEXTIC), n))
    for row, (a, b) in zip(table, _SEXTIC_PAIRS):
        np.multiply(cubic[a], cubic[b], out=row)
    table.setflags(write=False)
    return points, table


# Index triples (a <= b <= c) of the ten cubic monomials u_a u_b u_c, and
# index sextuples of the 28 sextic monomials.
_CUBIC = tuple(combinations_with_replacement(range(3), 3))
_SEXTIC = tuple(combinations_with_replacement(range(3), 6))


def _cubic_sum() -> np.ndarray:
    """fold[a, b, c, m] = 1 when the product u_a u_b u_c is monomial m.

    Contracting a cubic coefficient tensor with it gives monomial weights.
    """
    fold = np.zeros((3, 3, 3, len(_CUBIC)))
    for abc in np.ndindex(3, 3, 3):
        fold[abc][_CUBIC.index(tuple(sorted(abc)))] = 1.0
    return _readonly(fold)


def _sextic_fold() -> tuple[np.ndarray, np.ndarray]:
    """The (28, 100) 0/1 matrix with fold[s, 10 a + b] = 1 when cubic
    monomials a and b multiply to sextic monomial s, so that
    ``fold @ Q.ravel()`` are the sextic weights of ``m^T Q m``; and, for each
    sextic monomial, the first pair (a, b) that builds it."""
    index = {sextic: s for s, sextic in enumerate(_SEXTIC)}
    # target[10 a + b] is the sextic monomial of cubic monomials a and b
    target = [index[tuple(sorted(a + b))] for a in _CUBIC for b in _CUBIC]
    fold = np.zeros((len(_SEXTIC), len(target)))
    fold[target, np.arange(len(target))] = 1.0
    pairs = np.array([divmod(target.index(s), len(_CUBIC)) for s in range(len(_SEXTIC))])
    pairs.setflags(write=False)
    return _readonly(fold), pairs


_CUBIC_SUM = _cubic_sum()
_SEXTIC_FOLD, _SEXTIC_PAIRS = _sextic_fold()

_EYE = np.eye(3)
_SQRT2 = np.sqrt(2.0)


def _cubic_rows(x: np.ndarray) -> np.ndarray:
    """The ten cubic monomials of the columns of ``x`` (shape (3, n)), one
    row per monomial: shape (10, n)."""
    rows = np.empty((len(_CUBIC), x.shape[1]))
    for row, (a, b, c) in zip(rows, _CUBIC):
        np.multiply(x[a], x[b], out=row)
        row *= x[c]
    return rows


def _quadratic_form(gamma: np.ndarray) -> np.ndarray:
    """The 10x10 Q with r(u) = m(u)^T Q m(u) for unit u.

    Homogenised, every term of r is a product of two cubics: |u|^2 |du|^2 is
    the sum of (u_l du_k)^2, and A becomes |u|^2 T - u du^T.  Their
    coefficient tensors fold onto the monomials through _CUBIC_SUM.
    """
    # u_l du_k = sum_bc Gamma[b,c,k] u_l u_b u_c, and |u|^2 T[i,k] likewise
    u_du = np.einsum("bck,lbcm->lkm", gamma, _CUBIC_SUM)
    a = np.einsum("ick,aacm->ikm", gamma, _CUBIC_SUM) - u_du
    trace = np.einsum("iim->m", a)
    q = (
        np.einsum("lkm,lkn->mn", u_du, u_du)
        + np.einsum("ikm,ikn->mn", a, a)
        + np.einsum("ikm,kin->mn", a, a)
        - np.outer(trace, trace)
    )
    return 0.5 * (q + q.T)


def _residual_vector(gamma: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The 12-vector (du, sqrt(2) S0) whose squared norm is r(u), u unit.

    ``u`` may be a stack of directions, shape (..., 3); the result then has
    shape (..., 12).
    """
    # t[i, k] = Gamma[i, j, k] u_j, the matrix of h -> nabla_h u
    t = np.einsum("ijk,...j->...ik", gamma, u)
    du = (u[..., None, :] @ t)[..., 0, :]
    a = t - u[..., :, None] * du[..., None, :]
    half_trace = 0.5 * np.trace(a, axis1=-2, axis2=-1)[..., None, None]
    tangent = _EYE - u[..., :, None] * u[..., None, :]
    s0 = 0.5 * (a + np.swapaxes(a, -1, -2)) - half_trace * tangent
    return np.concatenate((du, _SQRT2 * s0.reshape(u.shape[:-1] + (9,))), axis=-1)


def residuals(sc: StructureConstants, u: np.ndarray) -> tuple[float, float]:
    """(geodesic, conformal) residuals of the unit direction ``u``.

    Both vanish together exactly when the left-invariant line field through
    ``u`` spans a conformal foliation by geodesics; both are invariant under
    u -> -u and independent of the horizontal frame choice.
    """
    v = _unit_residual_vector(sc, np.asarray(u, dtype=float))
    return float(np.linalg.norm(v[:3])), float(np.linalg.norm(v[3:]))


def _unit_residual_vector(sc: StructureConstants, u: np.ndarray) -> np.ndarray:
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("direction must be a unit vector")
    return _residual_vector(connection(sc).gamma, u)


def _canonical_sign(u: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(u)))
    return -u if u[k] < 0 else u.copy()


def search_directions(
    sc: StructureConstants,
    lattice: int = LATTICE_DEFAULT,
    tol: float = JACOBI_TOL,
) -> FoliationReport:
    """Find every unit direction spanning a conformal foliation by geodesics.

    The constants must be in an orthonormal basis and satisfy Jacobi within
    ``tol``, and ``lattice`` must lie in [16, 1000000] (larger lattices are
    refused before anything is allocated).  Constant-curvature metrics are
    detected first and reported with an empty direction list.  Otherwise
    four candidates are tried: the eigenvectors of Milnor's ``n`` and the
    direction closest to the centre, which hold every foliation direction
    (see the module docstring).  Those with squared residual at most
    ``ACCEPT_RESIDUAL_SQ * |c|_F^2`` are antipodally canonicalized,
    deduplicated at ``CLUSTER_ANGLE``, and returned sorted by direction
    components.  The lattice scan only certifies the result:
    ``lattice_min_residual`` is the least squared residual over ``lattice``
    Fibonacci points.  Each candidate carries its :func:`adapt_basis`
    coefficients and their :func:`classify_family` type; if ``adapt_basis``
    rejects an accepted direction, its ``ValueError`` propagates.  The whole
    pipeline is deterministic.
    """
    residual = jacobi_residual(sc)
    if residual > tol:
        raise NotLieAlgebraError(
            f"not a Lie algebra: Jacobi residual {residual:.3e} exceeds {tol:.3e}"
        )
    lattice = int(lattice)
    if lattice < 16:
        raise ValueError("lattice size must be at least 16")
    if lattice > _LATTICE_MAX:
        raise ValueError(f"lattice size must be at most {_LATTICE_MAX}")
    gamma = connection(sc).gamma
    if _curvature(sc, gamma).constant_curvature is not None:
        return FoliationReport(
            constant_curvature=True,
            directions=(),
            admits=True,
            lattice_min_residual=None,
            lattice_size=lattice,
        )
    points, table = _lattice(lattice)
    r = (_SEXTIC_FOLD @ _quadratic_form(gamma).ravel()) @ table
    # Q is indefinite, so the floor is re-read as a sum of squares
    floor = _residual_vector(gamma, points[np.argmin(r)])
    lattice_min = float(floor @ floor)

    scale_sq = float(np.sum(sc.c * sc.c))
    # rows: the eigenvectors of n, then the direction closest to the centre
    stack = np.vstack((np.linalg.eigh(milnor_decompose(sc).n)[1].T, _centre(sc)[1]))
    v = _residual_vector(gamma, stack)
    r_stack = np.vecdot(v, v)
    found: list[tuple[np.ndarray, float, np.ndarray]] = [
        # u -> -u leaves both residual norms exactly unchanged
        (_canonical_sign(stack[k]), float(r_stack[k]), v[k])
        for k in np.flatnonzero(r_stack <= ACCEPT_RESIDUAL_SQ * scale_sq)
    ]
    found.sort(key=lambda item: (item[1], item[0][0], item[0][1], item[0][2]))

    cos_cluster = np.cos(CLUSTER_ANGLE)
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for u_ref, _, v_ref in found:
        if all(abs(u_ref @ other) < cos_cluster for other, _ in kept):
            kept.append((u_ref, v_ref))

    candidates = []
    for u_ref, v_ref in sorted(kept, key=lambda item: tuple(item[0])):
        geo = float(np.linalg.norm(v_ref[:3]))
        conf = float(np.linalg.norm(v_ref[3:]))
        adapted = _adapt_basis(sc, u_ref, v_ref)
        # Coefficients forced to zero by the foliation conditions carry noise
        # on the order of the measured residuals, so the family case analysis
        # runs on the coefficients over |c|_F with a zero threshold that
        # scales with the residuals over |c|_F.
        norm = np.sqrt(scale_sq)
        unit = AdaptedBracketParams(*(x / norm for x in adapted.as_tuple()))
        family = classify_family(unit, tol=max(1e-9, 10.0 * max(geo, conf) / norm))
        candidates.append(
            FoliationCandidate(
                direction=u_ref,
                geodesic_residual=geo,
                conformal_residual=conf,
                adapted=adapted,
                family=family,
            )
        )
    return FoliationReport(
        constant_curvature=False,
        directions=tuple(candidates),
        admits=bool(candidates),
        lattice_min_residual=lattice_min,
        lattice_size=lattice,
    )


def adapt_basis(
    sc: StructureConstants, u: np.ndarray, tol: float = 1e-7
) -> AdaptedBracketParams:
    """Read off the adapted bracket coefficients along a foliation direction.

    The frame is the deterministic completion (X, Y) = orthonormal_frame(u)
    with Z = u.  Raises ValueError("foliation conditions violated ...")
    when the residuals exceed ``tol`` or the rewritten bracket table fails
    to take the adapted shape, which would mark a search false positive.
    ``tol`` is relative: residuals and table entries scale like |c|_F and
    are compared with ``tol * |c|_F``, the quadratic Jacobi constraints
    with ``tol * |c|_F^2``.
    """
    u = np.asarray(u, dtype=float)
    return _adapt_basis(sc, u, _unit_residual_vector(sc, u), tol)


def _adapt_basis(
    sc: StructureConstants, u: np.ndarray, v: np.ndarray, tol: float = 1e-7
) -> AdaptedBracketParams:
    """:func:`adapt_basis` given the residual vector ``v`` of ``u``."""
    scale = float(np.linalg.norm(sc.c))
    geo, conf = float(np.linalg.norm(v[:3])), float(np.linalg.norm(v[3:]))
    if geo > tol * scale or conf > tol * scale:
        raise ValueError(
            "foliation conditions violated along the given direction "
            f"(geodesic residual {geo:.3e}, conformal residual {conf:.3e})"
        )
    h1, h2 = orthonormal_frame(u)
    table = change_basis(sc, np.column_stack([h1, h2, u])).c
    deviations = (
        abs(table[2, 0, 2]),
        abs(table[2, 1, 2]),
        abs(table[2, 0, 0] - table[2, 1, 1]),
        abs(table[2, 0, 1] + table[2, 1, 0]),
    )
    if max(deviations) > tol * scale:
        raise ValueError(
            "foliation conditions violated: bracket table does not take the "
            f"adapted form (max deviation {max(deviations):.3e})"
        )
    params = AdaptedBracketParams(
        a=float(0.5 * (table[2, 0, 0] + table[2, 1, 1])),
        b=float(0.5 * (table[2, 0, 1] - table[2, 1, 0])),
        x=float(table[0, 1, 0]),
        y=float(table[0, 1, 1]),
        z=float(table[0, 1, 2]),
    )
    worst = jacobi_constraints(params)
    if worst > max(tol * scale * scale, 10.0 * jacobi_residual(sc)):
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
    sqrt(6) times this value.
    """
    a, b, x, y, z = params.as_tuple()
    return max(abs(a * z), abs(a * x + b * y), abs(b * x - a * y))


def classify_family(
    params: AdaptedBracketParams, tol: float = 1e-9
) -> BianchiType:
    """Bianchi type of the adapted-form algebra, by family case analysis.

    The constraint variety splits into the three families of
    :func:`enumerate_families`; the coefficients are dispatched to the
    nearest family and its case analysis is applied with ``tol`` deciding
    which coefficients count as zero.  Types IV and VI can never come out.
    """
    worst = jacobi_constraints(params)
    if worst > tol:
        raise ValueError(
            f"adapted coefficients violate the Jacobi constraints ({worst:.3e})"
        )
    a, b, x, y, z = params.as_tuple()
    distances = (
        max(abs(a), abs(b)),
        max(abs(x), abs(y), abs(z)),
        max(abs(x), abs(y), abs(a)),
    )
    family = int(np.argmin(distances))
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
    rng = np.random.default_rng(seed)
    metrics = []
    for _ in range(count):
        a = rng.standard_normal((3, 3))
        metrics.append(MetricSpec(a @ a.T + 0.5 * np.eye(3)))
    return metrics


def admits_harmonic_morphism(
    sc: StructureConstants,
    trials: int = 100,
    seed: int = 42,
    lattice: int = LATTICE_DEFAULT,
) -> tuple[bool, bool]:
    """(admits with this metric, admits with some sampled metric).

    The first component searches the given orthonormal-basis constants as
    they are; the second repeats the search after orthonormalizing against
    ``trials`` random SPD metrics from a seeded generator.
    """
    first = search_directions(sc, lattice=lattice).admits
    second = False
    for metric in random_metrics(trials, seed=seed):
        if search_directions(orthonormalize(sc, metric), lattice=lattice).admits:
            second = True
            break
    return first, second

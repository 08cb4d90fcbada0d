import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brackets_across_scales,
    random_gl,
    random_orthogonal,
    random_spd,
    reconstruct,
)

from lie3geo import algebra, bianchi, foliation, geometry

from lie3geo.algebra import (
    JACOBI_TOL,
    MetricSpec,
    NotLieAlgebraError,
    StructureConstants,
    catalog,
    change_basis,
    constants_from_brackets,
    jacobi_residual,
    orthonormal_frame,
    orthonormalize,
)
from lie3geo.bianchi import BianchiType, classify, milnor_decompose, same_type
from lie3geo.foliation import (
    LATTICE_DEFAULT,
    AdaptedBracketParams,
    adapt_basis,
    adapted_constants,
    admits_harmonic_morphism,
    classify_family,
    enumerate_families,
    jacobi_constraints,
    random_metrics,
    residuals,
    search_directions,
)
from lie3geo.geometry import _riemann, connection, curvature

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_residual_oracle_sol():
    sc = catalog("Sol3", 1.0).constants
    geo, conf = residuals(sc, Z)
    assert geo == pytest.approx(0.0, abs=1e-14)
    assert conf == pytest.approx(2.0, abs=1e-14)
    # along X the X-lines are not geodesics: nabla_X X = Z
    geo, conf = residuals(sc, X)
    assert geo == pytest.approx(1.0, abs=1e-14)


def test_residual_oracle_nil():
    sc = catalog("Nil3").constants
    geo, conf = residuals(sc, Z)
    assert geo == pytest.approx(0.0, abs=1e-14)
    assert conf == pytest.approx(0.0, abs=1e-14)


def test_residuals_reject_non_unit():
    sc = catalog("Nil3").constants
    # NaN and inf fail the unit test too, before they reach any residual
    for u in ([0.0, 0.0, 2.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="unit"):
            residuals(sc, np.array(u))
        with pytest.raises(ValueError, match="unit"):
            adapt_basis(sc, np.array(u))


@pytest.mark.parametrize(
    "u",
    [[[0.6, 0.8, 0.0]], [[0.6], [0.8], [0.0]], [0.6, 0.8, 0.0, 0.0], 1.0, [[[0.0, 0.0, 1.0]]]],
    ids=["row", "column", "four", "scalar", "nested"],
)
def test_residuals_and_adapt_basis_refuse_a_direction_not_of_shape_3(u):
    """A unit direction of shape (1, 3) was read as a stack of one and gave
    Sol3(2) the wrong split (1.442, 0.0) where (0.080, 1.440) is right; other
    shapes failed inside matmul.  Every shape but (3,) is refused, named."""
    sol = catalog("Sol3", 2.0).constants
    u = np.array(u)
    message = re.escape(f"direction must have shape (3,), got {u.shape}")
    with pytest.raises(ValueError, match=message):
        residuals(sol, u)
    with pytest.raises(ValueError, match=message):
        adapt_basis(sol, u)
    geo, conf = residuals(sol, np.array([0.6, 0.8, 0.0]))
    assert (geo, conf) == pytest.approx((0.08, 1.44), rel=1e-12)


def test_residuals_antipodal_and_frame_invariant():
    # recompute the conformal residual with a rotated horizontal frame and
    # check the reported value does not depend on the frame choice
    rng = np.random.default_rng(0)
    algebras = [
        catalog("Sol3", 1.0).constants,
        catalog("Nil3").constants,
        catalog("G4").constants,
        catalog("SL2R~").constants,
    ]
    for _ in range(250):
        sc = algebras[rng.integers(len(algebras))]
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        geo, conf = residuals(sc, u)
        geo2, conf2 = residuals(sc, -u)
        assert geo2 == pytest.approx(geo, abs=1e-10)
        assert conf2 == pytest.approx(conf, abs=1e-10)

        gamma = connection(sc).gamma
        h1, h2 = orthonormal_frame(u)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        r1 = np.cos(theta) * h1 + np.sin(theta) * h2
        r2 = -np.sin(theta) * h1 + np.cos(theta) * h2
        grad = np.einsum("ijk,j->ik", gamma, u)
        s11 = r1 @ grad @ r1
        s22 = r2 @ grad @ r2
        s12 = r1 @ grad @ r2 + r2 @ grad @ r1
        conf_rot = np.hypot(s11 - s22, s12)
        assert conf_rot == pytest.approx(conf, abs=1e-10)


def test_search_sol_finds_nothing():
    rep = search_directions(catalog("Sol3", 1.0).constants)
    assert not rep.constant_curvature
    assert rep.directions == ()
    assert not rep.admits
    assert rep.lattice_min_residual > 1e-2
    assert rep.lattice_size == 20000


def test_search_g4_finds_nothing():
    rep = search_directions(catalog("G4").constants)
    assert not rep.admits
    assert rep.lattice_min_residual > 1e-2


def test_search_nil_finds_vertical_axis():
    rep = search_directions(catalog("Nil3").constants)
    assert not rep.constant_curvature
    assert rep.admits
    assert len(rep.directions) == 1
    cand = rep.directions[0]
    assert abs(cand.direction @ Z) > 1.0 - 1e-10
    assert cand.direction[2] > 0  # canonical sign
    assert cand.total_residual_sq < 1e-14


def test_canonical_sign_makes_the_first_of_two_largest_components_positive():
    # Milnor n = [[1, -1, 0], [-1, 1, 0], [0, 0, 0]] is type II, and its one
    # direction has |u_x| = |u_y| exactly; np.argmax picks x, so u_x > 0
    n = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    rep = search_directions(StructureConstants(reconstruct(n, np.zeros(3))))
    assert [cand.family.tag for cand in rep.directions] == ["II"]
    u = rep.directions[0].direction.tolist()
    assert u == [0.7071067811865475, -0.7071067811865475, -0.0]
    assert abs(u[0]) == abs(u[1])

def test_search_h2xr_and_sl2():
    for name in ["H2xR", "SL2R~"]:
        rep = search_directions(catalog(name).constants)
        assert len(rep.directions) == 1, name
        cand = rep.directions[0]
        assert abs(cand.direction @ Z) > 1.0 - 1e-10
        assert cand.total_residual_sq < 1e-14


def test_search_constant_curvature_short_circuit():
    for name, alpha in [("R3", None), ("H3", None), ("SU2", None), ("G7", 1.0)]:
        rep = search_directions(catalog(name, alpha).constants)
        assert rep.constant_curvature, name
        assert rep.directions == ()
        assert rep.admits
        assert rep.lattice_min_residual is None


def test_search_rejects_non_lie():
    sc = constants_from_brackets(xy=(0, 0, 1), zx=(1, 1, 0), zy=(-1, 0, 0))
    with pytest.raises(NotLieAlgebraError):
        search_directions(sc)


def test_search_deterministic():
    sc = catalog("Nil3").constants
    a = search_directions(sc)
    b = search_directions(sc)
    assert len(a.directions) == len(b.directions)
    for ca, cb in zip(a.directions, b.directions):
        assert ca.direction.tobytes() == cb.direction.tobytes()
        assert ca.geodesic_residual == cb.geodesic_residual
        assert ca.conformal_residual == cb.conformal_residual


def test_search_equivariant_under_rotation():
    rng = np.random.default_rng(1)
    for name in ["Nil3", "H2xR", "SL2R~"]:
        sc = catalog(name).constants
        base = search_directions(sc).directions
        for _ in range(10):
            p = random_orthogonal(rng)
            moved = search_directions(change_basis(sc, p)).directions
            assert len(moved) == len(base)
            for b, m in zip(base, moved):
                overlap = abs(float(m.direction @ (p.T @ b.direction)))
                assert overlap > 1.0 - 1e-10


def test_adapt_basis_oracles():
    nil = catalog("Nil3").constants
    assert adapt_basis(nil, Z).as_tuple() == pytest.approx((0, 0, 0, 0, 1), abs=1e-12)
    h3 = catalog("H3").constants
    assert adapt_basis(h3, Z).as_tuple() == pytest.approx((1, 0, 0, 0, 0), abs=1e-12)
    sl2 = catalog("SL2R~").constants
    assert adapt_basis(sl2, Z).as_tuple() == pytest.approx(
        (0, 2, 0, 0, -2), abs=1e-12
    )
    su2 = catalog("SU2").constants
    assert adapt_basis(su2, Z).as_tuple() == pytest.approx((0, 2, 0, 0, 2), abs=1e-12)


def test_adapt_basis_rejects_bad_direction():
    sol = catalog("Sol3", 1.0).constants
    with pytest.raises(ValueError, match="foliation conditions violated"):
        adapt_basis(sol, Z)


def test_adapt_basis_params_classify_like_parent():
    # reading the bracket coefficients off a foliation direction must not
    # change the isomorphism type
    for name in ["Nil3", "H2xR", "SL2R~"]:
        sc = catalog(name).constants
        rep = search_directions(sc)
        for cand in rep.directions:
            params = adapt_basis(sc, cand.direction)
            assert jacobi_constraints(params) <= 1e-7
            assert same_type(classify_family(params), classify(sc), tol=1e-6)


def test_adapt_basis_matches_change_basis_route():
    """The frame (h1, h2, u) is orthonormal, so rebasing by its transpose
    reads off the coefficients that change_basis, which inverts the frame
    through an SVD, gives, up to round-off."""
    checked = 0
    for sc, metric in _scale_inputs(seed=31, per_row=1, per_family=20):
        sc = orthonormalize(sc, metric)
        for cand in search_directions(sc).directions:
            u = cand.direction
            t = change_basis(sc, np.column_stack([*orthonormal_frame(u), u])).c
            want = (
                0.5 * (t[2, 0, 0] + t[2, 1, 1]),
                0.5 * (t[2, 0, 1] - t[2, 1, 0]),
                t[0, 1, 0],
                t[0, 1, 1],
                t[0, 1, 2],
            )
            gap = np.abs(np.subtract(cand.adapted.as_tuple(), want)).max()
            assert gap <= 1e-15 * np.linalg.norm(sc.c)
            checked += 1
    assert checked >= 40


def test_jacobi_constraints_examples():
    assert jacobi_constraints(AdaptedBracketParams(0, 1, 0, 0, 5)) == 0.0
    assert jacobi_constraints(AdaptedBracketParams(1, 0, 1, 0, 0)) == 1.0
    assert jacobi_constraints(AdaptedBracketParams(0, 0, 3, 4, 7)) == 0.0
    assert jacobi_constraints(AdaptedBracketParams(1, 0, 0, 0, 2)) == 2.0
    # a NaN in any one coefficient of a valid IX sample gives NaN
    for k in range(5):
        values = [0.0, 1.0, 0.0, 0.0, 1.0]
        values[k] = math.nan
        assert math.isnan(jacobi_constraints(AdaptedBracketParams(*values)))


def test_jacobi_constraints_scalar_semantics():
    # finite coefficients whose middle product overflows to inf - inf: the
    # other two read 0 and inf, and builtin max alone would return inf
    assert math.isnan(jacobi_constraints(AdaptedBracketParams(1e308, 1e308, 10, -10, 0)))
    # a NaN in the first product only, from inf * 0
    assert math.isnan(jacobi_constraints(AdaptedBracketParams(math.inf, 0, 0, 0, 0)))
    worst = jacobi_constraints(AdaptedBracketParams(1, 0, 1, 0, 2))
    assert type(worst) is float and worst == 2.0


def test_adapted_constants_brackets():
    params = AdaptedBracketParams(a=1.0, b=2.0, x=3.0, y=4.0, z=5.0)
    sc = adapted_constants(params)
    assert np.allclose(sc.c[0, 1], [3.0, 4.0, 5.0])
    assert np.allclose(sc.c[2, 0], [1.0, 2.0, 0.0])
    assert np.allclose(sc.c[2, 1], [-2.0, 1.0, 0.0])


def test_constraint_equivalence_sampling():
    rng = np.random.default_rng(2)
    families = enumerate_families()
    for _ in range(1000):
        t = rng.standard_normal(5)
        if rng.random() < 0.5:
            family = families[rng.integers(3)]
            values = dict(zip("abxyz", t))
            for name in family.zero_coefficients:
                values[name] = 0.0
            t = [values[k] for k in "abxyz"]
        params = AdaptedBracketParams(*t)
        on_variety = jacobi_constraints(params) <= 1e-12
        is_lie = jacobi_residual(adapted_constants(params)) <= 1e-10
        assert on_variety == is_lie


def test_classify_family_examples():
    assert classify_family(AdaptedBracketParams(0, 0, 0, 0, 1)).tag == "II"
    assert classify_family(AdaptedBracketParams(0, 0, 0, 0, -3)).tag == "II"
    assert classify_family(AdaptedBracketParams(1, 0, 0, 0, 0)).tag == "V"
    assert classify_family(AdaptedBracketParams(0, 2, 0, 0, 2)).tag == "IX"
    assert classify_family(AdaptedBracketParams(0, 2, 0, 0, -2)).tag == "VIII"
    assert classify_family(AdaptedBracketParams(0, -2, 0, 0, 1)).tag == "VIII"
    assert classify_family(AdaptedBracketParams(0, 0, 0, 0, 0)).tag == "I"
    assert classify_family(AdaptedBracketParams(0, 0, 1, 0, 5)).tag == "III"
    assert classify_family(AdaptedBracketParams(0, 0, 0, -2, 0)).tag == "III"
    got = classify_family(AdaptedBracketParams(2, 1, 0, 0, 0))
    assert got.tag == "VII" and got.param == pytest.approx(2.0)
    got = classify_family(AdaptedBracketParams(0, 3, 0, 0, 0))
    assert got.tag == "VII" and got.param == pytest.approx(0.0)


def test_classify_family_breaks_distance_ties_toward_the_first_family():
    # at tol 0.3 these violate the constraints by 0.25 and sit at equal
    # distance from two or three families, whose case analyses disagree;
    # the first family wins, as np.argmin picks the first minimum
    got = classify_family(AdaptedBracketParams(0.5, 0.6, 0, 0, 0.5), tol=0.3)
    assert got == BianchiType("VII", 0.5 / 0.6)  # family x=y=a=0 gives IX
    got = classify_family(AdaptedBracketParams(0.5, 0, 0.5, 0, 0), tol=0.3)
    assert got == BianchiType("III")  # the other two give V and I


def test_classify_family_rejects_violations():
    with pytest.raises(ValueError, match="constraints"):
        classify_family(AdaptedBracketParams(1, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="constraints"):
        classify_family(AdaptedBracketParams(1, 1, 1, 1, 0))
    # NaN fails the tolerance test: these came out II and V
    nan = math.nan
    for params in ((0, nan, 0, 0, 1), (1, 0, nan, 0, 0), (0, 1, 0, 0, nan)):
        with pytest.raises(ValueError, match=r"constraints \(nan\)"):
            classify_family(AdaptedBracketParams(*params))


def test_classify_family_agrees_with_classifier():
    rng = np.random.default_rng(3)
    families = enumerate_families()
    skipped = 0
    for _ in range(1000):
        params = families[rng.integers(3)].sample(rng)
        by_family = classify_family(params)
        if by_family.tag == "VII" and by_family.param > 100.0:
            # the tensor classifier resolves the rotation part only down to
            # a relative discriminant of 1e-6, i.e. VII parameters up to
            # about 700; beyond that the sample is indistinguishable from
            # the defective IV/V boundary at double precision
            skipped += 1
            continue
        by_tensor = classify(adapted_constants(params))
        assert same_type(by_family, by_tensor, tol=1e-9), params.as_tuple()
    assert skipped < 10


def test_enumerate_families_shape():
    families = enumerate_families()
    assert len(families) == 3
    names = [f.name for f in families]
    assert names == ["a=b=0", "x=y=z=0", "x=y=a=0"]
    union = frozenset().union(*(f.attainable_types for f in families))
    assert union == {"I", "II", "III", "V", "VII", "VIII", "IX"}
    assert "IV" not in union and "VI" not in union
    rng = np.random.default_rng(4)
    for family in families:
        for _ in range(100):
            params = family.sample(rng)
            for coeff in family.zero_coefficients:
                assert getattr(params, coeff) == 0.0
            assert jacobi_constraints(params) == 0.0


def test_admits_harmonic_morphism():
    assert admits_harmonic_morphism(catalog("Nil3").constants, trials=3) == (
        True,
        True,
    )
    assert admits_harmonic_morphism(catalog("R3").constants, trials=3) == (
        True,
        True,
    )
    assert admits_harmonic_morphism(catalog("Sol3", 1.0).constants, trials=3) == (
        False,
        False,
    )
    assert admits_harmonic_morphism(catalog("G4").constants, trials=3) == (
        False,
        False,
    )


def test_negative_counts_and_seeds_are_refused_before_any_search(monkeypatch):
    # trials=-5 used to answer (False, False), random_metrics(-3) [], and a
    # negative seed failed only once a metric was drawn, in numpy's words
    monkeypatch.setattr(foliation, "search_directions", None)
    g4 = catalog("G4").constants
    for call, message in (
        (lambda: admits_harmonic_morphism(g4, trials=-5), "trials"),
        (lambda: admits_harmonic_morphism(g4, trials=0, seed=-1), "seed"),
        (lambda: admits_harmonic_morphism(g4, trials=3, seed=-1), "seed"),
        (lambda: random_metrics(-3), "count"),
        (lambda: random_metrics(0, seed=-1), "seed"),
        (lambda: random_metrics(2, seed=-1), "seed"),
    ):
        with pytest.raises(ValueError, match=f"^{message} must be nonnegative$"):
            call()


def test_random_metrics_deterministic_and_spd():
    a = random_metrics(5, seed=42)
    b = random_metrics(5, seed=42)
    for ma, mb in zip(a, b):
        assert ma.g.tobytes() == mb.g.tobytes()
    for m in a:
        assert np.all(np.linalg.eigvalsh(m.g) > 0)
    assert random_metrics(0) == []


def test_direction_arrays_read_only():
    rep = search_directions(catalog("Nil3").constants)
    with pytest.raises(ValueError):
        rep.directions[0].direction[0] = 1.0


def test_search_after_orthonormalize_keeps_type_ii_foliation():
    # a non-identity metric moves the special direction but not existence
    sc = catalog("Nil3").constants
    metric = MetricSpec(np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]))
    rep = search_directions(orthonormalize(sc, metric))
    assert rep.admits
    assert 1 <= len(rep.directions) <= 2
    for cand in rep.directions:
        assert cand.total_residual_sq < 1e-14


# ------------------------------------------- frame-free residual properties

_CATALOG_ENTRIES = [
    ("R3", None), ("Nil3", None), ("H2xR", None), ("G4", None), ("H3", None),
    ("Sol3", 0.5), ("Sol3", 1.0), ("Sol3", 2.0), ("G7", 0.0), ("G7", 1.0),
    ("G7", 2.0), ("SL2R~", None), ("SU2", None),
]


@st.composite
def metric_algebras_and_directions(draw):
    """A catalog bracket in a random well-conditioned basis, orthonormalized
    against a random metric, with a random unit direction."""
    name, alpha = draw(st.sampled_from(_CATALOG_ENTRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
    sc = orthonormalize(sc, MetricSpec(random_spd(rng)))
    u = rng.standard_normal(3)
    return sc, u / np.linalg.norm(u)


_PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)

_CUBIC = tuple(itertools.combinations_with_replacement(range(3), 3))


def _cubic_rows(u):
    """The ten cubic monomials u_a u_b u_c of the unit vector ``u``."""
    return np.array([u[a] * u[b] * u[c] for a, b, c in _CUBIC])


def _quadratic_form(gamma):
    """The 10x10 Q with r(u) = m(u)^T Q m(u) for unit u, m the cubic
    monomials of u: homogenised, |u|^2 |du|^2 is the sum of (u_l du_k)^2 and
    A becomes |u|^2 T - u du^T.  An oracle for r independent of
    ``foliation._residual_vector``."""
    cubic_sum = np.zeros((3, 3, 3, len(_CUBIC)))
    for abc in np.ndindex(3, 3, 3):
        cubic_sum[abc][_CUBIC.index(tuple(sorted(abc)))] = 1.0
    u_du = np.einsum("bck,lbcm->lkm", gamma, cubic_sum)
    a = np.einsum("ick,aacm->ikm", gamma, cubic_sum) - u_du
    trace = np.einsum("iim->m", a)
    q = (
        np.einsum("lkm,lkn->mn", u_du, u_du)
        + np.einsum("ikm,ikn->mn", a, a)
        + np.einsum("ikm,kin->mn", a, a)
        - np.outer(trace, trace)
    )
    return 0.5 * (q + q.T)


@_PROPERTY_SETTINGS
@given(metric_algebras_and_directions())
def test_quadratic_form_matches_residuals(case):
    sc, u = case
    m = _cubic_rows(u)
    form = float(m @ _quadratic_form(connection(sc).gamma) @ m)
    geo, conf = residuals(sc, u)
    scale_sq = max(float(np.sum(sc.c * sc.c)), 1.0)
    assert abs(form - (geo * geo + conf * conf)) <= 1e-12 * scale_sq


@_PROPERTY_SETTINGS
@given(metric_algebras_and_directions())
def test_milnor_identity_gives_geodesic_residual(case):
    # nabla_u u = u x n u + a - (a.u) u in Milnor's (n, a) decomposition
    sc, u = case
    dec = milnor_decompose(sc)
    milnor = np.cross(u, dec.n @ u) + dec.a - (dec.a @ u) * u
    du = foliation._residual_vector(connection(sc).gamma, u)[:3]
    assert np.linalg.norm(milnor - du) <= 1e-12 * max(np.linalg.norm(sc.c), 1.0)


@_PROPERTY_SETTINGS
@given(metric_algebras_and_directions())
def test_candidates_carry_adapted_family(case):
    sc, _ = case
    norm = float(np.linalg.norm(sc.c))
    for cand in search_directions(sc).directions:
        assert cand.adapted == adapt_basis(sc, cand.direction)
        unit = AdaptedBracketParams(*(x / norm for x in cand.adapted.as_tuple()))
        noise = max(cand.geodesic_residual, cand.conformal_residual) / norm
        assert cand.family == classify_family(unit, tol=max(1e-9, 10.0 * noise))
        assert same_type(cand.family, classify(sc), tol=1e-6)


@st.composite
def planted_foliations(draw, next_to_type_ii=False):
    """A family sample in a random basis, orthonormalized against the metric
    s p^T p that keeps its adapted frame orthogonal, with the planted
    direction Z of that frame in the resulting orthonormal basis.

    ``next_to_type_ii`` draws a=b=0 with x and y shrunk by 1e-4 to 1e-8: type
    III next to type II, where |a| << |c| and n has two nearly equal
    eigenvalues, so its eigenvectors are ill-determined.  The planted
    direction is central, and the centre stays well-conditioned there."""
    if next_to_type_ii:
        family = enumerate_families()[0]
        shrink = 10.0 ** -draw(st.floats(4.0, 8.0))
    else:
        family = draw(st.sampled_from(enumerate_families()))
        shrink = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    p = random_gl(rng)
    metric = MetricSpec(scale * p.T @ p)
    params = family.sample(rng)
    params = dataclasses.replace(params, x=shrink * params.x, y=shrink * params.y)
    sc = change_basis(adapted_constants(params), p)
    # orthonormalize uses the Cholesky basis, in which coordinates are L^T x
    planted = np.linalg.cholesky(metric.g).T @ np.linalg.solve(p, Z)
    return orthonormalize(sc, metric), planted / np.linalg.norm(planted)


def _assert_recalls(sc, planted, angle_tol):
    rep = search_directions(sc)
    if rep.constant_curvature:
        return
    angles = [
        np.arctan2(
            np.linalg.norm(np.cross(cand.direction, planted)),
            abs(cand.direction @ planted),
        )
        for cand in rep.directions
    ]
    assert min(angles, default=np.inf) <= angle_tol
    a = milnor_decompose(sc).a
    for cand in rep.directions:
        assert abs(cand.direction @ a) <= 1e-9 * np.linalg.norm(sc.c)


@_PROPERTY_SETTINGS
@given(planted_foliations())
def test_search_recalls_planted_direction(case):
    _assert_recalls(*case, angle_tol=1e-9)


@_PROPERTY_SETTINGS
@given(planted_foliations(next_to_type_ii=True))
def test_search_recalls_planted_direction_next_to_type_ii(case):
    _assert_recalls(*case, angle_tol=1e-10)


# ------------------------------------------------------- scale invariance


def _scaled_metric(name, alpha, scale):
    metric = MetricSpec(scale * np.eye(3))
    return orthonormalize(catalog(name, alpha).constants, metric)


@pytest.mark.parametrize("name, alpha", [("Sol3", 1.0), ("G4", None)])
def test_large_metric_scale_keeps_types_iv_vi_non_admitting(name, alpha):
    rep = search_directions(_scaled_metric(name, alpha, 1e10))
    assert not rep.constant_curvature
    assert not rep.admits


def test_catalog_verdicts_invariant_under_metric_scale():
    def verdict(sc):
        rep = search_directions(sc)
        spectrum = tuple(m for _, m in curvature(sc).ricci_spectrum)
        tags = [cand.family.tag for cand in rep.directions]
        return rep.constant_curvature, rep.admits, tags, spectrum

    for name, alpha in _CATALOG_ENTRIES:
        want = verdict(catalog(name, alpha).constants)
        for k in range(-12, 13, 2):
            got = verdict(_scaled_metric(name, alpha, 10.0**k))
            assert got == want, (name, alpha, k)


def _scale_facts(sc, metric):
    """The reported facts that must not depend on scale (the family tags
    give the direction count too), and the type, whose parameter is
    compared to 6 digits."""
    sc = orthonormalize(sc, metric)
    bt, rep = classify(sc), search_directions(sc)
    spectrum = tuple(m for _, m in curvature(sc).ricci_spectrum)
    tags = tuple(cand.family.tag for cand in rep.directions)
    return (bt.tag, rep.constant_curvature, spectrum, rep.admits, tags), bt


def _scale_inputs(seed, per_row=2, per_family=3):
    """(constants, metric): each catalog row in random bases (cond < 1e3)
    under random metrics, and each planted family in random bases under the
    metric that keeps its adapted frame orthogonal."""
    rng = np.random.default_rng(seed)
    for name, alpha in _CATALOG_ENTRIES:
        for _ in range(per_row):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            yield sc, MetricSpec(random_spd(rng))
    for family in enumerate_families():
        for _ in range(per_family):
            p = random_gl(rng)
            yield change_basis(adapted_constants(family.sample(rng)), p), MetricSpec(p.T @ p)


def test_reported_facts_invariant_under_bracket_and_metric_scale():
    for sc, metric in _scale_inputs(seed=9):
        want, want_type = _scale_facts(sc, metric)
        for k in range(-12, 13, 2):
            s = 10.0**k
            for scaled in (
                _scale_facts(StructureConstants(s * sc.c), metric),
                _scale_facts(sc, MetricSpec(s * metric.g)),
            ):
                assert scaled[0] == want, (want_type, k)
                assert same_type(scaled[1], want_type, tol=1e-6), (want_type, k)


# ------------------------------------------------ lattice certificate


def test_lattice_table_holds_sextic_monomials_read_only():
    """The table holds, per lattice point, the sextics (s . p)^6 of the 28
    samples s, a basis of the sextic forms on the sphere (``_INVERSE``
    inverts their matrix at the samples)."""
    points, table = foliation._lattice()
    inverse = foliation._INVERSE
    assert table.shape == (28, LATTICE_DEFAULT) and table.dtype == np.float32
    assert not (points.flags.writeable or table.flags.writeable or inverse.flags.writeable)
    powers = (foliation._SAMPLES @ points.T) ** 6
    # one float32 rounding of the float64 power (2**-149: float32 subnormals)
    assert np.all(np.abs(table - powers) <= 2.0**-24 * powers + 2.0**-149)
    basis = (foliation._SAMPLES @ foliation._SAMPLES.T) ** 6
    assert np.allclose(inverse @ basis, np.eye(28), atol=1e-12)


def _interpolated_sextic(gamma, u):
    """r at the unit vectors ``u`` (shape (n, 3)) through the sextic fixed by
    its values at ``_SAMPLES``."""
    v = foliation._residual_vector(gamma, foliation._SAMPLES)
    coeff = foliation._INVERSE @ np.vecdot(v, v)
    return ((u @ foliation._SAMPLES.T) ** 6) @ coeff


def test_sextic_map_matches_quadratic_form_and_residuals():
    rng = np.random.default_rng(15)
    for sc, _ in brackets_across_scales(seed=15):
        gamma = connection(sc).gamma
        scale_sq = float(np.sum(sc.c * sc.c))
        u = rng.standard_normal((8, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sextic = _interpolated_sextic(gamma, u)
        m = np.stack([_cubic_rows(x) for x in u])
        form = np.einsum("nm,mk,nk->n", m, _quadratic_form(gamma), m)
        assert np.abs(sextic - form).max() <= 1e-12 * scale_sq
        v = foliation._residual_vector(gamma, u)
        assert np.abs(sextic - np.vecdot(v, v)).max() <= 1e-12 * scale_sq


def _float64_scan(gamma):
    """The squared residual at every lattice point, each point through a
    vector-matrix product of its own, as the certificate's recheck does."""
    v = foliation._residual_vector(gamma, foliation._lattice()[0][:, None, :])
    return np.vecdot(v, v)[:, 0]


def test_sample_interpolation_reproduces_residuals():
    """The sextic whose coefficients in the basis ``(s_j . u)^6`` the search
    forms (rows 12-39 of its product) is r at every lattice point, within
    a thousandth of the ``_SCREEN_SLACK * |c|_F^2`` that ``_screen`` proves
    for every unit direction."""
    points = foliation._lattice()[0]
    powers = (foliation._SAMPLES @ points.T) ** 6
    for sc, _ in brackets_across_scales(seed=15, per_scale=4):
        check = algebra._scaled_jacobi(sc, foliation._SEARCH)
        want = _float64_scan(geometry._gamma(check.scaled))
        gap = np.abs(check.quadratic[12:] @ powers - want).max()
        assert gap <= foliation._SCREEN_SLACK / 1000 * check.scale_sq


def _lattice_corpus():
    """(check, gamma): the search's Jacobi check and the connection table of
    its scaled brackets, on every third input of ``_screen_corpus``, whose
    first third holds its ``tol = inf`` tensors."""
    for sc, _ in itertools.islice(_screen_corpus(), 0, None, 3):
        check = algebra._scaled_jacobi(sc, foliation._SEARCH)
        yield check, geometry._gamma(check.scaled)


def test_float32_lattice_screen_is_within_its_bound():
    """At every lattice point, the float32 screen of the search's sextic
    coefficients is within ``31 e S + _SCREEN_SLACK * C`` of the kernel
    (``_lattice_floor``), for ``e = 2**-24``, ``S = sum|coeff|`` and
    ``C = |c|_F^2`` of the scaled brackets."""
    table = foliation._lattice()[1]
    inputs = 0
    for check, gamma in _lattice_corpus():
        coeff = check.quadratic[12:]
        screen = coeff.astype(np.float32) @ table
        bound = 31 * 2.0**-24 * np.abs(coeff).sum() + foliation._SCREEN_SLACK * check.scale_sq
        assert np.abs(screen - _float64_scan(gamma)).max() <= bound
        inputs += 1
    assert inputs == 76


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(metric_algebras_and_directions(), st.sampled_from([1.0, 1e-25, 1e25]))
def test_certificate_is_the_least_of_a_float64_scan(case, scale):
    sc = StructureConstants(scale * case[0].c)
    rep = search_directions(sc)
    if rep.constant_curvature:
        return
    assert rep.lattice_min_residual == float(_float64_scan(connection(sc).gamma).min())


def test_certificate_is_the_least_of_a_float64_scan_beyond_lie_inputs():
    """On the inputs of ``_lattice_corpus``, non-Lie tensors searched with
    ``tol = inf`` and brackets at 1e-160 .. 1e150 included, the floor is the
    least of a float64 scan of the scaled brackets, bit for bit."""
    for check, gamma in _lattice_corpus():
        want = float(_float64_scan(gamma).min())
        assert foliation._lattice_floor(check).hex() == want.hex()


def test_certificate_runs_the_kernel_only_on_its_recheck(monkeypatch):
    """A certificate read measures only the lattice points that pass the
    float32 screen, as one (n, 1, 3) stack, and never evaluates the kernel
    at the interpolation samples: the coefficients are the search's."""
    shapes = []
    kernel = foliation._residual_vector

    def recorded(gamma, u):
        shapes.append(u.shape)
        return kernel(gamma, u)

    monkeypatch.setattr(foliation, "_residual_vector", recorded)
    rng = np.random.default_rng(89)
    for name, alpha in (("G4", None), ("Sol3", 0.5), ("Sol3", 1.0), ("Nil3", None)):
        for _ in range(3):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            rep = search_directions(orthonormalize(sc, MetricSpec(random_spd(rng))))
            shapes.clear()
            assert rep.lattice_min_residual >= 0.0
            (n, one, three), = shapes
            assert 1 <= n < LATTICE_DEFAULT and (one, three) == (1, 3)


@pytest.fixture
def lattice_scans(monkeypatch):
    """The Jacobi checks of every lattice scan made while the test runs."""
    scans = []
    floor = foliation._lattice_floor

    def counted(check):
        scans.append(check)
        return floor(check)

    monkeypatch.setattr(foliation, "_lattice_floor", counted)
    return scans


def test_verdict_never_scans_the_lattice(lattice_scans):
    for sc in (catalog("G4").constants, catalog("Sol3", 1.0).constants):
        assert not search_directions(sc).admits
    assert admits_harmonic_morphism(catalog("G4").constants, trials=5) == (
        False,
        False,
    )
    assert lattice_scans == []


def test_certificate_scans_once_on_first_read(lattice_scans):
    rep = search_directions(catalog("Sol3", 1.0).constants)
    first = rep.lattice_min_residual
    assert len(lattice_scans) == 1
    assert rep.lattice_min_residual == first
    assert len(lattice_scans) == 1
    rep = search_directions(catalog("H3").constants)
    assert rep.constant_curvature
    assert rep.lattice_min_residual is None
    assert len(lattice_scans) == 1


def test_lattice_floor_when_every_point_passes_the_screen(monkeypatch):
    """A kernel whose r is |u|^2, with the sextic coefficients of |u|^6,
    which is 1 on the sphere: the float32 values differ by round-off only,
    so every point passes the screen and is measured again, and the floor
    is still the least of the float64 scan."""
    measured = []

    def unit_sphere(gamma, u):
        measured.append(u.shape)
        return np.concatenate((u, np.zeros(u.shape[:-1] + (9,))), axis=-1)

    monkeypatch.setattr(foliation, "_residual_vector", unit_sphere)
    coeff = foliation._INVERSE @ np.ones(28)
    check = algebra._ScaledJacobi(
        np.zeros((3, 3, 3)), None, np.concatenate((np.zeros(12), coeff)), 0.0, 1.0, 0
    )
    got = foliation._lattice_floor(check)
    assert measured == [(LATTICE_DEFAULT, 1, 3)]
    assert got == float(_float64_scan(None).min())


def test_search_computes_the_jacobi_residual_once(monkeypatch):
    # every Jacobi residual, scaled or not, goes through the array kernel
    calls = []
    kernel = algebra._jacobi

    def counted(c):
        calls.append(c)
        return kernel(c)

    monkeypatch.setattr(algebra, "_jacobi", counted)
    rep = search_directions(catalog("Nil3").constants)
    assert len(rep.directions) == 1
    assert len(calls) == 1


def _count_lapack(monkeypatch):
    """The names of the gufuncs that ``algebra._lapack`` runs from now on,
    counted in every module that calls it."""
    calls = []
    lapack = algebra._lapack

    def counted(name, a):
        calls.append(name)
        return lapack(name, a)

    for module in (algebra, bianchi, geometry, foliation):
        if hasattr(module, "_lapack"):
            monkeypatch.setattr(module, "_lapack", counted)
    return calls


def test_verdict_path_skips_report_only_work(monkeypatch):
    """A search of a non-constant metric factorises Milnor's n (eigh) and the
    centre map (thin SVD), and nothing else: no eigvalsh, whose Ricci
    spectrum is the report's.  orthonormalize takes no SVD of a
    well-conditioned Cholesky factor and inverts nothing.  Every
    factorisation goes through _lapack (tests/test_package.py checks that no
    function calls a numpy.linalg wrapper), so the counter sees them all."""
    calls = _count_lapack(monkeypatch)
    rng = np.random.default_rng(3)
    for name, alpha in (("Sol3", 2.0), ("G4", None), ("Nil3", None)):
        sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
        metric = MetricSpec(random_spd(rng))
        assert calls[-2:] == ["svd_s", "cholesky_lo"]
        calls.clear()
        sc = orthonormalize(sc, metric)
        rep = search_directions(sc)
        assert not rep.constant_curvature and rep.admits == (name == "Nil3")
        assert calls == ["eigh_lo", "svd_s"]
    # the counter sees the calls that remain
    calls.clear()
    curvature(sc)
    classify(sc)
    assert calls == ["eigvalsh_lo", "eigvalsh_lo"]


def test_screened_search_builds_no_connection_table(monkeypatch):
    """A search that the screen decides keeps its Jacobi check and forms no
    connection table; the first read of the certificate builds the table
    once, from the check's scaled brackets, and its floor is the one of the
    check, bit for bit."""
    calls = []
    table = geometry._gamma

    def counted(c):
        calls.append(c)
        return table(c)

    monkeypatch.setattr(foliation, "_gamma", counted)
    rng = np.random.default_rng(83)
    for name, alpha in (("G4", None), ("Sol3", 0.5), ("Sol3", 2.0)):
        for _ in range(4):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            sc = orthonormalize(sc, MetricSpec(random_spd(rng)))
            rep = search_directions(sc)
            assert not rep.admits and calls == []
            check = algebra._scaled_jacobi(sc, foliation._SEARCH)
            assert rep._check.k == check.k
            assert rep._check.scaled.tobytes() == check.scaled.tobytes()
            assert rep._check.quadratic.tobytes() == check.quadratic.tobytes()
            floor = rep.lattice_min_residual
            assert rep.lattice_min_residual is floor
            assert len(calls) == 1 and calls[0] is rep._check.scaled
            want = math.ldexp(foliation._lattice_floor(check), 2 * check.k)
            assert floor.hex() == want.hex()
            calls.clear()
    # constant curvature keeps no check and has no table and no floor
    rep = search_directions(catalog("SU2").constants)
    assert rep._check is None
    assert rep.lattice_min_residual is None and calls == []


def test_search_reads_its_tables_off_the_scaled_components(monkeypatch):
    """A non-constant search builds its connection table, Milnor's n and the
    Ricci rows from the scaled brackets and their products: it calls none
    of connection, milnor_decompose and _riemann.  curvature and the search
    take their constant flag from the one _is_constant, on the same nine
    Ricci floats, bit for bit."""

    def refused(*args, **kwargs):
        raise AssertionError("the search called a report-side kernel")

    with monkeypatch.context() as patch:
        for module in (algebra, bianchi, geometry, foliation):
            for name in ("connection", "milnor_decompose", "_riemann"):
                if hasattr(module, name):
                    patch.setattr(module, name, refused)
        rng = np.random.default_rng(3)
        for name, alpha in (("Sol3", 2.0), ("G4", None), ("Nil3", None)):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            sc = orthonormalize(sc, MetricSpec(random_spd(rng)))
            rep = search_directions(sc)
            assert not rep.constant_curvature and rep.admits == (name == "Nil3")

    decisions = []
    decide = geometry._is_constant

    def recorded(ricci, scale_sq):
        flag = decide(ricci, scale_sq)
        decisions.append((ricci.tobytes(), scale_sq, flag))
        return flag

    monkeypatch.setattr(geometry, "_is_constant", recorded)
    monkeypatch.setattr(foliation, "_is_constant", recorded)
    rng = np.random.default_rng(5)
    flags = set()
    for name, alpha in (("SU2", None), ("H3", None), ("G7", 1.0), ("G4", None)):
        entry = catalog(name, alpha)
        for metric in (entry.metric, MetricSpec(random_spd(rng))):
            sc = orthonormalize(entry.constants, metric)
            report = curvature(sc)
            constant = search_directions(sc).constant_curvature
            assert len(decisions) == 2
            reported, searched = decisions
            assert len(reported[0]) == 9 * 8 and reported == searched
            assert constant == reported[2] == (report.constant_curvature is not None)
            flags.add(constant)
            decisions.clear()
    assert flags == {True, False}


_UNIT_MODEL = np.einsum("il,jk->ijkl", np.eye(3), np.eye(3)) - np.einsum(
    "ik,jl->ijkl", np.eye(3), np.eye(3)
)


def _constant_flags(sc):
    """The constant-curvature test on the whole Riemann tensor of the
    unscaled brackets, formed directly by _riemann: its largest entrywise
    deviation from the constant model of curvature ``scalar / 6`` against
    ``CONSTANT_CURVATURE_TOL * |c|_F^2``; and the report's flag, which
    decides on the nine Ricci floats."""
    riemann = _riemann(sc.c, connection(sc).gamma)
    scalar = float(np.einsum("ijji->", riemann))
    deviation = float(np.abs(riemann - scalar / 6.0 * _UNIT_MODEL).max())
    lean = deviation <= geometry.CONSTANT_CURVATURE_TOL * float(np.vdot(sc.c, sc.c))
    return lean, curvature(sc).constant_curvature is not None


def test_constant_curvature_test_matches_the_report():
    rng = np.random.default_rng(17)
    inputs = []
    for name, alpha in _CATALOG_ENTRIES:
        sc = catalog(name, alpha).constants
        p = random_gl(rng)
        inputs += [
            sc,
            change_basis(sc, random_orthogonal(rng)),
            orthonormalize(change_basis(sc, p), MetricSpec(random_spd(rng))),
            # p^T p makes the basis p orthonormal again
            orthonormalize(change_basis(sc, p), MetricSpec(p.T @ p)),
        ]
    flags = set()
    for sc in inputs:
        for k in range(-12, 13, 4):
            scaled = StructureConstants(10.0**k * sc.c)
            lean, report = _constant_flags(scaled)
            assert lean == report
            assert search_directions(scaled).constant_curvature == report
            flags.add(report)
    assert flags == {True, False}


@pytest.mark.parametrize("name, alpha", [("SU2", None), ("G7", 1.0), ("G7", 2.0)])
def test_constant_curvature_test_matches_the_report_at_the_tolerance(name, alpha):
    """Metrics I + t S, bisected in t to where the report's flag drops, and
    taken 1e-3 either side of it: the deviation is linear in t there, so
    they sit within about 1e-3 of CONSTANT_CURVATURE_TOL * |c|_F^2."""
    rng = np.random.default_rng(29)
    base = catalog(name, alpha).constants
    s = random_spd(rng)

    def moved(t):
        return orthonormalize(base, MetricSpec(np.eye(3) + t * s))

    lo, hi = 0.0, 1e-6
    assert _constant_flags(moved(lo)) == (True, True)
    assert _constant_flags(moved(hi)) == (False, False)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _constant_flags(moved(mid))[1] else (lo, mid)
    # at the edge itself the report and the search read the same Ricci rows
    # of the quadratic map, so their flags agree at every scale, bit for bit
    for t, want in ((lo, True), (hi, False)):
        sc = moved(t)
        assert _constant_flags(sc)[1] == want
        for k in range(-12, 13, 4):
            rescaled = StructureConstants(10.0**k * sc.c)
            report = curvature(rescaled).constant_curvature is not None
            assert search_directions(rescaled).constant_curvature == report
    # _riemann rounds differently from the map, and its test reads all 81
    # entries, so the independent route is held to the report only 1e-3 off
    # the edge
    for t, want in ((lo * (1 - 1e-3), True), (hi * (1 + 1e-3), False)):
        sc = moved(t)
        assert _constant_flags(sc) == (want, want)
        assert search_directions(sc).constant_curvature == want
        for k in range(-12, 13, 4):
            rescaled = StructureConstants(10.0**k * sc.c)
            assert _constant_flags(rescaled) == (want, want)
            assert search_directions(rescaled).constant_curvature == want


def _residual_vector_oracle(gamma, u):
    """The residual vector of a stack of directions, by einsum."""
    t = np.einsum("ijk,...j->...ik", gamma, u)
    du = np.einsum("...i,...ik->...k", u, t)
    a = t - np.einsum("...i,...k->...ik", u, du)
    trace = np.einsum("...ii->...", a)[..., None, None]
    tangent = np.eye(3) - np.einsum("...i,...k->...ik", u, u)
    s0 = 0.5 * (a + np.einsum("...ik->...ki", a)) - 0.5 * trace * tangent
    return np.concatenate((du, np.sqrt(2.0) * s0.reshape(u.shape[:-1] + (9,))), axis=-1)


def test_residual_vector_matches_einsum_oracle():
    rng = np.random.default_rng(23)
    for sc, _ in brackets_across_scales(seed=23):
        gamma = connection(sc).gamma
        u = rng.standard_normal((4, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        bound = 1e-13 * np.linalg.norm(sc.c)
        for point in (u, u[0]):
            got = foliation._residual_vector(gamma, point)
            assert got.shape == point.shape[:-1] + (12,)
            assert np.abs(got - _residual_vector_oracle(gamma, point)).max() <= bound


def test_search_jacobi_tolerance_is_relative():
    bad = constants_from_brackets(zx=(0, 0, 0.5), zy=(0.5, 0, 0))
    with pytest.raises(NotLieAlgebraError):
        search_directions(StructureConstants(1e-5 * bad.c))
    sol = StructureConstants(1e4 * catalog("Sol3", 2.0).constants.c)
    moved = change_basis(sol, random_gl(np.random.default_rng(0)))
    assert not search_directions(moved).admits


# ------------------------------------------------ the screen


def _screen_corpus():
    """(constants, tol): random antisymmetric tensors across scales,
    orthonormalized against random metrics and searched with ``tol = inf``
    (they are not Lie algebras); catalog rows in random bases and metrics at
    1e-160 .. 1e150; and G7 and H3 under ``I + t S``, ``t`` from 1e-12 to
    1e-2, where the curvature is constant only at ``t = 0``."""
    rng = np.random.default_rng(59)
    for sc, _ in brackets_across_scales(seed=59, per_scale=4):
        yield orthonormalize(sc, MetricSpec(random_spd(rng))), math.inf
    for name, alpha in _CATALOG_ENTRIES:
        for k in range(-160, 151, 31):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            sc = StructureConstants(10.0**k * sc.c)
            yield orthonormalize(sc, MetricSpec(random_spd(rng))), JACOBI_TOL
    s = random_spd(np.random.default_rng(29))
    for name, alpha in (("G7", 1.0), ("G7", 2.0), ("H3", None)):
        for t in np.geomspace(1e-12, 1e-2, 11):
            metric = MetricSpec(np.eye(3) + t * s)
            yield orthonormalize(catalog(name, alpha).constants, metric), JACOBI_TOL


def _hexed(values):
    return tuple(float(x).hex() for x in values)


def _report_bits(report):
    """Every field of a search report, floats as their hex strings."""
    check = report._check
    return (
        report.constant_curvature,
        report.admits,
        report.lattice_size,
        None if check is None else (check.k, check.scaled.tobytes()),
        None if check is None else check.quadratic.tobytes(),
        [
            (
                cand.direction.tobytes(),
                _hexed((cand.geodesic_residual, cand.conformal_residual)),
                _hexed(cand.adapted.as_tuple()),
                cand.family.tag,
                None if cand.family.param is None else _hexed((cand.family.param,)),
            )
            for cand in report.directions
        ],
    )


def _search_bits(sc, tol):
    try:
        return _report_bits(search_directions(sc, tol))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_screen_keeps_every_reported_bit(monkeypatch):
    """With the screen off, the kernel measures the four candidates of every
    search; with it on, every report is the same in every bit."""
    corpus = list(_screen_corpus())
    screened = [_search_bits(sc, tol) for sc, tol in corpus]
    monkeypatch.setattr(foliation, "_SCREEN_SLACK", math.inf)
    assert [_search_bits(sc, tol) for sc, tol in corpus] == screened
    verdicts = {bits[:2] for bits in screened if len(bits) > 2}
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_screen_is_within_its_slack_of_the_kernel(monkeypatch):
    """At the candidates and at random unit directions, the screened r is
    within a thousandth of ``_SCREEN_SLACK * |c|_F^2`` of the kernel's."""
    calls = []
    screen = foliation._screen

    def recorded(stack, coeff):
        calls.append((stack, coeff))
        return screen(stack, coeff)

    monkeypatch.setattr(foliation, "_screen", recorded)
    rng = np.random.default_rng(61)
    for sc, tol in _screen_corpus():
        search_directions(sc, tol)
        if not calls:  # constant curvature
            continue
        (stack, coeff), = calls
        calls.clear()
        u = rng.standard_normal((8, 3))
        check = algebra._scaled_jacobi(sc)
        gamma = geometry._gamma(check.scaled)
        for directions in (stack, u / np.linalg.norm(u, axis=1, keepdims=True)):
            v = foliation._residual_vector(gamma, directions)
            gap = np.abs(screen(directions, coeff) - np.vecdot(v, v)).max()
            assert gap <= foliation._SCREEN_SLACK / 1000 * check.scale_sq


def test_search_runs_the_kernel_only_where_a_candidate_might_pass(monkeypatch):
    shapes = []
    kernel = foliation._residual_vector

    def counted(gamma, u):
        shapes.append(u.shape)
        return kernel(gamma, u)

    monkeypatch.setattr(foliation, "_residual_vector", counted)
    rng = np.random.default_rng(67)
    for name, alpha in (("G4", None), ("Sol3", 0.5), ("Sol3", 1.0), ("Sol3", 2.0)):
        for _ in range(10):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            rep = search_directions(orthonormalize(sc, MetricSpec(random_spd(rng))))
            assert not rep.admits and rep._check is not None
    for name in ("R3", "H3", "SU2"):
        assert search_directions(catalog(name).constants).constant_curvature
    assert shapes == []
    # types II and III admit under every metric, and p^T p keeps a planted
    # family's adapted frame orthonormal; the family x = y = z = 0 is the
    # hyperbolic space, of constant curvature
    admitting = [
        (change_basis(catalog(name).constants, random_gl(rng)), MetricSpec(random_spd(rng)))
        for name in ("Nil3", "H2xR")
    ]
    a_b_zero, _, x_y_a_zero = enumerate_families()
    for family in (a_b_zero, x_y_a_zero) * 2:
        p = random_gl(rng)
        admitting.append(
            (change_basis(adapted_constants(family.sample(rng)), p), MetricSpec(p.T @ p))
        )
    for sc, metric in admitting:
        rep = search_directions(orthonormalize(sc, metric))
        assert rep.admits and not rep.constant_curvature
        assert shapes == [(4, 3)]
        shapes.clear()


def test_screen_rejects_only_above_its_threshold(monkeypatch):
    """The kernel is skipped only when every screened value exceeds
    ``(ACCEPT_RESIDUAL_SQ + _SCREEN_SLACK) * |c|_F^2``; a value at the
    threshold or a NaN, at any of the four positions, falls through, and the
    report is the same.  (``min`` over a list keeps a NaN only when it comes
    first, so each position is tried.)"""
    rng = np.random.default_rng(73)
    sc = change_basis(catalog("G4").constants, random_gl(rng))
    sc = orthonormalize(sc, MetricSpec(random_spd(rng)))
    check = algebra._scaled_jacobi(sc)
    # |c|_F^2 of the scaled brackets is not 1, so its factor in the threshold shows
    assert check.scale_sq != 1.0
    threshold = (foliation.ACCEPT_RESIDUAL_SQ + foliation._SCREEN_SLACK) * check.scale_sq
    want = _report_bits(search_directions(sc))
    kernel = foliation._residual_vector
    calls = []

    def counted(gamma, u):
        calls.append(u.shape)
        return kernel(gamma, u)

    monkeypatch.setattr(foliation, "_residual_vector", counted)
    above = math.nextafter(threshold, math.inf)
    cases = [(np.full(4, above), False)]
    for position in range(4):
        for value in (threshold, math.nan):
            values = np.full(4, above)
            values[position] = value
            cases.append((values, True))
    for values, runs in cases:
        monkeypatch.setattr(foliation, "_screen", lambda stack, coeff, v=values: v)
        assert _report_bits(search_directions(sc)) == want
        assert calls == ([(4, 3)] if runs else [])
        calls.clear()


def test_sextic_rows_carry_the_constants_of_the_screen_bound():
    """The figures of ``_screen``'s bound: the interpolation matrix has
    condition 231, ``sum|W| = 181`` and ``w = 21.5``; and ``W`` is within
    a tenth of its rounding budget ``28 * 231 * 181 e`` of the map formed in
    40-digit arithmetic from the same samples."""
    mp = pytest.importorskip("mpmath")
    samples = foliation._SAMPLES
    rows = foliation._SEARCH[12:]
    assert np.linalg.cond((samples @ samples.T) ** 6) <= 231
    assert np.abs(rows).sum() <= 181
    w = sum(np.linalg.norm(np.abs(row).reshape(9, 9), 2) for row in rows)
    assert w <= 21.5
    with mp.workdps(40):
        points = [[mp.mpf(x) for x in s] for s in samples.tolist()]
        gram = mp.matrix([[mp.fdot(s, t) ** 6 for t in points] for s in points])
        exact = []
        for u in points:
            # (du, S0) of each basis tensor at u, exactly: r = |du|^2 + 2 |S0|_F^2
            parts = []
            for e in algebra._BASIS_TENSORS:
                g = geometry._gamma(e)
                t = [[mp.fdot(g[i, :, k].tolist(), u) for k in range(3)] for i in range(3)]
                du = [mp.fdot(u, [t[i][k] for i in range(3)]) for k in range(3)]
                a = [[t[i][k] - u[i] * du[k] for k in range(3)] for i in range(3)]
                half = (a[0][0] + a[1][1] + a[2][2]) / 2
                s0 = [
                    (a[i][k] + a[k][i]) / 2 - half * (int(i == k) - u[i] * u[k])
                    for i in range(3)
                    for k in range(3)
                ]
                parts.append((du, s0))
            exact.append(
                [mp.fdot(da, db) + 2 * mp.fdot(sa, sb) for da, sa in parts for db, sb in parts]
            )
        exact = gram**-1 * mp.matrix(exact)
        error = sum(
            abs(mp.mpf(x) - exact[j, k]) for (j, k), x in np.ndenumerate(rows)
        )
    assert float(error) <= 28 * 231 * 181 * 2.0**-53 / 10


def test_search_map_keeps_the_quadratic_rows_bit_for_bit():
    """Rows 0-11 of the search's product are ``_QUADRATIC``'s product, bit
    for bit, so the search and ``curvature`` make one constant decision."""
    search = foliation._SEARCH
    assert search.shape == (40, 81) and not search.flags.writeable
    assert np.array_equal(search[:12], geometry._QUADRATIC)
    for sc, _ in brackets_across_scales(seed=71):
        products = algebra._products(algebra._normalised(sc.c)[0])[1]
        got = search @ products
        assert got[:12].tobytes() == (geometry._QUADRATIC @ products).tobytes()


def test_search_map_keeps_the_sextic_bits_of_the_riemann_layout():
    """The sextic rows 12-39 of ``_SEARCH`` give, bit for bit, rows 84-111
    of the (112, 81) map that stacked the 81 Riemann rows below the Jacobi
    rows, and so do its Jacobi rows 0-2: the screen, the certificate and the
    Jacobi residual read the same floats with nine Ricci rows in place of
    81 Riemann rows."""
    riemann_rows = algebra._polarize(lambda c: geometry._riemann(c, geometry._gamma(c)))
    layout = np.vstack((algebra._JACOBI_ROWS, riemann_rows, foliation._sextic_rows()))
    assert layout.shape == (112, 81)
    assert np.array_equal(foliation._SEARCH[12:], layout[84:])
    for sc, _ in brackets_across_scales(seed=103):
        products = algebra._products(algebra._normalised(sc.c)[0])[1]
        got, want = foliation._SEARCH @ products, layout @ products
        assert got[12:].tobytes() == want[84:].tobytes()
        assert got[:3].tobytes() == want[:3].tobytes()


# ------------------------------------------------ brackets whose squares underflow


def test_search_holds_where_the_brackets_square_to_zero():
    """At 2**-560, |c|_F^2 and every residual underflow to 0 unscaled; the
    search runs on the brackets times 2**-k, so its verdict, constant flag,
    directions and family types are those at scale 1."""
    rng = np.random.default_rng(47)
    for name, alpha in _CATALOG_ENTRIES:
        sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
        sc = orthonormalize(sc, MetricSpec(random_spd(rng)))
        want = search_directions(sc)
        got = search_directions(StructureConstants(np.ldexp(sc.c, -560)))
        assert (got.admits, got.constant_curvature) == (want.admits, want.constant_curvature)
        assert [c.family.tag for c in got.directions] == [c.family.tag for c in want.directions]
        for g, w in zip(got.directions, want.directions):
            assert np.abs(g.direction - w.direction).max() <= 1e-15
            assert same_type(g.family, w.family, tol=1e-12)
            # reported values are scaled back, here to 2**-560 times the values
            assert g.adapted.as_tuple() == tuple(
                math.ldexp(x, -560) for x in w.adapted.as_tuple()
            )
        if name in ("G4", "Sol3"):
            assert not got.admits
            assert got.lattice_min_residual == math.ldexp(want.lattice_min_residual, -1120)


@pytest.mark.parametrize("name, alpha", [("G4", None), ("Sol3", 2.0), ("Sol3", 1.0)])
def test_types_iv_and_vi_never_admit_at_tiny_decimal_scales(name, alpha):
    # at 1e-170 the unscaled Riemann tensor and its threshold both underflow
    # to 0, which used to read as constant curvature and admit
    sc = StructureConstants(1e-170 * catalog(name, alpha).constants.c)
    rep = search_directions(sc)
    assert not rep.constant_curvature and not rep.admits
    assert curvature(sc).constant_curvature is None
    assert admits_harmonic_morphism(sc, trials=3) == (False, False)


def test_admits_draws_its_metrics_one_at_a_time(monkeypatch):
    """A search that admits on the third sampled metric stops the draws
    there: no list of ``trials`` metrics is built first."""
    drawn = []
    spec = foliation.MetricSpec

    def counted(g):
        drawn.append(g)
        return spec(g)

    searches = []

    def search(sc):
        searches.append(sc)
        # the identity search, then the sampled metrics; admit on the third
        return dataclasses.replace(
            search_directions(catalog("G4").constants), admits=len(searches) == 4
        )

    monkeypatch.setattr(foliation, "MetricSpec", counted)
    monkeypatch.setattr(foliation, "search_directions", search)
    assert admits_harmonic_morphism(catalog("G4").constants, trials=100000) == (False, True)
    assert len(searches) == 4 and len(drawn) == 3


def test_admits_searches_the_metrics_of_random_metrics(monkeypatch):
    seen = []
    original = foliation.orthonormalize

    def recorded(sc, metric):
        seen.append(metric.g)
        return original(sc, metric)

    monkeypatch.setattr(foliation, "orthonormalize", recorded)
    assert admits_harmonic_morphism(catalog("G4").constants, trials=7, seed=5) == (False, False)
    want = random_metrics(7, seed=5)
    assert [g.tobytes() for g in seen] == [m.g.tobytes() for m in want]


def test_residuals_and_adapt_basis_hold_where_the_brackets_square_to_zero():
    # residuals of G4 along X at 1e-170 read (0, 0), a false foliation, and
    # adapt_basis refused Nil3's vertical axis there
    g4 = StructureConstants(1e-170 * catalog("G4").constants.c)
    assert residuals(g4, X)[0] > 0.0
    with pytest.raises(ValueError, match="foliation conditions violated"):
        adapt_basis(g4, X)
    for name, u in (("G4", X), ("Nil3", Z), ("H2xR", Z)):
        sc = catalog(name).constants
        tiny = StructureConstants(np.ldexp(sc.c, -560))
        assert residuals(tiny, u) == tuple(math.ldexp(r, -560) for r in residuals(sc, u))
        if name != "G4":
            want = adapt_basis(sc, u).as_tuple()
            assert adapt_basis(tiny, u).as_tuple() == tuple(math.ldexp(x, -560) for x in want)

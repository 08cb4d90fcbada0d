import numpy as np
import pytest

from conftest import (
    EPS3,
    ad_w_on_ker_tau,
    brackets_across_scales,
    classify_by_frame,
    random_gl,
    random_spd,
    reconstruct,
)

from lie3geo import bianchi
from lie3geo.algebra import (
    _CYCLIC_I,
    _CYCLIC_J,
    MetricSpec,
    NotLieAlgebraError,
    StructureConstants,
    catalog,
    change_basis,
    constants_from_brackets,
    orthonormalize,
)
from lie3geo.bianchi import (
    BianchiType,
    _ker_tau_invariants,
    classify,
    milnor_decompose,
    same_type,
)

CATALOG_TYPES = [
    ("R3", None, BianchiType("I")),
    ("Nil3", None, BianchiType("II")),
    ("H2xR", None, BianchiType("III")),
    ("G4", None, BianchiType("IV")),
    ("H3", None, BianchiType("V")),
    ("Sol3", 0.5, BianchiType("VI", 2.0)),
    ("Sol3", 1.0, BianchiType("VI", 1.0)),
    ("Sol3", 2.0, BianchiType("VI", 2.0)),
    ("G7", 0.0, BianchiType("VII", 0.0)),
    ("G7", 1.0, BianchiType("VII", 1.0)),
    ("G7", 2.0, BianchiType("VII", 2.0)),
    ("SL2R~", None, BianchiType("VIII")),
    ("SU2", None, BianchiType("IX")),
]


def test_bianchi_type_validation():
    with pytest.raises(ValueError):
        BianchiType("X")
    with pytest.raises(ValueError):
        BianchiType("I", 1.0)
    with pytest.raises(ValueError):
        BianchiType("VI")
    assert str(BianchiType("VI", 2.0)) == "VI(alpha=2)"
    assert str(BianchiType("IV")) == "IV"


def test_same_type_tolerance():
    assert same_type(BianchiType("VII", 1.0), BianchiType("VII", 1.0 + 1e-12))
    assert not same_type(BianchiType("VII", 1.0), BianchiType("VII", 1.01))
    assert not same_type(BianchiType("VII", 0.0), BianchiType("VI", 0.0))
    assert same_type(BianchiType("V"), BianchiType("V"))


def test_milnor_decompose_oracles():
    dec = milnor_decompose(catalog("Nil3").constants)
    assert np.allclose(dec.n, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    assert np.allclose(dec.a, 0.0, atol=1e-14)

    dec = milnor_decompose(catalog("SU2").constants)
    assert np.allclose(dec.n, 2.0 * np.eye(3), atol=1e-14)
    assert np.allclose(dec.a, 0.0, atol=1e-14)

    dec = milnor_decompose(catalog("SL2R~").constants)
    assert np.allclose(dec.n, np.diag([2.0, 2.0, -2.0]), atol=1e-14)
    assert np.allclose(dec.a, 0.0, atol=1e-14)

    # trace(ad_Z) = 2 and the trace functional vanishes on X and Y, so the
    # vector part is +Z exactly
    dec = milnor_decompose(catalog("H3").constants)
    assert np.allclose(dec.n, 0.0, atol=1e-14)
    assert np.allclose(dec.a, [0.0, 0.0, 1.0], atol=1e-14)

    dec = milnor_decompose(catalog("Sol3", 1.0).constants)
    assert np.allclose(dec.a, 0.0, atol=1e-14)
    eig = np.sort(np.linalg.eigvalsh(dec.n))
    assert np.allclose(eig, [-1.0, 0.0, 1.0], atol=1e-14)


def test_milnor_decompose_matches_einsum_oracle():
    for sc, _ in brackets_across_scales(seed=14):
        m = 0.5 * np.einsum("ijm,ijk->mk", EPS3, sc.c)
        asym = 0.5 * (m - m.T)
        dec = milnor_decompose(sc)
        assert np.array_equal(dec.n, 0.5 * (m + m.T))
        assert np.array_equal(dec.a, 0.5 * np.einsum("mk,pkm->p", asym, EPS3))


def test_milnor_map_matches_the_formula():
    # the read-only (12, 9) map gives the bits of 0.5 * (m + m.T) and of the
    # antisymmetric part's axial vector wherever m is normal (signed zeros
    # aside, which == does not tell apart)
    assert bianchi._MILNOR.shape == (12, 9)
    assert not bianchi._MILNOR.flags.writeable
    for sc, _ in brackets_across_scales(seed=15):
        m = sc.c[_CYCLIC_I, _CYCLIC_J]
        n, a = bianchi._milnor(m)
        assert np.array_equal(n, 0.5 * (m + m.T))
        assert np.array_equal(a, 0.5 * (m[_CYCLIC_J, _CYCLIC_I] - m[_CYCLIC_I, _CYCLIC_J]))


def test_milnor_reconstruct_inverts():
    rng = np.random.default_rng(0)
    entries = [catalog(n, a).constants for n, a, _ in CATALOG_TYPES]
    for sc in entries:
        dec = milnor_decompose(sc)
        assert np.allclose(reconstruct(dec.n, dec.a), sc.c, atol=1e-13)
    for _ in range(50):
        sc = StructureConstants(rng.standard_normal((3, 3, 3)))
        dec = milnor_decompose(sc)
        assert np.allclose(reconstruct(dec.n, dec.a), sc.c, atol=1e-12)


def test_jacobi_iff_na_zero():
    # the bracket tensor built from (n, a) satisfies Jacobi exactly when
    # the symmetric part annihilates the vector part
    rng = np.random.default_rng(1)
    for _ in range(200):
        w = rng.standard_normal((3, 3))
        n = 0.5 * (w + w.T)
        a = rng.standard_normal(3)
        if rng.random() < 0.5:
            # project a onto the kernel-ish directions to get valid samples
            vals, vecs = np.linalg.eigh(n)
            k = int(np.argmin(np.abs(vals)))
            n = n - vals[k] * np.outer(vecs[:, k], vecs[:, k])
            a = float(rng.standard_normal()) * vecs[:, k]
        sc = StructureConstants(reconstruct(n, a))
        lhs = float(np.linalg.norm(n @ a)) < 1e-12
        rhs = sc.is_valid(1e-10)
        assert lhs == rhs


def test_catalog_classification():
    for name, alpha, expected in CATALOG_TYPES:
        got = classify(catalog(name, alpha).constants)
        assert same_type(got, expected), (name, alpha, str(got))


def test_classification_invariant_under_basis_change():
    rng = np.random.default_rng(2)
    for name, alpha, expected in CATALOG_TYPES:
        sc = catalog(name, alpha).constants
        for _ in range(20):
            moved = change_basis(sc, random_gl(rng))
            got = classify(moved)
            assert same_type(got, expected, tol=1e-6), (name, alpha, str(got))


def test_classification_invariant_under_scaling():
    for name, alpha, expected in CATALOG_TYPES:
        sc = catalog(name, alpha).constants
        for s in [7.0, 300.0, *(10.0**k for k in range(-12, 13))]:
            got = classify(StructureConstants(s * sc.c))
            assert same_type(got, expected, tol=1e-9), (name, s)


def test_type_iv_stable_under_conjugation():
    # the defective (single Jordan block) eigenstructure behind type IV is
    # the numerically fragile case; it must survive generic basis changes
    rng = np.random.default_rng(3)
    g4 = catalog("G4").constants
    for _ in range(100):
        got = classify(change_basis(g4, random_gl(rng)))
        assert got.tag == "IV", str(got)


@pytest.mark.parametrize(
    "name, alpha",
    [("Sol3", 0.3), ("Sol3", 2.0), ("G7", 0.5), ("G4", None), ("H3", None)],
)
def test_catalog_types_survive_sheared_frames(name, alpha):
    # p = I + t e_0 e_1^T has condition about t^2, and it makes ad_w on ker
    # tau strongly non-normal; a IV test against the departure from
    # normality, which depends on the frame while the discriminant does not,
    # called G7(0.5) IV at t = 100
    entry = catalog(name, alpha)
    expected = BianchiType(*entry.bianchi)
    for t in np.geomspace(10.0, 100.0, 9):
        p = np.eye(3)
        p[0, 1] = t
        got = classify(change_basis(entry.constants, p))
        assert same_type(got, expected, tol=1e-6), (t, str(got))


def test_vi_parameter_canonicalization():
    for alpha, expected in [(0.3, 1.0 / 0.3), (0.5, 2.0), (2.0, 2.0), (5.0, 5.0)]:
        got = classify(catalog("Sol3", alpha).constants)
        assert got.tag == "VI"
        assert got.param == pytest.approx(expected, rel=1e-9)


def test_vii_parameter_canonicalization():
    for alpha in [-2.0, -1.0, 0.0, 1.0, 3.0]:
        got = classify(catalog("G7", alpha).constants)
        assert got.tag == "VII"
        assert got.param == pytest.approx(abs(alpha), abs=1e-9)


def test_more_unimodular_patterns():
    # diagonal bracket tables hit every unimodular sign pattern directly
    def diag_algebra(n1, n2, n3):
        return constants_from_brackets(
            xy=(0, 0, n3), zx=(0, n2, 0), zy=(-n1, 0, 0)
        )

    assert classify(diag_algebra(0, 0, 0)).tag == "I"
    assert classify(diag_algebra(0, 0, 5)).tag == "II"
    assert classify(diag_algebra(0, 0, -5)).tag == "II"
    assert same_type(classify(diag_algebra(1, 2, 0)), BianchiType("VII", 0.0))
    assert same_type(classify(diag_algebra(-1, -3, 0)), BianchiType("VII", 0.0))
    assert same_type(classify(diag_algebra(1, -2, 0)), BianchiType("VI", 1.0))
    assert classify(diag_algebra(1, 2, -3)).tag == "VIII"
    assert classify(diag_algebra(-1, 2, 3)).tag == "VIII"
    assert classify(diag_algebra(2, 3, 4)).tag == "IX"
    assert classify(diag_algebra(-2, -3, -4)).tag == "IX"


def test_classify_rejects_non_lie():
    sc = constants_from_brackets(xy=(0, 0, 1), zx=(1, 1, 0), zy=(-1, 0, 0))
    with pytest.raises(NotLieAlgebraError):
        classify(sc)


def test_classify_jacobi_tolerance_is_relative():
    # Sol3(2) at bracket scale 1e4 in random bases: Jacobi round-off of
    # about eps |c|^2 must not reject it
    rng = np.random.default_rng(0)
    sol = StructureConstants(1e4 * catalog("Sol3", 2.0).constants.c)
    for _ in range(200):
        got = classify(change_basis(sol, random_gl(rng)))
        assert same_type(got, BianchiType("VI", 2.0), tol=1e-6)
    # a non-Lie tensor with Jacobi residual 0.25 stays non-Lie at scale 1e-5
    bad = constants_from_brackets(zx=(0, 0, 0.5), zy=(0.5, 0, 0))
    with pytest.raises(NotLieAlgebraError):
        classify(StructureConstants(1e-5 * bad.c))


def test_classify_respects_tolerance_argument():
    sc = constants_from_brackets(xy=(0, 0, 1), zx=(1e-12, 0, 0))
    # tiny Jacobi leak: rejected under a strict gate, accepted under default
    with pytest.raises(NotLieAlgebraError):
        classify(sc, tol=1e-15)
    assert classify(sc).tag == "II"


def _next_to_type_ii(rng, eps):
    """Type III with [X,Y] = x X + y Y + Z, x and y of size eps, in a random
    basis: |a| is of size eps, and ad_w on ker(tau) is far from normal."""
    x, y = eps * rng.standard_normal(2)
    return change_basis(constants_from_brackets(xy=(x, y, 1.0)), random_gl(rng))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_type_iii_next_to_type_ii_stays_iii(eps):
    # ad_w|u has the split eigenvalues 0 and 2 however small eps is; the
    # discriminant test used to read the large ||M||_F^2 as a Jordan block
    rng = np.random.default_rng(5)
    for _ in range(200):
        got = classify(_next_to_type_ii(rng, eps))
        assert got.tag == "III", (eps, str(got))


def test_next_to_type_ii_never_types_iv_or_vi():
    # nor VII: from eps = 1e-6 down, the discriminant of ad_w|u rests on
    # round-off and only the centre tells type III; at 1e-8, |a| is near
    # the unimodular threshold and II is a genuine near-tie
    rng = np.random.default_rng(6)
    for eps in 10.0 ** -np.arange(2.0, 9.0):
        for _ in range(300):
            got = classify(_next_to_type_ii(rng, eps))
            assert got.tag in {"II", "III"}, (eps, str(got))


# non-unimodular catalog rows: Sol3(1) and G7(0) are unimodular
_NON_UNIMODULAR = [
    ("H2xR", None),
    ("G4", None),
    ("H3", None),
    *(("Sol3", alpha) for alpha in (0.2, 0.5, 2.0, 3.7)),
    *(("G7", alpha) for alpha in (-1.5, 0.3, 1.0, 2.5)),
]


@pytest.mark.parametrize("name, alpha", _NON_UNIMODULAR)
def test_closed_form_matches_the_frame_route(name, alpha):
    """200 random bases (cond < 1e3) and metrics at bracket scales 10^k, k
    even in [-12, 12]: the closed form classifies as the frame route of
    ``ad_w_on_ker_tau`` does, and its invariants are that route's."""
    rng = np.random.default_rng(41)
    base = catalog(name, alpha).constants
    for i in range(200):
        moved = change_basis(base, random_gl(rng))
        sc = orthonormalize(
            StructureConstants(10.0 ** (2 * (i % 13) - 12) * moved.c),
            MetricSpec(random_spd(rng)),
        )
        got, want = classify(sc), classify_by_frame(sc)
        assert got.tag == want.tag, (i, str(got), str(want))
        dec = milnor_decompose(sc)
        disc, deviation_sq = _ker_tau_invariants(dec.n, dec.a)
        m = ad_w_on_ker_tau(sc)
        scale_sq = float(np.sum(m * m))
        if want.param is not None:
            # Both routes lose about eps |M|_F^2 / |disc| of the parameter to
            # round-off: up to 1.6e-12 here, under 1.2e-14 in bases of
            # condition below 10.
            slack = max(1e-12, 16 * np.finfo(float).eps * scale_sq / abs(disc))
            assert abs(got.param - want.param) <= slack * want.param, (i, str(got))
        bound = 1e-12 * scale_sq
        assert abs(float(np.trace(m)) - 2.0) <= bound
        assert abs(float(np.linalg.det(m)) - (1.0 - disc)) <= bound
        deviation = float(np.linalg.norm(m - np.eye(2)))
        assert abs(deviation - np.sqrt(deviation_sq)) <= bound


def test_ker_tau_invariants_need_no_jacobi():
    # M = I + N J / |a| holds for any antisymmetric tensor, Lie or not
    for sc, _ in brackets_across_scales(seed=45):
        dec = milnor_decompose(sc)
        disc, deviation_sq = _ker_tau_invariants(dec.n, dec.a)
        m = ad_w_on_ker_tau(sc)
        bound = 1e-12 * float(np.sum(m * m))
        assert abs(float(np.trace(m)) - 2.0) <= bound
        assert abs(float(np.linalg.det(m)) - (1.0 - disc)) <= bound
        assert abs(float(np.sum((m - np.eye(2)) ** 2)) - deviation_sq) <= bound


@pytest.mark.parametrize("exponent", [-560, -1000])
def test_classification_holds_where_the_brackets_square_to_zero(exponent):
    # at 2**-560 |c|_F^2 underflows to 0, at 2**-1000 every product of two
    # brackets does; the types must still be those at scale 1
    rng = np.random.default_rng(43)
    for name, alpha, _ in CATALOG_TYPES:
        for _ in range(10):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            tiny = StructureConstants(np.ldexp(sc.c, exponent))
            assert same_type(classify(tiny), classify(sc), tol=1e-12), (name, alpha)


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
def test_catalog_classification_at_tiny_decimal_scales(scale):
    # H3 at 1e-160 used to come out as IV and Sol3(2) as VI(2.00002); at
    # 1e-170 every group came out as type I
    for name, alpha, expected in CATALOG_TYPES:
        got = classify(StructureConstants(scale * catalog(name, alpha).constants.c))
        assert same_type(got, expected, tol=1e-12), (name, alpha, str(got))


def test_centre_matches_the_full_svd_bit_for_bit():
    """``_centre`` asks for the thin SVD, which skips the 9x9 left factor;
    its singular values and right vectors are those of the full SVD."""

    def full(c):
        _, sigma, vt = np.linalg.svd(c.reshape(3, 9).T)
        return float(sigma[-1] / sigma[0]), vt[-1]

    rng = np.random.default_rng(53)
    inputs = [sc for sc, _ in brackets_across_scales(seed=53)]
    # R3's brackets vanish, which _centre refuses
    for name, alpha, _ in CATALOG_TYPES[1:]:
        for _ in range(10):
            inputs.append(change_basis(catalog(name, alpha).constants, random_gl(rng)))
    for sc in inputs:
        ratio, vector = bianchi._centre(sc.c)
        want_ratio, want_vector = full(sc.c)
        assert ratio.hex() == want_ratio.hex()
        assert vector.tobytes() == want_vector.tobytes()

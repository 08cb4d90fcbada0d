import math

import numpy as np
import pytest

from conftest import brackets_across_scales, random_gl, random_orthogonal, random_spd

from lie3geo import algebra, geometry
from lie3geo.algebra import (
    MetricSpec,
    StructureConstants,
    catalog,
    catalog_names,
    change_basis,
    jacobi_residual,
    orthonormalize,
)
from lie3geo.foliation import AdaptedBracketParams, adapted_constants, enumerate_families
from lie3geo.geometry import connection, curvature, sectional


def expected_sol_gamma():
    # hand-derived covariant derivative table for Sol with alpha = 1:
    #   nabla_X X = Z, nabla_Y Y = -Z, nabla_X Z = -X, nabla_Y Z = Y,
    #   nabla_Z anything = 0
    g = np.zeros((3, 3, 3))
    g[0, 0, 2] = 1.0
    g[0, 2, 0] = -1.0
    g[1, 1, 2] = -1.0
    g[1, 2, 1] = 1.0
    return g


def expected_nil_gamma():
    # nabla_X Y = Z/2, nabla_X Z = -Y/2, nabla_Y X = -Z/2, nabla_Y Z = X/2,
    # nabla_Z X = -Y/2, nabla_Z Y = X/2, diagonal derivatives vanish
    g = np.zeros((3, 3, 3))
    g[0, 1, 2] = 0.5
    g[0, 2, 1] = -0.5
    g[1, 0, 2] = -0.5
    g[1, 2, 0] = 0.5
    g[2, 0, 1] = -0.5
    g[2, 1, 0] = 0.5
    return g


def random_valid_algebras(count, seed):
    """Random Lie algebras: family points pushed through random bases."""
    rng = np.random.default_rng(seed)
    families = enumerate_families()
    out = []
    for _ in range(count):
        params = families[rng.integers(3)].sample(rng)
        sc = change_basis(adapted_constants(params), random_gl(rng))
        scale = np.linalg.norm(sc.c)
        if scale > 0:
            sc = StructureConstants(sc.c / scale)
        out.append(sc)
    return out


def test_connection_oracle_sol():
    sc = catalog("Sol3", 1.0).constants
    assert np.allclose(connection(sc).gamma, expected_sol_gamma(), atol=1e-14)


def test_connection_oracle_nil():
    sc = catalog("Nil3").constants
    assert np.allclose(connection(sc).gamma, expected_nil_gamma(), atol=1e-14)


def test_kernels_match_einsum_oracles():
    for sc, _ in brackets_across_scales(seed=13):
        c = sc.c
        gamma = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
        assert connection(sc).gamma.tobytes() == gamma.tobytes()
        riemann = (
            np.einsum("jkm,iml->ijkl", gamma, gamma)
            - np.einsum("ikm,jml->ijkl", gamma, gamma)
            - np.einsum("ijm,mkl->ijkl", c, gamma)
        )
        rep = curvature(sc)
        scale_sq = float(np.sum(c * c))
        assert np.abs(rep.riemann - riemann).max() <= 1e-13 * scale_sq
        ricci = np.einsum("kijk->ij", riemann)
        assert np.abs(rep.ricci - ricci).max() <= 1e-13 * scale_sq


def test_connection_is_metric_and_torsion_free():
    for sc in random_valid_algebras(100, seed=0):
        gamma = connection(sc).gamma
        # metric compatibility: antisymmetric in the last two slots
        assert np.abs(gamma + np.einsum("ikj->ijk", gamma)).max() < 1e-12
        # torsion-free: antisymmetrized first pair recovers the bracket
        torsion = gamma - np.einsum("jik->ijk", gamma) - sc.c
        assert np.abs(torsion).max() < 1e-12


def test_curvature_oracle_sol():
    rep = curvature(catalog("Sol3", 1.0).constants)
    assert np.allclose(rep.ricci, np.diag([0.0, 0.0, -2.0]), atol=1e-14)
    assert rep.scalar == pytest.approx(-2.0, abs=1e-14)
    assert np.allclose(rep.sectional_basis, [1.0, -1.0, -1.0], atol=1e-14)
    assert rep.constant_curvature is None
    values = [v for v, _ in rep.ricci_spectrum]
    counts = [m for _, m in rep.ricci_spectrum]
    assert counts == [1, 2]
    assert values == pytest.approx([-2.0, 0.0], abs=1e-12)


def test_curvature_oracle_nil():
    rep = curvature(catalog("Nil3").constants)
    assert np.allclose(rep.ricci, np.diag([-0.5, -0.5, 0.5]), atol=1e-14)
    assert rep.scalar == pytest.approx(-0.5, abs=1e-14)
    assert np.allclose(rep.sectional_basis, [-0.75, 0.25, 0.25], atol=1e-14)
    assert rep.constant_curvature is None
    values = [v for v, _ in rep.ricci_spectrum]
    counts = [m for _, m in rep.ricci_spectrum]
    assert counts == [2, 1]
    assert values == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_curvature_constant_cases():
    rep = curvature(catalog("R3").constants)
    assert rep.constant_curvature == pytest.approx(0.0, abs=1e-14)
    assert np.abs(rep.riemann).max() < 1e-14

    rep = curvature(catalog("H3").constants)
    assert rep.constant_curvature == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(rep.ricci, -2.0 * np.eye(3), atol=1e-12)

    rep = curvature(catalog("SU2").constants)
    assert rep.constant_curvature == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.ricci, 2.0 * np.eye(3), atol=1e-12)

    for alpha in [0.0, 1.0, 2.0, 3.0]:
        rep = curvature(catalog("G7", alpha).constants)
        assert rep.constant_curvature == pytest.approx(-alpha * alpha, abs=1e-12)


def test_curvature_oracle_sl2():
    rep = curvature(catalog("SL2R~").constants)
    assert np.allclose(rep.ricci, np.diag([-6.0, -6.0, 2.0]), atol=1e-12)
    values = [v for v, _ in rep.ricci_spectrum]
    counts = [m for _, m in rep.ricci_spectrum]
    assert counts == [2, 1]
    assert values == pytest.approx([-6.0, 2.0], abs=1e-11)
    assert rep.sectional_basis == pytest.approx((-7.0, 1.0, 1.0))


def test_curvature_oracle_h2xr():
    rep = curvature(catalog("H2xR").constants)
    assert np.allclose(rep.ricci, np.diag([-1.0, -1.0, 0.0]), atol=1e-14)
    assert rep.sectional_basis == pytest.approx((-1.0, 0.0, 0.0))
    assert rep.constant_curvature is None


def test_scalar_is_ricci_trace_and_ricci_symmetric():
    for sc in random_valid_algebras(100, seed=1):
        rep = curvature(sc)
        assert rep.scalar == pytest.approx(float(np.trace(rep.ricci)), abs=1e-12)
        assert np.abs(rep.ricci - rep.ricci.T).max() < 1e-12


def test_riemann_symmetries_random():
    for sc in random_valid_algebras(200, seed=2):
        r = curvature(sc).riemann
        assert np.abs(r + np.einsum("jikl->ijkl", r)).max() < 1e-12
        assert np.abs(r + np.einsum("ijlk->ijkl", r)).max() < 1e-12
        assert np.abs(r - np.einsum("klij->ijkl", r)).max() < 1e-12
        bianchi1 = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.abs(bianchi1).max() < 1e-12


def test_sectional_planes():
    rep = curvature(catalog("Sol3", 1.0).constants)
    x, y, z = np.eye(3)
    assert sectional(rep, x, y) == pytest.approx(1.0)
    assert sectional(rep, x, z) == pytest.approx(-1.0)
    u = (x + y) / np.sqrt(2.0)
    assert sectional(rep, u, z) == pytest.approx(-1.0)
    # value only depends on the plane, not the spanning pair
    assert sectional(rep, x + 2 * y, y) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="plane"):
        sectional(rep, u, 2.0 * u)
    # a NaN makes every comparison false, and inf * 0 in <u, v> would warn:
    # both are refused before any arithmetic
    for bad in (np.array([np.nan, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0])):
        for pair in ((bad, y), (y, bad)):
            with pytest.raises(ValueError, match="plane"):
                sectional(rep, *pair)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_sectional_plane_test_is_scale_free(scale):
    rep = curvature(catalog("Nil3").constants)
    x, y, _ = np.eye(3)
    assert sectional(rep, scale * x, scale * y) == pytest.approx(-0.75)
    with pytest.raises(ValueError, match="plane"):
        sectional(rep, scale * x, scale * (x + 1e-7 * y))


def test_sectional_matches_report_fields():
    for sc in random_valid_algebras(20, seed=3):
        rep = curvature(sc)
        e = np.eye(3)
        assert rep.sectional_basis[0] == pytest.approx(sectional(rep, e[0], e[1]))
        assert rep.sectional_basis[1] == pytest.approx(sectional(rep, e[0], e[2]))
        assert rep.sectional_basis[2] == pytest.approx(sectional(rep, e[1], e[2]))


def test_ricci_spectrum_merges_close_eigenvalues():
    rep = curvature(catalog("H3").constants)
    assert len(rep.ricci_spectrum) == 1
    assert rep.ricci_spectrum[0][0] == pytest.approx(-2.0, abs=1e-12)
    assert rep.ricci_spectrum[0][1] == 3
    multiplicities = [m for _, m in rep.ricci_spectrum]
    assert sum(multiplicities) == 3


@pytest.mark.parametrize("exponent", [-520, -560])
def test_curvature_decisions_hold_where_the_brackets_square_to_zero(exponent):
    """At 2**-520 every curvature is subnormal and at 2**-560 it underflows
    to 0, and so does the unscaled threshold CONSTANT_CURVATURE_TOL *
    |c|_F^2; the flag and the spectrum merge run on the brackets times
    2**-k, so they are those at scale 1, and each value is the scale-1 value
    times 2**(2 * exponent), rounded once."""
    rng = np.random.default_rng(53)
    for name, alpha in [
        ("R3", None), ("Nil3", None), ("H2xR", None), ("G4", None), ("H3", None),
        ("Sol3", 2.0), ("G7", 0.5), ("SL2R~", None), ("SU2", None),
    ]:
        sc = change_basis(catalog(name, alpha).constants, random_orthogonal(rng))
        want = curvature(sc)
        got = curvature(StructureConstants(np.ldexp(sc.c, exponent)))
        assert (got.constant_curvature is None) == (want.constant_curvature is None)
        assert [m for _, m in got.ricci_spectrum] == [m for _, m in want.ricci_spectrum]
        for field in ("riemann", "ricci"):
            scaled_back = np.ldexp(getattr(want, field), 2 * exponent)
            assert getattr(got, field).tobytes() == scaled_back.tobytes()
        assert got.scalar == math.ldexp(want.scalar, 2 * exponent)
        for (g, _), (w, _) in zip(got.ricci_spectrum, want.ricci_spectrum):
            assert g == math.ldexp(w, 2 * exponent)


def test_quadratic_map_matches_its_kernels():
    """Rows 0-2 of the map give the Jacobi cyclic vector J(e_0, e_1, e_2) and
    rows 3-11 the Ricci tensor, as the kernels they were polarized from do.

    The map sums at most 13 terms a row, each rounded at most 15 times, whose
    absolute values add up to at most (sum_a |m_a|)^2 <= 9 |m|^2 =
    4.5 |c|_F^2 (every |entry| <= 1): 67.5 eps |c|_F^2.  The cyclic sum adds
    at most 9 products of entries of c, each at most max|c|^2 <= |c|_F^2 / 2,
    rounded at most 8 times.  The Ricci kernel sums 3 Riemann entries, each
    of at most 9 products of entries of c and Gamma, each at most
    (1.5 max|c|)^2 <= 1.125 |c|_F^2, rounded at most 8 times (81 eps
    |c|_F^2 an entry), and its two additions round partial sums of at most
    3 * 9 * 1.125 |c|_F^2.  So the routes differ by less than 150 eps
    |c|_F^2 on the Jacobi rows and (67.5 + 243 + 61) eps |c|_F^2 < 400 eps
    |c|_F^2 on the Ricci rows."""
    quadratic = geometry._QUADRATIC
    assert quadratic.shape == (12, 81)
    assert not quadratic.flags.writeable
    assert np.array_equal(quadratic[:3], algebra._JACOBI_ROWS)
    assert np.array_equal(4.0 * quadratic, np.round(4.0 * quadratic))
    assert np.abs(quadratic).max() <= 1.0
    assert np.count_nonzero(quadratic, axis=1).max() <= 13
    eps = np.finfo(float).eps
    for sc, _ in brackets_across_scales(seed=31):
        c = sc.c
        scale_sq = float(np.vdot(c, c))
        got = quadratic @ algebra._products(c)[1]
        cyclic = algebra._cyclic_sum(c)[0, 1, 2]
        assert np.abs(got[:3] - cyclic).max() <= 150 * eps * scale_sq
        ricci = np.trace(geometry._riemann(c, connection(sc).gamma), axis1=0, axis2=3)
        assert np.abs(got[3:] - ricci.ravel()).max() <= 400 * eps * scale_sq


def test_riemann_is_the_3d_reconstruction_of_ricci_off_jacobi():
    """In three dimensions the Koszul Riemann tensor of any antisymmetric
    bracket, Jacobi or not, is ``_RIEMANN_OF_RICCI`` applied to its Ricci
    tensor: exactly on integer brackets, where every sum is exact, and
    within a few eps |c|_F^2 on random ones, none of which satisfies
    Jacobi."""
    rebuild = geometry._RIEMANN_OF_RICCI
    assert rebuild.shape == (81, 9) and not rebuild.flags.writeable
    assert set(rebuild.ravel().tolist()) == {-1.0, -0.5, 0.0, 0.5, 1.0}
    rng = np.random.default_rng(97)
    failing = 0
    for _ in range(200):
        sc = StructureConstants(rng.integers(-8, 9, (3, 3, 3)).astype(float))
        failing += jacobi_residual(sc) > 0.0
        riemann = geometry._riemann(sc.c, connection(sc).gamma)
        ricci = np.trace(riemann, axis1=0, axis2=3)
        assert np.array_equal(rebuild @ ricci.ravel(), riemann.ravel())
    assert failing == 200
    failing = 0
    for sc, _ in brackets_across_scales(seed=97):
        c = sc.c
        riemann = geometry._riemann(c, connection(sc).gamma)
        ricci = np.trace(riemann, axis1=0, axis2=3)
        gap = np.abs(rebuild @ ricci.ravel() - riemann.ravel()).max()
        assert gap <= 8 * np.finfo(float).eps * float(np.vdot(c, c))
        failing += not sc.is_valid()
    assert failing == 13 * 20


def test_report_riemann_is_the_reconstruction_of_its_ricci():
    """The report's ``riemann`` is ``_RIEMANN_OF_RICCI`` applied to its
    ``ricci``, bit for bit, and its sectional curvatures are read off it."""
    rng = np.random.default_rng(101)
    inputs = [sc for sc, _ in brackets_across_scales(seed=101, per_scale=4)]
    for name in catalog_names():
        alpha = {"Sol3": 2.0, "G7": 0.5}.get(name)
        for _ in range(4):
            sc = change_basis(catalog(name, alpha).constants, random_gl(rng))
            inputs.append(orthonormalize(sc, MetricSpec(random_spd(rng))))
    for sc in inputs:
        rep = curvature(sc)
        want = geometry._RIEMANN_OF_RICCI @ rep.ricci.ravel()
        assert rep.riemann.tobytes() == want.tobytes()
        assert rep.sectional_basis == (
            rep.riemann[0, 1, 1, 0], rep.riemann[0, 2, 2, 0], rep.riemann[1, 2, 2, 1]
        )

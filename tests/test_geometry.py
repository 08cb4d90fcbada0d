import numpy as np
import pytest

from conftest import brackets_across_scales, random_gl

from lie3geo.algebra import StructureConstants, catalog, change_basis
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
        assert rep.ricci.tobytes() == np.einsum("kijk->ij", rep.riemann).tobytes()


def test_connection_derivative_helper():
    sc = catalog("Nil3").constants
    conn = connection(sc)
    x, y, z = np.eye(3)
    assert np.allclose(conn.derivative(x, y), 0.5 * z)
    assert np.allclose(conn.derivative(y, x), -0.5 * z)
    assert np.allclose(conn.derivative(z, z), 0.0)


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
    # a NaN makes every comparison false, so the guard is written to fail it
    nan = np.array([np.nan, 0.0, 0.0])
    for pair in ((nan, y), (y, nan)):
        with pytest.raises(ValueError, match="plane"):
            sectional(rep, *pair)
    # inf * 0 in <u, v> warns before the guard sees the NaN it makes
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="plane"):
        sectional(rep, np.array([np.inf, 0.0, 0.0]), y)


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

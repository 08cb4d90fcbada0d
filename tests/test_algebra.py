import numpy as np
import pytest

from conftest import random_gl

from lie3geo import algebra
from lie3geo.algebra import (
    CONDITION_LIMIT,
    MetricSpec,
    StructureConstants,
    bracket,
    catalog,
    catalog_info,
    catalog_names,
    change_basis,
    constants_from_brackets,
    jacobi_residual,
    killing_form,
    ad_matrix,
    trace_form,
    orthonormal_frame,
    orthonormalize,
)


def test_constructor_antisymmetrizes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.standard_normal((3, 3, 3))
        sc = StructureConstants(raw)
        assert np.allclose(sc.c, -np.swapaxes(sc.c, 0, 1))
    # already antisymmetric input is preserved bit for bit
    anti = raw - np.swapaxes(raw, 0, 1)
    assert StructureConstants(anti).c.tobytes() == anti.tobytes()


def test_constructor_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        StructureConstants(np.zeros((3, 3)))
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = np.nan
    with pytest.raises(ValueError):
        StructureConstants(bad)


def test_constants_are_read_only():
    sc = catalog("Nil3").constants
    with pytest.raises(ValueError):
        sc.c[0, 1, 2] = 7.0


def test_bracket_matches_table():
    nil = catalog("Nil3").constants
    x, y, z = np.eye(3)
    assert np.allclose(bracket(nil, x, y), z)
    assert np.allclose(bracket(nil, y, x), -z)
    assert np.allclose(bracket(nil, x, z), 0.0)
    # bilinearity
    rng = np.random.default_rng(1)
    for _ in range(10):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        lhs = bracket(nil, 2.0 * u + v, v)
        assert np.allclose(lhs, 2.0 * bracket(nil, u, v))


def test_jacobi_residual_zero_on_catalog():
    for info in catalog_info():
        alpha = 1.0 if info["alpha"] else None
        sc = catalog(info["name"], alpha).constants
        assert jacobi_residual(sc) <= 1e-14


def test_jacobi_residual_detects_violation():
    # [X,Y] = Z, [Y,Z] = X, [Z,X] = X + Y: the cyclic sum is [Y,X] = -Z,
    # a unit vector, so the residual is exactly 1.
    sc = constants_from_brackets(xy=(0, 0, 1), zx=(1, 1, 0), zy=(-1, 0, 0))
    assert jacobi_residual(sc) == pytest.approx(1.0, abs=1e-15)
    assert not sc.is_valid()


def test_change_basis_functorial():
    rng = np.random.default_rng(2)
    sc = catalog("SL2R~").constants
    for _ in range(10):
        p = random_gl(rng)
        q = random_gl(rng)
        once = change_basis(sc, p @ q)
        twice = change_basis(change_basis(sc, p), q)
        assert np.allclose(once.c, twice.c, atol=1e-10)
    assert np.allclose(change_basis(sc, np.eye(3)).c, sc.c)


def test_change_basis_preserves_jacobi():
    rng = np.random.default_rng(3)
    for name in ["Nil3", "G4", "SU2"]:
        sc = catalog(name).constants
        for _ in range(10):
            moved = change_basis(sc, random_gl(rng))
            assert jacobi_residual(moved) < 1e-9


def test_change_basis_rejects_singular():
    sc = catalog("R3").constants
    with pytest.raises(ValueError):
        change_basis(sc, np.zeros((3, 3)))
    assert np.linalg.cond(np.diag([1.0, 1.0, 1e-12])) > CONDITION_LIMIT
    with pytest.raises(ValueError):
        change_basis(sc, np.diag([1.0, 1.0, 1e-12]))


def test_killing_form_signatures():
    su2 = catalog("SU2").constants
    assert np.allclose(killing_form(su2), -8.0 * np.eye(3))
    sl2 = catalog("SL2R~").constants
    assert np.allclose(killing_form(sl2), np.diag([8.0, 8.0, -8.0]))
    h3 = catalog("H3").constants
    assert np.allclose(killing_form(h3), np.diag([0.0, 0.0, 2.0]))
    # swapping one bracket sign in the SU2 table flips the signature to the
    # split form, i.e. it is not the compact algebra any more
    wrong = constants_from_brackets(xy=(0, 0, 2), zx=(0, 2, 0), zy=(2, 0, 0))
    eig = np.sort(np.linalg.eigvalsh(killing_form(wrong)))
    assert eig[2] > 0


def test_trace_form_values():
    h3 = catalog("H3").constants
    assert trace_form(h3, np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0)
    sol = catalog("Sol3", 0.5).constants
    assert trace_form(sol, np.array([0.0, 0.0, 1.0])) == pytest.approx(-0.5)
    for name in ["R3", "Nil3", "SU2", "SL2R~"]:
        sc = catalog(name).constants
        for v in np.eye(3):
            assert abs(trace_form(sc, v)) < 1e-14


def test_ad_matrix_matches_bracket():
    rng = np.random.default_rng(4)
    sc = catalog("G4").constants
    for _ in range(10):
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(ad_matrix(sc, u) @ v, bracket(sc, u, v))


def test_orthonormal_frame_is_right_handed():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        h1, h2 = orthonormal_frame(u)
        m = np.column_stack([h1, h2, u])
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)
    # deterministic choice at the pole
    h1, h2 = orthonormal_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(h1, [0.0, -1.0, 0.0])
    assert np.allclose(h2, [1.0, 0.0, 0.0])


def test_cross_matches_np_cross_bitwise():
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300])
    for k in range(2000):
        if k % 2:
            a, b = rng.choice(special, 3), rng.choice(special, 3)
        else:
            a = rng.standard_normal(3) * 10.0 ** rng.integers(-20, 20, 3)
            b = rng.standard_normal(3)
        with np.errstate(over="ignore", invalid="ignore"):
            assert algebra._cross(a, b).tobytes() == np.cross(a, b).tobytes()


def test_orthonormalize_identity_is_noop():
    sc = catalog("Nil3").constants
    out = orthonormalize(sc, MetricSpec.identity())
    assert np.allclose(out.c, sc.c)


def test_orthonormalize_scales_brackets():
    # doubling the length of X halves the Z-coefficient of [X', Y]
    sc = catalog("Nil3").constants
    out = orthonormalize(sc, MetricSpec(np.diag([4.0, 1.0, 1.0])))
    assert out.c[0, 1, 2] == pytest.approx(0.5)
    assert jacobi_residual(out) < 1e-14


def test_metric_spec_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpec(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        MetricSpec(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        MetricSpec(np.eye(2))
    g = MetricSpec(np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(g.g, np.diag([2.0, 3.0, 4.0]))


def test_catalog_names_and_lookup():
    names = catalog_names()
    assert len(names) == 9
    assert catalog("nil3").name == "Nil3"
    assert catalog("sl2r").name == "SL2R~"
    with pytest.raises(ValueError, match="unknown catalog group"):
        catalog("E8")


def test_catalog_alpha_rules():
    with pytest.raises(ValueError):
        catalog("Nil3", 1.0)
    with pytest.raises(ValueError):
        catalog("Sol3")
    with pytest.raises(ValueError):
        catalog("Sol3", 0.0)
    with pytest.raises(ValueError):
        catalog("Sol3", -2.0)
    with pytest.raises(ValueError):
        catalog("G7")
    assert catalog("G7", -1.5).alpha == -1.5
    assert catalog("Sol3", 2.0).alpha == 2.0


def test_catalog_brackets():
    nil = catalog("Nil3").constants
    assert nil.c[0, 1, 2] == 1.0
    h2r = catalog("H2xR").constants
    assert np.allclose(bracket(h2r, np.eye(3)[1], np.eye(3)[0]), [1.0, 0.0, 0.0])
    sol = catalog("Sol3", 2.0).constants
    assert np.allclose(bracket(sol, np.eye(3)[2], np.eye(3)[0]), [2.0, 0.0, 0.0])
    assert np.allclose(bracket(sol, np.eye(3)[2], np.eye(3)[1]), [0.0, -1.0, 0.0])
    su2 = catalog("SU2").constants
    assert np.allclose(bracket(su2, np.eye(3)[0], np.eye(3)[1]), [0.0, 0.0, 2.0])
    assert np.allclose(bracket(su2, np.eye(3)[1], np.eye(3)[2]), [2.0, 0.0, 0.0])
    assert np.allclose(bracket(su2, np.eye(3)[2], np.eye(3)[0]), [0.0, 2.0, 0.0])


def test_constants_from_brackets_mirrors():
    sc = constants_from_brackets(xy=(1, 2, 3))
    assert np.allclose(sc.c[0, 1], [1, 2, 3])
    assert np.allclose(sc.c[1, 0], [-1, -2, -3])
    assert np.allclose(sc.c[2], 0.0)

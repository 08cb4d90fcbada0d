import math
import re
import sys
import warnings

import numpy as np
import pytest

from conftest import (
    bracket,
    brackets_across_scales,
    random_gl,
    random_orthogonal,
    random_spd,
)

from lie3geo import algebra
from lie3geo.algebra import (
    CONDITION_LIMIT,
    MetricSpec,
    NotLieAlgebraError,
    StructureConstants,
    catalog,
    catalog_info,
    catalog_names,
    change_basis,
    constants_from_brackets,
    jacobi_residual,
    orthonormal_frame,
    orthonormalize,
)
from lie3geo.bianchi import classify


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


def _jacobi_residual_oracle(c):
    t = np.einsum("jkl,ilm->ijkm", c, c)
    cyc = t + np.einsum("ijkm->jkim", t) + np.einsum("ijkm->kijm", t)
    return float(np.sqrt(np.einsum("ijkm,ijkm->ijk", cyc, cyc)).max())


def test_kernels_match_einsum_oracles():
    for sc, p in brackets_across_scales(seed=12):
        c = sc.c
        scale_sq = float(np.sum(c * c))
        assert abs(jacobi_residual(sc) - _jacobi_residual_oracle(c)) <= 1e-13 * scale_sq
        want = np.einsum("ia,jb,ijk,mk->abm", p, p, c, np.linalg.inv(p))
        got = change_basis(sc, p).c
        assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(want)


def test_jacobi_tolerance_is_relative():
    # Sol3(2) at bracket scale 1e4: round-off in the residual is about
    # eps |c|^2, far above an absolute 1e-9
    rng = np.random.default_rng(0)
    sol = StructureConstants(1e4 * catalog("Sol3", 2.0).constants.c)
    for _ in range(200):
        assert change_basis(sol, random_gl(rng)).is_valid()
    # residual 0.25 at scale 1, 2.5e-11 at scale 1e-5: still not a Lie algebra
    bad = constants_from_brackets(zx=(0, 0, 0.5), zy=(0.5, 0, 0))
    assert jacobi_residual(bad) == 0.25
    tiny = StructureConstants(1e-5 * bad.c)
    assert not tiny.is_valid()
    with pytest.raises(NotLieAlgebraError, match="not a Lie algebra"):
        algebra._require_scaled_lie(tiny)
    zero = StructureConstants(np.zeros((3, 3, 3)))
    assert algebra._require_scaled_lie(zero).residual == 0.0


def test_nan_tolerance_accepts_nothing():
    # NaN compares false, so the check is written to fail on it
    for sc in (catalog("Nil3").constants, StructureConstants(np.zeros((3, 3, 3)))):
        with pytest.raises(NotLieAlgebraError, match="not a Lie algebra"):
            algebra._require_scaled_lie(sc, float("nan"))
        assert not sc.is_valid(float("nan"))


def _unscaled_jacobi_residual(sc):
    """The Jacobi residual computed on the brackets as they are, which
    underflows or overflows outside about 1e-77 .. 1e77: the reference
    inside that range."""
    return algebra._jacobi(algebra._JACOBI_ROWS @ algebra._products(sc.c)[1])


def test_jacobi_residual_holds_at_every_scale():
    """From 1e-60 to 1e60 the residual has the bits of the unscaled formula;
    times ``2**k`` the brackets give it times ``4**k`` exactly, where the
    unscaled formula gave 0 or overflowed; and SU2 in a random basis keeps
    a round-off residual, neither 0 nor inf, at 1e-100, 1e100 and 1e150."""
    rng = np.random.default_rng(37)
    su2 = change_basis(catalog("SU2").constants, random_gl(rng))
    tensor = StructureConstants(rng.standard_normal((3, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sc in (su2, tensor):
            for k in range(-60, 61, 5):
                scaled = StructureConstants(10.0**k * sc.c)
                want = _unscaled_jacobi_residual(scaled)
                assert jacobi_residual(scaled).hex() == want.hex()
            for k in (-500, -340, 260, 500):
                got = jacobi_residual(StructureConstants(np.ldexp(sc.c, k)))
                assert got == math.ldexp(jacobi_residual(sc), 2 * k)
        for scale in (1e-100, 1e100, 1e150):
            sc = StructureConstants(scale * su2.c)
            assert 0.0 < jacobi_residual(sc) <= 1e-14 * float(np.vdot(sc.c, sc.c))
    assert jacobi_residual(tensor) > 0.1


def test_jacobi_residual_scales_only_the_nine_components():
    """jacobi_residual scales only Milnor's nine components, by the power of
    two of _normalised, and keeps the bits of the check that scales all 27
    entries: at ``2**k`` for every k from -1000 to 1000 that the constructor
    accepts, on the zero algebra, and on brackets whose entries are
    subnormal."""
    assert algebra._MILNOR_FLAT.shape == (3, 3)
    rng = np.random.default_rng(107)
    c = rng.standard_normal((3, 3, 3))
    assert np.array_equal(c.take(algebra._MILNOR_FLAT), c[algebra._CYCLIC_I, algebra._CYCLIC_J])

    def want(sc):
        check = algebra._scaled_jacobi(sc)
        return math.ldexp(check.residual, 2 * check.k)

    su2 = change_basis(catalog("SU2").constants, random_gl(rng))
    tensor = StructureConstants(c)
    accepted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sc in (su2, tensor):
            for k in range(-1000, 1001):
                try:
                    scaled = StructureConstants(np.ldexp(sc.c, k))
                except ValueError:  # |c|_F^2 overflows
                    assert k > 500
                    continue
                assert jacobi_residual(scaled).hex() == want(scaled).hex()
                accepted += 1
        zero = StructureConstants(np.zeros((3, 3, 3)))
        assert jacobi_residual(zero) == want(zero) == 0.0
        for _ in range(50):
            # entries from 2**-1074 to about 2**-1060, every one subnormal
            tiny = np.ldexp(rng.integers(-2**14, 2**14, (3, 3, 3)).astype(float), -1074)
            sc = StructureConstants(tiny)
            assert jacobi_residual(sc).hex() == want(sc).hex()
    assert 2 * 1500 < accepted < 2 * 1600


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1.0, 1e150, 1e160])
def test_jacobi_verdict_at_extreme_scales(scale):
    # [X,Y] = Z, [Z,X] = X fails Jacobi at every scale and Nil3 passes; past
    # 1e154, |c|_F^2 overflows and the constructor refuses both
    bad = constants_from_brackets(xy=(0, 0, 1), zx=(1, 0, 0)).c
    nil = catalog("Nil3").constants.c
    for c, lie in ((bad, False), (nil, True)):
        if scale > 1e154:
            with pytest.raises(ValueError, match="must be finite"):
                StructureConstants(scale * c)
            continue
        sc = StructureConstants(scale * c)
        assert sc.is_valid() is lie
        if lie:
            assert algebra._require_scaled_lie(sc).residual == 0.0
            assert classify(sc).tag == "II"
        else:
            with pytest.raises(NotLieAlgebraError, match="not a Lie algebra"):
                algebra._require_scaled_lie(sc)


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


@pytest.mark.parametrize(
    "u",
    [1.0, [[0.6, 0.8, 0.0]], [[0.6], [0.8], [0.0]], [0.6, 0.8], [0.6, 0.8, 0.0, 0.0]],
    ids=["scalar", "row", "column", "two", "four"],
)
def test_orthonormal_frame_refuses_a_direction_not_of_shape_3(u):
    """These failed with a TypeError or an unpacking ValueError from inside
    the completion; each is refused, named, as residuals refuses it."""
    u = np.array(u)
    message = re.escape(f"direction must have shape (3,), got {u.shape}")
    with pytest.raises(ValueError, match=message):
        orthonormal_frame(u)

def _np_cross_frame(u):
    """The completion that orthonormal_frame computed on numpy arrays, before
    it moved onto Python floats: np.argmin, np.cross and np.linalg.norm."""
    k = int(np.argmin(np.abs(u)))
    axis = np.zeros(3)
    axis[k] = 1.0
    h1 = np.cross(axis, u)
    h1 = h1 / np.linalg.norm(h1)
    return h1, np.cross(u, h1)


def _same_frame(u):
    # _norm's dot overflows as np.linalg.norm's does
    with np.errstate(all="ignore"):
        want = _np_cross_frame(u)
        got = orthonormal_frame(u)
    assert [h.tobytes() for h in got] == [h.tobytes() for h in want], u


def test_cross_matches_np_cross_bitwise():
    """orthonormal_frame's two cross products on Python floats give the bits
    of np.cross at any magnitude, on signed zeros and where the squared
    length overflows; a vector whose completion has length zero (the zero
    vector, or one whose squared length underflows) is refused, where numpy
    divided by zero."""
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300])
    refused = 0
    for k in range(2000):
        if k % 2:
            u = rng.choice(special, 3)
        else:
            u = rng.standard_normal(3) * 10.0 ** rng.integers(-20, 20, 3)
        with np.errstate(all="ignore"):
            h1 = np.cross(np.eye(3)[int(np.argmin(np.abs(u)))], u)
            zero = np.linalg.norm(h1) == 0.0
        if zero:
            with pytest.raises(ValueError, match="length zero"):
                orthonormal_frame(u)
            refused += 1
        else:
            _same_frame(u)
    assert 0 < refused < 1000


def test_orthonormal_frame_matches_np_cross_completion_bitwise():
    """On unit vectors, random and tied: the axes and their negatives, the
    diagonals (1,1,1)/sqrt 3 and (1,1,0)/sqrt 2 with every sign and order,
    and negative zeros."""
    rng = np.random.default_rng(61)
    for _ in range(3000):
        u = rng.standard_normal(3)
        _same_frame(u / np.linalg.norm(u))
    ties = [np.eye(3)[j] for j in range(3)]
    ties += [np.ones(3) / np.sqrt(3.0), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)]
    cases = 0
    for tie in ties:
        for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1]):
            for signs in np.array(np.meshgrid(*[[1.0, -1.0]] * 3)).T.reshape(-1, 3):
                # a sign on an entry 0.0 makes it -0.0
                _same_frame(tie[order] * signs)
                cases += 1
    assert cases == 5 * 4 * 8


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


def test_orthonormalize_matches_cholesky_change_basis():
    # one SVD of L and the inverse L^T against inv(L).T through change_basis
    rng = np.random.default_rng(21)
    for sc, _ in brackets_across_scales(seed=21):
        metric = MetricSpec(random_spd(rng))
        got = orthonormalize(sc, metric).c
        p = np.linalg.inv(np.linalg.cholesky(metric.g)).T
        want = change_basis(sc, p).c
        assert np.abs(got - want).max() <= 1e-13 * np.linalg.norm(want)
    # beyond CONDITION_LIMIT: cond(L) = sqrt(1e17)
    ill = MetricSpec(np.diag([1.0, 1.0, 1e-17]))
    sc = catalog("Nil3").constants
    message = "basis-change matrix is singular or too ill conditioned"
    with pytest.raises(ValueError, match=message):
        orthonormalize(sc, ill)
    with pytest.raises(ValueError, match=message):
        change_basis(sc, np.linalg.inv(np.linalg.cholesky(ill.g)).T)


def _lower_inverse(lower):
    """The inverse of a lower triangular matrix by forward substitution,
    one entry at a time."""
    l = lower.tolist()
    x = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        x[i][i] = 1.0 / l[i][i]
        for j in range(i):
            x[i][j] = -sum(l[i][k] * x[k][j] for k in range(j, i)) * x[i][i]
    return np.array(x)


def test_orthonormalize_reuses_the_metric_cholesky_factor():
    # the factor kept by MetricSpec is the one a fresh factorization of the
    # stored g gives, and the constants are rebased by its closed-form
    # inverse transpose and by L^T, bit for bit
    rng = np.random.default_rng(23)
    for sc, _ in brackets_across_scales(seed=23, per_scale=4):
        metric = MetricSpec(random_spd(rng))
        lower = np.linalg.cholesky(metric.g)
        assert metric._lower.tobytes() == lower.tobytes()
        assert not metric._lower.flags.writeable
        inverse = _lower_inverse(lower)
        assert np.abs(inverse - np.linalg.inv(lower)).max() <= 1e-13 * np.abs(inverse).max()
        want = algebra._rebase(sc, inverse.T, lower.T).c
        assert orthonormalize(sc, metric).c.tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        MetricSpec(np.eye(3), np.eye(3))


def test_orthonormalize_accepts_and_rejects_as_the_svd_does(monkeypatch):
    """Rotated metrics with cond(L) from 1e7 to 1e9.  Where the Frobenius
    bound |L|_F |L^-1|_F is within CONDITION_LIMIT orthonormalize takes no
    SVD; past it, _conditioned_svd decides.  Either way the verdict is the
    2-norm one of _conditioned_svd(metric._lower)."""
    svd = algebra._conditioned_svd
    calls = []

    def counted(m):
        calls.append(m)
        return svd(m)

    monkeypatch.setattr(algebra, "_conditioned_svd", counted)
    rng = np.random.default_rng(31)
    sc = catalog("Nil3").constants
    outcomes, conds = set(), []
    for i in range(400):
        cond = 10.0 ** rng.uniform(7.0, 9.0)
        # singular values of L: 1, 1/cond and the middle one anywhere from
        # either end, where |L|_F |L^-1|_F is sqrt(2) cond, to the other
        middle = rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)])
        s = np.array([1.0, cond**-middle, 1.0 / cond])
        if i % 2:
            # a random rotation: past cond(L) ~ 1e8 the rounding of g
            # decides the small singular value
            q = random_orthogonal(rng)
        else:
            # a rotation of the two largest axes only, which keeps g's
            # smallest eigenvalue exact up to cond(L) = 1e9
            turn = rng.uniform(0.0, 2.0 * np.pi)
            q = np.eye(3)
            q[:2, :2] = [[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]]
            q = q[rng.permutation(3)]
        g = (q * s**2) @ q.T
        try:
            metric = MetricSpec(0.5 * (g + g.T))
        except ValueError:
            continue
        lower = metric._lower
        try:
            svd(lower)
            want = True
        except ValueError:
            want = False
        calls.clear()
        try:
            orthonormalize(sc, metric)
            got = True
        except ValueError:
            got = False
        assert got == want
        bound = np.linalg.norm(lower) * np.linalg.norm(np.linalg.inv(lower))
        if bound < CONDITION_LIMIT * (1 - 1e-9):
            assert calls == []
        elif bound > CONDITION_LIMIT * (1 + 1e-9):
            assert len(calls) == 1 and calls[0] is lower
        outcomes.add((want, bool(calls)))
        conds.append(np.linalg.cond(lower))
    # both sides of the bound, and both verdicts past it
    assert outcomes == {(True, False), (True, True), (False, True)}
    assert min(conds) < 2e7 and max(conds) > 5e8


@pytest.mark.parametrize(
    "g",
    [
        [[1e308, 9e307, 0.0], [9e307, 1e308, 0.0], [0.0, 0.0, 1.0]],
        np.diag([1.7e308, 1.0, 1.0]),
        1e308 * np.eye(3),
    ],
)
def test_huge_metrics_stay_finite(g, monkeypatch):
    # 0.5 * (g + g.T) overflowed to inf, whose Cholesky factor then reached
    # an SVD that never returned
    g = np.asarray(g, dtype=float)
    metric = MetricSpec(g)
    assert metric.g.tobytes() == g.tobytes()
    assert np.isfinite(metric._lower).all()

    lapack = algebra._lapack

    def refused(name, a):
        if not np.isfinite(a).all():
            raise AssertionError("LAPACK saw a non-finite matrix")
        return lapack(name, a)

    monkeypatch.setattr(algebra, "_lapack", refused)
    message = "basis-change matrix is singular or too ill conditioned"
    for bad in (np.inf, -np.inf, np.nan):
        m = np.array(metric._lower)
        m[1, 0] = bad
        with pytest.raises(ValueError, match=message):
            algebra._conditioned_svd(m)
        with pytest.raises(ValueError, match=message):
            change_basis(catalog("Nil3").constants, m)


def _symmetric_corpus(rng):
    """Symmetric 3x3 matrices with distinct, double and triple eigenvalues,
    in random orthonormal frames, and with random entries."""
    for _ in range(40):
        q = random_orthogonal(rng)
        a, b, c = rng.standard_normal(3) * 10.0 ** rng.uniform(-3, 3)
        for values in ((a, b, c), (a, a, b), (a, a, a), (0.0, 0.0, a), (0.0, 0.0, 0.0)):
            yield (q * np.array(values)) @ q.T
        m = rng.standard_normal((3, 3))
        yield m + m.T


def _bracket_maps(rng):
    """The 9x3 maps ``u -> c[u]`` of ``bianchi._centre``: catalog brackets in
    random bases, of full rank (SU2, Sol3, G7) and with a centre (Nil3,
    H2xR)."""
    for _ in range(20):
        for name, alpha in (
            ("SU2", None), ("Sol3", 2.0), ("G7", 0.5), ("Nil3", None), ("H2xR", None)
        ):
            c = change_basis(catalog(name, alpha).constants, random_gl(rng)).c
            yield c.reshape(3, 9).T


def _spd_metrics(rng):
    """SPD metrics in random frames with condition numbers from 1 up to
    CONDITION_LIMIT."""
    for cond in np.geomspace(1.0, CONDITION_LIMIT, 60):
        q = random_orthogonal(rng)
        s = np.array([1.0, cond ** rng.uniform(), cond]) * 10.0 ** rng.uniform(-5, 5)
        g = (q * s) @ q.T
        yield 0.5 * g + 0.5 * g.T


def _same_bits(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for x, y in zip(got, want):
            _same_bits(x, y)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_lapack_matches_numpy_linalg_bit_for_bit():
    """Each gufunc that _lapack runs gives numpy.linalg's result in every bit,
    on the kinds of input the package factorises."""
    rng = np.random.default_rng(73)
    cases = 0
    for m in _symmetric_corpus(rng):
        _same_bits(algebra._lapack("eigh_lo", m), tuple(np.linalg.eigh(m)))
        _same_bits(algebra._lapack("eigvalsh_lo", m), np.linalg.eigvalsh(m))
        cases += 1
    for m in _bracket_maps(rng):
        _same_bits(
            algebra._lapack("svd_s", m), tuple(np.linalg.svd(m, full_matrices=False))
        )
        cases += 1
    for g in _spd_metrics(rng):
        lower = algebra._lapack("cholesky_lo", g)
        _same_bits(lower, np.linalg.cholesky(g))
        _same_bits(MetricSpec(g)._lower, lower)
        # _conditioned_svd's thin SVD of a square matrix is the full one
        for m in (lower, random_gl(rng)):
            _same_bits(algebra._lapack("svd_s", m), tuple(np.linalg.svd(m)))
        cases += 1
    assert cases == 240 + 100 + 60


def test_norm_matches_numpy_linalg_norm():
    """_norm, which replaces np.linalg.norm on every per-op path, gives its
    bits: on vectors, slices of a residual vector and 3x3 matrices."""
    rng = np.random.default_rng(79)
    for m in _symmetric_corpus(rng):
        v = rng.standard_normal(12) * 10.0 ** rng.uniform(-150, 150)
        for x in (m, m.T, m[0], m[:, 1], v, v[:3], v[3:], np.zeros(3)):
            assert algebra._norm(x) == float(np.linalg.norm(x))
        u = v[:3]
        k = int(np.argmin(np.abs(u)))
        axis = np.zeros(3)
        axis[k] = 1.0
        h1 = np.cross(axis, u)
        assert orthonormal_frame(u)[0].tobytes() == (h1 / np.linalg.norm(h1)).tobytes()


_WRAPPERS = {
    "cholesky_lo": np.linalg.cholesky,
    "eigh_lo": np.linalg.eigh,
    "eigvalsh_lo": np.linalg.eigvalsh,
    "svd_s": lambda a: np.linalg.svd(a, full_matrices=False),
}


def _outcome(call, a):
    """The bytes of ``call(a)``'s arrays, or its LinAlgError's message."""
    try:
        result = call(a)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return [x.tobytes() for x in (result if isinstance(result, tuple) else (result,))]


@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("cholesky_lo", (3, 3), "Matrix is not positive definite"),
        ("eigh_lo", (3, 3), "Eigenvalues did not converge"),
        ("eigvalsh_lo", (3, 3), "Eigenvalues did not converge"),
        ("svd_s", (9, 3), "SVD did not converge"),
    ],
)
def test_lapack_fails_as_numpy_linalg_does(name, shape, message):
    """Where LAPACK fails, _lapack raises numpy.linalg's LinAlgError with the
    wrapper's own message, and neither warns.  An all-NaN input fails the
    eigensolvers and the SVDs; the Cholesky factorisation fails on a
    matrix that is not positive definite, and on NaN it returns NaN without
    an error in both."""
    wrapper = tuple if name in ("eigh_lo", "svd_s") else np.asarray
    inputs = [np.full(shape, np.nan), np.eye(*shape), np.eye(*shape)]
    inputs[1][1, 1] = np.nan
    inputs[2][1, 1] = -1.0
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in inputs:
            want = _outcome(lambda x: wrapper(_WRAPPERS[name](x)), a)
            assert _outcome(lambda x: algebra._lapack(name, x), a) == want
            outcomes.append(want)
    assert message in outcomes


def test_lapack_error_states_are_those_np_errstate_builds():
    """On this numpy _lapack takes the private route: each gufunc is
    numpy.linalg's own, and its error state, set on the context variable
    np.errstate sets, reads back as the wrapper's: invalid calls back to
    raise the wrapper's LinAlgError, and nothing else warns."""
    contextvar = np.errstate.__enter__.__globals__["_extobj_contextvar"]
    assert np.errstate.__exit__.__globals__["_extobj_contextvar"] is contextvar
    for name, (gufunc, var, extobj) in algebra._LAPACK.items():
        assert gufunc is getattr(np.linalg._umath_linalg, name)
        assert var is contextvar
        token = var.set(extobj)
        try:
            state, call = np.geterr(), np.geterrcall()
        finally:
            var.reset(token)
        assert state == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "call"}
        with pytest.raises(np.linalg.LinAlgError) as error:
            call("invalid value", 8)
        assert str(error.value) == algebra._LAPACK_MESSAGES[name]


def _catalog_report_bits():
    """The bits of every factorised result on the catalog corpus: each
    catalog row in three random bases and metrics, through the metric's
    Cholesky factor, orthonormalize, change_basis, classify, curvature and
    the search; and each gufunc's outcome on inputs where LAPACK fails."""
    from lie3geo.foliation import search_directions
    from lie3geo.geometry import curvature

    rng = np.random.default_rng(109)
    bits = []
    for name in catalog_names():
        entry = catalog(name, {"Sol3": 2.0, "G7": 0.5}.get(name))
        for _ in range(3):
            p = random_gl(rng)
            metric = MetricSpec(random_spd(rng))
            sc = orthonormalize(change_basis(entry.constants, p), metric)
            bt = classify(sc)
            rep = curvature(sc)
            search = search_directions(sc)
            bits.append((
                metric._lower.tobytes(),
                sc.c.tobytes(),
                bt.tag,
                None if bt.param is None else bt.param.hex(),
                rep.ricci.tobytes(),
                rep.riemann.tobytes(),
                rep.scalar.hex(),
                [(v.hex(), m) for v, m in rep.ricci_spectrum],
                rep.constant_curvature,
                search.constant_curvature,
                [(d.direction.tobytes(), d.geodesic_residual.hex()) for d in search.directions],
            ))
    for name, bad in (
        ("cholesky_lo", np.diag([1.0, -1.0, 1.0])),
        ("eigh_lo", np.full((3, 3), np.nan)),
        ("eigvalsh_lo", np.full((3, 3), np.nan)),
        ("svd_s", np.full((3, 3), np.nan)),
    ):
        bits.append(_outcome(lambda x: algebra._lapack(name, x), bad))
    nil = catalog("Nil3").constants
    for build, bad in (
        (MetricSpec, np.diag([1.0, -1.0, 1.0])),
        (lambda p: change_basis(nil, p), np.diag([1.0, 1.0, 0.0])),
        (lambda p: change_basis(nil, p), np.diag([1.0, 1.0, 1e-12])),
    ):
        with pytest.raises(ValueError) as error:
            build(bad)
        bits.append(str(error.value))
    return bits


@pytest.mark.parametrize("missing", ["gufunc", "module", "error state"])
def test_lapack_falls_back_to_the_public_wrappers(monkeypatch, missing):
    """A numpy that lacks one of the private names takes the public route
    of _lapack_table: a gufunc gone from numpy.linalg._umath_linalg
    (AttributeError), the module itself, or _make_extobj (ImportError).
    The names are hidden only while the table is built, since this numpy's
    public wrappers read them too; every result and error message on the
    catalog corpus then keeps its bits."""
    want = _catalog_report_bits()
    with monkeypatch.context() as patch:
        if missing == "gufunc":
            patch.delattr(np.linalg._umath_linalg, "svd_s")
        elif missing == "module":
            patch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
            patch.delattr(np.linalg, "_umath_linalg")
        else:
            patch.delattr(np._core._ufunc_config, "_make_extobj")
        table = algebra._lapack_table()
    assert table == {name: (wrapper, None, None) for name, wrapper in algebra._PUBLIC_LAPACK.items()}
    monkeypatch.setattr(algebra, "_LAPACK", table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _catalog_report_bits() == want


def _error_state():
    return np.geterr(), np.geterrcall()


@pytest.mark.parametrize("caller", [{}, {"all": "raise"}, {"all": "warn", "call": print}])
def test_lapack_restores_the_callers_error_state(caller):
    """After _lapack returns and after it raises, np.geterr and
    np.geterrcall read what the caller set; inside the call the state is
    the wrapper's, whatever the caller set."""
    with np.errstate(**caller):
        before = _error_state()
        for name, good, bad in (
            ("cholesky_lo", np.eye(3), np.diag([1.0, -1.0, 1.0])),
            ("eigh_lo", np.eye(3), np.full((3, 3), np.nan)),
            ("eigvalsh_lo", np.eye(3), np.full((3, 3), np.nan)),
            ("svd_s", np.eye(3), np.full((3, 3), np.nan)),
        ):
            algebra._lapack(name, good)
            assert _error_state() == before, name
            with pytest.raises(np.linalg.LinAlgError):
                algebra._lapack(name, bad)
            assert _error_state() == before, name


def test_lapack_failure_raises_numpys_message_inside_errstate_raise():
    """A caller's np.errstate(all="raise") does not reach the gufunc: a
    failing factorisation raises LinAlgError with numpy.linalg's message,
    not FloatingPointError, and nothing warns."""
    for name, bad, message in (
        ("cholesky_lo", np.diag([1.0, -1.0, 1.0]), "Matrix is not positive definite"),
        ("eigh_lo", np.full((3, 3), np.nan), "Eigenvalues did not converge"),
        ("eigvalsh_lo", np.full((3, 3), np.nan), "Eigenvalues did not converge"),
        ("svd_s", np.full((9, 3), np.nan), "SVD did not converge"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(all="raise"):
                with pytest.raises(np.linalg.LinAlgError) as error:
                    algebra._lapack(name, bad)
        assert str(error.value) == message, name
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], name


def test_metric_not_positive_definite_keeps_its_message():
    """The Cholesky gufunc's LinAlgError still reaches MetricSpec as its own
    ValueError, without a warning."""
    for g in (np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3)), [[1, 2, 0], [2, 1, 0], [0, 0, 1]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as caught:
                MetricSpec(g)
        assert str(caught.value) == "metric is not positive definite"


def test_metric_spec_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpec(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        MetricSpec(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        MetricSpec(np.eye(2))
    g = MetricSpec(np.diag([2.0, 3.0, 4.0]))
    assert np.allclose(g.g, np.diag([2.0, 3.0, 4.0]))


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
def test_metric_symmetry_check_is_relative(scale):
    skew = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        MetricSpec(scale * (np.eye(3) + skew))
    g = scale * (np.eye(3) + 1e-10 * skew)
    assert MetricSpec(g).g.tobytes() == (0.5 * (g + g.T)).tobytes()


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

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cartanarea import lagrangian as lag
from cartanarea.errors import DegenerateFrameWarning, DomainError, NotPositiveDefinite
from cartanarea.frames import (
    boundary_flux,
    boundary_residual_of_field,
    cartan_frame,
    normal_from_homogenized,
    normal_length,
    unit_normal_dual,
    variational_frame,
)
from cartanarea.gram import MetricTensor
from cartanarea.grassmann import GrassmannElement


def elem(n, p, slopes):
    return GrassmannElement(n=n, p=p, slopes=slopes)


def test_frame_flat_graph():
    fr = cartan_frame(lag.area_hypersurface(3), elem(3, 2, [[0.0, 0.0]]))
    assert np.allclose(fr.vectors, [[0.0, 0.0, -1.0]])


def test_frame_area3_slope():
    fr = cartan_frame(lag.area_hypersurface(3), elem(3, 2, [[1.0, 0.0]]))
    r2 = math.sqrt(2.0)
    assert np.allclose(fr.vectors, [[1 / r2, 0.0, -1 / r2]], rtol=1e-14)
    # parallel to (p, q, -1)
    assert np.linalg.norm(np.cross(fr.vectors[0], [1.0, 0.0, -1.0])) < 1e-14


def test_frame_plucker_example_point():
    with pytest.warns(DegenerateFrameWarning):
        fr = cartan_frame(lag.area_plucker_4d(), elem(4, 2, [[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(fr.vectors[0], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(fr.vectors[1], [0.0, 0.0, 0.0, -1.0])
    assert fr.degenerate == (0,)


def test_frame_dirichlet_by_hand():
    fr = cartan_frame(lag.dirichlet(3, 2), elem(3, 2, [[2.0, 0.0]]))
    assert np.allclose(fr.vectors, [[2.0, 0.0, 2.0]])


def test_frame_normalize_flag():
    fr = cartan_frame(lag.area_hypersurface(3), elem(3, 2, [[3.0, -4.0]]), normalize=True)
    assert np.linalg.norm(fr.vectors[0]) == pytest.approx(1.0, rel=1e-14)


def test_example1_parallelism_random():
    L = lag.area_hypersurface(3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        pq = rng.uniform(-5, 5, 2)
        v = cartan_frame(L, elem(3, 2, pq[None, :])).vectors[0]
        target = np.array([pq[0], pq[1], -1.0])
        assert np.linalg.norm(np.cross(v, target)) < 1e-12 * np.linalg.norm(v) * np.linalg.norm(target)


def test_example2_closed_form_random():
    L = lag.area_plucker_4d()
    rng = np.random.default_rng(8)
    done = 0
    while done < 200:
        q = rng.uniform(-3, 3, (2, 2))
        if L([0, 0], [0, 0], q) <= 0.1:
            continue
        done += 1
        d = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        value = math.sqrt(np.sum(q * q) + d * d)
        v1 = np.array([q[0, 0] + q[1, 1] * d, q[0, 1] - q[1, 0] * d, -(q[1, 1] ** 2 + q[1, 0] ** 2), 0.0]) / value
        v2 = np.array([q[1, 0] - q[0, 1] * d, q[1, 1] + q[0, 0] * d, 0.0, -(q[0, 0] ** 2 + q[0, 1] ** 2)]) / value
        fr = cartan_frame(L, elem(4, 2, q))
        assert np.allclose(fr.vectors[0], v1, rtol=1e-12, atol=1e-14)
        assert np.allclose(fr.vectors[1], v2, rtol=1e-12, atol=1e-14)


def test_euclidean_coincidence_locus():
    # unit slope rows with vanishing 2x2 determinant: the frame spans the
    # same plane as the Euclidean orthogonal complement
    L = lag.area_plucker_4d()
    for theta in np.linspace(0.0, 2 * np.pi, 17):
        for sign in (1.0, -1.0):
            q = np.array(
                [[sign * np.cos(theta), np.sin(theta)], [sign * np.cos(theta), np.sin(theta)]]
            )
            fr = cartan_frame(L, elem(4, 2, q))
            euclid = np.array(
                [[q[0, 0], q[0, 1], -1.0, 0.0], [q[1, 0], q[1, 1], 0.0, -1.0]]
            )
            s = np.linalg.svd(np.vstack([fr.vectors, euclid]), compute_uv=False)
            assert s[1] / max(s[2], 1e-300) > 1e8


def test_scale_covariance():
    L = lag.area_hypersurface(3)
    c = 3.5
    scaled = lag.LagrangianField(
        n=3, p=2, func=lambda x, z, q: c * L.func(x, z, q), name="scaled"
    )
    e = elem(3, 2, [[0.7, -1.2]])
    f1 = cartan_frame(L, e).vectors
    f2 = cartan_frame(scaled, e).vectors
    assert np.allclose(f2, c * f1, rtol=1e-12)


def test_identity_residual_codim1():
    rng = np.random.default_rng(9)
    for L in (lag.area_hypersurface(3), lag.dirichlet(3, 2), lag.area_graph_gram(3, 2)):
        for _ in range(100):
            q = rng.uniform(-2, 2, (1, 2))
            lamb = rng.uniform(-2, 2, 1)
            value = L([0, 0], [0.0], q)
            if abs(value) < 0.1:
                continue
            e = elem(3, 2, q)
            res = boundary_residual_of_field(L, e, lamb @ cartan_frame(L, e).vectors)
            assert np.max(np.abs(res)) <= 1e-10 * abs(value) * max(np.linalg.norm(lamb), 1e-6)


def test_identity_residual_zero_mixture():
    L = lag.area_plucker_4d()
    e = elem(4, 2, [[1.0, 0.5], [0.2, 2.0]])
    res = boundary_residual_of_field(L, e, np.array([0.0, 0.0]) @ cartan_frame(L, e).vectors)
    assert np.array_equal(res, [0.0, 0.0])


def test_identity_residual_codim2_cross_coupling():
    # With zero fiber off-diagonals the frame drops the cross-row momentum
    # coupling, so in codimension two the reconstructed residual is nonzero
    # whenever the slope rows fail to be momentum-orthogonal.  Hand value
    # at q = [[1,0],[1,0]], lambda = (1,0): L = sqrt(2), M = q/sqrt(2),
    # residual_1 = -M[1,0]*B_21 = -(1/sqrt 2)(1/sqrt 2) = -1/2.
    L = lag.area_plucker_4d()
    e = elem(4, 2, [[1.0, 0.0], [1.0, 0.0]])
    res = boundary_residual_of_field(L, e, np.array([1.0, 0.0]) @ cartan_frame(L, e).vectors)
    assert np.allclose(res, [-0.5, 0.0], atol=1e-14)


def test_variational_frame_kills_codim2_cross_coupling():
    # the point where the closed form leaves -1/2 (test above)
    L = lag.area_plucker_4d()
    e = elem(4, 2, [[1.0, 0.0], [1.0, 0.0]])
    for v in variational_frame(L, e):
        assert np.max(np.abs(boundary_residual_of_field(L, e, v))) <= 1e-14


def test_variational_frame_matches_closed_form_in_codim1():
    L = lag.area_hypersurface(3)
    rng = np.random.default_rng(13)
    for _ in range(50):
        e = elem(3, 2, rng.uniform(-3, 3, (1, 2)))
        got = variational_frame(L, e).vectors
        assert np.allclose(got, cartan_frame(L, e, normalize=True).vectors, atol=1e-14)


def test_variational_frame_rows_orthonormal():
    rng = np.random.default_rng(14)
    for L in (lag.area_plucker_4d(), lag.area_graph_gram(4, 2), lag.area_graph_gram(5, 2)):
        for _ in range(50):
            e = elem(L.n, L.p, rng.uniform(-2, 2, (L.codim, L.p)))
            v = variational_frame(L, e).vectors
            assert v.shape == (L.codim, L.n)
            assert np.allclose(v @ v.T, np.eye(L.codim), atol=1e-14)


def _floats(bound):
    return st.floats(-bound, bound, allow_nan=False, width=32)


@st.composite
def flux_inputs(draw):
    """Momenta, L, slopes and two vectors of one random shape (n, p)."""
    n = draw(st.integers(2, 5))
    p = draw(st.integers(1, n - 1))
    momenta = draw(hnp.arrays(float, (n - p, p), elements=_floats(10)))
    value = draw(_floats(10))
    q = draw(hnp.arrays(float, (n - p, p), elements=_floats(10)))
    X, Y = (draw(hnp.arrays(float, n, elements=_floats(10))) for _ in range(2))
    return momenta, value, q, X, Y


@settings(max_examples=100, deadline=None)
@given(flux_inputs(), _floats(5), _floats(5))
def test_boundary_flux_is_linear_in_x(inputs, a, b):
    momenta, value, q, X, Y = inputs
    got = boundary_flux(momenta, value, q, a * X + b * Y)
    want = a * boundary_flux(momenta, value, q, X) + b * boundary_flux(momenta, value, q, Y)
    flux_map = boundary_flux(momenta, value, q, np.eye(X.size))
    scale = np.abs(flux_map).sum(axis=1) * (abs(a) * np.abs(X).max() + abs(b) * np.abs(Y).max())
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@st.composite
def builtin_elements(draw):
    """A built-in Lagrangian and a random slope element of its dimensions."""
    kind = draw(st.sampled_from(["area", "plucker4", "gram", "dirichlet"]))
    if kind == "plucker4":
        L = lag.area_plucker_4d()
    else:
        n = draw(st.integers(2, 5))
        if kind == "area":
            L = lag.area_hypersurface(n)
        else:
            p = draw(st.integers(1, n - 1))
            L = lag.area_graph_gram(n, p) if kind == "gram" else lag.dirichlet(n, p)
    slopes = draw(hnp.arrays(float, (L.codim, L.p), elements=_floats(3)))
    return L, elem(L.n, L.p, slopes)


@settings(max_examples=150, deadline=None)
@given(builtin_elements(), st.data())
def test_variational_frame_combinations_have_no_flux(case, data):
    L, e = case
    value = L(np.zeros(L.p), np.zeros(L.codim), e.slopes)
    assume(abs(value) > 0.1)
    lam = data.draw(hnp.arrays(float, L.codim, elements=_floats(5)))
    res = boundary_residual_of_field(L, e, lam @ variational_frame(L, e).vectors)
    assert np.linalg.norm(res) <= 1e-10 * abs(value) * np.linalg.norm(lam)


def test_variational_frame_flags_vanishing_lagrangian():
    with pytest.warns(DegenerateFrameWarning):
        fr = variational_frame(lag.dirichlet(3, 2), elem(3, 2, [[0.0, 0.0]]))
    assert fr.degenerate == (0,)
    assert variational_frame(lag.dirichlet(3, 2), elem(3, 2, [[2.0, 0.0]])).degenerate == ()


def test_residual_of_stacked_fields():
    L = lag.area_plucker_4d()
    e = elem(4, 2, [[1.0, 0.5], [0.2, 2.0]])
    X = np.random.default_rng(15).normal(size=(3, 4))
    got = boundary_residual_of_field(L, e, X)
    assert got.shape == (3, 2)
    for row, x in zip(got, X):
        assert np.allclose(row, boundary_residual_of_field(L, e, x), rtol=1e-14, atol=1e-15)
    with pytest.raises(ValueError):
        boundary_residual_of_field(L, e, np.zeros((2, 3)))


def test_non_frame_residual_generic():
    L = lag.area_hypersurface(3)
    rng = np.random.default_rng(10)
    norms = []
    for _ in range(100):
        q = rng.uniform(-2, 2, (1, 2))
        X = rng.normal(size=3)
        X /= np.linalg.norm(X)
        res = boundary_residual_of_field(L, elem(3, 2, q), X)
        norms.append(np.max(np.abs(res)))
    assert np.median(norms) > 1e-2


def test_normal_from_homogenized():
    F = lag.euclidean_norm(3)
    assert np.allclose(normal_from_homogenized(F, np.zeros(3), [0, 0, 2]), [0, 0, 1])
    r2 = math.sqrt(2.0)
    assert np.allclose(
        normal_from_homogenized(F, np.zeros(3), [1, 0, 1]), [1 / r2, 0, 1 / r2], rtol=1e-14
    )
    with pytest.raises(DomainError):
        normal_from_homogenized(F, np.zeros(3), [1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        normal_from_homogenized(F, np.zeros(3), [0.0, 0.0, 0.0])


def test_homogenized_matches_frame_direction():
    # the slope-gradient frame and the homogenized-gradient normal agree
    # up to sign and scale at matching chart points
    L = lag.area_hypersurface(3)
    F = lag.homogenize(L)
    rng = np.random.default_rng(11)
    for _ in range(50):
        pq = rng.uniform(-2, 2, 2)
        v = cartan_frame(L, elem(3, 2, pq[None, :])).vectors[0]
        xi = np.array([-pq[0], -pq[1], 1.0])
        w = normal_from_homogenized(F, np.zeros(3), xi)
        cosang = abs(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert cosang == pytest.approx(1.0, abs=1e-12)


def test_unit_normal_dual():
    F = lag.euclidean_norm(3)
    got = unit_normal_dual(F, np.zeros(3), np.array([0.0, 3.0, 4.0]), 1.0)
    assert np.allclose(got, [0.0, 0.6, 0.8])
    got = unit_normal_dual(F, np.zeros(3), np.array([1.0, 0.0, 0.0]), 4.0)
    assert np.allclose(got, [2.0, 0.0, 0.0])
    rng = np.random.default_rng(12)
    for _ in range(100):
        xi = rng.uniform(0.2, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        g = rng.uniform(0.3, 5.0)
        ell_up = lag.grad_xi(F, np.zeros(3), xi) / math.sqrt(g)
        ell_dn = unit_normal_dual(F, np.zeros(3), xi, g)
        assert ell_up @ ell_dn == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotPositiveDefinite):
        unit_normal_dual(F, np.zeros(3), np.array([1.0, 0, 0]), -1.0)


def test_normal_length():
    assert normal_length(MetricTensor.euclidean(2)) == 1.0
    diag = MetricTensor(dim=2, components=np.diag([4.0, 9.0]))
    assert normal_length(diag) == pytest.approx(6.0)
    with pytest.raises(NotPositiveDefinite):
        normal_length(MetricTensor(dim=2, components=np.diag([1.0, -1.0])))

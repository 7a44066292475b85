import math

import numpy as np
import pytest

from cartanarea import lagrangian as lag
from cartanarea.dual import Dual
from cartanarea.errors import DomainError, NonFinite


def test_grad_q_area3():
    L = lag.area_hypersurface(3)
    assert np.allclose(lag.grad_q(L, [0, 0], [0.0], [[0.0, 0.0]]), [[0.0, 0.0]])
    got = lag.grad_q(L, [0, 0], [0.0], [[1.0, 0.0]])
    assert np.allclose(got, [[1 / math.sqrt(2), 0.0]], rtol=1e-14)


def test_grad_q_dirichlet():
    L = lag.dirichlet(3, 2)
    assert np.allclose(lag.grad_q(L, [0, 0], [0.0], [[2.0, 0.0]]), [[2.0, 0.0]])


def test_grad_z_and_x():
    L = lag.from_expression("z1*(1 + q1_1*q1_1)", 2, 1)
    assert np.allclose(lag.grad_z(L, [0.0], [3.0], [[2.0]]), [5.0])
    assert np.allclose(lag.grad_z(lag.area_hypersurface(3), [0, 0], [7.0], [[1.0, 2.0]]), [0.0])
    Lx = lag.from_expression("x1*q1_1", 2, 1)
    assert np.allclose(lag.grad_x(Lx, [4.0], [0.0], [[7.0]]), [7.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_nonfinite():
    L = lag.from_expression("log(q1_1)", 2, 1)
    with pytest.raises(NonFinite):
        lag.grad_q(L, [0.0], [0.0], [[-1.0]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: lag.area_hypersurface(3),
        lambda: lag.area_plucker_4d(),
        lambda: lag.area_graph_gram(4, 2),
        lambda: lag.dirichlet(3, 2),
    ],
)
def test_dual_matches_finite_differences(build):
    L = build()
    opaque = lag.LagrangianField(n=L.n, p=L.p, func=L.func, name=L.name, supports_dual=False)
    rng = np.random.default_rng(42)
    for _ in range(100):
        q = rng.uniform(-2, 2, (L.codim, L.p))
        if abs(L([0.0] * L.p, [0.0] * L.codim, q)) < 0.2:
            continue
        x = rng.uniform(-1, 1, L.p)
        z = rng.uniform(-1, 1, L.codim)
        exact = lag.grad_q(L, x, z, q)
        approx = lag.grad_q(opaque, x, z, q)
        assert np.allclose(approx, exact, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize(
    "build",
    [
        lambda: lag.area_hypersurface(3),
        lambda: lag.area_plucker_4d(),
        lambda: lag.area_graph_gram(4, 2),
        lambda: lag.dirichlet(3, 2),
    ],
)
def test_one_pass_gradient_equals_per_entry_passes(build):
    # reference: one scalar dual pass per slope entry; the vector seed
    # does the same arithmetic plus exact zeros, so results are equal
    L = build()
    rng = np.random.default_rng(12)
    for _ in range(20):
        x, z = rng.uniform(-1, 1, L.p), rng.uniform(-1, 1, L.codim)
        q = rng.uniform(-2, 2, (L.codim, L.p))
        ref = np.empty_like(q)
        for i in range(L.codim):
            for j in range(L.p):
                qd = [
                    [Dual(q[a, b], 1.0) if (a, b) == (i, j) else q[a, b] for b in range(L.p)]
                    for a in range(L.codim)
                ]
                ref[i, j] = L.func(list(x), list(z), qd).du
        assert np.array_equal(lag.grad_q(L, x, z, q), ref)


def test_area3_matches_closed_form():
    L = lag.area_hypersurface(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, q = rng.uniform(-5, 5, 2)
        assert L([0, 0], [0.0], [[p, q]]) == math.sqrt(1 + p * p + q * q)


def test_homogenize_values():
    F = lag.homogenize(lag.area_hypersurface(3))
    assert F([0, 0, 0], [0, 0, 1]) == pytest.approx(1.0)
    assert F([0, 0, 0], [1, 1, 1]) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    with pytest.raises(DomainError):
        F([0, 0, 0], [1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        lag.homogenize(lag.dirichlet(4, 2))


def test_homogeneity_at_random_points():
    F = lag.homogenize(lag.area_hypersurface(4))
    rng = np.random.default_rng(1)
    for _ in range(100):
        xi = rng.uniform(-2, 2, 4)
        xi[-1] = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        lam = rng.uniform(0.1, 10.0)
        f0 = F(np.zeros(4), xi)
        assert F(np.zeros(4), lam * xi) == pytest.approx(lam * f0, rel=1e-12)


def test_euler_identity():
    for F in (lag.homogenize(lag.area_hypersurface(3)), lag.euclidean_norm(3)):
        rng = np.random.default_rng(2)
        for _ in range(100):
            xi = rng.uniform(-2, 2, 3)
            xi[-1] = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
            g = lag.grad_xi(F, np.zeros(3), xi)
            f0 = F(np.zeros(3), xi)
            assert g @ xi == pytest.approx(f0, rel=1e-10, abs=1e-12)


def test_minkowski_euclidean():
    report = lag.minkowski_check(
        lag.euclidean_norm(3), [(np.zeros(3), np.array([0.0, 3.0, 4.0]))]
    )
    assert report.homogeneity_ok and report.hessian_ok
    assert report.min_eigenvalue == pytest.approx(1.0, rel=1e-10)


def test_minkowski_quartic_norm_hessian():
    def quartic(x, xi):
        from cartanarea import dual

        s = xi[0] ** 4 + xi[1] ** 4 + xi[2] ** 4
        return dual.power(s, 0.25)

    F = lag.HomogenizedLagrangian(n=3, func=quartic, name="l4")
    rng = np.random.default_rng(3)
    pts = []
    for _ in range(10):
        xi = rng.uniform(0.3, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        pts.append((np.zeros(3), xi))
        # symbolic Hessian of F^2/2 for the quartic norm
        s = np.sum(xi**4)
        H = 3 * np.diag(xi**2) / math.sqrt(s) - 2 * np.outer(xi**3, xi**3) / s**1.5
        got = lag.xi_hessian_half_square(F, np.zeros(3), xi)
        assert np.allclose(got, H, rtol=1e-9, atol=1e-11)
    report = lag.minkowski_check(F, pts)
    assert report.homogeneity_ok and report.hessian_ok


def test_minkowski_degenerate():
    F = lag.HomogenizedLagrangian(n=3, func=lambda x, xi: xi[0], name="xi1")
    report = lag.minkowski_check(F, [(np.zeros(3), np.array([1.0, 1.0, 1.0]))])
    assert not report.hessian_ok


def test_by_name():
    assert lag.by_name("area3").name == "area3"
    assert lag.by_name("plucker4").n == 4
    assert lag.by_name("gram", 4, 2).name == "gram4.2"
    assert lag.by_name("dirichlet", 3, 2).p == 2
    expr = lag.by_name("0.5*q1_1*q1_1", 2, 1)
    assert expr([0.0], [0.0], [[3.0]]) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        lag.by_name("gram")

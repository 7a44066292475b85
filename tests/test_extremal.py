import numpy as np
import pytest

from cartanarea import extremal
from cartanarea import lagrangian as lag
from cartanarea.extremal import (
    GridGraph,
    action,
    el_residual,
    grid_axes,
    make_graph,
    node_slopes,
    observed_orders,
    solve_dirichlet,
)

DOM = ((0.0, 1.0), (0.0, 1.0))
SCHERK_DOM = ((-0.5, 0.5), (-0.5, 0.5))


def scherk(x):
    return np.log(np.cos(x[0]) / np.cos(x[1]))


def scherk_grid(r):
    axes = grid_axes(SCHERK_DOM, (r, r))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.log(np.cos(X) / np.cos(Y))


def test_action_constant_integrand():
    one = lag.LagrangianField(n=3, p=2, func=lambda x, z, q: 1.0 + 0.0 * x[0], name="one")
    g = make_graph(one, DOM, (9, 9), np.zeros((9, 9)))
    assert action(one, g).value == pytest.approx(1.0, abs=1e-14)
    assert action(one, g, "trapezoid").value == pytest.approx(1.0, abs=1e-14)


def test_action_dirichlet_linear_graph():
    L = lag.dirichlet(3, 2)
    axes = grid_axes(DOM, (17, 17))
    X, _ = np.meshgrid(axes[0], axes[1], indexing="ij")
    g = make_graph(L, DOM, (17, 17), X)
    assert action(L, g).value == pytest.approx(0.5, abs=1e-12)


def test_action_flat_area():
    L = lag.area_hypersurface(3)
    g = make_graph(L, DOM, (9, 9), np.zeros((9, 9)))
    assert action(L, g).value == pytest.approx(1.0, abs=1e-14)
    assert action(L, g).quadrature_order == 1
    assert action(L, g, "trapezoid").quadrature_order == 2


def test_graph_validation():
    vals = np.zeros((9, 9, 1))
    with pytest.raises(ValueError):
        GridGraph(p=2, codim=1, domain=DOM, resolution=(4, 9), values=vals[:4], boundary_data=vals[:4])
    with pytest.raises(ValueError):
        GridGraph(p=2, codim=1, domain=DOM, resolution=(9, 9), values=vals, boundary_data=vals + 1.0)
    bad = vals.copy()
    bad[4, 4] = np.nan
    with pytest.raises(ValueError):
        GridGraph(p=2, codim=1, domain=DOM, resolution=(9, 9), values=bad, boundary_data=vals)


def test_residual_harmonic_graph_is_exact():
    L = lag.dirichlet(3, 2)
    for r in (17, 33):
        axes = grid_axes(DOM, (r, r))
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        g = make_graph(L, DOM, (r, r), X**2 - Y**2)
        assert np.max(np.abs(el_residual(L, g))) < 1e-11


def test_residual_affine_graph_translation_invariant():
    L = lag.area_hypersurface(3)
    axes = grid_axes(DOM, (9, 9))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    g = make_graph(L, DOM, (9, 9), 0.3 * X - 0.8 * Y + 0.1)
    assert np.max(np.abs(el_residual(L, g))) < 1e-13


def test_residual_scherk_second_order():
    L = lag.area_hypersurface(3)
    errs = []
    for r in (17, 33, 65):
        g = make_graph(L, SCHERK_DOM, (r, r), scherk_grid(r))
        errs.append(np.max(np.abs(el_residual(L, g))))
    assert min(observed_orders(errs)) >= 1.8


def test_solve_harmonic_dirichlet():
    L = lag.dirichlet(3, 2)
    sol = solve_dirichlet(L, lambda x: x[0] ** 2 - x[1] ** 2, DOM, 17)
    axes = grid_axes(DOM, (17, 17))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    assert np.max(np.abs(sol.values[..., 0] - (X**2 - Y**2))) < 1e-10
    assert sol.info["converged"]


def test_solve_flat_plane_is_minimal():
    L = lag.area_hypersurface(3)
    sol = solve_dirichlet(L, lambda x: 0.0, DOM, 9)
    assert np.max(np.abs(sol.values)) == 0.0
    assert action(L, sol).value == pytest.approx(1.0, abs=1e-14)


def test_solve_scherk_second_order():
    L = lag.area_hypersurface(3)
    errs = []
    for r in (17, 33):
        sol = solve_dirichlet(L, scherk, SCHERK_DOM, r)
        errs.append(np.max(np.abs(sol.values[..., 0] - scherk_grid(r))[1:-1, 1:-1]))
    assert observed_orders(errs)[0] >= 1.8


def test_solver_residual_below_tolerance():
    L = lag.area_hypersurface(3)
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 17)
    res = np.max(np.abs(el_residual(L, sol)))
    assert res < 1e-10 * (1.0 + abs(sol.info["action"]))


def test_action_history_decreases_for_convex_problem():
    L = lag.dirichlet(3, 2)
    sol = solve_dirichlet(
        L,
        lambda x: np.sin(3 * x[0]) + x[1] ** 3,
        DOM,
        17,
        init=np.random.default_rng(0).uniform(-1, 1, (17, 17, 1)),
    )
    hist = sol.info["action_history"]
    assert all(b <= a + 1e-12 for a, b in zip(hist[1:], hist[2:]))


def test_quadrature_convergence_factor():
    L = lag.area_hypersurface(3)
    for scheme in ("midpoint", "trapezoid"):
        vals = []
        for r in (9, 17, 33):
            axes = grid_axes(DOM, (r, r))
            X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
            g = make_graph(L, DOM, (r, r), np.sin(2 * X) * np.cos(Y))
            vals.append(action(L, g, scheme).value)
        ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])
        assert ratio >= 3.5


def test_node_slopes_accuracy():
    L = lag.area_hypersurface(3)
    g = make_graph(L, SCHERK_DOM, (33, 33), scherk_grid(33))
    slopes = node_slopes(g)
    axes = grid_axes(SCHERK_DOM, (33, 33))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    assert np.max(np.abs(slopes[..., 0, 0] - (-np.tan(X)))) < 5e-3
    assert np.max(np.abs(slopes[..., 0, 1] - np.tan(Y))) < 5e-3


def test_no_convergence_raises():
    from cartanarea.errors import NoConvergence

    L = lag.area_hypersurface(3)
    with pytest.raises(NoConvergence):
        solve_dirichlet(L, scherk, SCHERK_DOM, 17, max_iterations=1)


def test_descent_fallback_recovers(monkeypatch):
    # a failed Newton solve must fall back to descent and still converge
    import scipy.sparse.linalg as spla

    from cartanarea import extremal

    real_spsolve = spla.spsolve
    calls = {"n": 0}

    def flaky(A, b, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            return np.full_like(np.asarray(b), np.nan)
        return real_spsolve(A, b, **kwargs)

    monkeypatch.setattr(extremal.spla, "spsolve", flaky)
    L = lag.area_hypersurface(3)
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 9, init=np.zeros((9, 9, 1)))
    assert sol.info["converged"]
    assert sol.info["descent_rounds"] >= 1


def test_p1_line_solve_exact():
    L = lag.dirichlet(3, 1)
    sol = solve_dirichlet(L, lambda x: np.array([2.0 * x[0], 1.0 - x[0]]), ((0.0, 1.0),), 9)
    assert np.allclose(sol.values[3], [0.75, 0.625], atol=1e-12)
    assert action(L, sol).value == pytest.approx(2.5, abs=1e-12)


def test_p1_residual_consistency_order():
    # sin is not critical for the quadratic cost; the discrete residual
    # must converge to the true density -f'' = sin at second order
    L = lag.dirichlet(2, 1)
    errs = []
    for r in (17, 33, 65):
        x = np.linspace(0.0, 1.0, r)
        g = make_graph(L, ((0.0, 1.0),), (r,), np.sin(x)[:, None])
        res = el_residual(L, g)[:, 0]
        errs.append(np.max(np.abs(res - np.sin(x[1:-1]))))
    assert min(observed_orders(errs)) >= 1.8


@pytest.mark.parametrize(
    "L, domain, resolution",
    [
        (lag.area_hypersurface(3), DOM, (9, 9)),
        (lag.area_graph_gram(4, 2), DOM, (9, 9)),
        (lag.area_graph_gram(3, 1), ((0.0, 1.0),), (9,)),
    ],
    ids=["area3", "gram4.2", "gram3.1"],
)
def test_interior_hessian_matches_gradient_differences(L, domain, resolution):
    # non-harmonic data, so every second-derivative entry is exercised
    axes = grid_axes(domain, resolution)
    X = np.meshgrid(*axes, indexing="ij")
    values = np.stack(
        [np.sin(2.0 * X[0] + 0.5 * k) * np.cos(X[-1]) + (k + 1) * X[0] ** 2 for k in range(L.codim)],
        axis=-1,
    )
    cells = extremal._CellScheme(L, domain, resolution)
    interior = extremal._hessian_pattern(cells.resolution, cells.m).interior
    K = cells.hessian(values)
    n_int = int(np.prod([r - 2 for r in resolution])) * L.codim
    assert K.shape == (n_int, n_int) == (interior.size, interior.size)
    dense = K.toarray()
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * scale
    # independent reference: central differences of the exact gradient
    eps = 1e-5
    ref = np.empty_like(dense)
    for col, dof in enumerate(interior):
        plus, minus = values.copy(), values.copy()
        plus.reshape(-1)[dof] += eps
        minus.reshape(-1)[dof] -= eps
        gp, _ = cells.gradient(plus)
        gm, _ = cells.gradient(minus)
        ref[:, col] = (gp.reshape(-1)[interior] - gm.reshape(-1)[interior]) / (2 * eps)
    assert np.max(np.abs(dense - ref)) <= 1e-6 * scale
    # a second scheme of the same shape reuses the cached pattern
    again = extremal._CellScheme(L, domain, resolution).hessian(values)
    assert np.shares_memory(again.indices, K.indices)
    assert np.shares_memory(again.indptr, K.indptr)


def test_solve_info_counters():
    L = lag.area_hypersurface(3)
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 17)
    info = sol.info
    assert info["linear_solves"] >= info["iterations"] - 1
    assert info["linear_solve_s"] > 0.0
    assert info["hessian_s"] > 0.0
    assert info["smoother"] == "converged"


def test_default_init_smooths_by_property_not_name(monkeypatch):
    # a non-quadratic expression named like the built-in still gets the smoother
    L = lag.from_expression("sqrt(1 + q1_1**2 + q1_2**2)", 3, 2, name="dirichlet_like")
    assert not L.quadratic
    assert lag.dirichlet(3, 2).quadratic
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 9)
    assert sol.info["smoother"] == "converged"
    assert sol.info["converged"]
    quad = solve_dirichlet(lag.dirichlet(3, 2), scherk, SCHERK_DOM, 9)
    assert quad.info["smoother"] == "not run"
    # a smoother failure is recorded, not swallowed silently
    real_newton = extremal._newton

    def failing(L, *args):
        if L.quadratic:
            raise extremal.NoConvergence("stub")
        return real_newton(L, *args)

    monkeypatch.setattr(extremal, "_newton", failing)
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 9)
    assert sol.info["smoother"] == "NoConvergence: stub"
    assert sol.info["converged"]

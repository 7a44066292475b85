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
    vals = []
    for r in (9, 17, 33):
        axes = grid_axes(DOM, (r, r))
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        g = make_graph(L, DOM, (r, r), np.sin(2 * X) * np.cos(Y))
        vals.append(action(L, g).value)
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

    real_splu = spla.splu
    calls = {"n": 0}

    class FlakyFactor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            calls["n"] += 1
            if calls["n"] == 1:
                return np.full_like(np.asarray(b), np.nan)
            return self.lu.solve(b)

    def flaky(A, **kwargs):
        return FlakyFactor(real_splu(A, **kwargs))

    monkeypatch.setattr(extremal.spla, "splu", flaky)
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
        (lag.area_graph_gram(4, 2), ((0.0, 1.0), (0.0, 0.6)), (9, 7)),
        (lag.area_hypersurface(4), ((0.0, 1.0), (0.0, 0.8), (0.0, 0.6)), (5, 6, 5)),
    ],
    ids=["area3", "gram4.2", "gram3.1", "gram4.2-unequal-steps", "area4-p3"],
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
    # the generic stencil reproduces the hand-written p = 1 and p = 2 tables bit for bit
    steps = [(hi - lo) / (r - 1) for (lo, hi), r in zip(domain, resolution)]
    if L.p == 1:
        (h,) = steps
        assert cells.corners == ((0,), (1,))
        assert np.array_equal(cells.coeffs, [[0.5, 0.5], [-1.0 / h, 1.0 / h]])
    elif L.p == 2:
        hx, hy = steps
        assert cells.corners == ((0, 0), (1, 0), (0, 1), (1, 1))
        assert np.array_equal(
            cells.coeffs,
            [
                [0.25, 0.25, 0.25, 0.25],
                [-0.5 / hx, 0.5 / hx, -0.5 / hx, 0.5 / hx],
                [-0.5 / hy, -0.5 / hy, 0.5 / hy, 0.5 / hy],
            ],
        )
    # the gradient is the derivative of the action: central differences at interior dofs
    eps = 1e-5
    grad, A = cells.gradient(values)
    assert A == cells.action(values)
    fd = np.empty(interior.size)
    for k, dof in enumerate(interior):
        plus, minus = values.copy(), values.copy()
        plus.reshape(-1)[dof] += eps
        minus.reshape(-1)[dof] -= eps
        fd[k] = (cells.action(plus) - cells.action(minus)) / (2 * eps)
    g = grad.reshape(-1)[interior]
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(g))
    K = cells.hessian(values)
    n_int = int(np.prod([r - 2 for r in resolution])) * L.codim
    assert K.shape == (n_int, n_int) == (interior.size, interior.size)
    dense = K.toarray()
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * scale
    # independent reference: central differences of the exact gradient
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
    assert 1 <= info["factorizations"] <= info["linear_solves"]
    assert info["coarse_start"] is None
    assert info["linear_solve_s"] > 0.0
    assert info["hessian_s"] > 0.0


def _gram42_ring(x):
    # not harmonic: the Dirichlet minimizer differs from the transfinite lift
    return np.array([x[0] ** 2 * x[1], np.sin(2.0 * x[0]) - x[1] ** 3])


@pytest.mark.parametrize(
    "L, bc, domain",
    [(lag.area_hypersurface(3), scherk, SCHERK_DOM), (lag.area_graph_gram(4, 2), _gram42_ring, DOM)],
    ids=["area3-scherk", "gram4.2"],
)
def test_harmonic_start_is_one_exact_newton_step(L, bc, domain):
    # the start is the minimizer of the Dirichlet action on the ring data:
    # Newton on dirichlet(n, p) from the transfinite lift lands on it
    resolution = (17, 17)
    bvals = extremal._boundary_array(L, bc, domain, resolution)
    counters = extremal._SolveCounters()
    start = extremal._harmonic_start(L, bvals, domain, resolution, 1e-10, counters)
    assert (counters.factorizations, counters.linear_solves) == (1, 1)
    lift = extremal._transfinite(bvals, domain, resolution)
    mask = extremal.boundary_mask(resolution)
    lift[mask] = bvals[mask]
    assert np.max(np.abs(lift - start)) > 1e-3
    reference, info = extremal._newton(
        lag.dirichlet(L.n, L.p), lift, domain, resolution, 50, 1e-12, extremal._SolveCounters()
    )
    assert info["converged"]
    assert np.max(np.abs(start - reference)) <= 1e-14
    # on zero ring data the lift is already the minimizer: nothing is factored
    counters = extremal._SolveCounters()
    assert not np.any(extremal._harmonic_start(L, 0.0 * bvals, domain, resolution, 1e-10, counters))
    assert counters.factorizations == counters.linear_solves == 0
    # for dirichlet itself the start is the answer
    sol = solve_dirichlet(lag.dirichlet(L.n, L.p), bc, domain, 17)
    assert sol.info["converged"] and sol.info["iterations"] == 1
    assert sol.info["factorizations"] == sol.info["linear_solves"] == 1


@pytest.mark.parametrize("L", [lag.area_graph_gram(4, 2), lag.area_plucker_4d()], ids=lambda L: L.name)
def test_harmonic_start_takes_no_step_on_affine_ring_data(L):
    # the transfinite lift of affine data is affine, hence harmonic up to
    # round-off: Newton's own test finds it converged, and nothing is factored
    Q, c = np.array([[0.7, -0.2], [0.4, 1.1]]), np.array([0.3, -0.1])
    resolution = (17, 17)
    bvals = extremal._boundary_array(L, lambda x: Q @ x + c, DOM, resolution)
    counters = extremal._SolveCounters()
    start = extremal._harmonic_start(L, bvals, DOM, resolution, 1e-10, counters)
    assert counters.factorizations == counters.linear_solves == 0
    X, Y = np.meshgrid(*grid_axes(DOM, resolution), indexing="ij")
    affine = np.stack([X, Y], -1) @ Q.T + c
    assert np.max(np.abs(start - affine)) <= 1e-15


def test_ring_data_must_be_finite_callable_or_array():
    L = lag.area_hypersurface(3)
    with pytest.raises(ValueError, match="boundary data must be finite"):
        solve_dirichlet(L, lambda x: np.nan, DOM, 9)
    with pytest.raises(ValueError, match="boundary data must be finite"):
        solve_dirichlet(L, np.full((9, 9), np.nan), DOM, 9)
    with pytest.raises(ValueError, match="boundary data must be finite"):
        solve_dirichlet(L, lambda x: np.log(x[0]), DOM, 9)


def test_coarse_start_matches_smoother_start(monkeypatch):
    # 65 nodes halve to 33: the solve starts from the coarse solution and
    # must land on the same discrete minimum as the harmonic start
    L = lag.area_hypersurface(3)
    coarse = solve_dirichlet(L, scherk, SCHERK_DOM, 65)
    assert coarse.info["coarse_start"] == (33, 33)
    assert coarse.info["factorizations"] <= 2
    monkeypatch.setattr(extremal, "_coarse_resolution", lambda resolution: None)
    smooth = solve_dirichlet(L, scherk, SCHERK_DOM, 65)
    assert smooth.info["coarse_start"] is None
    assert np.max(np.abs(coarse.values - smooth.values)) <= 1e-12


def test_coarse_start_needs_a_clean_halving():
    assert extremal._coarse_resolution((65, 65)) == (33, 33)
    assert extremal._coarse_resolution((129, 65)) == (65, 33)
    assert extremal._coarse_resolution((33, 33)) is None
    assert extremal._coarse_resolution((64, 65)) is None
    assert extremal._coarse_resolution((65, 33)) is None
    # the oracle's levels halve by the same rule, down to 5 nodes per axis
    assert extremal.halved_resolution((9, 33)) == (5, 17)
    assert extremal.halved_resolution((7, 33)) is None
    assert extremal.halved_resolution((33, 32)) is None
    # a given init keeps its own start; every Lagrangian follows the same rule
    L = lag.area_hypersurface(3)
    given = solve_dirichlet(L, scherk, SCHERK_DOM, 65, init=np.zeros((65, 65, 1)))
    assert given.info["coarse_start"] is None
    quad = solve_dirichlet(lag.dirichlet(3, 2), scherk, SCHERK_DOM, 65)
    assert quad.info["coarse_start"] == (33, 33)


def test_poor_init_forces_refactorization():
    # from a flat start the first full steps are damped or contract slowly,
    # so the Hessian factor cannot be kept
    L = lag.area_hypersurface(3)
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 17, init=np.zeros((17, 17, 1)))
    assert sol.info["converged"]
    assert sol.info["factorizations"] > 1
    assert sol.info["factorizations"] <= sol.info["linear_solves"]
    assert np.max(np.abs(el_residual(L, sol))) <= 1e-10 * (1.0 + sol.info["action"])


def test_oracle_grid_keeps_the_factor(monkeypatch):
    # a 33-node grid runs the same chord policy as a large one: from the
    # harmonic start, full steps that contract 4x reuse the factor
    L = lag.area_hypersurface(3)
    kept = solve_dirichlet(L, scherk, SCHERK_DOM, 33)
    assert kept.info["coarse_start"] is None
    assert kept.info["factorizations"] < kept.info["linear_solves"]
    # refactoring at every iteration lands on the same discrete minimum
    monkeypatch.setattr(extremal, "_REUSE_CONTRACTION", 0.0)
    fresh = solve_dirichlet(L, scherk, SCHERK_DOM, 33)
    assert fresh.info["factorizations"] == fresh.info["linear_solves"]
    assert np.max(np.abs(kept.values - fresh.values)) <= 1e-11


def test_cubic_prolongation_reproduces_a_bicubic():
    def bicubic(x, y):
        return np.stack(
            [1.0 - x + 2.0 * x**3 * y**2 - 0.5 * y**3 * x, x**2 * y**3 - 3.0 * x * y + y], axis=-1
        )

    dom = ((-0.3, 0.9), (0.2, 1.0))
    grids = {}
    for r in ((9, 7), (17, 13)):
        axes = grid_axes(dom, r)
        grids[r] = bicubic(*np.meshgrid(axes[0], axes[1], indexing="ij"))
    fine = extremal._prolong(grids[(9, 7)])
    assert fine.shape == grids[(17, 13)].shape
    assert np.max(np.abs(fine - grids[(17, 13)])) <= 1e-13
    # a quartic is not reproduced: the test above is not vacuous
    axes = grid_axes(dom, (9, 7))
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    quartic = extremal._prolong((X**4)[..., None])[1::2, ::2, 0]
    axes = grid_axes(dom, (17, 13))
    assert np.max(np.abs(quartic - axes[0][1::2, None] ** 4)) > 1e-6


def test_failed_step_on_a_kept_factor_refactors(monkeypatch):
    # a step from a kept factor that is unusable must refactor at the
    # current values before any descent
    import scipy.sparse.linalg as spla

    L = lag.area_hypersurface(3)
    # the coarse start: its first full step contracts well, so the factor is kept
    init = extremal._prolong(solve_dirichlet(L, scherk, SCHERK_DOM, 33).values)
    real_splu = spla.splu
    calls = {"solve": 0}

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            calls["solve"] += 1
            if calls["solve"] == 2:
                return np.full_like(np.asarray(b), np.nan)
            return self.lu.solve(b)

    monkeypatch.setattr(extremal.spla, "splu", lambda A, **kw: Factor(real_splu(A, **kw)))
    sol = solve_dirichlet(L, scherk, SCHERK_DOM, 65, init=init)
    assert sol.info["converged"]
    assert sol.info["descent_rounds"] == 0
    assert sol.info["factorizations"] == 2
    assert sol.info["linear_solves"] >= 3

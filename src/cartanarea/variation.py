"""Brute-force first variation of the action under boundary deformations.

The oracle realizes the defining test for normality: displace each
boundary point of a critical graph along a vector field (one Euler step
m + t*psi(m)*N(m)), re-fit the base domain, re-solve the extremal
problem, and difference the actions in t.  A deformation field is
normal exactly when dA/dt at t = 0 vanishes for every intensity psi.

Two re-fit strategies cover the deformed base domain.  When every edge
is displaced rigidly in its normal direction (up to roundoff) the
domain stays a box and the re-solve is exact.  Otherwise the deformed
region bounded by the displaced edge curves is mapped back to the
original box by a transfinite (Coons) patch and the integrand is pulled
back through that map, so the re-solve runs on the exact deformed
domain with no boundary re-projection error.

One boundary sampler per graph (:class:`_BoundaryData`) feeds both
re-fits, the boundary formula and the graph-slope lookup of the
fields.  It holds the Dirichlet data (the user's callable, else the ring
values) and the ring slopes, interpolates them along each edge by local
cubics that are exact at the nodes, and turns run-parameters on an edge
into base points, fiber values and displacements.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ChartExit, NoConvergence, NonFinite, NotCritical, SingularJacobian
from .extremal import (
    GridGraph,
    action,
    el_residual,
    grid_axes,
    node_slopes,
    solve_dirichlet,
)
from .frames import boundary_flux, cartan_frame
from .grassmann import GrassmannElement
from .lagrangian import LagrangianField, grad_q

TOL_ABS = 1e-8
TOL_REL = 1e-6
# Balances the central-stencil truncation (~coef * step^2) against the
# solver-noise amplification (~1e-13 / step); 1e-3 left a visible bias.
DEFAULT_STEP_FACTOR = 2.5e-4
MAX_HALVINGS = 4


@dataclass
class DeformationSpec:
    """A boundary deformation: direction field, intensity, and t-step.

    ``direction`` maps a boundary point of the graph (a vector in R^n)
    to a vector in R^n; ``intensity`` is a scalar function of the same
    point (or a constant).  ``step`` is the finite-difference stencil
    half-width in t; None picks DEFAULT_STEP_FACTOR times the domain
    diameter.
    """

    direction: Callable
    intensity: Callable | float = 1.0
    step: float | None = None
    name: str = ""

    def psi(self, point) -> float:
        if callable(self.intensity):
            return float(self.intensity(point))
        return float(self.intensity)

    def displacement(self, point) -> np.ndarray:
        return self.psi(point) * np.asarray(self.direction(point), dtype=float)


@dataclass
class VariationReport:
    """dA/dt estimates at t = 0 with convergence diagnostics."""

    A0: float
    dA_dt: float
    dA_dt_order4: float
    boundary_formula_value: float
    classification: str
    diagnostics: dict = field(default_factory=dict)


def first_variation_fd(L, boundary_data, domain, resolution, spec: DeformationSpec) -> VariationReport:
    """Finite-difference dA/dt at t=0 by re-solving at t in {+-h, +-2h}.

    Classification: ``normal`` when both stencils see |dA/dt| below
    tol_abs + tol_rel*|A0|; ``non-normal`` when the value is resolved
    (stencils agree) and above tolerance; ``inconclusive`` otherwise,
    including re-solve failures and chart exits after 4 step halvings.
    The re-solves at the four stencil offsets are independent of each
    other; they run sequentially so the report is deterministic.
    """
    base = solve_dirichlet(L, boundary_data, domain, resolution)
    return _variation_from_base(L, base, boundary_data, spec)


def first_variation_boundary(L, graph: GridGraph, spec: DeformationSpec) -> float:
    """The boundary line integral giving dA/dt on a critical graph.

    At each boundary node, with X = psi*N and the vertical velocity
    df/dt reconstructed from X and the boundary slopes, the integrand is
    the momentum flux sum_i (dL/dq^i_j) df^i/dt + L X^j paired with the
    outward base normal.  Fourth-order slope stencils and Simpson
    integration keep the formula's bias below the re-solve oracle's.
    Raises :class:`NotCritical` off shell, where the formula is invalid.
    """
    A = action(L, graph).value
    res = float(np.max(np.abs(el_residual(L, graph))))
    if res > 1e-10 * (1.0 + abs(A)):
        raise NotCritical(
            f"graph residual {res:.3e} exceeds 1e-10*(1+|A|); formula is off-shell"
        )
    bd = _BoundaryData(graph)
    if graph.p == 1:
        total = 0.0
        for side, nu in ((0, -1.0), (1, 1.0)):
            x, z, d = bd.end(spec, side)
            total += nu * _flux_vector(L, x, z, bd.end_slopes[side], d)[0]
        return float(total)
    total = 0.0
    for edge in _EDGES:
        nu_sign = -1.0 if edge.side == 0 else 1.0
        r = graph.axes[edge.run_axis]
        x, z, d = bd.sample(spec, edge, r)
        q = bd.slopes(edge, r)
        integrand = np.array(
            [nu_sign * _flux_vector(L, *args)[edge.normal_axis] for args in zip(x, z, q, d)]
        )
        total += _simpson(integrand, graph.steps[edge.run_axis])
    return total


@dataclass
class ScanRow:
    name: str
    report: VariationReport | None
    note: str = ""


def normality_scan(L, graph: GridGraph, candidate_fields, boundary_data=None) -> list:
    """Run both estimators for each named candidate field.

    ``candidate_fields`` is a sequence of (name, DeformationSpec).  Rows
    whose re-solves fail are classified inconclusive with the error
    noted.  ``boundary_data`` may supply the graph's Dirichlet data as a
    callable for off-node accuracy; the ring values are used otherwise.
    """
    rows = []
    for name, spec in candidate_fields:
        try:
            report = _variation_from_base(L, graph, boundary_data, spec)
            rows.append(ScanRow(name=name, report=report))
        except (NoConvergence, ChartExit, NonFinite, SingularJacobian) as exc:
            rows.append(
                ScanRow(
                    name=name,
                    report=None,
                    note=f"inconclusive: {type(exc).__name__}: {exc}",
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Deformation fields and intensities


def graph_slopes_fn(graph: GridGraph) -> Callable:
    """Boundary slope lookup from a solved graph (one-sided stencils,
    cubic interpolation along each edge)."""
    return _BoundaryData(graph)


def frame_field(L, slopes_fn: Callable, weights=None) -> Callable:
    """Deformation field valued in the closed-form Cartan frame at each point.

    ``weights`` mixes the n-p frame vectors (default: the first one).
    """
    m = L.codim
    w = np.zeros(m)
    w[0] = 1.0
    if weights is not None:
        w = np.asarray(weights, dtype=float)

    def field_fn(point):
        point = np.asarray(point, dtype=float)
        q = np.asarray(slopes_fn(point), dtype=float)
        elem = GrassmannElement(n=L.n, p=L.p, slopes=q, base_point=point)
        fr = cartan_frame(L, elem)
        return w @ fr.vectors

    return field_fn


def tangent_field(n, p, slopes_fn: Callable, j: int = 0) -> Callable:
    """The j-th graph tangent direction e_j + sum_i q^i_j e_{p+i}."""

    def field_fn(point):
        q = np.asarray(slopes_fn(np.asarray(point, dtype=float)), dtype=float)
        v = np.zeros(n)
        v[j] = 1.0
        v[p:] = q[:, j]
        return v

    return field_fn


def euclidean_normal_field(n, p, slopes_fn: Callable, k: int = 0) -> Callable:
    """The k-th Euclidean complement direction (q^k_1..q^k_p, ..., -1, ..)."""

    def field_fn(point):
        q = np.asarray(slopes_fn(np.asarray(point, dtype=float)), dtype=float)
        v = np.zeros(n)
        v[:p] = q[k]
        v[p + k] = -1.0
        return v / np.linalg.norm(v)

    return field_fn


def random_intensity(rng, n: int, terms: int = 3) -> Callable:
    """A smooth random trigonometric intensity on R^n."""
    amps = rng.uniform(0.3, 1.0, terms)
    waves = rng.uniform(-2.0, 2.0, (terms, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, terms)
    offset = rng.uniform(-0.5, 0.5)

    def psi(point):
        point = np.asarray(point, dtype=float)
        return float(offset + np.sum(amps * np.cos(waves @ point + phases)))

    return psi


def edge_indicator(domain, side: str, rel_tol: float = 1e-9) -> Callable:
    """Intensity 1 on one box edge, 0 elsewhere.

    ``side`` is one of xmin, xmax, ymin, ymax (ymin/ymax need p=2);
    any other side raises ValueError.
    """
    sides = ("xmin", "xmax", "ymin", "ymax")[: 2 * len(domain)]
    if side not in sides:
        raise ValueError(f"edge side must be one of {', '.join(sides)}, got {side!r}")
    axis = "xy".index(side[0])
    lo, hi = domain[axis]
    level = lo if side.endswith("min") else hi
    tol = rel_tol * max(1.0, abs(hi - lo))

    def psi(point):
        return 1.0 if abs(float(point[axis]) - level) <= tol else 0.0

    return psi


# ---------------------------------------------------------------------------
# Internals


def _variation_from_base(L, base: GridGraph, boundary_data, spec: DeformationSpec) -> VariationReport:
    """Difference deformed actions in t, with two-grid error control.

    The O(h^2) bias of the discrete minima does not cancel in the
    t-differences, so every deformed action is also computed on a
    mesh-doubled (coarser) grid and Richardson-extrapolated before
    differencing; the diagnostics keep both levels.
    """
    A0 = action(L, base).value
    domain, resolution = base.domain, base.resolution
    bd = _BoundaryData(base, boundary_data)

    def coarse_data(stride):
        # The user's callable, else the base nodes the coarser grid keeps.
        if bd.dirichlet is not None:
            return bd.dirichlet
        return base.values[(slice(None, None, stride),) * base.p]

    coarse_res = tuple((r + 1) // 2 for r in resolution)
    use_pair = all(r >= 5 and (rf - 1) == 2 * (r - 1) for r, rf in zip(coarse_res, resolution))
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in domain))
    h = spec.step if spec.step is not None else DEFAULT_STEP_FACTOR * diam
    halvings = 0
    actions = None
    solves = 0
    while actions is None:
        try:
            actions = {}
            for t in (-2.0 * h, -h, h, 2.0 * h):
                fine = _deformed_action(L, bd, domain, resolution, spec, t)
                solves += 1
                if use_pair:
                    coarse = _deformed_action(L, bd, domain, coarse_res, spec, t)
                    solves += 1
                    actions[t] = ((4.0 * fine - coarse) / 3.0, fine, coarse)
                else:
                    actions[t] = (fine, fine, float("nan"))
        except ChartExit:
            actions = None
            halvings += 1
            if halvings > MAX_HALVINGS:
                return VariationReport(
                    A0=A0,
                    dA_dt=float("nan"),
                    dA_dt_order4=float("nan"),
                    boundary_formula_value=first_variation_boundary(L, base, spec),
                    classification="inconclusive",
                    diagnostics={"step": h, "halvings": halvings, "reason": "chart-exit"},
                )
            h *= 0.5
    ext = {t: a[0] for t, a in actions.items()}
    central = (ext[h] - ext[-h]) / (2.0 * h)
    order4 = (ext[-2.0 * h] - 8.0 * ext[-h] + 8.0 * ext[h] - ext[2.0 * h]) / (12.0 * h)
    bval = first_variation_boundary(L, base, spec)
    if use_pair:
        # The formula's bias (one-sided slopes of the discrete solve, with
        # corner pollution) needs two extrapolation levels to come out
        # below the oracle's noise.
        coarse_base = solve_dirichlet(L, coarse_data(2), domain, coarse_res)
        b_coarse = first_variation_boundary(L, coarse_base, spec)
        level1 = (4.0 * bval - b_coarse) / 3.0
        solves += 1
        coarse2 = tuple((r + 1) // 2 for r in coarse_res)
        if all(r >= 5 and (rf - 1) == 2 * (r - 1) for r, rf in zip(coarse2, coarse_res)):
            base2 = solve_dirichlet(L, coarse_data(4), domain, coarse2)
            b2 = first_variation_boundary(L, base2, spec)
            level1_coarse = (4.0 * b_coarse - b2) / 3.0
            bval = (8.0 * level1 - level1_coarse) / 7.0
            solves += 1
        else:
            bval = level1
    tol = TOL_ABS + TOL_REL * abs(A0)
    noise = abs(central - order4)
    if abs(central) <= tol and abs(order4) <= 10.0 * tol:
        classification = "normal"
    elif abs(central) > tol and noise <= max(0.3 * abs(central), tol):
        classification = "non-normal"
    else:
        classification = "inconclusive"
    return VariationReport(
        A0=A0,
        dA_dt=float(central),
        dA_dt_order4=float(order4),
        boundary_formula_value=float(bval),
        classification=classification,
        diagnostics={
            "step": h,
            "halvings": halvings,
            "grid_pair": (resolution, coarse_res if use_pair else None),
            "actions": {float(t): tuple(map(float, a)) for t, a in sorted(actions.items())},
            "solves": solves,
        },
    )


def _flux_vector(L, x, z, q, X):
    """Momentum flux G_j = sum_i (dL/dq^i_j) df^i/dt + L X^j at one point."""
    return boundary_flux(grad_q(L, x, z, q), L(x, z, q), q, X)


def _simpson(vals, h):
    """Composite Simpson rule; falls back to trapezoid on odd intervals."""
    n = len(vals) - 1
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(h / 3.0 * (w @ vals))
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return float(w @ vals)


@dataclass(frozen=True)
class _Edge:
    name: str
    normal_axis: int
    side: int
    run_axis: int

    def ring_indexer(self, resolution):
        idx = [slice(None), slice(None)]
        idx[self.normal_axis] = 0 if self.side == 0 else resolution[self.normal_axis] - 1
        return tuple(idx)


_EDGES = (
    _Edge("xmin", 0, 0, 1),
    _Edge("xmax", 0, 1, 1),
    _Edge("ymin", 1, 0, 0),
    _Edge("ymax", 1, 1, 0),
)


def _lagrange_cubics(nodes) -> np.ndarray:
    """Entry [a, k]: coefficient of u^k in the Lagrange cubic of node a."""
    return np.array(
        [np.poly(np.delete(nodes, a))[::-1] / np.prod(nodes[a] - np.delete(nodes, a)) for a in range(4)]
    )


# Indexed by -o for the stencil ticks o, o+1, o+2, o+3 around u = 0.
_CUBIC_BASES = np.array([_lagrange_cubics(np.arange(4) - k) for k in range(4)])


def _cubic_table(ring) -> np.ndarray:
    """Cubic coefficients of data sampled on uniform ticks, one row per tick.

    Row i holds, in u = (r - t_i)/h, the monomial coefficients of the
    Lagrange cubic through the four ticks nearest [t_i, t_(i+1)] (one-sided
    at the ends); the last row re-centres the last interval's cubic on the
    last tick.  The constant coefficient of row i is exactly the sample
    at t_i, so every tick is reproduced exactly.  Shape (*ring.shape, 4).
    """
    ticks = np.arange(len(ring))
    starts = np.clip(ticks - 1, 0, len(ring) - 4)
    stencils = ring[starts[:, None] + np.arange(4)]
    return np.einsum("rak,ra...->r...k", _CUBIC_BASES[ticks - starts], stencils)


class _BoundaryData:
    """Dirichlet values and slopes of a graph on its box boundary.

    Built once per graph.  Values come from the user's Dirichlet callable
    when one is given, else from the ring values; slopes come from the
    ring of :func:`node_slopes`.  Along an edge both are interpolated by
    the local cubics of :func:`_cubic_table`, exact at the nodes.  Called
    with one point, the object returns the slopes on the nearest edge
    (the lookup that :func:`graph_slopes_fn` hands to the fields); the
    re-fit asks for arrays of run-parameters on a known edge.
    """

    def __init__(self, graph: GridGraph, boundary_data=None):
        self.p, self.codim, self.domain = graph.p, graph.codim, graph.domain
        self.dirichlet = boundary_data if callable(boundary_data) else None
        slopes = node_slopes(graph)
        if graph.p == 1:
            self.end_values, self.end_slopes = graph.values[[0, -1]], slopes[[0, -1]]
            return
        self.ticks, self.steps = graph.axes, graph.steps
        self.tables = {}
        for edge in _EDGES:
            ring = edge.ring_indexer(graph.resolution)
            self.tables[edge.name] = (_cubic_table(graph.values[ring]), _cubic_table(slopes[ring]))

    def __call__(self, point) -> np.ndarray:
        x = np.asarray(point, dtype=float)[: self.p].tolist()
        if self.p == 1:
            lo, hi = self.domain[0]
            return self.end_slopes[0 if abs(x[0] - lo) <= abs(x[0] - hi) else 1]
        edge = min(_EDGES, key=lambda e: abs(x[e.normal_axis] - self.domain[e.normal_axis][e.side]))
        return self.slopes(edge, x[edge.run_axis])

    def slopes(self, edge: _Edge, r) -> np.ndarray:
        """Slopes at run-parameters r of ``edge``, shape (*r.shape, n-p, p)."""
        return self._interp(edge, 1, r)

    def values(self, edge: _Edge, x) -> np.ndarray:
        """Dirichlet values at the base points x (k, 2) on ``edge``."""
        if self.dirichlet is not None:
            return np.array([self._dirichlet(xk) for xk in x])
        return self._interp(edge, 0, x[:, edge.run_axis])

    def sample(self, spec: DeformationSpec, edge: _Edge, r):
        """Base points (k, 2), fiber values (k, n-p) and displacements (k, n)
        at the run-parameters r of ``edge``."""
        x = np.empty((len(r), 2))
        x[:, edge.run_axis] = r
        x[:, edge.normal_axis] = self.domain[edge.normal_axis][edge.side]
        z = self.values(edge, x)
        return x, z, np.array([spec.displacement(np.concatenate([xk, zk])) for xk, zk in zip(x, z)])

    def end(self, spec: DeformationSpec, side: int):
        """(p = 1) Base point, fiber value and displacement at an endpoint."""
        x = np.array([self.domain[0][side]])
        z = self.end_values[side] if self.dirichlet is None else self._dirichlet(x)
        return x, z, spec.displacement(np.concatenate([x, z]))

    def _dirichlet(self, x):
        return np.broadcast_to(np.asarray(self.dirichlet(x), dtype=float), (self.codim,))

    def _interp(self, edge, which, r):
        # Row i serves [t_i, t_(i+1)); the last row serves the last tick.
        ticks = self.ticks[edge.run_axis]
        i = np.searchsorted(ticks[1:], r, side="right")
        u = (r - ticks[i]) / self.steps[edge.run_axis]
        coeffs = self.tables[edge.name][which][i]
        if np.ndim(u) == 0:
            return coeffs @ np.array((1.0, u, u * u, u * u * u))
        return np.einsum("k...j,jk->k...", coeffs, np.array([np.ones_like(u), u, u * u, u * u * u]))


def _deformed_action(L, bd: _BoundaryData, domain, resolution, spec, t) -> float:
    if L.p == 1:
        ends = []
        for side in (0, 1):
            x, z, d = bd.end(spec, side)
            ends.append((x[0] + t * d[0], z + t * d[1:]))
        (b_lo, z_lo), (b_hi, z_hi) = ends
        if not b_lo < b_hi:
            raise ChartExit(f"deformed interval degenerate: [{b_lo}, {b_hi}]")
        bvals = np.zeros((resolution[0], L.codim))
        bvals[0], bvals[-1] = z_lo, z_hi
        sol = solve_dirichlet(L, bvals, ((b_lo, b_hi),), resolution)
        return action(L, sol).value

    # Displace each edge at its node parameters.
    axes = grid_axes(domain, resolution)
    displaced = {}
    boxlike = True
    scale = max(abs(hi - lo) for lo, hi in domain)
    for edge in _EDGES:
        x, z, d = bd.sample(spec, edge, axes[edge.run_axis])
        base_new = x + t * d[:, :2]
        z_new = z + t * d[:, 2:]
        if np.any(np.diff(base_new[:, edge.run_axis]) <= 0.0):
            raise ChartExit(f"deformed {edge.name} edge is not a graph over its axis")
        transverse = base_new[:, edge.normal_axis]
        if np.max(np.abs(transverse - transverse.mean())) > 1e-11 * scale:
            boxlike = False
        displaced[edge.name] = (z_new, float(transverse.mean()))
    if boxlike:
        return _box_action(L, bd, domain, resolution, spec, t, displaced)
    return _pullback_action(L, bd, domain, resolution, spec, t, displaced)


def _box_action(L, bd, domain, resolution, spec, t, displaced):
    """Re-solve on a translated/stretched box (edges moved rigidly).

    The displaced data is carried to the new edge nodes by inverting the
    along-edge motion and transporting across the (at most O(t^2)) base
    gap with the t=0 slopes.
    """
    levels = {name: lvl for name, (_, lvl) in displaced.items()}
    new_domain = (
        (levels["xmin"], levels["xmax"]),
        (levels["ymin"], levels["ymax"]),
    )
    if not (new_domain[0][0] < new_domain[0][1] and new_domain[1][0] < new_domain[1][1]):
        raise ChartExit(f"deformed box degenerate: {new_domain}")
    new_axes = grid_axes(new_domain, resolution)
    bvals = np.zeros((*resolution, L.codim))
    counts = np.zeros(resolution)
    for edge in _EDGES:
        lo0, hi0 = domain[edge.run_axis]
        targets = new_axes[edge.run_axis]
        # Invert r + t*D_run(r) = target by clamped fixed-point iteration.
        r = np.clip(targets, lo0, hi0)
        for _ in range(4):
            d_run = bd.sample(spec, edge, r)[2][:, edge.run_axis]
            r = np.clip(targets - t * d_run, lo0, hi0)
        x, z, d = bd.sample(spec, edge, r)
        x_hat = np.empty_like(x)
        x_hat[:, edge.run_axis] = targets
        x_hat[:, edge.normal_axis] = levels[edge.name]
        gap = x_hat - (x + t * d[:, :2])
        ring = z + t * d[:, 2:] + np.einsum("kij,kj->ki", bd.slopes(edge, r), gap)
        idx = edge.ring_indexer(resolution)
        bvals[idx] += ring
        counts[idx] += 1.0
    mask = counts > 0
    bvals[mask] /= counts[mask][:, None]
    sol = solve_dirichlet(L, bvals, new_domain, resolution)
    return action(L, sol).value


def _pullback_action(L, bd, domain, resolution, spec, t, displaced):
    """Re-solve on the exact deformed region via a transfinite patch.

    The displaced edge curves bound the deformed base region; a Coons
    patch maps the original box onto it and the integrand is pulled back
    through the map, so the unknowns live on the original grid while the
    functional is the true deformed-domain action.
    """
    (a1, b1), (a2, b2) = domain
    len1, len2 = b1 - a1, b2 - a2
    centers = [0.5 * (ax[:-1] + ax[1:]) for ax in grid_axes(domain, resolution)]

    def moved(edge, r):
        x, _, d = bd.sample(spec, edge, r)
        return x + t * d[:, :2]

    curve, tangent = {}, {}
    for edge in _EDGES:
        c = centers[edge.run_axis]
        hd = 1e-6 * (domain[edge.run_axis][1] - domain[edge.run_axis][0])
        curve[edge.name] = moved(edge, c)
        tangent[edge.name] = (moved(edge, c + hd) - moved(edge, c - hd)) / (2.0 * hd)
    # The corners: the ymin and ymax edges at both ends of the x range.
    (c00, c10), (c01, c11) = (moved(edge, np.array(domain[0])) for edge in _EDGES[2:])
    eb, et, el, er = (curve[k] for k in ("ymin", "ymax", "xmin", "xmax"))
    dbu, dtu, dlv, drv = (tangent[k] for k in ("ymin", "ymax", "xmin", "xmax"))
    # Trailing axis: the two base components.
    u = ((centers[0] - a1) / len1)[:, None, None]
    v = ((centers[1] - a2) / len2)[None, :, None]
    eb, et, dbu, dtu = eb[:, None], et[:, None], dbu[:, None], dtu[:, None]
    el, er, dlv, drv = el[None], er[None], dlv[None], drv[None]
    blend = (1 - u) * (1 - v) * c00 + u * (1 - v) * c10 + (1 - u) * v * c01 + u * v * c11
    phi = (1 - v) * eb + v * et + (1 - u) * el + u * er - blend
    dblend_d1 = (-(1 - v) * c00 + (1 - v) * c10 - v * c01 + v * c11) / len1
    dphi_d1 = (1 - v) * dbu + v * dtu + (-el + er) / len1 - dblend_d1
    dblend_d2 = (-(1 - u) * c00 - u * c10 + (1 - u) * c01 + u * c11) / len2
    dphi_d2 = (-eb + et) / len2 + (1 - u) * dlv + u * drv - dblend_d2
    phi, dphi_d1, dphi_d2 = (np.moveaxis(a, -1, 0) for a in (phi, dphi_d1, dphi_d2))
    jac_det = dphi_d1[0] * dphi_d2[1] - dphi_d1[1] * dphi_d2[0]
    if np.any(jac_det <= 0.0):
        raise ChartExit("deformed region folds over the base chart")
    # Inverse transpose columns give physical slopes from reference ones.
    inv = np.empty((2, 2, *jac_det.shape))
    inv[0, 0] = dphi_d2[1] / jac_det
    inv[0, 1] = -dphi_d2[0] / jac_det
    inv[1, 0] = -dphi_d1[1] / jac_det
    inv[1, 1] = dphi_d1[0] / jac_det
    cell_shape = jac_det.shape
    xphys = [phi[0], phi[1]]

    def wrapped(x, z, q):
        if np.shape(x[0]) != cell_shape:
            raise ValueError("pullback Lagrangian is defined on midpoint cells only")
        qphys = [
            [q[i][0] * inv[0, j] + q[i][1] * inv[1, j] for j in range(2)]
            for i in range(L.codim)
        ]
        return L.func(xphys, z, qphys) * jac_det

    pulled = LagrangianField(
        n=L.n, p=2, func=wrapped, name=f"pullback({L.name})", supports_dual=L.supports_dual
    )
    bvals = np.zeros((*resolution, L.codim))
    for edge in _EDGES:
        bvals[edge.ring_indexer(resolution)] = displaced[edge.name][0]
    sol = solve_dirichlet(pulled, bvals, domain, resolution)
    return action(pulled, sol).value

"""Brute-force first variation of the action under boundary deformations.

The oracle realizes the defining test for normality: displace each
boundary point of a critical graph along a vector field (one Euler step
m + t*psi(m)*N(m)), re-fit the base domain, re-solve the extremal
problem, and difference the actions in t.  A deformation field is
normal exactly when dA/dt at t = 0 vanishes for every intensity psi.

One re-fit covers the deformed base domain.  The displaced edge curves
bound the deformed region, a transfinite (Coons) patch maps the original
box onto it, and the integrand is pulled back through that map, so the
re-solve runs on the deformed domain on the original grid.  The curve
nodes follow their boundary points, except that a corner sliding along
an edge stretches the whole edge.  Rigidly moved edges give an affine
map: the midpoint scheme on the moved box.

The deformed problem is O(t) away from the base, so each re-solve starts
from the base values on its grid and keeps, as its chord factor, one
SuperLU factor of L's interior Hessian at those values, built once per
report and grid: the chord steps contract by O(t), and the re-solves
factor nothing of their own.

A corner whose displacement leaves a neighbouring edge's limit normal to
that edge tears off it.  No re-fit closes that gap uniquely, so such a
row reads ``inconclusive`` (``corner-tear``).

One boundary sampler per graph (:class:`_BoundaryData`) feeds the
re-fit, the corner-tear check, the boundary formula and the graph-slope
lookup of the fields.  It holds the Dirichlet data (the user's callable,
else the ring values) and the ring slopes, interpolates them along each
edge by local cubics that are exact at the nodes, and turns
run-parameters on an edge into base points and fiber values.  The re-fit
and the tear check read one sample of the boundary motion per report and
grid (:func:`_edge_samples`).

A frame, tangent or Euclidean-normal field built from the solved graph's
own slopes carries their O(h^2) error, so a field that is normal in the
limit moves the discrete action.  Such a row is judged by the order at
which its boundary-formula value falls when the field is rebuilt on the
coarse base that the formula's extrapolation already solves.
"""

import functools
import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ChartExit, NoConvergence, NonFinite, NotCritical, SingularJacobian
from .extremal import (
    GridGraph,
    _boundary_array,
    _CellScheme,
    _cubic_table,
    _factorize,
    _lagrange_basis,
    _require_dual,
    _solve,
    _SolveCounters,
    action,
    el_residual,
    grid_axes,
    halved_resolution,
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
# A field built from a graph's own slopes reads normal in the limit when
# its formula value falls at least at this order under grid halving.
FIELD_ORDER_MIN = 1.5
# An edge's one-sided limit at a corner is taken from points one to three
# times this fraction of the edge inside; a corner is torn when its
# displacement leaves that limit, normal to the edge, by more than
# _TEAR_TOL of the largest boundary velocity.
_CORNER_OFFSET = 1e-5
_TEAR_TOL = 1e-7


@dataclass
class DeformationSpec:
    """A boundary deformation: direction field, intensity, and t-step.

    ``direction`` maps a boundary point of the graph (a vector in R^n)
    to a vector in R^n; ``intensity`` is a scalar function of the same
    point (or a constant).  ``step`` is the finite-difference stencil
    half-width in t, finite and positive; None picks DEFAULT_STEP_FACTOR
    times the domain diameter.
    """

    direction: Callable
    intensity: Callable | float = 1.0
    step: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"the t-step must be finite and positive, got {self.step}")

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
    including re-solve failures, torn corners and chart exits after 4
    step halvings.  A field built from the graph's own slopes that is
    normal only in the grid limit reads ``normal`` (:func:`_variation_from_base`).
    The re-solves at the four stencil offsets are independent of each
    other; they run sequentially so the report is deterministic.
    """
    base = solve_dirichlet(L, boundary_data, domain, resolution)
    return _variation_from_base(L, base, boundary_data, spec)


def first_variation_boundary(
    L, graph: GridGraph, spec: DeformationSpec | list[DeformationSpec]
) -> float | list[float]:
    """The boundary line integral giving dA/dt on a critical graph.

    At each boundary node, with X = psi*N and the vertical velocity
    df/dt reconstructed from X and the boundary slopes, the integrand is
    the momentum flux sum_i (dL/dq^i_j) df^i/dt + L X^j paired with the
    outward base normal.  Fourth-order slope stencils and Simpson
    integration keep the formula's bias below the re-solve oracle's.
    ``spec`` may also be a sequence of specs, as the field-order test of
    :func:`_extrapolated_formula` passes it: the momenta at the nodes do
    not depend on the field, so they are computed once and paired with
    each, and a list of values comes back.
    Raises :class:`NotCritical` off shell, where the formula is invalid.
    """
    specs = [spec] if isinstance(spec, DeformationSpec) else list(spec)
    A = action(L, graph).value
    res = float(np.max(np.abs(el_residual(L, graph))))
    if res > 1e-10 * (1.0 + abs(A)):
        raise NotCritical(
            f"graph residual {res:.3e} exceeds 1e-10*(1+|A|); formula is off-shell"
        )
    bd = _BoundaryData(graph)
    totals = [0.0] * len(specs)

    def add(nu, axis, x, z, q, quadrature):
        # nu: outward sign; axis: the base normal's axis
        nodes = [(grad_q(L, *args), L(*args), args[2]) for args in zip(x, z, q)]
        for k, s in enumerate(specs):
            d = _displacements(s, x, z)
            totals[k] += quadrature(np.array([nu * boundary_flux(*nd, dk)[axis] for nd, dk in zip(nodes, d)]))

    if graph.p == 1:
        for side in (0, 1):
            x, z = bd.end_point(side)
            add(2.0 * side - 1.0, 0, x[None], z[None], bd.end_slopes[side][None], lambda v: v[0])
    else:
        for edge in _EDGES:
            r = graph.axes[edge.run_axis]
            add(2.0 * edge.side - 1.0, edge.normal_axis, *bd.points(edge, r), bd.slopes(edge, r),
                lambda v: _simpson(v, graph.steps[edge.run_axis]))
    return totals[0] if isinstance(spec, DeformationSpec) else totals


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
    w = np.eye(L.codim)[0] if weights is None else np.asarray(weights, dtype=float)

    def field_fn(point):
        point = np.asarray(point, dtype=float)
        q = np.asarray(slopes_fn(point), dtype=float)
        elem = GrassmannElement(n=L.n, p=L.p, slopes=q, base_point=point)
        fr = cartan_frame(L, elem)
        return w @ fr.vectors

    return _rebuildable(field_fn, slopes_fn, lambda s: frame_field(L, s, weights))


def tangent_field(n, p, slopes_fn: Callable, j: int = 0) -> Callable:
    """The j-th graph tangent direction e_j + sum_i q^i_j e_{p+i}."""

    def field_fn(point):
        q = np.asarray(slopes_fn(np.asarray(point, dtype=float)), dtype=float)
        v = np.zeros(n)
        v[j] = 1.0
        v[p:] = q[:, j]
        return v

    return _rebuildable(field_fn, slopes_fn, lambda s: tangent_field(n, p, s, j))


def euclidean_normal_field(n, p, slopes_fn: Callable, k: int = 0) -> Callable:
    """The k-th Euclidean complement direction (q^k_1..q^k_p, ..., -1, ..)."""

    def field_fn(point):
        q = np.asarray(slopes_fn(np.asarray(point, dtype=float)), dtype=float)
        v = np.zeros(n)
        v[:p] = q[k]
        v[p + k] = -1.0
        return v / np.linalg.norm(v)

    return _rebuildable(field_fn, slopes_fn, lambda s: euclidean_normal_field(n, p, s, k))


def _rebuildable(field_fn, slopes_fn, build):
    """Tag a field with its slope lookup and a builder for other slopes.

    The oracle rebuilds a field whose slopes come from
    :func:`graph_slopes_fn` on the coarse base, to measure how fast the
    field converges under grid refinement.
    """
    field_fn.slopes_fn = slopes_fn
    field_fn.rebuild = build
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
    differencing; the diagnostics keep both levels.  Each level's
    re-solves start from that level's base on one shared Hessian factor
    (:func:`_oracle_level`).  ``diagnostics["factorizations"]`` and
    ``["newton_iterations"]`` sum the re-solves' own work and count the
    shared factors too; the base solves are not in them.

    A displacement that tears a corner off a neighbouring edge
    (:func:`_corner_tear`) makes the row ``inconclusive``
    (``diagnostics["reason"]`` is ``"corner-tear"``); its numbers stay.

    A ``non-normal`` row whose direction was built from the base graph's
    own slopes (:func:`graph_slopes_fn`) is judged in the limit: the
    field is rebuilt on the coarse base and its formula value re-taken.
    The row reads ``normal`` (``diagnostics["reason"]`` is
    ``"normal-in-the-limit"``) when formula and oracle agree within
    :func:`formula_budget` and the observed order
    ``diagnostics["field_order"]`` is at least ``FIELD_ORDER_MIN``.
    """
    A0 = action(L, base).value
    domain, resolution = base.domain, base.resolution
    bd = _BoundaryData(base, boundary_data)
    # The base and up to two mesh-doubled solves: the oracle's two levels,
    # and the boundary formula's, whose bias (one-sided slopes of the
    # discrete solve, with corner pollution) needs two extrapolation levels
    # to come out below the oracle's noise.  Coarse data are the user's
    # callable, else the base nodes the coarser grid keeps.
    bases = [base]
    for stride in (2, 4):
        res = halved_resolution(bases[-1].resolution)
        if res is None:
            break
        data = bd.dirichlet
        if data is None:
            data = base.values[(slice(None, None, stride),) * base.p]
        bases.append(solve_dirichlet(L, data, domain, res))
    solves = len(bases) - 1
    levels = [_oracle_level(L, bd, spec, b) for b in bases[:2]]
    coarse_res = bases[1].resolution if len(bases) > 1 else None
    torn = base.p == 2 and _corner_tear(levels[0].samples)
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in domain))
    h = spec.step if spec.step is not None else DEFAULT_STEP_FACTOR * diam
    # The re-solves' own Newton work, plus the factors the levels share.
    work = {"factorizations": sum(lv.factor is not None for lv in levels), "newton_iterations": 0}
    halvings = 0
    actions = None
    while actions is None:
        try:
            actions = {}
            for t in (-2.0 * h, -h, h, 2.0 * h):
                a = []
                for level in levels:
                    value, info = _deformed_action(L, level, domain, t)
                    work["factorizations"] += info["factorizations"]
                    work["newton_iterations"] += info["iterations"]
                    a.append(value)
                solves += len(a)
                actions[t] = ((4.0 * a[0] - a[1]) / 3.0, *a) if coarse_res else (a[0], a[0], float("nan"))
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
                    diagnostics={"step": h, "halvings": halvings, "reason": "chart-exit", **work},
                )
            h *= 0.5
    ext = {t: a[0] for t, a in actions.items()}
    central = (ext[h] - ext[-h]) / (2.0 * h)
    order4 = (ext[-2.0 * h] - 8.0 * ext[-h] + 8.0 * ext[h] - ext[2.0 * h]) / (12.0 * h)
    tol = TOL_ABS + TOL_REL * abs(A0)
    noise = abs(central - order4)
    if abs(central) <= tol and abs(order4) <= 10.0 * tol:
        classification = "normal"
    elif abs(central) > tol and noise <= max(0.3 * abs(central), tol):
        classification = "non-normal"
    else:
        classification = "inconclusive"
    diagnostics = {
        "step": h,
        "halvings": halvings,
        "grid_pair": (resolution, coarse_res),
        "actions": {float(t): tuple(map(float, a)) for t, a in sorted(actions.items())},
        "solves": solves,
        **work,
    }
    if torn:
        classification = "inconclusive"
        diagnostics["reason"] = "corner-tear"
    rebuilt = _coarse_rebuild(spec, bases) if classification == "non-normal" else None
    bval, *rebuilt_bval = _extrapolated_formula(L, bases, [spec] if rebuilt is None else [spec, rebuilt])
    if rebuilt_bval:
        # The rebuilt field's formula value grows by 2^order.
        ratio = rebuilt_bval[0] / bval if bval != 0.0 else float("nan")
        order = float(math.log2(ratio)) if ratio > 0.0 else float("nan")
        diagnostics["field_order"] = order
        if abs(bval - central) <= formula_budget(central, A0) and order >= FIELD_ORDER_MIN:
            classification = "normal"
            diagnostics["reason"] = "normal-in-the-limit"
    return VariationReport(
        A0=A0,
        dA_dt=float(central),
        dA_dt_order4=float(order4),
        boundary_formula_value=float(bval),
        classification=classification,
        diagnostics=diagnostics,
    )


def formula_budget(dA_dt, A0):
    """Acceptance criterion 6's allowance for |boundary formula - oracle|."""
    return max(1e-4 * abs(dA_dt), 1e-6 * (1.0 + A0))


def _extrapolated_formula(L, bases, specs):
    """The boundary formula of each spec, Richardson-extrapolated.

    ``bases`` are the base graph and up to two mesh-doubled (coarser)
    solves of the same problem, finest first.
    """
    values = []
    for b in zip(*(first_variation_boundary(L, g, specs) for g in bases)):
        level1 = [(4.0 * fine - coarse) / 3.0 for fine, coarse in zip(b, b[1:])] or [b[0]]
        values.append(level1[0] if len(level1) == 1 else (8.0 * level1[0] - level1[1]) / 7.0)
    return values


def _coarse_rebuild(spec, bases):
    """The spec with its field rebuilt on the coarse base's slopes; None
    without a coarse base or a field built from the base's own slopes."""
    field_fn = inspect.unwrap(spec.direction)
    slopes = getattr(field_fn, "slopes_fn", None)
    if len(bases) < 2 or not isinstance(slopes, _BoundaryData) or slopes.resolution != bases[0].resolution:
        return None
    return replace(spec, direction=field_fn.rebuild(graph_slopes_fn(bases[1])))


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
        self.resolution = graph.resolution
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

    def points(self, edge: _Edge, r):
        """Base points (k, 2) and fiber values (k, n-p) at run-parameters r."""
        x = np.empty((len(r), 2))
        x[:, edge.run_axis] = r
        x[:, edge.normal_axis] = self.domain[edge.normal_axis][edge.side]
        return x, self.values(edge, x)

    def end_point(self, side: int):
        """(p = 1) Base point and fiber value at an endpoint."""
        x = np.array([self.domain[0][side]])
        return x, self.end_values[side] if self.dirichlet is None else self._dirichlet(x)

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


def _displacements(spec, x, z):
    return np.array([spec.displacement(np.concatenate([xk, zk])) for xk, zk in zip(x, z)])


def _edge_samples(bd: _BoundaryData, spec, resolution):
    """The boundary motion, sampled once per report and resolution.

    Per end (p = 1) or edge (p = 2): base points and fiber values at the
    grid ticks, their velocities in t, and (p = 2) the displacement's jumps
    (2, n) at the corners against the edge's one-sided limit, extrapolated
    by the parabola through three points inside (O(_CORNER_OFFSET^3) if smooth).
    A node follows its boundary point, but an along-edge jump (a slide) is
    spread linearly over the interior nodes, whose data the t = 0 slopes
    carry along: a slid corner stretches the whole edge.
    """
    if bd.p == 1:
        ends = [bd.end_point(side) for side in (0, 1)]
        return [(x, z, *np.split(spec.displacement(np.concatenate([x, z])), [1])) for x, z in ends]
    axes = grid_axes(bd.domain, resolution)
    samples = {}
    for edge in _EDGES:
        run = edge.run_axis
        r, k, (lo, hi) = axes[run], len(axes[run]), bd.domain[run]
        eps = _CORNER_OFFSET * (hi - lo) * np.arange(1.0, 4.0)
        x, z = bd.points(edge, np.concatenate([r, lo + eps, hi - eps]))
        d = _displacements(spec, x, z)
        limits = 3.0 * d[[k, k + 3]] - 3.0 * d[[k + 1, k + 4]] + d[[k + 2, k + 5]]
        jumps = d[[0, k - 1]] - limits
        u = np.linspace(0.0, 1.0, k)
        shift = (1.0 - u) * jumps[0, run] + u * jumps[1, run]
        shift[[0, -1]] = 0.0
        vx = d[:k, :2].copy()
        vx[:, run] += shift
        vz = d[:k, 2:] + bd.slopes(edge, r)[..., run] * shift[:, None]
        samples[edge.name] = (x[:k], z[:k], vx, vz, jumps)
    return samples


def _corner_tear(samples) -> bool:
    """Whether a corner's jump against an edge (:func:`_edge_samples`) has
    a part normal to the edge above ``_TEAR_TOL`` of the largest boundary
    velocity sampled on the four edges."""
    torn, size = 0.0, 0.0
    for edge in _EDGES:
        _, _, vx, vz, jumps = samples[edge.name]
        size = max(size, np.max(np.abs(vx)), np.max(np.abs(vz)))
        torn = max(torn, np.max(np.abs(jumps[:, edge.normal_axis])))
    return torn > _TEAR_TOL * size


class _OracleLevel(NamedTuple):
    """One grid of the oracle: the boundary motion sampled on it
    (:func:`_edge_samples`), the base values that every deformed re-solve
    starts from, and the SuperLU factor of L's interior Hessian at those
    values, which the re-solves keep as their chord factor."""

    samples: dict
    values: np.ndarray
    factor: object


def _oracle_level(L, bd: _BoundaryData, spec, base: GridGraph) -> _OracleLevel:
    """The level on ``base``'s grid; its factor is None where the Hessian is singular."""
    _require_dual(L)
    cells = _CellScheme(L, base.domain, base.resolution)
    factor = _factorize(cells, base.values, _SolveCounters())
    return _OracleLevel(_edge_samples(bd, spec, base.resolution), base.values, factor)


def _deformed_action(L, level: _OracleLevel, domain, t):
    """The re-solved action at offset t, and the re-solve's ``GridGraph.info``."""
    resolution = level.values.shape[:-1]
    L_t, ring, domain_t = _deformed_problem(L, level.samples, domain, resolution, t)
    bvals = _boundary_array(L_t, ring, domain_t, resolution)  # finite, as solve_dirichlet asks
    graph = _solve(L_t, bvals, domain_t, resolution, level.values, factor=level.factor)
    return action(L_t, graph).value, graph.info


def _deformed_problem(L, samples, domain, resolution, t):
    """``(L_t, ring, domain_t)`` for :func:`solve_dirichlet` on the
    boundary moved to offset t along ``samples`` (:func:`_edge_samples`).
    For p = 1 the endpoints move and the interval is re-gridded.  For
    p = 2, L is pulled back through the Coons patch of the displaced edge
    curves.
    """
    ring = np.zeros((*resolution, L.codim))
    if L.p == 1:
        ends = []
        for side, (x, z, vx, vz) in enumerate(samples):
            ends.append(x[0] + t * vx[0])
            ring[(0, -1)[side]] = z + t * vz
        if not ends[0] < ends[1]:
            raise ChartExit(f"deformed interval degenerate: {ends}")
        return L, ring, (tuple(ends),)
    curves = {}
    for edge in _EDGES:
        x, z, vx, vz, _ = samples[edge.name]
        curves[edge.name] = x + t * vx
        if np.any(np.diff(curves[edge.name][:, edge.run_axis]) <= 0.0):
            raise ChartExit(f"deformed {edge.name} edge is not a graph over its axis")
        ring[edge.ring_indexer(resolution)] = z + t * vz
    return _coons_pullback(L, domain, curves), ring, domain


@functools.lru_cache(maxsize=None)
def _midpoint_weights(count):
    """Rows giving the value and the u-derivative at each interval midpoint
    of ``count`` unit-spaced ticks, from the local polynomial through the
    eight nearest ticks (all of them when fewer; one-sided at the ends)."""
    m = min(8, count)
    value, slope = np.zeros((count - 1, count)), np.zeros((count - 1, count))
    for i in range(count - 1):
        start = min(max(i - (m - 2) // 2, 0), count - m)
        basis = _lagrange_basis(np.arange(start, start + m) - (i + 0.5))
        value[i, start : start + m], slope[i, start : start + m] = basis[:, 0], basis[:, 1]
    return value, slope


def _coons_pullback(L, domain, curves):
    """L pulled back through the Coons patch of the four edge curves.

    ``curves`` holds the node points of each displaced edge.  The patch is
    built at the grid nodes and carried to the cell centres, with its
    derivatives, by the local polynomials of :func:`_midpoint_weights`.
    The result is defined on that grid's cells only.
    """
    bottom, top, left, right = (curves[k] for k in ("ymin", "ymax", "xmin", "xmax"))
    # Reference coordinates in [0, 1]; trailing axis: the base components.
    u = np.linspace(0.0, 1.0, len(bottom))[:, None, None]
    v = np.linspace(0.0, 1.0, len(left))[None, :, None]
    corners = (1 - u) * (1 - v) * bottom[0] + u * (1 - v) * bottom[-1]
    corners += (1 - u) * v * top[0] + u * v * top[-1]
    phi = (1 - v) * bottom[:, None] + v * top[:, None] + (1 - u) * left + u * right - corners
    (value1, slope1), (value2, slope2) = (_midpoint_weights(len(c)) for c in (bottom, left))
    steps = [(hi - lo) / (len(c) - 1) for (lo, hi), c in zip(domain, (bottom, left))]
    xphys = list(np.einsum("ai,bj,ijc->cab", value1, value2, phi, optimize=True))
    d1 = np.einsum("ai,bj,ijc->cab", slope1, value2, phi, optimize=True) / steps[0]
    d2 = np.einsum("ai,bj,ijc->cab", value1, slope2, phi, optimize=True) / steps[1]
    jac_det = d1[0] * d2[1] - d1[1] * d2[0]
    if np.any(jac_det <= 0.0):
        raise ChartExit("deformed region folds over the base chart")
    # Inverse transpose columns give physical slopes from reference ones.
    inv = np.array([[d2[1], -d2[0]], [-d1[1], d1[0]]]) / jac_det

    def wrapped(x, z, q):
        if np.shape(x[0]) != jac_det.shape:
            raise ValueError("pullback Lagrangian is defined on its own grid's cells only")
        qphys = [
            [q[i][0] * inv[0, j] + q[i][1] * inv[1, j] for j in range(2)]
            for i in range(L.codim)
        ]
        return L.func(xphys, z, qphys) * jac_det

    return LagrangianField(
        n=L.n, p=2, func=wrapped, name=f"pullback({L.name})", supports_dual=L.supports_dual
    )

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

A base is solved and factored once per call (:func:`_levels`), and
:func:`normality_scan` shares it over its rows: its mesh-halved solves,
the boundary formula's momenta on each grid, and, on the oracle's two
grids, one SuperLU factor of L's interior Hessian at the base values.
The deformed problems are O(t) from the base, and the pullback keeps
every re-solve on its base's grid, where the solutions are smooth in t.
So the re-solves at +-h start from their grid's base values, the one at
+2h from the quadratic in t through the base and the +-h solutions, and
the one at -2h from the cubic through those and the +2h solution.  Each
keeps its grid's factor as its chord factor: the chord steps contract
by O(t), and the re-solves factor nothing.

Each grid reads its boundary once, when its level is built
(:func:`_level`): per end or edge, the ring's base points, values and
slopes at the ticks, the formula's momenta there and, for p = 2, the
data at three points inside each corner and the base's slopes along the
edge, both from one sampler per base (:class:`_BoundaryData`: the
Dirichlet callable, else the base's ring, by local cubics exact at the
nodes).  A report samples only the motion, once per grid
(:func:`_edge_samples`); that sample feeds the re-fit, the corner-tear
check and the boundary formula.  Fields, intensities and slope lookups
take the points as the columns of an (n, k) array, coordinate i in row
i, as ``LagrangianField.func`` does, and are called once per edge.  A
corner whose displacement leaves a neighbouring edge's limit normal to
that edge tears off it; no re-fit closes that gap uniquely, so such a
row reads ``inconclusive`` (``corner-tear``).

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
    halved_resolution,
    node_slopes,
    solve_dirichlet,
)
# action, cartan_frame and grad_q are not called here; tracers patch them by name.
from .extremal import action  # noqa: F401
from .frames import _closed_form, boundary_flux, cartan_frame  # noqa: F401
from .lagrangian import LagrangianField, _first_derivative, grad_q  # noqa: F401

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
# A level's re-solves in the order they run: the offset in steps h, and
# the start from the level's solutions u so far, keyed by offset (0: the
# base).  +-h start from the base, which keeps the central value exactly
# that of cold re-solves; +2h starts from the quadratic through -h, 0, h
# (error O(h^3)) and -2h from the cubic through -h, 0, h, 2h (O(h^4)).
_RESOLVES = (
    (-1, lambda u: u[0]),
    (1, lambda u: u[0]),
    (2, lambda u: 3.0 * u[1] - 3.0 * u[0] + u[-1]),
    (-2, lambda u: 4.0 * u[-1] - 6.0 * u[0] + 4.0 * u[1] - u[2]),
)


@dataclass
class DeformationSpec:
    """A boundary deformation: direction field, intensity, and t-step.

    Both callables take boundary points of the graph as the columns of an
    (n, k) array, coordinate i in row i, as ``LagrangianField.func`` takes
    its arguments.  ``direction`` returns the vectors as an (n, k) array,
    or one n-vector for every point; ``intensity`` returns k values, or is
    a constant.  ``step`` is the finite-difference stencil half-width in
    t, finite and positive; None picks DEFAULT_STEP_FACTOR times the
    domain diameter.  A displacement that evaluates non-finite raises
    :class:`NonFinite`.
    """

    direction: Callable
    intensity: Callable | float = 1.0
    step: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"the t-step must be finite and positive, got {self.step}")

    def displacements(self, points) -> np.ndarray:
        """psi * X at the columns of ``points`` (n, k), as an (n, k) array."""
        n, k = points.shape
        # Faults show as non-finite values, which the check below rejects.
        with np.errstate(all="ignore"):
            direction = np.asarray(self.direction(points), dtype=float)
            direction = direction[:, None] if direction.shape == (n,) else direction
            psi = np.asarray(self.intensity(points) if callable(self.intensity) else self.intensity, dtype=float)
            try:
                d = np.broadcast_to(psi, (k,)) * np.broadcast_to(direction, (n, k))
            except ValueError:
                raise ValueError(
                    f"for points (n, k) = {(n, k)} the direction gave shape {direction.shape} and the "
                    f"intensity {psi.shape}; they must broadcast to (n, k) and (k,)"
                ) from None
        if not np.all(np.isfinite(d)):
            raise NonFinite("deformation evaluated non-finite")
        return d


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
    return _variation_from_base(L, _levels(L, base, boundary_data), spec)


def first_variation_boundary(L, graph: GridGraph, spec: DeformationSpec) -> float:
    """The boundary line integral giving dA/dt on a critical graph.

    At each boundary node, with X = psi*N and the vertical velocity
    df/dt reconstructed from X and the boundary slopes, the integrand is
    the momentum flux sum_i (dL/dq^i_j) df^i/dt + L X^j paired with the
    outward base normal.  Fourth-order slope stencils and Simpson
    integration keep the formula's bias below the re-solve oracle's.
    Raises :class:`NotCritical` off shell, where the formula is invalid.
    """
    level = _level(L, graph, _BoundaryData(graph))
    return _formula([level], [_edge_samples(level, spec)])


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
    The graph's mesh-halved solves, shared factors and boundary momenta
    are built once, by the first row, and serve every row (:func:`_levels`).
    """
    levels = None  # built by the first row; a failed build is retried by the next
    rows = []
    for name, spec in candidate_fields:
        try:
            if levels is None:
                levels = _levels(L, graph, boundary_data)
            report = _variation_from_base(L, levels, spec)
            rows.append(ScanRow(name=name, report=report))
        except (NoConvergence, ChartExit, NonFinite, SingularJacobian) as exc:
            rows.append(ScanRow(name=name, report=None, note=f"inconclusive: {type(exc).__name__}: {exc}"))
    return rows


# ---------------------------------------------------------------------------
# Deformation fields and intensities


def graph_slopes_fn(graph: GridGraph) -> Callable:
    """Boundary slope lookup from a solved graph (one-sided stencils, cubic
    interpolation along each edge): the slopes (n-p, p, k) on the nearest
    edge of points (n, k), the shape every ``slopes_fn`` below returns."""
    return _BoundaryData(graph)


def frame_field(L, slopes_fn: Callable, weights=None) -> Callable:
    """Deformation field valued in the closed-form Cartan frame at each point.

    ``weights`` mixes the n-p frame vectors (default: the first one).  At
    the columns of an (n, k) array of points, whose slopes ``slopes_fn``
    gives as (n-p, p, k), one evaluation of L and dL/dq gives the (n, k)
    vectors; each column is :func:`cartan_frame`'s at that point.
    """
    w = np.eye(L.codim)[0] if weights is None else np.asarray(weights, dtype=float)

    def field_fn(points):
        q = np.asarray(slopes_fn(points), dtype=float)
        value, momenta = _first_derivative(L, points[: L.p], points[L.p :], q, 2)
        lead = [np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (momenta, q)]
        vectors, _ = _closed_form(lead[0], value, lead[1])
        return (w @ vectors).T

    return _rebuildable(field_fn, slopes_fn, lambda s: frame_field(L, s, weights))


def tangent_field(n, p, slopes_fn: Callable, j: int = 0) -> Callable:
    """The j-th graph tangent direction e_j + sum_i q^i_j e_{p+i}."""

    def field_fn(points):
        q = np.asarray(slopes_fn(points), dtype=float)
        v = np.zeros((n, q.shape[-1]))
        v[j] = 1.0
        v[p:] = q[:, j]
        return v

    return _rebuildable(field_fn, slopes_fn, lambda s: tangent_field(n, p, s, j))


def euclidean_normal_field(n, p, slopes_fn: Callable, k: int = 0) -> Callable:
    """The k-th Euclidean complement direction (q^k_1..q^k_p, ..., -1, ..)."""

    def field_fn(points):
        q = np.asarray(slopes_fn(points), dtype=float)
        v = np.zeros((q.shape[-1], n))
        v[:, :p] = q[k].T
        v[:, p + k] = -1.0
        return (v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]).T

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
    """A smooth random trigonometric intensity on R^n, taking points as the
    columns of an (n, k) array (or one n-vector) and returning k values."""
    amps = rng.uniform(0.3, 1.0, terms)
    waves = rng.uniform(-2.0, 2.0, (terms, n))
    phases = rng.uniform(0.0, 2.0 * math.pi, terms)
    offset = rng.uniform(-0.5, 0.5)

    def psi(points):
        points = np.ascontiguousarray(np.asarray(points, dtype=float).T)
        return offset + np.sum(amps * np.cos((waves @ points[..., None])[..., 0] + phases), axis=-1)

    return psi


def edge_indicator(domain, side: str, rel_tol: float = 1e-9) -> Callable:
    """Intensity 1 on one box edge, 0 elsewhere, at points as the columns of (n, k).

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

    def psi(points):
        return np.where(np.abs(np.asarray(points, dtype=float)[axis] - level) <= tol, 1.0, 0.0)

    return psi


# ---------------------------------------------------------------------------
# Internals


def _variation_from_base(L, levels, spec: DeformationSpec) -> VariationReport:
    """Difference deformed actions in t, with two-grid error control.

    The O(h^2) bias of the discrete minima does not cancel in the
    t-differences, so every deformed action is also computed on a
    mesh-doubled (coarser) grid and Richardson-extrapolated before
    differencing; the diagnostics keep both levels.  Each level's
    re-solves run on its shared Hessian factor (:func:`_levels`) in the
    order of ``_RESOLVES``: those at +-h start from the level's base, so
    ``dA_dt`` comes from the same solves as with every start at the base;
    those at +-2h start from the polynomial in t through the level's
    solutions so far.  ``diagnostics["factorizations"]`` and
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
    base, A0 = levels[0].graph, levels[0].A
    domain, resolution = base.domain, base.resolution
    sample = lambda s: [_edge_samples(lv, s) for lv in levels]
    samples = sample(spec)
    bval = _formula(levels, samples)
    coarse_res = levels[1].graph.resolution if len(levels) > 1 else None
    torn = base.p == 2 and _corner_tear(samples[0])
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in domain))
    h = spec.step if spec.step is not None else DEFAULT_STEP_FACTOR * diam
    solves = len(levels) - 1
    # The re-solves' own Newton work, plus the factors the levels share.
    work = {"factorizations": sum(lv.factor is not None for lv in levels), "newton_iterations": 0}
    halvings = 0
    actions = None
    while actions is None:
        try:
            actions = {}
            solved = [{0: level.graph.values} for level in levels[:2]]
            for k, start in _RESOLVES:
                t = k * h
                a = []
                for level, motion, u in zip(levels[:2], samples, solved):
                    value, info = _deformed_action(L, level, motion, t, start(u))
                    u[k] = info["values"]
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
                    dA_dt=float("nan"), dA_dt_order4=float("nan"),
                    boundary_formula_value=float(bval),
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
    rebuilt = _coarse_rebuild(spec, levels) if classification == "non-normal" else None
    if rebuilt is not None:
        rebuilt_bval = _formula(levels, sample(rebuilt))
        # The rebuilt field's formula value grows by 2^order.
        ratio = rebuilt_bval / bval if bval != 0.0 else float("nan")
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


def _formula(levels, samples):
    """The boundary formula on each level, the momenta of its faces
    (:func:`_level`) paired with the raw tick displacements of that
    level's sample of the motion (:func:`_edge_samples`),
    Richardson-extrapolated over the base and its mesh-halved solves,
    finest first (:func:`_levels`)."""
    b = []
    for level, motion in zip(levels, samples):
        b.append(0.0)
        for (*_, nu, axis, flux, quadrature), (*_, d) in zip(level.faces, motion.values()):
            b[-1] += quadrature(nu * boundary_flux(*flux, d)[:, axis])
    level1 = [(4.0 * fine - coarse) / 3.0 for fine, coarse in zip(b, b[1:])] or [b[0]]
    return level1[0] if len(level1) == 1 else (8.0 * level1[0] - level1[1]) / 7.0


def _coarse_rebuild(spec, levels):
    """The spec with its field rebuilt on the coarse base's slopes; None
    without a coarse base or a field built from the base's own slopes."""
    field_fn = inspect.unwrap(spec.direction)
    slopes = getattr(field_fn, "slopes_fn", None)
    if len(levels) < 2 or not isinstance(slopes, _BoundaryData) or slopes.resolution != levels[0].graph.resolution:
        return None
    return replace(spec, direction=field_fn.rebuild(graph_slopes_fn(levels[1].graph)))


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
        idx = [slice(None)] * len(resolution)
        idx[self.normal_axis] = 0 if self.side == 0 else resolution[self.normal_axis] - 1
        return tuple(idx)


_EDGES = (
    _Edge("xmin", 0, 0, 1),
    _Edge("xmax", 0, 1, 1),
    _Edge("ymin", 1, 0, 0),
    _Edge("ymax", 1, 1, 0),
)


class _BoundaryData:
    """Dirichlet values and slopes of a base graph on its box boundary.

    Built once per base.  Values come from the user's Dirichlet callable
    when one is given, else from the ring values; slopes come from the
    ring of :func:`node_slopes`.  Along an edge both are interpolated by
    the local cubics of :func:`_cubic_table`, exact at the nodes.  Called
    with points, the columns of an (n, k) array, the object returns the
    slopes on each point's nearest edge, (n-p, p, k) (the lookup that
    :func:`graph_slopes_fn` hands to the fields).  Each level of the base
    (:func:`_level`) reads from it the data at its corner offsets, off
    the grid ticks, and the base's slopes at its own ticks.
    """

    def __init__(self, graph: GridGraph, boundary_data=None):
        self.p, self.codim, self.domain = graph.p, graph.codim, graph.domain
        self.resolution = graph.resolution
        self.dirichlet = boundary_data if callable(boundary_data) else None
        slopes = node_slopes(graph)
        if graph.p == 1:
            self.end_slopes = slopes[[0, -1]]
            return
        self.ticks, self.steps = graph.axes, graph.steps
        self.tables = {}
        for edge in _EDGES:
            ring = edge.ring_indexer(graph.resolution)
            self.tables[edge.name] = (_cubic_table(graph.values[ring]), _cubic_table(slopes[ring]))

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)[: self.p]
        if self.p == 1:
            lo, hi = self.domain[0]
            return np.moveaxis(self.end_slopes[(np.abs(x[0] - lo) > np.abs(x[0] - hi)).astype(int)], 0, -1)
        gaps = [np.abs(x[e.normal_axis] - self.domain[e.normal_axis][e.side]) for e in _EDGES]
        nearest = np.argmin(gaps, axis=0)  # the first edge on ties
        out = np.empty((x.shape[1], self.codim, self.p))
        for k, edge in enumerate(_EDGES):
            out[nearest == k] = self.slopes(edge, x[edge.run_axis, nearest == k])
        return np.moveaxis(out, 0, -1)

    def slopes(self, edge: _Edge, r) -> np.ndarray:
        """Slopes at run-parameters r of ``edge``, shape (*r.shape, n-p, p)."""
        return self._interp(edge, 1, r)

    def values(self, edge: _Edge, x) -> np.ndarray:
        """Dirichlet values at the base points x (k, 2) on ``edge``."""
        if self.dirichlet is not None:
            return np.array([self._dirichlet(xk) for xk in x])
        return self._interp(edge, 0, x[:, edge.run_axis])

    def base_points(self, edge: _Edge, r) -> np.ndarray:
        """Base points (k, 2) at run-parameters r of ``edge``."""
        x = np.empty((len(r), 2))
        x[:, edge.run_axis] = r
        x[:, edge.normal_axis] = self.domain[edge.normal_axis][edge.side]
        return x

    def _dirichlet(self, x):
        return np.broadcast_to(np.asarray(self.dirichlet(x), dtype=float), (self.codim,))

    def _interp(self, edge, which, r):
        # Row i serves [t_i, t_(i+1)); the last row serves the last tick.
        ticks = self.ticks[edge.run_axis]
        i = np.searchsorted(ticks[1:], r, side="right")
        u = (r - ticks[i]) / self.steps[edge.run_axis]
        coeffs = self.tables[edge.name][which][i]
        powers = np.stack([np.ones_like(u), u, u * u, u * u * u], axis=-1)
        return (coeffs @ powers.reshape(len(u), *(1,) * (coeffs.ndim - 3), 4, 1))[..., 0]


def _edge_samples(level, spec):
    """The boundary motion, sampled once per report on a level's faces.

    Per end (p = 1) or edge (p = 2), keyed by edge name: the face's base
    points and fiber values at the grid ticks (:func:`_level`), their
    velocities in t, (p = 2) the displacement's jumps (2, n) at the
    corners against the edge's one-sided limit, extrapolated by the
    parabola through the face's three points inside
    (O(_CORNER_OFFSET^3) if smooth), and the raw displacements (k, n) at
    the ticks, for the boundary formula.  Only ``spec`` is evaluated
    here, once per face.  A node follows its boundary point, but an
    along-edge jump (a slide) is spread linearly over the interior
    nodes, whose data the base's t = 0 slopes along the edge carry
    along: a slid corner stretches the whole edge.
    """
    samples = {}
    for edge, (x, z, points, along, *_) in zip(_EDGES, level.faces):
        d = np.ascontiguousarray(spec.displacements(points).T)
        k, p = x.shape
        if along is None:
            samples[edge.name] = (x, z, d[:, :p], d[:, p:], d)
            continue
        run = edge.run_axis
        limits = 3.0 * d[[k, k + 3]] - 3.0 * d[[k + 1, k + 4]] + d[[k + 2, k + 5]]
        jumps = d[[0, k - 1]] - limits
        u = np.linspace(0.0, 1.0, k)
        shift = (1.0 - u) * jumps[0, run] + u * jumps[1, run]
        shift[[0, -1]] = 0.0
        vx = d[:k, :p].copy()
        vx[:, run] += shift
        vz = d[:k, p:] + along * shift[:, None]
        samples[edge.name] = (x, z, vx, vz, jumps, d[:k])
    return samples


def _corner_tear(samples) -> bool:
    """Whether a corner's jump against an edge (:func:`_edge_samples`) has
    a part normal to the edge above ``_TEAR_TOL`` of the largest boundary
    velocity sampled on the four edges."""
    torn, size = 0.0, 0.0
    for edge in _EDGES:
        _, _, vx, vz, jumps, _ = samples[edge.name]
        size = max(size, np.max(np.abs(vx)), np.max(np.abs(vz)))
        torn = max(torn, np.max(np.abs(jumps[:, edge.normal_axis])))
    return torn > _TEAR_TOL * size


class _Level(NamedTuple):
    """One grid of a base: the solved graph, its action, its boundary
    faces (:func:`_level`) and the re-solves' shared Hessian factor."""

    graph: GridGraph
    A: float
    faces: list
    factor: object


def _levels(L, base: GridGraph, boundary_data) -> list:
    """The base and up to two mesh-halved solves of its problem, finest first.

    The oracle re-solves on the first two, which carry a factor; the
    boundary formula, whose bias (one-sided slopes of the discrete solve,
    with corner pollution) needs two extrapolation levels to come out
    below the oracle's noise, reads all three.  Coarse data are the
    user's callable, else the base nodes the coarser grid keeps.  Every
    level reads its corner data and the base's slopes from one boundary
    sampler of the base.
    """
    _require_dual(L)
    bd = _BoundaryData(base, boundary_data)
    graphs = [base]
    for stride in (2, 4):
        res = halved_resolution(graphs[-1].resolution)
        if res is None:
            break
        data = bd.dirichlet
        if data is None:
            data = base.values[(slice(None, None, stride),) * base.p]
        graphs.append(solve_dirichlet(L, data, base.domain, res))
    return [_level(L, graph, bd, factored=k < 2) for k, graph in enumerate(graphs)]


def _level(L, graph: GridGraph, bd: _BoundaryData, factored=False) -> _Level:
    """The level of a critical graph, its boundary read once.

    Its ``faces`` hold, per end or edge in ``_EDGES`` order: the base
    points (k, p) and ring values (k, n-p) at the grid ticks; the points
    (n, k') at which :func:`_edge_samples` evaluates the motion, the
    ticks and (p = 2) three points inside each corner, with data from
    the base's sampler ``bd``; (p = 2, else None) the base's slopes along
    the edge at the ticks; the outward sign and the normal's axis;
    (dL/dq, L, q) at the ticks, stacked as :func:`boundary_flux` takes
    them; and the quadrature along the edge.  ``factored`` adds the
    SuperLU factor of L's interior Hessian at the graph's values (None
    where singular), the re-solves' chord factor.  Raises
    :class:`NotCritical` off shell, where the formula is invalid.
    """
    cells = _CellScheme(L, graph.domain, graph.resolution)
    grad, A = cells.gradient(graph.values)  # A as action(L, graph) gives it
    if not np.isfinite(A):
        raise NonFinite("action evaluated non-finite")
    res = float(np.max(np.abs(grad[(slice(1, -1),) * graph.p]))) / cells.cell_volume
    if res > 1e-10 * (1.0 + abs(A)):
        raise NotCritical(
            f"graph residual {res:.3e} exceeds 1e-10*(1+|A|); formula is off-shell"
        )
    nodes = np.stack(np.meshgrid(*graph.axes, indexing="ij"), axis=-1)
    arrays = (nodes, graph.values, node_slopes(graph))
    faces = []
    for edge in _EDGES[: 2 * graph.p]:
        ring = edge.ring_indexer(graph.resolution)
        x, z, q = (a[ring].reshape(-1, *a.shape[graph.p :]) for a in arrays)
        value, momenta = _first_derivative(L, x.T, z.T, np.moveaxis(q, 0, -1), 2)
        flux = (np.ascontiguousarray(np.moveaxis(momenta, -1, 0)), value, q)
        points, along, quadrature = np.concatenate([x.T, z.T]), None, lambda v: v[0]
        if graph.p == 2:
            run, (lo, hi) = edge.run_axis, graph.domain[edge.run_axis]
            eps = _CORNER_OFFSET * (hi - lo) * np.arange(1.0, 4.0)
            inside = bd.base_points(edge, np.concatenate([lo + eps, hi - eps]))
            points = np.concatenate([points, np.concatenate([inside.T, bd.values(edge, inside).T])], axis=1)
            along = bd.slopes(edge, x[:, run])[..., run]
            quadrature = functools.partial(_simpson, h=graph.steps[run])
        faces.append((x, z, points, along, 2.0 * edge.side - 1.0, edge.normal_axis, flux, quadrature))
    factor = None
    if factored:
        factor = _factorize(cells, graph.values, _SolveCounters())
    return _Level(graph, A, faces, factor)


def _deformed_action(L, level: _Level, samples, t, init=None):
    """The re-solved action at offset t on the level's grid, and the
    re-solve's ``GridGraph.info`` with its node values under ``"values"``;
    ``samples`` are the motion's on that grid.  Newton starts from the
    interior of ``init`` (default: the level's base values) on the
    level's shared factor, and its last action is the one returned."""
    domain, resolution = level.graph.domain, level.graph.resolution
    L_t, ring, domain_t = _deformed_problem(L, samples, domain, resolution, t)
    bvals = _boundary_array(L_t, ring, domain_t, resolution)  # finite, as solve_dirichlet asks
    init = level.graph.values if init is None else init
    graph = _solve(L_t, bvals, domain_t, resolution, init, factor=level.factor)
    if not np.isfinite(graph.info["action"]):
        raise NonFinite("action evaluated non-finite")
    return graph.info["action"], {**graph.info, "values": graph.values}


def _deformed_problem(L, samples, domain, resolution, t):
    """``(L_t, ring, domain_t)`` for :func:`solve_dirichlet` on the
    boundary moved to offset t along ``samples`` (:func:`_edge_samples`).
    For p = 1 the endpoints move and the interval is re-gridded.  For
    p = 2, L is pulled back through the Coons patch of the displaced edge
    curves.
    """
    ring = np.zeros((*resolution, L.codim))
    curves = {}
    for edge in _EDGES[: 2 * L.p]:
        x, z, vx, vz, *_ = samples[edge.name]
        curves[edge.name] = x + t * vx
        ring[edge.ring_indexer(resolution)] = z + t * vz
    if L.p == 1:
        ends = [curves[name][0, 0] for name in ("xmin", "xmax")]
        if not ends[0] < ends[1]:
            raise ChartExit(f"deformed interval degenerate: {ends}")
        return L, ring, (tuple(ends),)
    for edge in _EDGES:
        if np.any(np.diff(curves[edge.name][:, edge.run_axis]) <= 0.0):
            raise ChartExit(f"deformed {edge.name} edge is not a graph over its axis")
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

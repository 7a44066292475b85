"""Discretized action, Euler-Lagrange residuals, and a Dirichlet solver.

Discretization: node-centered values on a tensor grid over an
axis-aligned box, cell-centered gradients, and the midpoint rule per
cell.  The cell layer (``_CellScheme`` and the Hessian pattern) is one
tensor-product code path for any base dimension p: each cell has 2^p
corners, first axis fastest, and is evaluated at its centre with the
corner average and one centred slope per axis.  ``GridGraph`` still
accepts only p = 1 or 2, because the first-variation oracle's boundary
sampler works on the edges of a 2-D box.

The discrete Euler-Lagrange residual is the exact gradient of this
discrete action with respect to the interior node values, so the
solver, the action, and the first-variation oracle all share one
functional.  Jacobians come from nested dual numbers;
there are no hand-coded second derivatives.

Each Newton step assembles the interior Hessian block straight into CSC
form: the sparsity pattern and the slot of every per-cell entry are
built once per ``(resolution, codim)`` and cached, so an iteration costs
the dual evaluations, one einsum and one ``np.bincount``.  The symmetric
system is factored by ``spla.splu`` with minimum-degree ordering on
A^T + A (``permc_spec="MMD_AT_PLUS_A"``).  On every grid the factor is
kept across iterations, a chord step, until a step is damped or cuts the
residual max-norm by less than 4x; then the Hessian is refactored.
Every solve starts from the given ``init``; else, on a grid of 65 or more
nodes per axis that halves cleanly, from the tensor-product cubic
prolongation of the halved grid's solve (nested iteration); else from the
discrete harmonic extension of the ring data, one exact Newton step of
:func:`~cartanarea.lagrangian.dirichlet` from the transfinite lift (no
step where the lift already meets the convergence test, as on affine
data).  The first-variation oracle also hands each deformed re-solve a
factor of its base's Hessian, which Newton keeps under the same policy as
one of its own; nothing else passes one in.

``solve_dirichlet`` reports in ``GridGraph.info`` the iterations, the
back-substitutions (``linear_solves``, the harmonic start's included)
and the factorizations they used (``factorizations``), the seconds spent
in them and in Hessian assembly (``linear_solve_s``, ``hessian_s``) and
the coarse grid the solve started from (``coarse_start``, or None).  The
counters cover the returned grid's work, not the coarse solve's.
"""

import functools
import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lagrangian as _lag
from .dual import Dual, value as _value
from .errors import NoConvergence, NonFinite, SingularJacobian

_LINESEARCH_DECREASE = 1e-4
# Grids of at least this many nodes per axis start from the halved grid's solve.
_LARGE_GRID_NODES = 65


@dataclass
class GridGraph:
    """A discretized graph over a box, with Dirichlet ring data.

    ``values`` has shape ``(*resolution, n-p)``; ``boundary_data`` is the
    same shape and must agree with ``values`` exactly on the boundary
    ring.  ``info`` carries solver metadata when produced by
    :func:`solve_dirichlet`.
    """

    p: int
    codim: int
    domain: tuple
    resolution: tuple
    values: np.ndarray
    boundary_data: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.domain = tuple((float(lo), float(hi)) for lo, hi in self.domain)
        self.resolution = tuple(int(r) for r in self.resolution)
        if self.p not in (1, 2):
            raise ValueError(f"base dimension p must be 1 or 2, got {self.p}")
        if len(self.domain) != self.p or len(self.resolution) != self.p:
            raise ValueError("domain and resolution must have one entry per base axis")
        if any(r < 5 for r in self.resolution):
            raise ValueError(f"need at least 5 nodes per axis, got {self.resolution}")
        if any(hi <= lo for lo, hi in self.domain):
            raise ValueError(f"degenerate domain {self.domain}")
        shape = (*self.resolution, self.codim)
        self.values = np.asarray(self.values, dtype=float)
        self.boundary_data = np.asarray(self.boundary_data, dtype=float)
        if self.values.shape != shape or self.boundary_data.shape != shape:
            raise ValueError(f"values must have shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("graph values must be finite")
        mask = boundary_mask(self.resolution)
        if not np.array_equal(self.values[mask], self.boundary_data[mask]):
            raise ValueError("boundary nodes must equal boundary_data exactly")

    @property
    def n(self):
        return self.p + self.codim

    @property
    def axes(self):
        return grid_axes(self.domain, self.resolution)

    @property
    def steps(self):
        return tuple(
            (hi - lo) / (r - 1) for (lo, hi), r in zip(self.domain, self.resolution)
        )


@dataclass(frozen=True)
class ActionValue:
    value: float


def grid_axes(domain, resolution):
    return [np.linspace(lo, hi, r) for (lo, hi), r in zip(domain, resolution)]


def boundary_mask(resolution):
    mask = np.zeros(resolution, dtype=bool)
    for axis in range(len(resolution)):
        idx = [slice(None)] * len(resolution)
        idx[axis] = 0
        mask[tuple(idx)] = True
        idx[axis] = -1
        mask[tuple(idx)] = True
    return mask


def make_graph(L, domain, resolution, values, info=None) -> GridGraph:
    """Wrap a full value array as a GridGraph for the Lagrangian's dims."""
    values = np.asarray(values, dtype=float)
    resolution = tuple(int(r) for r in resolution)
    if values.shape == resolution:
        values = values[..., None]
    return GridGraph(
        p=L.p,
        codim=L.codim,
        domain=tuple(domain),
        resolution=resolution,
        values=values,
        boundary_data=values.copy(),
        info=info or {},
    )


def action(L, graph: GridGraph) -> ActionValue:
    """Midpoint quadrature of L(x, f, grad f) over the box.

    L is evaluated once per cell at the cell centre, with the cell's
    averaged value and centred slopes: the solver's functional.
    """
    _check_graph_dims(L, graph)
    val = _CellScheme(L, graph.domain, graph.resolution).action(graph.values)
    if not np.isfinite(val):
        raise NonFinite("action evaluated non-finite")
    return ActionValue(value=float(val))


def el_residual(L, graph: GridGraph) -> np.ndarray:
    """Discrete Euler-Lagrange residual field at interior nodes.

    Returns dL/dz - div(momenta) in divergence form, i.e. the gradient
    of the midpoint action scaled back to a pointwise density; shape is
    ``(*interior resolution, n-p)``.
    """
    _check_graph_dims(L, graph)
    if any(r < 3 for r in graph.resolution):
        raise ValueError("need at least one interior node per axis")
    cells = _CellScheme(L, graph.domain, graph.resolution)
    grad, _ = cells.gradient(graph.values)
    interior = tuple(slice(1, -1) for _ in range(graph.p))
    return grad[interior] / cells.cell_volume


def solve_dirichlet(
    L,
    boundary_data,
    domain,
    resolution,
    init=None,
    max_iterations: int = 200,
    tolerance_factor: float = 1e-10,
) -> GridGraph:
    """Damped Newton solve of the discrete Euler-Lagrange system.

    ``boundary_data`` is a callable x -> f (evaluated on boundary nodes)
    or a full-shape array whose ring is used.  Converged when the residual
    max-norm drops below ``tolerance_factor * (1 + |action|)``; the
    Hessian factor is kept while full steps cut that norm 4x.  Falls back
    to gradient descent when the Newton system is singular or stalls, then
    retries Newton; raises :class:`NoConvergence` after ``max_iterations``
    iterations.  Without ``init``, 65 or more nodes per axis start from
    the solve on the halved grid, if any, else from the harmonic start.
    """
    _require_dual(L)
    domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    resolution = _normalize_resolution(resolution, L.p)
    bvals = _boundary_array(L, boundary_data, domain, resolution)
    return _solve(L, bvals, domain, resolution, init, max_iterations, tolerance_factor)


def _require_dual(L):
    if not L.supports_dual:
        raise ValueError(
            "solve_dirichlet needs a dual-differentiable Lagrangian "
            "(expression-built or built-in)"
        )


def _solve(L, bvals, domain, resolution, init, max_iterations=200, tolerance_factor=1e-10, factor=None):
    """Newton from the module's start rule (and ``factor``, see :func:`_newton`),
    with this grid's counters."""
    counters = _SolveCounters()
    coarse_res = None if init is not None else _coarse_resolution(resolution)
    if coarse_res is not None:
        try:
            coarse = _solve(
                L, bvals[(slice(None, None, 2),) * L.p], domain, coarse_res,
                None, max_iterations, tolerance_factor,
            )
            init = _prolong(coarse.values)
        except (NoConvergence, SingularJacobian):
            coarse_res = None
    if init is None:
        values = _harmonic_start(L, bvals, domain, resolution, tolerance_factor, counters)
    else:
        mask = boundary_mask(resolution)
        values = np.array(init, dtype=float)
        values[mask] = bvals[mask]
    values, info = _newton(
        L, values, domain, resolution, max_iterations, tolerance_factor, counters, factor
    )
    info.update(asdict(counters), coarse_start=coarse_res)
    return GridGraph(
        p=L.p,
        codim=L.codim,
        domain=domain,
        resolution=resolution,
        values=values,
        boundary_data=bvals,
        info=info,
    )


def deriv4(vals, h, axis=0):
    """Fourth-order derivative of a uniformly sampled array along an axis.

    Five-point central stencils inside, one-sided at the ends; needs at
    least 5 samples along the axis.
    """
    f = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    if f.shape[0] < 5:
        raise ValueError("fourth-order stencils need at least 5 samples")
    out = np.empty_like(f)
    out[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12 * h)
    out[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12 * h)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    out[-2] = -(-3 * f[-1] - 10 * f[-2] + 18 * f[-3] - 6 * f[-4] + f[-5]) / (12 * h)
    out[-1] = -(-25 * f[-1] + 48 * f[-2] - 36 * f[-3] + 16 * f[-4] - 3 * f[-5]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def node_slopes(graph: GridGraph) -> np.ndarray:
    """Node-centered gradient field, shape ``(*resolution, n-p, p)``.

    Fourth-order stencils (one-sided at the boundary).  The boundary ring
    of these slopes is what the first-variation oracle's boundary sampler
    and the boundary formula read.
    """
    out = np.empty((*graph.resolution, graph.codim, graph.p))
    for i in range(graph.codim):
        for j in range(graph.p):
            out[..., i, j] = deriv4(graph.values[..., i], graph.steps[j], axis=j)
    return out


def observed_orders(errors):
    """log2 ratios of successive errors under mesh halving."""
    e = [float(v) for v in errors]
    return [np.log2(a / b) for a, b in zip(e, e[1:])]


def _lagrange_basis(nodes) -> np.ndarray:
    """Entry [a, k]: coefficient of u^k in the Lagrange polynomial of node a."""
    rest = [np.delete(nodes, a) for a in range(len(nodes))]
    return np.array([np.poly(r)[::-1] / np.prod(x - r) for x, r in zip(nodes, rest)])


# Indexed by -o for the stencil ticks o, o+1, o+2, o+3 around u = 0.
_CUBIC_BASES = np.array([_lagrange_basis(np.arange(4) - k) for k in range(4)])
_MIDPOINT_POWERS = np.array([1.0, 0.5, 0.25, 0.125])


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


def _prolong(values) -> np.ndarray:
    """Tensor-product cubic prolongation of node values to the halved grid.

    ``values`` has shape ``(*resolution, n-p)``; the result has
    ``2 r - 1`` nodes on each base axis.  Along each axis the even nodes
    copy the coarse ones and the odd nodes take the local cubic of
    :func:`_cubic_table` at the interval midpoint, so a polynomial of
    degree at most 3 in each variable is reproduced exactly.
    """
    out = np.asarray(values, dtype=float)
    for axis in range(out.ndim - 1):
        coarse = np.moveaxis(out, axis, 0)
        fine = np.empty((2 * len(coarse) - 1, *coarse.shape[1:]))
        fine[0::2] = coarse
        fine[1::2] = _cubic_table(coarse)[:-1] @ _MIDPOINT_POWERS
        out = np.moveaxis(fine, 0, axis)
    return out


# ---------------------------------------------------------------------------
# Midpoint-cell machinery


def _cell_corners(p):
    """Corner offsets of a p-cell, first axis fastest: (0, 0), (1, 0), (0, 1), (1, 1)."""
    return tuple(c[::-1] for c in itertools.product((0, 1), repeat=p))


def _corner_slices(resolution):
    """Per cell corner, the slice of the node grid holding that corner of every cell."""
    cell_shape = tuple(r - 1 for r in resolution)
    return [
        tuple(slice(d, d + n) for d, n in zip(c, cell_shape))
        for c in _cell_corners(len(resolution))
    ]


class _CellScheme:
    """Vectorised evaluation of the midpoint action and its derivatives."""

    def __init__(self, L, domain, resolution):
        self.L = L
        self.p = L.p
        self.m = L.codim
        self.resolution = tuple(resolution)
        axes = grid_axes(domain, resolution)
        self.steps = [(hi - lo) / (r - 1) for (lo, hi), r in zip(domain, resolution)]
        self.cell_volume = float(np.prod(self.steps))
        centers = [0.5 * (ax[:-1] + ax[1:]) for ax in axes]
        self.x_cells = np.meshgrid(*centers, indexing="ij")
        self.cell_shape = tuple(r - 1 for r in self.resolution)
        self.corners = _cell_corners(self.p)
        # rows: role 0 = value average, role 1 + j = slope in axis j
        weight = 0.5**self.p
        self.coeffs = np.array(
            [[weight] * len(self.corners)]
            + [
                [(1.0 if c[j] else -1.0) * (weight * 2 / h) for c in self.corners]
                for j, h in enumerate(self.steps)
            ]
        )
        self.slices = _corner_slices(self.resolution)
        self.n_vars = self.m * (self.p + 1)

    def _cell_vars(self, values):
        """Linear map from corner values to (value, slopes) per component."""
        corners = [values[s] for s in self.slices]
        u = []
        for i in range(self.m):
            for role in range(self.p + 1):
                acc = 0.0
                for a, cv in enumerate(corners):
                    acc = acc + self.coeffs[role, a] * cv[..., i]
                u.append(acc)
        return u

    def _evaluate(self, u, seed=None, seed2=None):
        """Evaluate L over all cells with optional dual seedings.

        Floating-point faults are silenced here; callers translate any
        non-finite results into NonFinite.
        """
        entries = []
        for v, arr in enumerate(u):
            if seed2 is not None:
                inner = Dual(arr, 1.0 if v == seed2 else 0.0)
                entries.append(Dual(inner, 1.0 if v == seed else 0.0))
            elif seed is not None:
                entries.append(Dual(arr, 1.0) if v == seed else arr)
            else:
                entries.append(arr)
        z = [entries[i * (self.p + 1)] for i in range(self.m)]
        q = [
            [entries[i * (self.p + 1) + 1 + j] for j in range(self.p)]
            for i in range(self.m)
        ]
        x = [np.asarray(c) for c in self.x_cells]
        with np.errstate(all="ignore"):
            return self.L.func(x, z, q)

    def action(self, values) -> float:
        vals = _value(self._evaluate(self._cell_vars(values)))
        return float(self.cell_volume * np.sum(vals))

    def gradient(self, values):
        """Exact gradient of the discrete action w.r.t. node values.

        Returns ``(grad, action_value)`` with grad shaped like values.
        """
        u = self._cell_vars(values)
        base = self._evaluate(u)
        A = float(self.cell_volume * np.sum(_value(base)))
        derivs = []
        for v in range(self.n_vars):
            r = self._evaluate(u, seed=v)
            d = r.du if isinstance(r, Dual) else 0.0
            derivs.append(np.broadcast_to(np.asarray(_value(d), dtype=float), self.cell_shape))
        grad = np.zeros((*self.resolution, self.m))
        for i in range(self.m):
            for a, s in enumerate(self.slices):
                contrib = 0.0
                for role in range(self.p + 1):
                    contrib = contrib + self.coeffs[role, a] * derivs[i * (self.p + 1) + role]
                grad[(*s, i)] += self.cell_volume * contrib
        if not np.all(np.isfinite(grad)):
            raise NonFinite("discrete Euler-Lagrange gradient evaluated non-finite")
        return grad, A

    def hessian(self, values) -> sp.csc_matrix:
        """Sparse Hessian of the discrete action over the interior dofs.

        Rows and columns follow :attr:`_HessianPattern.interior`; the
        sparsity pattern comes from :func:`_hessian_pattern`, so each call
        only evaluates the second derivatives per cell and sums them into
        the cached CSC slots.
        """
        u = self._cell_vars(values)
        s = self.n_vars
        ncells = int(np.prod(self.cell_shape))
        H = np.zeros((s, s, ncells))
        for k in range(s):
            for l in range(k, s):
                r = self._evaluate(u, seed=k, seed2=l)
                d = 0.0
                if isinstance(r, Dual) and isinstance(r.du, Dual):
                    d = _value(r.du.du)
                arr = np.broadcast_to(np.asarray(d, dtype=float), self.cell_shape)
                H[k, l] = H[l, k] = arr.reshape(-1)
        H = H.reshape(self.m, self.p + 1, self.m, self.p + 1, ncells)
        # local[i, j, a, b, c]: d^2 A / d(corner a, comp i) d(corner b, comp j)
        T = self.coeffs.T  # (ncorners, roles)
        local = np.einsum("iajsc,bs->ijabc", np.einsum("ar,irjsc->iajsc", T, H), T)
        pat = _hessian_pattern(self.resolution, self.m)
        nnz = pat.indices.size
        data = np.bincount(pat.slots, weights=local.reshape(-1), minlength=nnz + 1)[:nnz]
        data *= self.cell_volume
        n_int = pat.interior.size
        return sp.csc_matrix((data, pat.indices, pat.indptr), shape=(n_int, n_int))


class _HessianPattern(NamedTuple):
    """Sparsity of the interior Hessian block for one grid shape.

    ``interior`` lists the flat dof index (node * m + component) of each
    unknown; ``indices``/``indptr`` are the CSC structure of the interior
    block; ``slots[e]`` is the CSC data slot that the e-th local entry
    (in ``_CellScheme.hessian``'s ``(i, j, a, b, cell)`` order) adds
    into, or ``nnz`` when the entry touches a boundary dof.
    """

    interior: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    slots: np.ndarray


@functools.lru_cache(maxsize=8)
def _hessian_pattern(resolution, m) -> _HessianPattern:
    """Build the interior Hessian pattern once per ``(resolution, m)``.

    The arrays are shared by every caller, so they are made read-only.
    """
    nodes = np.arange(int(np.prod(resolution))).reshape(resolution)
    corner_nodes = np.stack([nodes[s].reshape(-1) for s in _corner_slices(resolution)])
    comps = np.arange(m)
    rows = corner_nodes[None, None, :, None, :] * m + comps[:, None, None, None, None]
    cols = corner_nodes[None, None, None, :, :] * m + comps[None, :, None, None, None]
    interior = np.flatnonzero(np.repeat(~boundary_mask(resolution).reshape(-1), m))
    n_int = interior.size
    position = np.full(nodes.size * m, -1, dtype=np.int64)
    position[interior] = np.arange(n_int)
    r, c = np.broadcast_arrays(position[rows], position[cols])
    keep = ((r >= 0) & (c >= 0)).reshape(-1)
    keys, slot = np.unique(
        (c.reshape(-1)[keep] * n_int + r.reshape(-1)[keep]), return_inverse=True
    )
    slots = np.full(keep.size, keys.size, dtype=np.intp)
    slots[keep] = slot
    indptr = np.zeros(n_int + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n_int, minlength=n_int), out=indptr[1:])
    pattern = _HessianPattern(
        interior=interior,
        indices=(keys % n_int).astype(np.int32),
        indptr=indptr,
        slots=slots,
    )
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


# ---------------------------------------------------------------------------
# Newton solver


@dataclass
class _SolveCounters:
    """Linear-algebra work of one ``solve_dirichlet`` grid, its start included.

    ``linear_solves`` counts back-substitutions, ``factorizations`` the
    SuperLU factors they used; ``linear_solve_s`` times both.
    """

    linear_solves: int = 0
    factorizations: int = 0
    linear_solve_s: float = 0.0
    hessian_s: float = 0.0


# A reused factor is kept only while each full step cuts the residual
# max-norm at least this much.
_REUSE_CONTRACTION = 0.25


def _newton(L, values, domain, resolution, max_iterations, tolerance_factor, counters, factor=None):
    """Damped Newton from ``values``.  ``factor``, a SuperLU factor of the interior
    Hessian at a nearby point or problem, is kept from the first step like one of its own."""
    cells = _CellScheme(L, domain, resolution)
    interior = _hessian_pattern(cells.resolution, cells.m).interior
    values = values.copy()
    history = []
    descent_rounds = 0
    carried = None  # (gradient, action) of ``values`` from an accepted line search
    it = 0
    while it < max_iterations:
        it += 1
        grad, A = carried if carried is not None else cells.gradient(values)
        carried = None
        g = grad.reshape(-1)[interior]
        res = float(np.max(np.abs(g))) / cells.cell_volume if g.size else 0.0
        history.append(A)
        if res < tolerance_factor * (1.0 + abs(A)):
            return values, {
                "converged": True,
                "iterations": it,
                "residual": res,
                "action": A,
                "action_history": history,
                "descent_rounds": descent_rounds,
            }
        gnorm = float(np.max(np.abs(g)))
        while True:
            fresh = factor is None
            if fresh:
                factor = _factorize(cells, values, counters)
            step = _back_substitute(factor, -g, counters)
            found = None if step is None else _line_search(cells, values, interior, step, gnorm)
            if found is not None or fresh:
                break
            factor = None  # the kept factor failed here: refactor at these values
        if found is not None:
            values, carried, alpha, tnorm = found
            if alpha < 1.0 or tnorm > _REUSE_CONTRACTION * gnorm:
                factor = None
            continue
        # Singular or stalled Newton system: descend on the action.
        factor = None
        descent_rounds += 1
        if descent_rounds > 5:
            raise SingularJacobian(
                "Newton system unusable and gradient descent made no progress"
            )
        values, made_progress = _descent(cells, values, interior, steps=50)
        if not made_progress:
            raise SingularJacobian(
                "gradient-descent fallback could not reduce the action"
            )
    grad, A = carried if carried is not None else cells.gradient(values)
    res = float(np.max(np.abs(grad.reshape(-1)[interior]))) / cells.cell_volume
    raise NoConvergence(
        f"no convergence after {max_iterations} iterations "
        f"(residual {res:.3e}, tolerance {tolerance_factor * (1 + abs(A)):.3e})"
    )


def _factorize(cells, values, counters):
    """SuperLU factor of the interior Hessian at ``values``; None if singular."""
    t0 = time.perf_counter()
    K_int = cells.hessian(values)
    t1 = time.perf_counter()
    counters.hessian_s += t1 - t0
    try:
        with np.errstate(all="ignore"):
            # The interior Hessian is symmetric: order on A^T + A.
            factor = spla.splu(K_int, permc_spec="MMD_AT_PLUS_A")
        counters.factorizations += 1
    except RuntimeError:
        factor = None
    counters.linear_solve_s += time.perf_counter() - t1
    return factor


def _back_substitute(factor, rhs, counters):
    """The Newton step from ``factor``, or None when it is missing or not finite."""
    if factor is None:
        return None
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        step = factor.solve(rhs)
    counters.linear_solves += 1
    counters.linear_solve_s += time.perf_counter() - t0
    return step if np.all(np.isfinite(step)) else None


def _line_search(cells, values, interior, step, gnorm):
    """Backtrack on the residual max-norm along ``step``.

    Returns ``(values, (gradient, action), alpha, residual max-norm)`` of
    the accepted trial, or None after 30 halvings.
    """
    alpha = 1.0
    for _ in range(30):
        trial = values.copy()
        flat = trial.reshape(-1)
        flat[interior] += alpha * step
        try:
            tg, tA = cells.gradient(trial)
        except NonFinite:
            alpha *= 0.5
            continue
        tnorm = float(np.max(np.abs(tg.reshape(-1)[interior])))
        if tnorm <= (1.0 - _LINESEARCH_DECREASE * alpha) * gnorm:
            return trial, (tg, tA), alpha, tnorm
        alpha *= 0.5
    return None


def _descent(cells, values, interior, steps):
    made_progress = False
    for _ in range(steps):
        grad, A = cells.gradient(values)
        g = grad.reshape(-1)[interior]
        gnorm = float(np.max(np.abs(g)))
        if gnorm == 0.0:
            break
        beta = 1.0 / max(1.0, gnorm)
        ok = False
        for _ in range(40):
            trial = values.copy()
            flat = trial.reshape(-1)
            flat[interior] -= beta * g
            try:
                tA = cells.action(trial)
            except (NonFinite, FloatingPointError):
                beta *= 0.5
                continue
            if tA < A - _LINESEARCH_DECREASE * beta * float(g @ g):
                values = trial
                ok = made_progress = True
                break
            beta *= 0.5
        if not ok:
            break
    return values, made_progress


# ---------------------------------------------------------------------------
# Initialization and input handling


def halved_resolution(resolution):
    """The grid of every other node, or None unless each axis is odd and keeps >= 5."""
    halved = tuple((r + 1) // 2 for r in resolution)
    return halved if all(r % 2 == 1 for r in resolution) and min(halved) >= 5 else None


def _coarse_resolution(resolution):
    """The halved grid a solve starts from, or None when there is none."""
    return halved_resolution(resolution) if min(resolution) >= _LARGE_GRID_NODES else None


def _normalize_resolution(resolution, p):
    if np.isscalar(resolution):
        resolution = (int(resolution),) * p
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != p:
        raise ValueError(f"resolution must have {p} entries, got {resolution}")
    if any(r < 5 for r in resolution):
        raise ValueError(f"need at least 5 nodes per axis, got {resolution}")
    return resolution


def _boundary_array(L, boundary_data, domain, resolution):
    shape = (*resolution, L.codim)
    if callable(boundary_data):
        axes = grid_axes(domain, resolution)
        bvals = np.zeros(shape)
        # Faults show as non-finite values, which the check below rejects.
        with np.errstate(all="ignore"):
            for idx in np.argwhere(boundary_mask(resolution)):
                x = np.array([axes[k][idx[k]] for k in range(L.p)])
                bvals[tuple(idx)] = np.broadcast_to(
                    np.asarray(boundary_data(x), dtype=float), (L.codim,)
                )
    else:
        bvals = np.array(boundary_data, dtype=float)
        if bvals.shape == tuple(resolution):
            bvals = bvals[..., None]
        if bvals.shape != shape:
            raise ValueError(f"boundary data must have shape {shape}, got {bvals.shape}")
    if not np.all(np.isfinite(bvals)):
        raise ValueError("boundary data must be finite")
    return bvals


def _transfinite(bvals, resolution):
    if len(resolution) == 1:
        t = np.linspace(0.0, 1.0, resolution[0])[:, None]
        return (1.0 - t) * bvals[0] + t * bvals[-1]
    r1, r2 = resolution
    u = np.linspace(0.0, 1.0, r1)[:, None, None]
    v = np.linspace(0.0, 1.0, r2)[None, :, None]
    out = (
        (1.0 - u) * bvals[0:1, :, :]
        + u * bvals[-1:, :, :]
        + (1.0 - v) * bvals[:, 0:1, :]
        + v * bvals[:, -1:, :]
        - (
            (1.0 - u) * (1.0 - v) * bvals[0, 0]
            + u * (1.0 - v) * bvals[-1, 0]
            + (1.0 - u) * v * bvals[0, -1]
            + u * v * bvals[-1, -1]
        )
    )
    return out


def _harmonic_start(L, bvals, domain, resolution, tolerance_factor, counters):
    """The discrete harmonic extension of the ring data: ``dirichlet(n, p)`` is of degree
    two, so one Newton step from the transfinite lift is exact (SPD on finite data).
    The step is skipped where Newton's own test finds the lift converged (affine data)."""
    values = _transfinite(bvals, resolution)
    mask = boundary_mask(resolution)
    values[mask] = bvals[mask]
    cells = _CellScheme(_lag.dirichlet(L.n, L.p), domain, resolution)
    interior = _hessian_pattern(cells.resolution, cells.m).interior
    grad, A = cells.gradient(values)
    g = grad.reshape(-1)[interior]
    if np.max(np.abs(g)) / cells.cell_volume >= tolerance_factor * (1.0 + abs(A)):
        factor = _factorize(cells, values, counters)
        values.reshape(-1)[interior] += _back_substitute(factor, -g, counters)
    return values


def _check_graph_dims(L, graph: GridGraph):
    if (L.p, L.codim) != (graph.p, graph.codim):
        raise ValueError(
            f"Lagrangian dims (p={L.p}, n-p={L.codim}) do not match graph "
            f"(p={graph.p}, n-p={graph.codim})"
        )

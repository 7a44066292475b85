"""The benchmark's workloads: seeded inputs, one operation, one checker.

Each workload is a closed loop: one caller issues one operation at a
time.  Operations come in rounds, a fixed cycle of operation kinds whose
data is drawn from ``numpy.random.default_rng([seed, round])``, so a
seed fixes every input and a run always ends on a whole round.  The
library is called through module attributes (``va.first_variation_fd``,
``extremal.solve_dirichlet``, ...) so that the tracer in ``spans.py`` can
replace them; checkers use references taken at import time, which the
tracer never replaces.
"""

import math
from dataclasses import dataclass

import numpy as np

from cartanarea import extremal, frames, gram, grassmann, lagrangian
from cartanarea import variation as va
from cartanarea.acceptance import _plucker_closed_form

_el_residual = extremal.el_residual
_action = extremal.action


@dataclass(frozen=True)
class Size:
    box_res: int
    pullback_res: int
    solve_res: int
    pointwise_pool: int


SIZES = {
    "full": Size(box_res=33, pullback_res=33, solve_res=129, pointwise_pool=1024),
    "tiny": Size(box_res=17, pullback_res=33, solve_res=17, pointwise_pool=8),
}


@dataclass
class Op:
    kind: str
    data: object = None
    known_defect: bool = False


def identity(fn):
    """The default ``wrap`` of ``run``: field callables go in unwrapped."""
    return fn


# ---------------------------------------------------------------------------
# Shared inputs and checks

UNIT = ((0.0, 1.0), (0.0, 1.0))
CENTERED = ((-0.5, 0.5), (-0.5, 0.5))
TILT = np.array([[0.7, -0.2], [0.4, 1.1]])
SIDES = ("xmin", "xmax", "ymin", "ymax")
OUTWARD = {
    "xmin": np.array([-1.0, 0.0, 0.0]),
    "xmax": np.array([1.0, 0.0, 0.0]),
    "ymin": np.array([0.0, -1.0, 0.0]),
    "ymax": np.array([0.0, 1.0, 0.0]),
}


def _zero(x):
    return 0.0


def _scherk(x):
    return np.log(np.cos(x[0]) / np.cos(x[1]))


def _scherk_slopes(point):
    return np.array([[-np.tan(point[0]), np.tan(point[1])]])


def _tilted(x):
    return TILT @ np.asarray(x, dtype=float)


class _Constant:
    """A deformation direction that is the same vector everywhere."""

    def __init__(self, vector):
        self.vector = vector

    def __call__(self, point):
        return self.vector


class _SmoothData:
    """Non-harmonic smooth Dirichlet data for gram(4,2).

    (a sin(b x1) x2 + c x1^2, d cos(x1 + x2) - e x2^3): holomorphic data
    would converge in one Newton step and bypass the solver.
    """

    def __init__(self, coeffs):
        self.a, self.b, self.c, self.d, self.e = (float(v) for v in coeffs)

    def __call__(self, x):
        x1, x2 = float(x[0]), float(x[1])
        return np.array(
            [
                self.a * math.sin(self.b * x1) * x2 + self.c * x1 * x1,
                self.d * math.cos(x1 + x2) - self.e * x2**3,
            ]
        )


def _formula_gap(rep):
    """None, or why the boundary formula and the oracle disagree.

    The budget is acceptance criterion 6's.
    """
    gap = abs(rep.boundary_formula_value - rep.dA_dt)
    budget = max(1e-4 * abs(rep.dA_dt), 1e-6 * (1.0 + rep.A0))
    if not gap <= budget:
        return f"|formula - oracle| {gap:.3e} exceeds budget {budget:.3e}"
    return None


def _report_record(rep):
    return (
        rep.classification,
        rep.dA_dt,
        rep.dA_dt_order4,
        rep.boundary_formula_value,
        rep.diagnostics.get("halvings"),
    )


# ---------------------------------------------------------------------------
# oracle-box


class OracleBox:
    """Flat unit square, zero data: every edge moves rigidly (box re-fit).

    Each operation is one ``first_variation_fd`` call, which solves the
    base again the way the acceptance rows and API callers do.  Nine of
    every ten are frame fields from ``graph_slopes_fn`` with a random
    intensity; the tenth slides a seeded edge along its outward normal.
    """

    name = "oracle-box"

    def __init__(self, seed, size):
        self.seed = seed
        self.res = size.box_res
        self.L = lagrangian.area_hypersurface(3)
        base = extremal.solve_dirichlet(self.L, _zero, UNIT, self.res)
        self.field = va.frame_field(self.L, va.graph_slopes_fn(base))

    def round(self, i):
        rng = np.random.default_rng([self.seed, i])
        ops = [Op("frame", va.random_intensity(rng, 3)) for _ in range(9)]
        ops.append(Op("edge-slide", SIDES[int(rng.integers(4))]))
        return ops

    def run(self, op, wrap=identity):
        if op.kind == "frame":
            spec = va.DeformationSpec(direction=wrap(self.field), intensity=wrap(op.data))
        else:
            spec = va.DeformationSpec(
                direction=wrap(_Constant(OUTWARD[op.data])),
                intensity=wrap(va.edge_indicator(UNIT, op.data)),
            )
        return va.first_variation_fd(self.L, _zero, UNIT, self.res, spec)

    def check(self, op, rep):
        if op.kind == "frame":
            if rep.classification != "normal":
                return f"frame field read {rep.classification}, expected normal"
        else:
            if not abs(rep.dA_dt - 1.0) <= 1e-3:
                return f"edge slide dA/dt {rep.dA_dt:.6e}, expected 1 within 1e-3"
            if rep.classification != "non-normal":
                return f"edge slide read {rep.classification}, expected non-normal"
        return _formula_gap(rep)

    def record(self, op, rep):
        return _report_record(rep)


# ---------------------------------------------------------------------------
# oracle-pullback


@dataclass
class _Candidate:
    kind: str
    L: object
    base: object
    boundary: object
    field: object
    expected: str
    known_defect: bool = False


class OraclePullback:
    """The CLI ``verify`` path: edges move non-rigidly (pullback re-fit).

    The base graphs are solved once in set-up; each operation is one
    ``normality_scan`` row with a fresh random intensity.  The Scherk
    rows built from ``graph_slopes_fn`` for the frame and the Euclidean
    normal are a known defect of the program: they read ``non-normal``
    with a formula/oracle gap of many budgets.  They stay in the
    workload and count as failed.
    """

    name = "oracle-pullback"

    def __init__(self, seed, size):
        self.seed = seed
        res = size.pullback_res
        cands = []
        area = lagrangian.area_hypersurface(3)
        scherk = extremal.solve_dirichlet(area, _scherk, CENTERED, res)
        for label, slopes in (("analytic", _scherk_slopes), ("graph", va.graph_slopes_fn(scherk))):
            defect = label == "graph"
            cands += [
                _Candidate(f"scherk/frame/{label}", area, scherk, _scherk,
                           va.frame_field(area, slopes), "normal", defect),
                _Candidate(f"scherk/euclidean-normal/{label}", area, scherk, _scherk,
                           va.euclidean_normal_field(3, 2, slopes), "normal", defect),
                _Candidate(f"scherk/tangent/{label}", area, scherk, _scherk,
                           va.tangent_field(3, 2, slopes, j=0), "non-normal"),
            ]
        # On the tilted plane the closed-form frame is not normal (the
        # codimension-2 defect criterion 3 records).  The Euclidean normal
        # is normal for the true area gram(4,2); for plucker4 its boundary
        # flux at TILT is of order 0.3, so it is not.
        for L, enorm in ((lagrangian.area_graph_gram(4, 2), "normal"),
                         (lagrangian.area_plucker_4d(), "non-normal")):
            base = extremal.solve_dirichlet(L, _tilted, UNIT, res)
            slopes = va.graph_slopes_fn(base)
            cands += [
                _Candidate(f"tilted/{L.name}/frame:1", L, base, _tilted,
                           va.frame_field(L, slopes, weights=[1.0, 0.0]), "non-normal"),
                _Candidate(f"tilted/{L.name}/frame:2", L, base, _tilted,
                           va.frame_field(L, slopes, weights=[0.0, 1.0]), "non-normal"),
                _Candidate(f"tilted/{L.name}/euclidean-normal", L, base, _tilted,
                           va.euclidean_normal_field(4, 2, slopes), enorm),
                _Candidate(f"tilted/{L.name}/tangent:1", L, base, _tilted,
                           va.tangent_field(4, 2, slopes, j=0), "non-normal"),
            ]
        self.candidates = cands

    def round(self, i):
        rng = np.random.default_rng([self.seed, i])
        return [
            Op(c.kind, (c, va.random_intensity(rng, c.L.n)), c.known_defect)
            for c in self.candidates
        ]

    def run(self, op, wrap=identity):
        cand, psi = op.data
        spec = va.DeformationSpec(direction=wrap(cand.field), intensity=wrap(psi), name=cand.kind)
        rows = va.normality_scan(cand.L, cand.base, [(cand.kind, spec)], boundary_data=cand.boundary)
        return rows[0]

    def check(self, op, row):
        if row.report is None:
            return f"no report: {row.note}"
        expected = op.data[0].expected
        if row.report.classification != expected:
            return f"read {row.report.classification}, expected {expected}"
        return _formula_gap(row.report)

    def record(self, op, row):
        return (row.note,) if row.report is None else _report_record(row.report)


# ---------------------------------------------------------------------------
# solve-large


class SolveLarge:
    """One large Dirichlet solve per operation; no deformation field.

    Rounds alternate ``area3`` on the Scherk patch and ``gram(4,2)`` with
    seeded non-harmonic data, so the Newton layers (gradient, Hessian,
    sparse solve) dominate.  plucker4 stays out: its integrand is not
    differentiable at q = 0 and on such data Newton ends in
    ``SingularJacobian``, which would time the failure path.
    """

    name = "solve-large"

    def __init__(self, seed, size):
        self.seed = seed
        self.res = size.solve_res
        self.area = lagrangian.area_hypersurface(3)
        self.gram = lagrangian.area_graph_gram(4, 2)
        axes = extremal.grid_axes(CENTERED, (self.res, self.res))
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        self.scherk_exact = np.log(np.cos(X) / np.cos(Y))

    def round(self, i):
        rng = np.random.default_rng([self.seed, i])
        return [Op("area3/scherk"), Op("gram(4,2)/smooth", _SmoothData(rng.uniform(0.3, 0.8, 5)))]

    def run(self, op, wrap=identity):
        if op.data is None:
            return extremal.solve_dirichlet(self.area, _scherk, CENTERED, self.res)
        return extremal.solve_dirichlet(self.gram, op.data, UNIT, self.res)

    def check(self, op, graph):
        L = self.area if op.data is None else self.gram
        A = _action(L, graph).value
        res = float(np.max(np.abs(_el_residual(L, graph))))
        tol = 1e-10 * (1.0 + abs(A))
        if not res <= tol:
            return f"recomputed residual {res:.3e} exceeds solver tolerance {tol:.3e}"
        if op.data is None:
            # Second-order solver: the error constant measured at 17..129
            # nodes is about 5.5e-4, so 1e-3 * h^2 leaves a margin of ~2.
            h = graph.steps[0]
            err = float(np.max(np.abs(graph.values[..., 0] - self.scherk_exact)))
            if not err <= 1e-3 * h * h:
                return f"Scherk error {err:.3e} exceeds 1e-3*h^2 = {1e-3 * h * h:.3e}"
        return None

    def record(self, op, graph):
        return (graph.info["iterations"], graph.info["action"], graph.info["residual"])


# ---------------------------------------------------------------------------
# pointwise


@dataclass
class _Query:
    label: str
    L: object
    q: np.ndarray
    lam: np.ndarray
    xi: np.ndarray
    vectors: np.ndarray
    metric: object
    sqrt_det_metric: float


class Pointwise:
    """Single-element queries, as the frame and volume commands issue them.

    Each operation takes a slope matrix for one of four integrands
    (cycled) and runs ``cartan_frame``, ``boundary_residual_of_field`` on a
    frame combination, and ``grad_q``; then the homogenized-area normal,
    a Gram volume under an SPD metric and a chart round trip.  Inputs
    come from a seeded pool drawn in set-up, cycled through in order.
    """

    name = "pointwise"

    def __init__(self, seed, size):
        self.F = lagrangian.homogenize(lagrangian.area_hypersurface(3))
        kinds = (
            ("area3", lagrangian.area_hypersurface(3)),
            ("dirichlet(3,2)", lagrangian.dirichlet(3, 2)),
            ("gram(4,2)", lagrangian.area_graph_gram(4, 2)),
            ("plucker4", lagrangian.area_plucker_4d()),
        )
        rng = np.random.default_rng([seed, 0])
        pool = []
        for _ in range(size.pointwise_pool):
            for label, L in kinds:
                m, p = L.codim, L.p
                while True:
                    q = rng.uniform(-2.0, 2.0, (m, p))
                    if abs(L([0.0] * p, [0.0] * m, q)) > 0.1:
                        break
                xi = rng.uniform(-2.0, 2.0, 3)
                xi[2] = rng.uniform(0.3, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
                n = int(rng.integers(2, 5))
                B = rng.uniform(-1.0, 1.0, (n, n))
                g = B.T @ B + 0.5 * np.eye(n)
                pool.append(
                    _Query(
                        label=label,
                        L=L,
                        q=q,
                        lam=rng.uniform(-1.0, 1.0, m),
                        xi=xi,
                        vectors=rng.uniform(-2.0, 2.0, (n, n)),
                        metric=gram.MetricTensor(dim=n, components=g),
                        sqrt_det_metric=float(np.sqrt(np.linalg.det(g))),
                    )
                )
        self.pool = [pool[k : k + len(kinds)] for k in range(0, len(pool), len(kinds))]
        self.x3 = np.zeros(3)

    def round(self, i):
        return [Op(qr.label, qr) for qr in self.pool[i % len(self.pool)]]

    def run(self, op, wrap=identity):
        qr = op.data
        L = qr.L
        elem = grassmann.GrassmannElement(n=L.n, p=L.p, slopes=qr.q)
        fr = frames.cartan_frame(L, elem)
        residual = frames.boundary_residual_of_field(L, elem, qr.lam @ fr.vectors)
        momenta = lagrangian.grad_q(L, np.zeros(L.p), np.zeros(L.codim), qr.q)
        normal = frames.normal_from_homogenized(self.F, self.x3, qr.xi)
        vol = gram.volume(qr.vectors, qr.metric)
        chart = grassmann.slopes_from_basis(grassmann.graph_tangent_basis(elem))
        return fr.vectors, residual, momenta, normal, vol, chart

    def check(self, op, out):
        vectors, residual, momenta, normal, vol, chart = out
        qr = op.data
        q = qr.q
        value = qr.L(np.zeros(qr.L.p), np.zeros(qr.L.codim), q)
        if qr.label == "area3":
            # Criterion 1: the frame is parallel to (slopes, -1).
            target = np.array([q[0, 0], q[0, 1], -1.0])
            v = vectors[0]
            cross = np.linalg.norm(np.cross(v, target)) / (np.linalg.norm(v) * np.linalg.norm(target))
            if not cross < 1e-12:
                return f"area3 frame off (slopes, -1) by {cross:.3e}"
        elif qr.label == "dirichlet(3,2)":
            if not np.max(np.abs(momenta - q)) <= 1e-14 * (1.0 + np.max(np.abs(q))):
                return "dirichlet momenta differ from the slopes"
        elif qr.label == "gram(4,2)":
            # Jacobi's formula: dL/dQ = L Q (I + Q^T Q)^-1.
            want = value * q @ np.linalg.inv(np.eye(2) + q.T @ q)
            if not np.max(np.abs(momenta - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))):
                return "gram(4,2) momenta differ from Jacobi's formula"
        else:
            # Criterion 2's closed forms, to 1e-12 of each vector's largest
            # entry: its per-entry relative error blows up on entries near
            # zero, which tens of thousands of draws do reach.
            for got, want in zip(vectors, _plucker_closed_form(q)):
                if not np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want)):
                    return "plucker4 frame differs from its closed form"
        if qr.L.codim == 1:
            # In codimension one the frame kills the boundary flux.
            scale = abs(value) * max(float(np.linalg.norm(qr.lam)), 1e-30)
            if not np.max(np.abs(residual)) / scale < 1e-10:
                return f"{qr.label} frame flux {np.max(np.abs(residual)):.3e} is not zero"
        elif not np.all(np.isfinite(residual)):
            return "frame flux is not finite"
        # Criterion 8: Euler's identity and unit length of grad_xi F.
        f0 = self.F(self.x3, qr.xi)
        if not abs(normal @ qr.xi - f0) <= 1e-12 * max(1.0, abs(f0)):
            return "homogenized normal breaks Euler's identity"
        if not abs(np.linalg.norm(normal) - 1.0) <= 1e-12:
            return "homogenized area normal is not a unit vector"
        # Criterion 9: vol_g(V) = |det V| sqrt(det g), compared squared to
        # 1e-12 of the Hadamard bound of det(V g V^T).  Near a singular V the
        # volume's own error grows like eps * bound / vol, and thousands of
        # draws a seed reach volumes where criterion 9's 1e-10 * max(1, vol)
        # is below what float64 gives.
        factor = abs(np.linalg.det(qr.vectors)) * qr.sqrt_det_metric
        gram_matrix = qr.vectors @ qr.metric.components @ qr.vectors.T
        hadamard = float(np.prod(np.linalg.norm(gram_matrix, axis=1)))
        if not abs(vol * vol - factor * factor) <= 1e-12 * hadamard:
            return f"Gram volume {vol:.17g} differs from |det V| sqrt(det g) {factor:.17g}"
        if chart.orientation_reversed or not np.max(np.abs(chart.slopes - q)) <= 1e-12 * (1.0 + np.max(np.abs(q))):
            return "chart round trip does not return the slopes"
        return None

    def record(self, op, out):
        vectors, residual, momenta, normal, vol, chart = out
        return tuple(
            float(v)
            for v in np.concatenate(
                [vectors.ravel(), residual.ravel(), momenta.ravel(), normal, [vol], chart.slopes.ravel()]
            )
        )


WORKLOADS = {w.name: w for w in (OracleBox, OraclePullback, SolveLarge, Pointwise)}

"""Lagrangian fields L(x, z, q) with machine-accurate first derivatives.

Calling convention: ``x`` has p entries (base coordinates), ``z`` has
n-p entries (fiber values), and ``q`` is an (n-p) x p nested sequence of
slopes, row i holding the slopes of fiber component i.  Fields built
from the :mod:`cartanarea.dual` helpers are differentiated exactly by
seeding dual numbers; opaque callables (``supports_dual=False``) fall
back to Richardson-extrapolated central differences.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual
from .dual import Dual
from .errors import DomainError, NonFinite
from .expr import compile_expression

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LagrangianField:
    """Evaluatable integrand of an area-type functional.

    ``func(x, z, q) -> scalar`` must accept entries that are floats,
    numpy arrays, or duals when ``supports_dual`` is true.  Smoothness of
    class C^2 on the declared domain is a caller contract.
    """

    n: int
    p: int
    func: Callable
    name: str = ""
    supports_dual: bool = True

    def __post_init__(self):
        if not 1 <= self.p <= self.n - 1:
            raise ValueError(f"need 1 <= p <= n-1, got p={self.p}, n={self.n}")

    @property
    def codim(self):
        return self.n - self.p

    def __call__(self, x, z, q) -> float:
        x, z, q = _coerce_args(self, x, z, q)
        return float(self.func(list(x), list(z), [list(r) for r in q]))


@dataclass(frozen=True)
class HomogenizedLagrangian:
    """Degree-one positively homogeneous function F(x, xi) on R^n.

    ``x`` is an ambient point with n entries, ``xi`` a nonzero n-vector.
    """

    n: int
    func: Callable
    name: str = ""
    supports_dual: bool = True

    def __call__(self, x, xi) -> float:
        return float(self.func(list(np.asarray(x, dtype=float)), _plain_list(xi, self.n)))

    def eval_dual(self, x, xi):
        """Evaluate without coercion so dual-seeded entries pass through."""
        return self.func(list(x), list(xi))


@dataclass(frozen=True)
class MinkowskiReport:
    """Outcome of the norm check: never raises, records what failed."""

    homogeneity_ok: bool
    hessian_ok: bool
    min_eigenvalue: float
    failures: tuple = field(default=())


def grad_q(L: LagrangianField, x, z, q) -> np.ndarray:
    """dL/dq as an (n-p, p) array."""
    return _first_derivative(L, *_coerce_args(L, x, z, q), 2)[1]


def grad_z(L: LagrangianField, x, z, q) -> np.ndarray:
    """dL/dz as a vector of length n-p."""
    return _first_derivative(L, *_coerce_args(L, x, z, q), 1)[1]


def grad_x(L: LagrangianField, x, z, q) -> np.ndarray:
    """dL/dx as a vector of length p."""
    return _first_derivative(L, *_coerce_args(L, x, z, q), 0)[1]


def homogenize(L: LagrangianField) -> HomogenizedLagrangian:
    """Lift a hypersurface Lagrangian (p = n-1) to homogeneous coordinates.

    F(x, xi) := xi_n * L(x, xi_1/xi_n, ..., xi_{n-1}/xi_n), which is
    positively homogeneous of degree one by construction.  For the
    Euclidean area integrand this recovers |xi| on the xi_n > 0 half
    space, which fixes the sign convention.
    """
    if L.p != L.n - 1:
        raise DomainError(f"homogenization needs p = n-1, got p={L.p}, n={L.n}")
    n = L.n

    def F(x, xi):
        xin = xi[n - 1]
        if dual.value(xin) == 0.0:
            raise DomainError("homogenized Lagrangian undefined at xi_n = 0")
        slopes = [[xi[j] / xin for j in range(n - 1)]]
        return xin * L.func(list(x[: n - 1]), [x[n - 1]], slopes)

    return HomogenizedLagrangian(
        n=n, func=F, name=f"homogenized({L.name})", supports_dual=L.supports_dual
    )


def grad_xi(F: HomogenizedLagrangian, x, xi) -> np.ndarray:
    """Gradient of F in xi."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = F.n
    out = np.empty(n)
    with np.errstate(all="ignore"):
        if F.supports_dual:
            for k in range(n):
                xid = [Dual(xi[i], 1.0) if i == k else xi[i] for i in range(n)]
                out[k] = _dual_part(F.eval_dual(list(x), xid))
        else:
            for k in range(n):
                def f(v, k=k):
                    xx = xi.copy()
                    xx[k] = v
                    return F(x, xx)

                out[k] = _fd_derivative(f, xi[k])
    _require_finite(out, "dF/dxi")
    return out


def xi_hessian_half_square(F: HomogenizedLagrangian, x, xi) -> np.ndarray:
    """Hessian of (1/2) F^2 in xi by nested dual differentiation."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = F.n
    H = np.empty((n, n))
    if F.supports_dual:
        with np.errstate(all="ignore"):
            for k in range(n):
                for l in range(k, n):
                    xid = [
                        Dual(Dual(xi[i], 1.0 if i == l else 0.0), 1.0 if i == k else 0.0)
                        for i in range(n)
                    ]
                    r = F.eval_dual(list(x), xid)
                    g = r * r * 0.5
                    H[k, l] = H[l, k] = float(dual.value(g.du.du))
    else:
        # Differences of differences; accuracy is limited to ~sqrt(eps).
        def half_sq(v):
            f = F(x, v)
            return 0.5 * f * f

        h = _EPS ** 0.25 * np.maximum(1.0, np.abs(xi))
        for k in range(n):
            for l in range(k, n):
                ek = np.zeros(n)
                el = np.zeros(n)
                ek[k] = h[k]
                el[l] = h[l]
                H[k, l] = H[l, k] = (
                    half_sq(xi + ek + el)
                    - half_sq(xi + ek - el)
                    - half_sq(xi - ek + el)
                    + half_sq(xi - ek - el)
                ) / (4.0 * h[k] * h[l])
    _require_finite(H, "Hessian of F^2/2")
    return H


def minkowski_check(F: HomogenizedLagrangian, samples, scalings=(0.5, 2.0, 7.0)) -> MinkowskiReport:
    """Check degree-one homogeneity and fiberwise convexity at samples.

    ``samples`` is an iterable of (x, xi) pairs.  At each one the n x n
    Hessian of F^2/2 is assembled and tested for symmetry and positive
    definiteness; homogeneity is tested at the given positive scalings.
    Failures are reported, never raised.
    """
    homogeneity_ok = True
    hessian_ok = True
    min_eig = np.inf
    failures = []
    for idx, (x, xi) in enumerate(samples):
        try:
            f0 = F(x, xi)
            xi_arr = np.asarray(xi, dtype=float)
            for lam in scalings:
                gap = abs(F(x, lam * xi_arr) - lam * f0)
                if gap > 1e-12 * max(1.0, abs(lam * f0)):
                    homogeneity_ok = False
                    failures.append((idx, f"homogeneity gap {gap:.3e} at scale {lam}"))
            H = xi_hessian_half_square(F, x, xi)
            scale = float(np.max(np.abs(H)))
            asym = float(np.max(np.abs(H - H.T)))
            if asym > 1e-8 * max(scale, 1e-300):
                hessian_ok = False
                failures.append((idx, f"asymmetric Hessian, |asym|={asym:.3e}"))
            eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
            min_eig = min(min_eig, float(eigs[0]))
            if eigs[0] <= 1e-10 * abs(np.trace(H)) / F.n:
                hessian_ok = False
                failures.append((idx, f"min eigenvalue {eigs[0]:.3e} not positive"))
        except (NonFinite, DomainError, FloatingPointError, ZeroDivisionError) as exc:
            homogeneity_ok = False
            hessian_ok = False
            failures.append((idx, f"evaluation failed: {exc}"))
    if not np.isfinite(min_eig):
        min_eig = float("nan")
    return MinkowskiReport(
        homogeneity_ok=homogeneity_ok,
        hessian_ok=hessian_ok,
        min_eigenvalue=min_eig,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Built-in Lagrangians


def area_hypersurface(n: int) -> LagrangianField:
    """Hypersurface area integrand sqrt(1 + sum of squared slopes)."""
    p = n - 1

    def f(x, z, q):
        s = 1.0
        for j in range(p):
            s = s + q[0][j] * q[0][j]
        return dual.sqrt(s)

    return LagrangianField(n=n, p=p, func=f, name=f"area{n}")


def area_plucker_4d() -> LagrangianField:
    """Two-plane area density in R^4 from the nonconstant wedge minors.

    With D = q11*q22 - q12*q21 this is sqrt(sum q^2 + D^2): the norm of
    the minors of the graph frame that vanish on the base plane.  It
    differs from the full graph Gram area by the missing constant minor.
    """

    def f(x, z, q):
        d = q[0][0] * q[1][1] - q[0][1] * q[1][0]
        s = d * d
        for i in range(2):
            for j in range(2):
                s = s + q[i][j] * q[i][j]
        return dual.sqrt(s)

    return LagrangianField(n=4, p=2, func=f, name="plucker4")


def area_graph_gram(n: int, p: int) -> LagrangianField:
    """True p-area of a graph: sqrt det(I + Q^T Q)."""
    m = n - p

    def f(x, z, q):
        rows = []
        for a in range(p):
            row = []
            for b in range(p):
                s = 1.0 if a == b else 0.0
                for i in range(m):
                    s = s + q[i][a] * q[i][b]
                row.append(s)
            rows.append(row)
        return dual.sqrt(dual.det(rows))

    return LagrangianField(n=n, p=p, func=f, name=f"gram{n}.{p}")


def dirichlet(n: int, p: int) -> LagrangianField:
    """Test integrand (1/2) sum of squared slopes; its extremal is harmonic."""
    m = n - p

    def f(x, z, q):
        s = 0.0
        for i in range(m):
            for j in range(p):
                s = s + q[i][j] * q[i][j]
        return 0.5 * s

    return LagrangianField(n=n, p=p, func=f, name=f"dirichlet{n}.{p}")


def euclidean_norm(n: int) -> HomogenizedLagrangian:
    """The Euclidean norm |xi|, globally defined reference F."""

    def F(x, xi):
        s = xi[0] * xi[0]
        for i in range(1, n):
            s = s + xi[i] * xi[i]
        return dual.sqrt(s)

    return HomogenizedLagrangian(n=n, func=F, name=f"euclid{n}")


def from_expression(text: str, n: int, p: int, name: str = "") -> LagrangianField:
    """Build a field from an expression in x1..xp, z1..z{n-p}, q{i}_{j}."""
    m = n - p
    names = (
        [f"x{j + 1}" for j in range(p)]
        + [f"z{i + 1}" for i in range(m)]
        + [f"q{i + 1}_{j + 1}" for i in range(m) for j in range(p)]
    )
    compiled = compile_expression(text, names)

    def f(x, z, q):
        env = list(x) + list(z) + [q[i][j] for i in range(m) for j in range(p)]
        return compiled(env)

    return LagrangianField(n=n, p=p, func=f, name=name or text)


def by_name(name: str, n: int | None = None, p: int | None = None) -> LagrangianField:
    """Resolve a CLI-style Lagrangian name or expression.

    Recognised names: ``areaN`` (e.g. ``area3``), ``plucker4``, ``gram``
    (needs n and p), ``dirichlet`` (needs n and p).  Anything else is
    compiled as an expression, which requires n and p.
    """
    key = name.strip().lower()
    if key.startswith("area") and key[4:].isdigit():
        return area_hypersurface(int(key[4:]))
    if key == "plucker4":
        return area_plucker_4d()
    if key in ("gram", "dirichlet"):
        if n is None or p is None:
            raise ValueError(f"lagrangian {name!r} needs explicit dimensions n and p")
        return area_graph_gram(n, p) if key == "gram" else dirichlet(n, p)
    if n is None or p is None:
        raise ValueError(f"expression lagrangian {name!r} needs dimensions n and p")
    return from_expression(name, n, p)


# ---------------------------------------------------------------------------
# Internals


def _coerce_args(L, x, z, q):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q.reshape(L.codim, L.p)
    if x.shape != (L.p,) or z.shape != (L.codim,) or q.shape != (L.codim, L.p):
        raise ValueError(
            f"argument shapes {x.shape}, {z.shape}, {q.shape} do not match "
            f"(p={L.p}, n-p={L.codim})"
        )
    return x, z, q


def _plain_list(xi, n):
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise ValueError(f"expected a vector of length {n}, got shape {xi.shape}")
    return list(xi)


def _first_derivative(L, x, z, q, arg):
    """L and its derivative in one argument (0: x, 1: z, 2: q) at points.

    ``x``, ``z`` and ``q`` are (p, ...), (n-p, ...) and (n-p, p, ...)
    arrays whose trailing axes index points (none for one point).  A dual
    L is evaluated once, each entry of the argument seeded with its own
    unit vector; an opaque L is differenced point by point.  Returns L at
    the points and the derivative, shaped like the argument.
    """
    args = (x, z, q)
    points = x.shape[1:]
    flat = args[arg].reshape(-1, *points)
    size, p = len(flat), L.p
    with np.errstate(all="ignore"):
        if L.supports_dual:
            eye = np.eye(size).reshape(size, size, *(1,) * len(points))
            seeded = [Dual(v, e) for v, e in zip(list(flat) if points else flat.tolist(), eye)]
            rows = [seeded[i * p : (i + 1) * p] for i in range(L.codim)] if arg == 2 else [list(r) for r in q]
            result = L.func(seeded if arg == 0 else list(x), seeded if arg == 1 else list(z), rows)
            value, out = dual.value(result), _dual_part(result, flat.shape)
        else:
            value, out = np.empty(points), np.empty(flat.shape)
            for idx in np.ndindex(*points):
                at = [a[(..., *idx)] for a in args]
                value[idx] = L(*at)
                for k in range(size):
                    def f(v, k=k):
                        moved = at[arg].copy()
                        moved.flat[k] = v
                        return L(*(moved if i == arg else a for i, a in enumerate(at)))

                    out[(k, *idx)] = _fd_derivative(f, flat[(k, *idx)])
    _require_finite(out, f"dL/d{'xzq'[arg]}")
    return value, out.reshape(args[arg].shape)


def _dual_part(result, shape=()):
    value = dual.value(result)
    if not np.isfinite(value).all():
        raise NonFinite("Lagrangian evaluated non-finite during differentiation")
    out = np.zeros(shape)
    if isinstance(result, Dual):
        out[...] = dual.value(result.du)
    return out


def _fd_derivative(f, v):
    """Central difference with one Richardson extrapolation level."""
    h = _EPS ** (1.0 / 3.0) * max(1.0, abs(v))
    d_h = (f(v + h) - f(v - h)) / (2.0 * h)
    d_h2 = (f(v + h / 2.0) - f(v - h / 2.0)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _require_finite(arr, what):
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} evaluated non-finite")

"""Variationally orthogonal frames for an area-type Lagrangian.

A deformation direction X = (X_b, X_f) at a p-plane with slopes q and
momenta M = dL/dq leaves the action stationary to first order exactly
when its boundary flux R(X) = M^T (X_f - q X_b) + L X_b vanishes.  That
flux is the p x n map [T | M^T] with T = L I_p - M^T q, the
energy-momentum matrix of de Donder-Weyl field theory (Caratheodory
transversality); its kernel has dimension n-p whenever L != 0.

Two frames are offered:

- :func:`variational_frame` is an orthonormal basis of that kernel.  It
  is the frame that satisfies the flux identity R(X) = 0 in every
  codimension.
- :func:`cartan_frame` is the paper's closed form: the n-p vectors whose
  first p entries are the momenta dL/dq^k_j, whose (p+k)-th entry is
  the energy-like diagonal -L + sum_j q^k_j dL/dq^k_j, and whose
  remaining fiber entries are zero.  For p = n-1 the single vector is
  the slope-gradient of the homogenized integrand up to scale, and it
  spans the kernel above.  In codimension two or more the zero fiber
  entries drop the cross-row couplings, and the flux of the combination
  sum_k lam_k v^k is -sum_k lam_k sum_{i != k} (q^i . M_k) M_i, which
  is nonzero in general.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrameWarning, DomainError, NotPositiveDefinite
from .grassmann import GrassmannElement
from .lagrangian import HomogenizedLagrangian, LagrangianField, grad_q, grad_xi


@dataclass(frozen=True)
class NormalFrame:
    """The n-p frame vectors evaluated at one Grassmann element.

    ``vectors`` has one row per frame vector.  ``degenerate`` lists the
    indices of rows that may fail to be linearly independent from the
    rest (closed form), or that do not pin down the frame (variational
    frame at a vanishing L).
    """

    vectors: np.ndarray
    at: GrassmannElement
    lagrangian_name: str
    degenerate: tuple = ()

    def __iter__(self):
        return iter(self.vectors)


def cartan_frame(L: LagrangianField, elem: GrassmannElement, normalize: bool = False) -> NormalFrame:
    """Assemble the closed-form frame at ``elem``; vectors are unnormalized.

    The closed form kills the boundary flux only in codimension one; use
    :func:`variational_frame` for a frame that satisfies the flux
    identity in every codimension.

    With ``normalize=True`` each vector is scaled to Euclidean unit
    length instead (the span is unchanged).  A vanishing diagonal entry
    is flagged and warned about, not raised: the caller decides whether
    the degenerate direction is still usable.
    """
    _check_dims(L, elem)
    x, z = _split_base(elem)
    q = elem.slopes
    m, p, n = L.codim, L.p, L.n
    momenta = grad_q(L, x, z, q)
    value = L(x, z, q)
    vectors = np.zeros((m, n))
    degenerate = []
    for k in range(m):
        diag = -value + float(q[k] @ momenta[k])
        vectors[k, :p] = momenta[k]
        vectors[k, p + k] = diag
        if abs(diag) < 1e-12 * abs(value):
            degenerate.append(k)
    if degenerate:
        warnings.warn(
            f"frame diagonal vanished at rows {tuple(degenerate)} (L={value:.3e})",
            DegenerateFrameWarning,
            stacklevel=2,
        )
    if normalize:
        norms = np.linalg.norm(vectors, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        vectors = vectors / safe[:, None]
    return NormalFrame(
        vectors=vectors,
        at=elem,
        lagrangian_name=L.name,
        degenerate=tuple(degenerate),
    )


def variational_frame(L: LagrangianField, elem: GrassmannElement) -> NormalFrame:
    """Orthonormal basis of the kernel of the boundary flux at ``elem``.

    Every combination of the n-p rows kills the boundary term of the
    first variation, in any codimension.  The rows come from the SVD null
    space of [T | M^T], not from the transversality basis
    (-T^{-1} M^T e_k, e_k), whose rows turn nearly parallel where T is
    ill-conditioned.  Row k is oriented so that its fiber entry p+k has
    the sign of the closed form's energy entry -L + q^k . M_k; in
    codimension one the frame is therefore
    ``cartan_frame(..., normalize=True)``.  In codimension two or more
    only the span is defined: the rows are one orthonormal basis of it.

    The flux map has full rank whenever L != 0, so only a vanishing L is
    flagged and warned about; all rows are then listed as degenerate.
    """
    _check_dims(L, elem)
    x, z = _split_base(elem)
    q = elem.slopes
    m, p = L.codim, L.p
    momenta = grad_q(L, x, z, q)
    value = L(x, z, q)
    flux = boundary_flux(momenta, value, q, np.eye(L.n))
    _, _, vh = np.linalg.svd(flux)
    vectors = vh[p:]
    energy = -value + np.einsum("kj,kj->k", q, momenta)
    vectors = np.where((np.diagonal(vectors[:, p:]) * energy < 0.0)[:, None], -vectors, vectors)
    degenerate = ()
    if abs(value) <= 1e-12 * np.linalg.norm(flux):
        degenerate = tuple(range(m))
        warnings.warn(
            f"flux kernel undetermined: L={value:.3e} vanishes",
            DegenerateFrameWarning,
            stacklevel=2,
        )
    return NormalFrame(
        vectors=vectors,
        at=elem,
        lagrangian_name=L.name,
        degenerate=degenerate,
    )


def boundary_residual_of_field(L: LagrangianField, elem: GrassmannElement, X) -> np.ndarray:
    """First-variation boundary integrand coefficients for a vector X.

    Reconstructs the vertical velocity df^i/dt = X^{p+i} - sum_j q^i_j X^j
    and returns the p residuals sum_i (dL/dq^i_j) df^i/dt + L X^j.  A
    deformation direction X kills the boundary term of the first
    variation, for every intensity and every boundary normal, exactly
    when this vector vanishes.  X may also be a (k, n) stack of vectors,
    which gives a (k, p) stack of residuals from one evaluation of dL/dq.
    """
    _check_dims(L, elem)
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != L.n:
        raise ValueError(f"X must be a vector of length {L.n} or a stack of them, got {X.shape}")
    x, z = _split_base(elem)
    q = elem.slopes
    return boundary_flux(grad_q(L, x, z, q), L(x, z, q), q, X.T).T


def boundary_flux(momenta, value, q, X) -> np.ndarray:
    """Boundary flux M^T (X_f - q X_b) + L X_b from the momenta M = dL/dq.

    ``value`` is L at the same slopes q.  X is one vector of length n, or
    an (n, k) array whose columns are vectors, which gives a (p, k) array;
    with X = I_n the result is the flux map [L I_p - M^T q | M^T].
    """
    p = momenta.shape[1]
    df_dt = X[p:] - np.asarray(q) @ X[:p]
    return momenta.T @ df_dt + value * X[:p]


def normal_from_homogenized(F: HomogenizedLagrangian, x, xi) -> np.ndarray:
    """Normal vector to the hyperplane coded by xi: the xi-gradient of F."""
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        raise DomainError("xi must be nonzero")
    if xi[-1] == 0.0:
        raise DomainError("normal undefined at xi_n = 0 (chart boundary)")
    return grad_xi(F, x, xi)


def unit_normal_dual(F: HomogenizedLagrangian, x, xi, metric_det: float) -> np.ndarray:
    """Dual-basis components sqrt(g) * xi / F of the unit normal."""
    if metric_det <= 0.0:
        raise NotPositiveDefinite(f"metric determinant {metric_det} must be positive")
    xi = np.asarray(xi, dtype=float)
    value = F(x, xi)
    if value <= 0.0:
        raise DomainError(f"F = {value} must be positive for a unit normal")
    return np.sqrt(metric_det) * xi / value


def normal_length(metric) -> float:
    """Length of the (unnormalized) hypersurface normal: sqrt(det g).

    The length depends only on the metric determinant, which is the
    content of the statement, so the element being measured is not an
    argument.  Raises :class:`NotPositiveDefinite` for a non-SPD metric.
    """
    g = np.asarray(getattr(metric, "components", metric), dtype=float)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("metric is not positive definite") from exc
    return float(np.sqrt(np.linalg.det(g)))


def _check_dims(L: LagrangianField, elem: GrassmannElement):
    if (L.n, L.p) != (elem.n, elem.p):
        raise ValueError(
            f"Lagrangian is for (n={L.n}, p={L.p}) but element has "
            f"(n={elem.n}, p={elem.p})"
        )


def _split_base(elem: GrassmannElement):
    return elem.base_point[: elem.p], elem.base_point[elem.p :]

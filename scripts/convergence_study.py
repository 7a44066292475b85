"""Grid-refinement study for the solver and the variation oracle.

Prints the observed orders behind the acceptance thresholds: residual
consistency and solve accuracy on the exactly-known minimal graph
z = log(cos x / cos y), and the single-grid noise floor of the
first-variation estimate under an exactly-normal deformation (the floor
decays at second order, which is what makes the two-grid extrapolation
inside the oracle work).

Run: python3 scripts/convergence_study.py [resolutions ...]
"""

import sys

import numpy as np

from cartanarea import (
    DeformationSpec,
    area_hypersurface,
    el_residual,
    solve_dirichlet,
)
from cartanarea.extremal import grid_axes, make_graph, observed_orders
from cartanarea.variation import frame_field, random_intensity
from cartanarea.variation import _BoundaryData, _deformed_action, _edge_samples, _level

DOMAIN = ((-0.5, 0.5), (-0.5, 0.5))
L = area_hypersurface(3)


def scherk(x):
    return np.log(np.cos(x[0]) / np.cos(x[1]))


def scherk_slopes(point):
    return np.array([[-np.tan(point[0]), np.tan(point[1])]])


def fmt_orders(values):
    return ", ".join(f"{o:.3f}" for o in observed_orders(values))


def main(resolutions):
    residuals, errors, floors = [], [], []
    psi = random_intensity(np.random.default_rng(7), 3)
    spec = DeformationSpec(direction=frame_field(L, scherk_slopes), intensity=psi)
    for r in resolutions:
        axes = grid_axes(DOMAIN, (r, r))
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        exact = np.log(np.cos(X) / np.cos(Y))
        residuals.append(
            float(np.max(np.abs(el_residual(L, make_graph(L, DOMAIN, (r, r), exact)))))
        )
        sol = solve_dirichlet(L, scherk, DOMAIN, r)
        errors.append(float(np.max(np.abs(sol.values[..., 0] - exact)[1:-1, 1:-1])))
        # single-grid central difference of the deformed actions: its bias
        # is the discretization floor the oracle extrapolates away.  The
        # re-solves start from sol on its Hessian factor, as in the oracle.
        level = _level(L, sol, _BoundaryData(sol, scherk), factored=True)
        samples = _edge_samples(level, spec)
        h = 2.5e-4 * np.sqrt(2.0)
        a_plus, _ = _deformed_action(L, level, samples, h)
        a_minus, _ = _deformed_action(L, level, samples, -h)
        floors.append(abs((a_plus - a_minus) / (2.0 * h)))
        print(
            f"r={r:4d}  residual {residuals[-1]:.3e}   solve error {errors[-1]:.3e}"
            f"   single-grid dA/dt floor {floors[-1]:.3e}"
        )
    print(f"residual orders:   {fmt_orders(residuals)}")
    print(f"solve orders:      {fmt_orders(errors)}")
    print(f"oracle floor orders: {fmt_orders(floors)}")


if __name__ == "__main__":
    res = [int(tok) for tok in sys.argv[1:]] or [17, 33, 65]
    main(res)

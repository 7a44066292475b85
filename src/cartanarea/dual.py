"""First-order dual numbers for forward-mode differentiation.

A ``Dual`` carries a value and one directional derivative.  Components may
be floats, numpy arrays (vectorised evaluation over a grid of points), or
``Dual`` instances again -- nesting two levels yields exact second
derivatives.  A scalar value with a vector dual part carries several
directional derivatives at once (the gradients in ``lagrangian`` seed
every entry with its own unit vector).  The module-level math functions (``sqrt``, ``exp``, ...)
dispatch on type so the same closure can be evaluated on plain numbers,
arrays, or seeded duals.
"""

import numpy as np


class Dual:
    __slots__ = ("re", "du")
    # Keep numpy from broadcasting elementwise over Dual; reflected
    # operators below must win.
    __array_ufunc__ = None

    def __init__(self, re, du=0.0):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.du + other.du)
        return Dual(self.re + other, self.du)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.du - other.du)
        return Dual(self.re - other, self.du)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.du)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.du + self.du * other.re)
        return Dual(self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.re / other.re,
                (self.du * other.re - self.re * other.du) / (other.re * other.re),
            )
        return Dual(self.re / other, self.du / other)

    def __rtruediv__(self, other):
        return Dual(other / self.re, -other * self.du / (self.re * self.re))

    def __pow__(self, k):
        if isinstance(k, Dual):
            return exp(k * log(self))
        return Dual(self.re**k, (k * self.re ** (k - 1)) * self.du)

    def __rpow__(self, base):
        return exp(self * log(base))

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __pos__(self):
        return self

    # Comparisons act on values only (used by line searches and guards).
    def __lt__(self, other):
        return value(self) < value(other)

    def __gt__(self, other):
        return value(self) > value(other)


def value(v):
    """Strip all dual layers, returning the underlying float or array."""
    while isinstance(v, Dual):
        v = v.re
    return v


def sqrt(v):
    if isinstance(v, Dual):
        r = sqrt(v.re)
        return Dual(r, v.du / (r + r))
    return np.sqrt(v)


def exp(v):
    if isinstance(v, Dual):
        e = exp(v.re)
        return Dual(e, e * v.du)
    return np.exp(v)


def log(v):
    if isinstance(v, Dual):
        return Dual(log(v.re), v.du / v.re)
    return np.log(v)


def sin(v):
    if isinstance(v, Dual):
        return Dual(sin(v.re), cos(v.re) * v.du)
    return np.sin(v)


def cos(v):
    if isinstance(v, Dual):
        return Dual(cos(v.re), -sin(v.re) * v.du)
    return np.cos(v)


def tan(v):
    if isinstance(v, Dual):
        c = cos(v.re)
        return Dual(tan(v.re), v.du / (c * c))
    return np.tan(v)


def fabs(v):
    if isinstance(v, Dual):
        s = np.sign(value(v))
        return Dual(fabs(v.re), s * v.du)
    return np.abs(v)


def power(a, b):
    return a**b


def det(rows):
    """Determinant by cofactor expansion over any commutative entries.

    ``rows`` is a nested sequence; entries may be numbers, arrays, or
    duals.  Intended for the small (<= 4x4) matrices this package needs.
    """
    k = len(rows)
    rows = [list(r) for r in rows]
    if any(len(r) != k for r in rows):
        raise ValueError("det needs a square matrix")
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(k):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total

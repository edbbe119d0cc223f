"""Bivariate polynomials on the reference triangle as monomial coefficient tables.

A polynomial sum_{i,j} c[i,j] x^i y^j is stored as a square 2D array c. Degrees
stay small (<= k+1 <= 5), so dense tables and exact integer-weighted recurrences
are both simple and accurate.
"""

import math

import numpy as np


def zero(deg: int) -> np.ndarray:
    return np.zeros((deg + 1, deg + 1))


def pad(c: np.ndarray, deg: int) -> np.ndarray:
    out = zero(deg)
    out[: c.shape[0], : c.shape[1]] = c
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = max(a.shape[0], b.shape[0]) - 1
    return pad(a, d) + pad(b, d)


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = a.shape[0] - 1, b.shape[0] - 1
    out = zero(da + db)
    for i in range(da + 1):
        for j in range(da + 1):
            if a[i, j] == 0.0:
                continue
            out[i : i + db + 1, j : j + db + 1] += a[i, j] * b
    return out


def diff_x(c: np.ndarray) -> np.ndarray:
    """x-derivative; c may be a stack (..., D, D) differentiated at once."""
    d = c.shape[-1] - 1
    if d == 0:
        return np.zeros(c.shape)
    # column d of a degree<=d poly's x-derivative is zero
    return c[..., 1:, :d] * np.arange(1, d + 1)[:, None]


def diff_y(c: np.ndarray) -> np.ndarray:
    """y-derivative; c may be a stack (..., D, D) differentiated at once."""
    d = c.shape[-1] - 1
    if d == 0:
        return np.zeros(c.shape)
    return c[..., :d, 1:] * np.arange(1, d + 1)


def eval_at(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate at points; c may be a stack (..., D, D) evaluated at shared points."""
    d = c.shape[-1] - 1
    xp = np.vander(np.asarray(x, float), d + 1, increasing=True)
    yp = np.vander(np.asarray(y, float), d + 1, increasing=True)
    return np.einsum("...ij,qi,qj->...q", c, xp, yp)


def curl(s: np.ndarray) -> np.ndarray:
    """2D vector curl of a scalar: (ds/dy, -ds/dx). Divergence-free by construction."""
    d = s.shape[0] - 1
    dd = max(d - 1, 0)
    return np.stack([pad(diff_y(s), dd), pad(-diff_x(s), dd)])


def divergence(v: np.ndarray) -> np.ndarray:
    """Divergence of a vector polynomial stored as (2, D, D)."""
    return add(diff_x(v[0]), diff_y(v[1]))


def tri_integral(c: np.ndarray) -> float:
    """Exact integral over the unit reference triangle {x,y>=0, x+y<=1}.

    Uses int x^i y^j = i! j! / (i+j+2)!.
    """
    d = c.shape[0] - 1
    total = 0.0
    for i in range(d + 1):
        for j in range(d + 1):
            if c[i, j] != 0.0:
                total += c[i, j] * (
                    math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
                )
    return total


# barycentric coordinates on the reference triangle (v0=(0,0), v1=(1,0), v2=(0,1))
def barycentric() -> list[np.ndarray]:
    lam0 = np.array([[1.0, -1.0], [-1.0, 0.0]])  # 1 - x - y
    lam1 = np.array([[0.0, 0.0], [1.0, 0.0]])  # x
    lam2 = np.array([[0.0, 1.0], [0.0, 0.0]])  # y
    return [lam0, lam1, lam2]


def legendre_1d(j: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the Legendre polynomial P_j on [-1,1]."""
    e = np.zeros(j + 1)
    e[j] = 1.0
    return np.polynomial.legendre.leg2poly(e)


def shifted_legendre(j: int) -> np.ndarray:
    """Coefficients (ascending, in s) of P_j(2s-1) on [0,1]."""
    p = np.polynomial.Polynomial(legendre_1d(j))
    return p(np.polynomial.Polynomial([-1.0, 2.0])).coef


def compose_1d(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Compose a 1D polynomial (ascending coefficients) with a bivariate one."""
    deg_t = t.shape[0] - 1
    out = zero(deg_t * max(len(coef) - 1, 0))
    power = np.array([[1.0]])
    for m, a in enumerate(coef):
        if a != 0.0:
            out = add(out, a * pad(power, out.shape[0] - 1))
        if m < len(coef) - 1:
            power = mul(power, t)
    return out


def eval_1d(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(np.asarray(s, float), coef)

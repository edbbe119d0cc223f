"""Bivariate polynomials on the reference triangle as monomial coefficient tables.

A polynomial sum_{i,j} c[i,j] x^i y^j is stored as a square 2D array c. Degrees
stay small (<= k+1 <= 5), so dense tables and exact integer-weighted recurrences
are both simple and accurate.

Every operation also takes a stack (..., D, D) of tables, binary ones
broadcasting their leading axes, so a family of products or integrals is one
call. The stacked forms add the same products in the same order as loops over
single tables, so tables stay bit-identical: ``mul`` adds a[..., i, j] * b into
the shifted window for the first factor's (i, j) in row-major order, and
``tri_integral`` sums c[i, j] i! j! / (i+j+2)! in row-major order after a
leading 0.0 with the sequential ``np.cumsum`` (``np.sum`` is pairwise and a
``matmul`` regroups; both change the last bits). An exact zero product adds
+-0.0, which leaves a sum begun at +0.0 unchanged, so zeros need no skipping.
"""

import functools
import math

import numpy as np


def pad(c: np.ndarray, deg: int) -> np.ndarray:
    out = np.zeros(c.shape[:-2] + (deg + 1, deg + 1))
    out[..., : c.shape[-2], : c.shape[-1]] = c
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product; the stacks a (..., Da, Da) and b (..., Db, Db) broadcast."""
    da, db = a.shape[-1] - 1, b.shape[-1] - 1
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (da + db + 1, da + db + 1))
    for i in range(da + 1):
        for j in range(da + 1):
            out[..., i : i + db + 1, j : j + db + 1] += a[..., i, j, None, None] * b
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
    """2D vector curl (ds/dy, -ds/dx) of a scalar or a stack (..., D, D), as
    (..., 2, D-1, D-1) (a constant's curl keeps D = 1). Divergence-free by
    construction."""
    return np.stack([diff_y(s), -diff_x(s)], axis=-3)


def divergence(v: np.ndarray) -> np.ndarray:
    """Divergence of a vector polynomial (..., 2, D, D)."""
    return diff_x(v[..., 0, :, :]) + diff_y(v[..., 1, :, :])


@functools.cache
def _monomial_integrals(d: int) -> np.ndarray:
    """Read-only table (d+1, d+1) of int x^i y^j = i! j! / (i+j+2)!, each
    entry the correctly rounded ratio of the exact integers."""
    f = math.factorial
    out = np.array([[f(i) * f(j) / f(i + j + 2) for j in range(d + 1)]
                    for i in range(d + 1)])
    out.flags.writeable = False
    return out


def tri_integral(c: np.ndarray):
    """Exact integral over the unit reference triangle {x,y>=0, x+y<=1} of a
    table or of each table of a stack (..., D, D)."""
    terms = c * _monomial_integrals(c.shape[-1] - 1)
    terms = np.concatenate(
        [np.zeros(c.shape[:-2] + (1,)), terms.reshape(c.shape[:-2] + (-1,))], axis=-1
    )
    return np.cumsum(terms, axis=-1)[..., -1]


# barycentric coordinates on the reference triangle (v0=(0,0), v1=(1,0), v2=(0,1))
def barycentric() -> np.ndarray:
    return np.array(
        [
            [[1.0, -1.0], [-1.0, 0.0]],  # 1 - x - y
            [[0.0, 0.0], [1.0, 0.0]],  # x
            [[0.0, 1.0], [0.0, 0.0]],  # y
        ]
    )


def legendre_1d(j: int) -> np.ndarray:
    """Monomial coefficients (ascending) of the Legendre polynomial P_j on [-1,1]:
    the dyadic rationals (-1)^m C(j,m) C(2j-2m,j) / 2^j of x^(j-2m), exact."""
    out = np.zeros(j + 1)
    for m in range(j // 2 + 1):
        out[j - 2 * m] = (-1) ** m * math.comb(j, m) * math.comb(2 * j - 2 * m, j) / 2**j
    return out


def shifted_legendre(j: int) -> np.ndarray:
    """Coefficients (ascending, in s) of P_j(2s-1) on [0,1]: the integers
    (-1)^(j+m) C(j,m) C(j+m,m) of s^m, exact."""
    return np.array(
        [(-1) ** (j + m) * math.comb(j, m) * math.comb(j + m, m) for m in range(j + 1)],
        float,
    )


def compose_1d(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Compose a 1D polynomial (ascending coefficients) with a bivariate one,
    or with each table of a stack t (..., D, D)."""
    d = (t.shape[-1] - 1) * max(len(coef) - 1, 0)
    out = np.zeros(t.shape[:-2] + (d + 1, d + 1))
    power = np.ones((1, 1))
    for m, a in enumerate(coef):
        out = out + a * pad(power, d)
        if m < len(coef) - 1:
            power = mul(power, t)
    return out


def eval_1d(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(np.asarray(s, float), coef)

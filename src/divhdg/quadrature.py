"""Gauss quadrature on the unit interval and the reference triangle.

Triangle rules come from a collapsed (Duffy) tensor product of 1D Gauss rules:
x = a(1-b), y = b, weight w_a * w_b * (1-b). An n x n collapsed rule integrates
every bivariate monomial x^p y^q with p + q <= 2n - 2 exactly, so the builder
is parameterized by the total polynomial degree it must integrate exactly.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rule:
    points: np.ndarray  # (Q, dim): dim=1 columns s, or dim=2 columns (x, y)
    weights: np.ndarray  # (Q,)
    degree: int  # highest total degree integrated exactly


def gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [0,1] (exact for degree <= 2n-1)."""
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def edge_rule(degree: int) -> Rule:
    n = max((degree + 2) // 2, 1)
    s, w = gauss01(n)
    return Rule(s[:, None], w, 2 * n - 1)


def triangle_rule(degree: int) -> Rule:
    """Collapsed n x n Gauss rule, exact to total degree 2n-2 >= `degree`: a
    monomial of total degree d needs 1D degree d in a and d+1 in b. One n-point
    rule, computed once, serves both collapsed directions."""
    n = max((degree + 3) // 2, 1)
    a, wa = gauss01(n)
    A, B = np.meshgrid(a, a, indexing="ij")
    x = (A * (1.0 - B)).ravel()
    y = B.ravel()
    w = (wa[:, None] * wa[None, :] * (1.0 - B)).ravel()
    return Rule(np.column_stack([x, y]), w, 2 * n - 2)

"""Reference-element bases for the hybrid divergence-conforming method.

Velocity element: the full degree-k divergence-conforming (vector polynomial)
space on the reference triangle, built hierarchically so static condensation
and the edge-based preconditioner transfer become index bookkeeping:

  (a) one lowest-order normal-flux function per edge (unit flux through its
      own edge, zero normal trace on the other two);
  (b) per edge, k divergence-free "facet bubbles": vector curls of
      lam_p lam_q P_{i-1}(lam_q - lam_p), i = 1..k, whose normal traces span
      the mean-zero polynomials of degree k on that edge and vanish elsewhere;
  (c) interior divergence-free functions: curls of lam_0 lam_1 lam_2 times a
      monomial basis of degree k-2;
  (d) interior functions with zero normal trace whose divergences reproduce
      the mean-zero orthonormal pressure modes exactly (minimum-coefficient-
      norm construction on the reference element).

Groups (a)+(b) are the per-edge "facet" block (condensed unknowns); (c)+(d)
are interior and eliminated element-locally. Under an affine map the
contravariant (Piola) transform preserves normal-trace structure, group (d)
divergences stay orthonormal pressure modes up to 1/det(J), and the local
divergence matrix is geometry independent.

Facet trace space: on each edge the k tangential-trace unknowns use the
orthonormal shifted Legendre modes l_j(s) = sqrt(2j+1) P_j(2s-1) in the global
(low vertex -> high vertex) edge parameterization.

The basis is built from coefficient stacks (see ``poly``): each group is a
few stacked products, and the Gram matrix of each orthonormalization pass and
the divergence moments of the zero-trace functions against the pressure modes
are one stacked product-and-integral each, summed in the order of per-pair
loops, so every table is the same to the last bit.

Each reference-element operation has one implementation here. ``_evaluate``
returns values, gradients, divergences and pressure-mode values of the whole
coefficient stack at any reference points; it serves the volume rule, the six
(local edge, orientation) edge rules and ``ReferenceBasis.volume_tables``.
``FacetBasis`` holds the edge-trace projection as two matrices acting on point
values at the edge rule: ``normal_projection`` (the Legendre moments followed
by the ``theta`` solve) and ``tangential_projection`` (the Legendre
coefficients). Essential boundary data and the auxiliary-space transfer both
go through them.

Orientation: bases are stored in the element-local edge orientation; a
per-element sign table converts to the globally oriented basis (lowest-order
flux flips sign under reversal, bubble i picks up (-1)^(i-1)).
"""

import dataclasses
import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import poly
from .quadrature import Rule, edge_rule, triangle_rule

REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# local edge l joins vertices (l+1)%3 -> (l+2)%3 and sits opposite vertex l
EDGE_VERTS = np.array([[1, 2], [2, 0], [0, 1]])
REF_NORMALS = np.array(
    [[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [-1.0, 0.0], [0.0, -1.0]]
)


def _graded_monomials(max_deg: int) -> list[tuple[int, int]]:
    return [(d - j, j) for d in range(max_deg + 1) for j in range(d + 1)]


def _monomials(deg: int) -> np.ndarray:
    """Stack (t, deg+1, deg+1) of the graded monomials of degree <= deg."""
    monos = _graded_monomials(deg)
    out = np.zeros((len(monos), deg + 1, deg + 1))
    for a, (i, j) in enumerate(monos):
        out[a, i, j] = 1.0
    return out


def orthonormal_pressure_modes(k: int) -> np.ndarray:
    """Orthonormal basis of degree-(k-1) polynomials on the reference triangle.

    Mode 0 is constant; modes 1.. are mean zero. Returns (R, k, k) coefficient
    stack with R = k(k+1)/2, orthonormal in the reference L2 inner product.
    """
    out = _monomials(k - 1)
    # repeated orthonormalization passes against the exact Gram matrix remove
    # the conditioning loss of the raw monomial basis; each pass forms the
    # Gram matrix as one stack of products and integrals
    for _ in range(3):
        gram = poly.tri_integral(poly.mul(out[:, None], out[None]))
        coeff = np.linalg.inv(np.linalg.cholesky(gram))
        out = np.einsum("ab,bij->aij", coeff, out)
    return out


@dataclass(frozen=True)
class FacetBasis:
    """1D machinery shared by every edge: orthonormal Legendre trace modes,
    the normal-trace moment matrix of the facet velocity unknowns and the two
    edge-trace projections built from them.

    With v the trace data at the rule points of an edge of length |e| in the
    global parameter s, the facet-normal coefficients are
    |e| * normal_projection @ (v . n): they match the k+1 Legendre moments of
    the normal trace (exact when it has degree <= k). The tangential
    coefficients are tangential_projection @ (v . t), the L2 projection onto
    the modes of degree <= k-1."""

    k: int
    rule: Rule  # edge quadrature in the global parameter s on [0,1]
    modes_vals: np.ndarray  # (k+1, Qe) l_j, j = 0..k, at rule points
    lhat_vals: np.ndarray  # (k, Qe) tangential modes j = 0..k-1
    theta: np.ndarray  # (k+1, k+1): int theta_i l_j ds, theta_i = edge-normal traces
    theta_vals: np.ndarray  # (k+1, Qe) normal-trace profiles (1/|e| scaling excluded)
    normal_projection: np.ndarray  # (k+1, Qe): theta^-T (w l_j)
    tangential_projection: np.ndarray  # (k, Qe): w l_j


def build_facet_basis(k: int) -> FacetBasis:
    rule = edge_rule(2 * k + 2)
    s = rule.points[:, 0]
    w = rule.weights
    modes = np.zeros((k + 1, k + 1))
    for j in range(k + 1):
        c = np.sqrt(2 * j + 1) * poly.shifted_legendre(j)
        modes[j, : c.size] = c
    modes_vals = poly.eval_1d(modes.T, s)

    # normal-trace profiles: theta_0 = 1 (lowest-order flux), theta_i = g_i'
    # with g_i = s(1-s) P_{i-1}(2s-1)
    theta_vals = np.zeros((k + 1, rule.points.shape[0]))
    theta_vals[0] = 1.0
    bump = np.array([0.0, 1.0, -1.0])  # s(1-s)
    for i in range(1, k + 1):
        g = np.polynomial.polynomial.polymul(bump, poly.shifted_legendre(i - 1))
        dg = np.polynomial.polynomial.polyder(g)
        theta_vals[i] = poly.eval_1d(dg, s)
    theta = np.einsum("iq,jq,q->ij", theta_vals, modes_vals, w)
    return FacetBasis(
        k=k,
        rule=rule,
        modes_vals=modes_vals,
        lhat_vals=modes_vals[:k],
        theta=theta,
        theta_vals=theta_vals,
        normal_projection=np.linalg.solve(theta.T, modes_vals * w),
        tangential_projection=modes_vals[:k] * w,
    )


@dataclass(frozen=True)
class EdgeMoments:
    """Reference moments on one local edge in one orientation, weighted by the
    edge rule in the global parameter s (|e| scaling excluded): a, b index the
    components of the reference values, beta the flattened reference
    gradient, i, j the velocity basis and m the tangential facet modes."""

    stress_trace: np.ndarray  # (4, 2, n_u, n_u): sum_q w g_{i,beta} v_{j,a}
    stress_mode: np.ndarray  # (4, n_u, k): sum_q w g_{i,beta} l_m
    trace_mode: np.ndarray  # (2, n_u, k): sum_q w v_{i,a} l_m
    trace_trace: np.ndarray  # (2, 2, n_u, n_u): sum_q w v_{i,a} v_{j,b}


@dataclass(frozen=True)
class ReferenceBasis:
    k: int
    coeffs: np.ndarray  # (n_u, 2, k+1, k+1) monomial tables
    div_coeffs: np.ndarray  # (n_u, k, k)
    qmodes: np.ndarray  # (R, k, k) orthonormal pressure modes, mode 0 constant
    n_facet: int  # 3(k+1)
    n_int_c: int  # divergence-free interior count
    n_int_d: int  # divergence-carrying interior count
    vol_rule: Rule
    vol_vals: np.ndarray  # (n_u, Q, 2)
    vol_grads: np.ndarray  # (n_u, Q, 2, 2)
    vol_divs: np.ndarray  # (n_u, Q)
    vol_qvals: np.ndarray  # (R, Q)
    facet: FacetBasis
    edge_vals: Mapping  # (l, flip) -> (n_u, Qe, 2)
    edge_grads: Mapping  # (l, flip) -> (n_u, Qe, 2, 2)
    # reference tensors of the element forms (volume rule, indices as in
    # EdgeMoments): every affine element's stacks are linear in them
    mass_moments: np.ndarray  # (2, 2, n_u, n_u): sum_q w v_{i,a} v_{j,b}
    grad_moments: np.ndarray  # (4, 4, n_u, n_u): sum_q w g_{i,beta} g_{j,gamma}
    edge_moments: Mapping  # (l, flip) -> EdgeMoments

    @property
    def n_u(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_int(self) -> int:
        return self.n_int_c + self.n_int_d

    @property
    def n_pressure(self) -> int:
        return self.qmodes.shape[0]

    def facet_sign_exponents(self) -> np.ndarray:
        """Per-DOF exponent e so the globally oriented basis equals
        (-1)^(e * flip) times the locally oriented one (interior DOFs: 0)."""
        exps = np.zeros(self.n_u, np.int64)
        for l in range(3):
            base = l * (self.k + 1)
            exps[base] = 1  # lowest-order flux
            for i in range(1, self.k + 1):
                exps[base + i] = i - 1
        return exps

    def volume_tables(self, degree: int):
        """(rule, vals, grads, divs, qvals) on a rule exact to `degree`."""
        if degree <= self.vol_rule.degree:
            return (
                self.vol_rule,
                self.vol_vals,
                self.vol_grads,
                self.vol_divs,
                self.vol_qvals,
            )
        rule = triangle_rule(degree)
        tables = _evaluate(self.coeffs, self.div_coeffs, self.qmodes, rule.points)
        return (rule,) + tables


def _evaluate(coeffs, div_coeffs, qmodes, points: np.ndarray):
    """Values (n_u, Q, 2), gradients (n_u, Q, 2, 2) (component, direction),
    divergences (n_u, Q) and pressure-mode values (R, Q) of the basis at
    reference points (Q, 2); the derivatives of the whole stack are taken at
    once."""
    x, y = points[:, 0], points[:, 1]
    vals = poly.eval_at(coeffs, x, y).transpose(0, 2, 1)
    dcoeffs = np.stack([poly.diff_x(coeffs), poly.diff_y(coeffs)], axis=2)
    grads = poly.eval_at(dcoeffs, x, y).transpose(0, 3, 1, 2)
    return vals, grads, poly.eval_at(div_coeffs, x, y), poly.eval_at(qmodes, x, y)


def _edge_points(s: np.ndarray) -> np.ndarray:
    """Reference points (3, 2, Qe, 2) of the edge rule on local edge l in
    orientation flip: the global parameter s runs from the edge's first
    vertex to its second, or back when flipped."""
    u = np.stack([s, 1.0 - s])[None, :, :, None]
    p, q = REF_VERTS[EDGE_VERTS[:, 0]], REF_VERTS[EDGE_VERTS[:, 1]]
    return p[:, None, None, :] * (1.0 - u) + q[:, None, None, :] * u


def _nullspace_interior(k: int, facet: FacetBasis) -> np.ndarray:
    """Coefficients (n, 2, k+1, k+1) of a basis of the zero-normal-trace
    subspace of degree-k vector polynomials (dimension k^2 - 1)."""
    monos = _monomials(k)
    stack = np.zeros((2, len(monos), 2, k + 1, k + 1))
    stack[0, :, 0], stack[1, :, 1] = monos, monos
    stack = stack.reshape((-1,) + stack.shape[2:])  # (2t, 2, k+1, k+1)

    w = facet.rule.weights
    rows = []
    for l, pts in enumerate(_edge_points(facet.rule.points[:, 0])[:, 0]):
        vals = poly.eval_at(stack, pts[:, 0], pts[:, 1])  # (2t, 2, Qe)
        ntr = np.einsum("cdq,d->cq", vals, REF_NORMALS[l])
        rows.append(np.einsum("cq,jq,q->jc", ntr, facet.modes_vals, w))
    constraint = np.concatenate(rows)  # (3(k+1), 2t)
    _, sv, vh = np.linalg.svd(constraint)
    tol = max(constraint.shape) * np.finfo(float).eps * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > tol))
    null = vh[rank:]  # (k^2 - 1, 2t)
    if null.shape[0] != k * k - 1:
        raise RuntimeError(
            f"zero-trace subspace has dimension {null.shape[0]}, expected {k * k - 1}"
        )
    return np.einsum("nc,cdij->ndij", null, stack)


def _freeze(obj):
    """Make every array reachable through dataclass fields and dict values
    read-only, and every such dict a read-only mapping, so one cached
    instance can be shared by every caller."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, dict):
        for v in obj.values():
            _freeze(v)
        obj = MappingProxyType(obj)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            object.__setattr__(obj, f.name, _freeze(getattr(obj, f.name)))
    return obj


@functools.cache
def build_reference_bdm(k: int) -> ReferenceBasis:
    """Construct the hierarchical reference basis and all evaluation tables,
    once per degree: the result is cached and its tables are read-only.

    The cache lives in the process, so every fresh process (each benchmark
    repetition, each CLI run) pays the build in its set-up. The groups
    (a)-(d) are built as coefficient stacks. Raises RuntimeError unless the
    zero-trace subspace has dimension k^2 - 1 and zero-mean divergences."""
    if not 1 <= k <= 4:
        raise ValueError("polynomial degree k must be in 1..4")
    facet = build_facet_basis(k)
    lam = poly.barycentric()
    p, q = EDGE_VERTS.T

    # facet blocks: per edge, lowest-order flux then k curls of edge bubbles.
    # x - v_l has unit flux through edge l and zero normal trace elsewhere
    rt = np.zeros((3, 1, 2, k + 1, k + 1))
    rt[:, 0, 0, 1, 0] = 1.0
    rt[:, 0, 0, 0, 0] = -REF_VERTS[:, 0]
    rt[:, 0, 1, 0, 1] = 1.0
    rt[:, 0, 1, 0, 0] = -REF_VERTS[:, 1]
    edge_bump, edge_lin = poly.mul(lam[p], lam[q]), lam[q] - lam[p]
    gens = [poly.mul(edge_bump, poly.compose_1d(poly.legendre_1d(i - 1), edge_lin))
            for i in range(1, k + 1)]  # per i, the 3 edges' generators
    bubbles = np.stack([poly.pad(poly.curl(g), k) for g in gens], axis=1)
    facets = np.concatenate([rt, bubbles], axis=1)

    # interior divergence-free: curls of the element bubble times P^{k-2}
    interior_c = np.zeros((0, 2, k + 1, k + 1))
    if k >= 2:
        bubble = poly.mul(poly.mul(lam[0], lam[1]), lam[2])
        interior_c = poly.pad(poly.curl(poly.mul(bubble, _monomials(k - 2))), k)
    n_int_c = interior_c.shape[0]

    # interior divergence carriers: zero normal trace, div = mean-zero modes
    qmodes = orthonormal_pressure_modes(k)
    n_int_d = qmodes.shape[0] - 1
    carriers = np.zeros((0, 2, k + 1, k + 1))
    if n_int_d:
        zcols = _nullspace_interior(k, facet)  # (k^2-1, 2, k+1, k+1)
        # (R, k^2-1): every (pressure mode, zero-trace function) moment at once
        div_rows = poly.tri_integral(
            poly.mul(poly.divergence(zcols)[None], qmodes[:, None])
        )
        if np.max(np.abs(div_rows[0])) > 1e-10:
            raise RuntimeError("zero-trace functions acquired nonzero mean divergence")
        sol, *_ = np.linalg.lstsq(div_rows[1:], np.eye(n_int_d), rcond=None)
        for _ in range(2):
            corr, *_ = np.linalg.lstsq(
                div_rows[1:], np.eye(n_int_d) - div_rows[1:] @ sol, rcond=None
            )
            sol = sol + corr
        carriers = np.einsum("nj,ndab->jdab", sol, zcols)

    coeffs = np.concatenate(
        [facets.reshape(-1, 2, k + 1, k + 1), interior_c, carriers]
    )
    n_u = coeffs.shape[0]
    assert n_u == (k + 1) * (k + 2), n_u
    div_coeffs = poly.divergence(coeffs)

    vol_rule = triangle_rule(2 * k + 2)
    vol_vals, vol_grads, vol_divs, vol_qvals = _evaluate(
        coeffs, div_coeffs, qmodes, vol_rule.points
    )

    # the six (local edge, orientation) rules in one evaluation
    pts = _edge_points(facet.rule.points[:, 0])
    vals, grads, _, _ = _evaluate(coeffs, div_coeffs, qmodes, pts.reshape(-1, 2))
    keys = [(l, flip) for l in range(3) for flip in (0, 1)]
    edge_vals = dict(zip(keys, np.split(vals, len(keys), axis=1)))
    edge_grads = dict(zip(keys, np.split(grads, len(keys), axis=1)))

    w = vol_rule.weights
    g = vol_grads.reshape(n_u, -1, 4)
    we, lh = facet.rule.weights, facet.lhat_vals[:, :, None]
    edge_moments = {}
    for key, vals in edge_vals.items():
        eg = edge_grads[key].reshape(n_u, -1, 4)
        edge_moments[key] = EdgeMoments(
            stress_trace=_moments(eg, vals, we),
            stress_mode=_moments(eg, lh, we)[:, 0],
            trace_mode=_moments(vals, lh, we)[:, 0],
            trace_trace=_moments(vals, vals, we),
        )

    ref = ReferenceBasis(
        k=k,
        coeffs=coeffs,
        div_coeffs=div_coeffs,
        qmodes=qmodes,
        n_facet=3 * (k + 1),
        n_int_c=n_int_c,
        n_int_d=n_int_d,
        vol_rule=vol_rule,
        vol_vals=vol_vals,
        vol_grads=vol_grads,
        vol_divs=vol_divs,
        vol_qvals=vol_qvals,
        facet=facet,
        edge_vals=edge_vals,
        edge_grads=edge_grads,
        mass_moments=_moments(vol_vals, vol_vals, w),
        grad_moments=_moments(g, g, w),
        edge_moments=edge_moments,
    )
    return _freeze(ref)


def _moments(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_q w_q x[i, q, a] y[j, q, b] as an (a, b, i, j) array, one batched
    matmul."""
    xw = (x * w[:, None]).transpose(2, 0, 1)[:, None]  # (a, 1, i, q)
    return xw @ y.transpose(2, 1, 0)[None]  # (1, b, q, j)


def map_piola(jac: np.ndarray, det, vals: np.ndarray) -> np.ndarray:
    """Contravariant (Piola) map of reference H(div) values onto physical
    elements: v -> J v / det J, so normal fluxes are preserved across shared
    facets. Divergences transform separately as div -> div / det J.
    ``jac`` (..., 2, 2) and ``det`` (...) may hold a batch of elements sharing
    the reference ``vals`` (..., 2); the result is jac.shape[:-2] + vals.shape."""
    jac, det, vals = np.asarray(jac), np.asarray(det), np.asarray(vals)
    out = vals.reshape(-1, 2) @ np.swapaxes(jac, -1, -2)
    out = out.reshape(jac.shape[:-2] + vals.shape)
    return out / det.reshape(det.shape + (1,) * vals.ndim)

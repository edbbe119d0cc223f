import math

import numpy as np
import pytest

from divhdg import poly
from divhdg.refbasis import (
    EDGE_VERTS,
    REF_NORMALS,
    REF_VERTS,
    build_facet_basis,
    build_reference_bdm,
    map_piola,
    orthonormal_pressure_modes,
    triangle_rule,
)

KS = [1, 2, 3, 4]


@pytest.fixture(scope="module", params=KS)
def ref(request):
    return build_reference_bdm(request.param)


class TestDimensions:
    def test_group_counts(self, ref):
        k = ref.k
        assert ref.n_u == (k + 1) * (k + 2)
        assert ref.n_facet == 3 * (k + 1)
        assert ref.n_int_c == k * (k - 1) // 2
        assert ref.n_int_d == k * (k + 1) // 2 - 1
        assert ref.n_facet + ref.n_int_c + ref.n_int_d == ref.n_u
        assert ref.n_pressure == k * (k + 1) // 2

    def test_degree_out_of_range(self):
        for bad in (0, 5, -1):
            with pytest.raises(Exception):
                build_reference_bdm(bad)


class TestCachedReference:
    def test_one_instance_per_degree(self, ref):
        assert build_reference_bdm(ref.k) is ref

    def test_tables_read_only(self, ref):
        # the cached instance is shared by every caller, so no caller may
        # change it
        for arr in (ref.coeffs, ref.vol_vals, ref.grad_moments, ref.facet.theta,
                    ref.facet.rule.weights, ref.vol_rule.points, ref.edge_vals[(0, 1)],
                    ref.edge_moments[(2, 0)].trace_trace):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            ref.mass_moments[0, 0, 0, 0] = 1.0
        with pytest.raises(TypeError):
            ref.edge_moments[(0, 0)] = None


class TestDivergenceStructure:
    def test_edge_groups(self, ref):
        k = ref.k
        for l in range(3):
            block = ref.vol_divs[l * (k + 1) : (l + 1) * (k + 1)]
            # lowest-order edge function: constant, nonzero divergence
            assert np.ptp(block[0]) <= 1e-12
            assert np.abs(block[0]).max() > 0.1
            # edge bubbles: pointwise divergence-free
            assert np.abs(block[1 : 1 + k]).max() <= 1e-12

    def test_interior_groups(self, ref):
        interior = slice(ref.n_facet, ref.n_u)
        if ref.k == 1:
            assert interior.start == interior.stop
            return
        inner = ref.vol_divs[interior]
        if ref.n_int_c:
            assert np.abs(inner[: ref.n_int_c]).max() <= 1e-12
        for row in inner[ref.n_int_c :]:
            assert np.abs(row).max() > 1e-6

    def test_divergence_image_spans_meanzero_pressures(self, ref):
        if ref.n_int_d == 0:
            return
        # moments of the nonzero-divergence group against the orthonormal
        # pressure modes: zero against the constant, full rank on the rest
        w = ref.vol_rule.weights
        dgrp = ref.vol_divs[ref.n_facet : ref.n_u][ref.n_int_c :]
        mom = np.einsum("iq,jq,q->ij", dgrp, ref.vol_qvals, w)
        assert np.abs(mom[:, 0]).max() <= 1e-12
        rest = mom[:, 1:]
        assert rest.shape == (ref.n_int_d, ref.n_pressure - 1)
        assert np.linalg.matrix_rank(rest, tol=1e-10) == ref.n_int_d


class TestNormalTraces:
    def test_lowest_order_edge_functions(self, ref):
        for l in range(3):
            idx = l * (ref.k + 1)
            for m in range(3):
                tr = ref.edge_vals[(m, 0)][idx] @ REF_NORMALS[m]
                if m == l:
                    assert np.ptp(tr) <= 1e-12
                    assert np.abs(tr).max() > 0.1
                else:
                    assert np.abs(tr).max() <= 1e-12

    def test_edge_bubbles_confined_to_own_edge(self, ref):
        k = ref.k
        for l in range(3):
            sl = slice(l * (k + 1), (l + 1) * (k + 1))
            for m in range(3):
                tr = np.einsum(
                    "iqa,a->iq", ref.edge_vals[(m, 0)][sl][1:], REF_NORMALS[m]
                )
                if m != l:
                    assert np.abs(tr).max() <= 1e-12

    def test_edge_bubbles_span_meanzero_traces(self, ref):
        # own-edge normal traces of the k bubbles hit every mean-zero
        # polynomial mode of degree <= k and miss the constant
        k = ref.k
        f = ref.facet
        we = f.rule.weights
        for l in range(3):
            sl = slice(l * (k + 1), (l + 1) * (k + 1))
            tr = np.einsum("iqa,a->iq", ref.edge_vals[(l, 0)][sl][1:], REF_NORMALS[l])
            mom = np.einsum("iq,jq,q->ij", tr, f.modes_vals, we)
            assert np.abs(mom[:, 0]).max() <= 1e-12
            assert np.linalg.matrix_rank(mom[:, 1:], tol=1e-10) == k

    def test_interior_functions_have_zero_normal_trace(self, ref):
        sl = slice(ref.n_facet, ref.n_u)
        if sl.start == sl.stop:
            return
        for m in range(3):
            tr = np.einsum("iqa,a->iq", ref.edge_vals[(m, 0)][sl], REF_NORMALS[m])
            assert np.abs(tr).max() <= 1e-12


class TestFacetBasis:
    @pytest.mark.parametrize("k", KS)
    def test_theta_zero_is_constant_one(self, k):
        f = build_facet_basis(k)
        assert np.allclose(f.theta_vals[0], 1.0, atol=1e-14)

    @pytest.mark.parametrize("k", KS)
    def test_modes_orthonormal(self, k):
        f = build_facet_basis(k)
        gram = np.einsum("iq,jq,q->ij", f.modes_vals, f.modes_vals, f.rule.weights)
        assert np.abs(gram - np.eye(k + 1)).max() <= 1e-12

    @pytest.mark.parametrize("k", KS)
    def test_tangential_modes_lowest_orthonormal_block(self, k):
        # the degree-(k-1) tangential trace basis is the leading block of
        # the full orthonormal mode family
        f = build_facet_basis(k)
        gram = np.einsum("iq,jq,q->ij", f.lhat_vals, f.lhat_vals, f.rule.weights)
        assert np.abs(gram - np.eye(k)).max() <= 1e-12
        assert np.allclose(f.lhat_vals, f.modes_vals[:k], atol=1e-13)

    @pytest.mark.parametrize("k", KS)
    def test_moment_solve_roundtrip(self, k):
        # the normal projection inverts the normal traces of the facet basis
        f = build_facet_basis(k)
        rng = np.random.default_rng(k)
        c = rng.standard_normal(k + 1)
        back = f.normal_projection @ (c @ f.theta_vals)
        assert np.allclose(back, c, atol=1e-11)

    @pytest.mark.parametrize("k", KS)
    def test_normal_projection_reproduces_degree_k(self, k):
        # every normal trace of degree <= k is rebuilt exactly from its
        # facet-normal coefficients; its Legendre moments are kept
        f = build_facet_basis(k)
        s, w = f.rule.points[:, 0], f.rule.weights
        rng = np.random.default_rng(20 + k)
        for deg in range(k + 1):
            vals = poly.eval_1d(rng.standard_normal(deg + 1), s)
            c = f.normal_projection @ vals
            assert np.abs(c @ f.theta_vals - vals).max() <= 1e-12
            mom = f.theta.T @ c
            want = np.einsum("q,jq,q->j", vals, f.modes_vals, w)
            assert np.abs(mom - want).max() <= 1e-12

    @pytest.mark.parametrize("k", KS)
    def test_tangential_projection_reproduces_degree_k_minus_1(self, k):
        f = build_facet_basis(k)
        s = f.rule.points[:, 0]
        rng = np.random.default_rng(30 + k)
        for deg in range(k):
            vals = poly.eval_1d(rng.standard_normal(deg + 1), s)
            d = f.tangential_projection @ vals
            assert np.abs(d @ f.lhat_vals - vals).max() <= 1e-12
        # the degree-k mode is orthogonal to the tangential space
        assert np.abs(f.tangential_projection @ f.modes_vals[k]).max() <= 1e-13


class TestPressureModes:
    @pytest.mark.parametrize("k", KS)
    def test_orthonormal_first_constant(self, k):
        rule = triangle_rule(2 * k + 2)
        q = orthonormal_pressure_modes(k)
        vals = poly.eval_at(q, rule.points[:, 0], rule.points[:, 1])
        gram = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
        n = k * (k + 1) // 2
        assert gram.shape == (n, n)
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        assert np.ptp(vals[0]) <= 1e-13


class TestQuadrature:
    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 14])
    def test_exact_monomial_integration(self, degree):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 0.5) <= 1e-14
        x, y = rule.points[:, 0], rule.points[:, 1]
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                got = np.sum(rule.weights * x**i * y**j)
                # exact integral of x^i y^j over the unit reference triangle
                exact = (
                    math.factorial(i)
                    * math.factorial(j)
                    / math.factorial(i + j + 2)
                )
                assert abs(got - exact) <= 1e-13


class TestPiolaMap:
    def test_identity_map_is_identity(self, ref):
        vals = ref.vol_vals
        mapped = map_piola(np.eye(2), 1.0, vals)
        assert np.array_equal(mapped, vals)

    def test_uniform_scaling_divergence(self, ref):
        # under x -> 2x the contravariant map divides values by det/J = 2,
        # and physical divergence is reference divergence / det
        jac = 2.0 * np.eye(2)
        det = 4.0
        mapped = map_piola(jac, det, ref.vol_vals)
        assert np.allclose(mapped, ref.vol_vals / 2.0, atol=1e-14)

    def test_normal_flux_invariance(self, ref):
        # Piola preserves normal moments up to the edge-length factor:
        # for an affine map, n_phys ∝ J^{-T} n_ref
        rng = np.random.default_rng(5)
        jac = rng.standard_normal((2, 2))
        det = float(np.linalg.det(jac))
        if det < 0:
            jac[0] *= -1
            det = -det
        mapped = map_piola(jac, det, ref.vol_vals)
        n_ref = REF_NORMALS[0]
        n_dir = np.linalg.solve(jac.T, n_ref)
        got = np.einsum("iqa,a->iq", mapped, n_dir) * det
        want = np.einsum("iqa,a->iq", ref.vol_vals, n_ref)
        assert np.allclose(got, want, atol=1e-12)


def _former_volume_tables(coeffs, div_coeffs, qmodes, rule):
    # the former per-function evaluation, kept verbatim as reference
    x, y = rule.points[:, 0], rule.points[:, 1]
    vals = np.transpose(poly.eval_at(coeffs, x, y), (0, 2, 1))  # (n_u, Q, 2)
    n_u = coeffs.shape[0]
    dmax = coeffs.shape[-1] - 1
    grads = np.zeros((n_u, rule.points.shape[0], 2, 2))
    for i in range(n_u):
        for a in range(2):
            gx = poly.pad(poly.diff_x(coeffs[i, a]), max(dmax - 1, 0))
            gy = poly.pad(poly.diff_y(coeffs[i, a]), max(dmax - 1, 0))
            grads[i, :, a, 0] = poly.eval_at(gx, x, y)
            grads[i, :, a, 1] = poly.eval_at(gy, x, y)
    divs = poly.eval_at(div_coeffs, x, y)
    qvals = poly.eval_at(qmodes, x, y)
    return vals, grads, divs, qvals


def _former_edge_tables(k, coeffs, s):
    # the former per-(edge, flip), per-function loop, kept verbatim as reference
    n_u = coeffs.shape[0]
    edge_vals, edge_grads = {}, {}
    for l in range(3):
        p, q = EDGE_VERTS[l]
        for flip in (0, 1):
            u = 1.0 - s if flip else s
            pts = REF_VERTS[p][None, :] * (1.0 - u[:, None]) + REF_VERTS[q][
                None, :
            ] * u[:, None]
            x, y = pts[:, 0], pts[:, 1]
            vals = np.transpose(poly.eval_at(coeffs, x, y), (0, 2, 1))
            grads = np.zeros((n_u, s.size, 2, 2))
            for i in range(n_u):
                for a in range(2):
                    grads[i, :, a, 0] = poly.eval_at(
                        poly.pad(poly.diff_x(coeffs[i, a]), k), x, y
                    )
                    grads[i, :, a, 1] = poly.eval_at(
                        poly.pad(poly.diff_y(coeffs[i, a]), k), x, y
                    )
            edge_vals[(l, flip)] = vals
            edge_grads[(l, flip)] = grads
    return edge_vals, edge_grads


class TestEvaluator:
    """The one basis evaluator reproduces the former per-function loops bit
    for bit on every table it serves."""

    def test_divergence_coefficients(self, ref):
        want = np.array(
            [poly.pad(poly.divergence(c), ref.k - 1) for c in ref.coeffs]
        )
        assert np.array_equal(ref.div_coeffs, want)

    def test_volume_tables(self, ref):
        want = _former_volume_tables(
            ref.coeffs, ref.div_coeffs, ref.qmodes, ref.vol_rule
        )
        got = (ref.vol_vals, ref.vol_grads, ref.vol_divs, ref.vol_qvals)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_high_degree_volume_tables(self, ref):
        rule, *got = ref.volume_tables(14)
        assert rule.degree >= 14
        want = _former_volume_tables(ref.coeffs, ref.div_coeffs, ref.qmodes, rule)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_edge_tables(self, ref):
        s = ref.facet.rule.points[:, 0]
        vals, grads = _former_edge_tables(ref.k, ref.coeffs, s)
        assert ref.edge_vals.keys() == vals.keys()
        for key in vals:
            assert np.array_equal(ref.edge_vals[key], vals[key])
            assert np.array_equal(ref.edge_grads[key], grads[key])

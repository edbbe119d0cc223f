"""A_g applied by element class in MINRES (``krylov.operator_condensed``):
one gather of the class elements' trace unknowns, one GEMM per class of at
least ``_CLASS_MIN`` elements, one fold, and one CSR product of the other
elements' summed blocks. It is checked against the condensed saddle matrix
under a rounding bound, and on a mesh with no such class against the CSR
product of A_g bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp

from divhdg.assembly import ProblemParams, element_chunks
from divhdg.bench import build_structure
from divhdg.condense import _local_solve, build_condensed_monolithic
from divhdg.krylov import operator_condensed, solve_condensed
from divhdg.linalg import _CLASS_MIN

from conftest import pipeline

U = 2.0**-53  # unit roundoff of float64


def _cond(problem, n, k, tau=1.0, inv_lambda=1.0):
    return pipeline(problem, n, k, tau=tau, inv_lambda=inv_lambda)[-1]


def _element_blocks(cond) -> np.ndarray:
    """Every element's own condensed block (nt, n_G, n_G), from the local
    solves of static condensation."""
    block, g = cond.block, cond.structure.g_slot_idx
    n_G, n_loc = g.size, block.spaces.dofmap.n_loc
    gg = (g[:, None] * n_loc + g).ravel()
    out = []
    for sel in element_chunks(block.mesh.num_triangles):
        flat, rhs, sol, pair = _local_solve(block, g, sel)
        k_gl = np.swapaxes(rhs[:, :, :n_G], 1, 2)
        out.append((flat[:, gg].reshape(-1, n_G, n_G) - k_gl @ sol[:, :, :n_G])[pair])
    return np.concatenate(out)


def _csr_apply(cond, xv):
    """The condensed operator as one CSR product of A_g, in the operation
    order ``operator_condensed`` keeps for a mesh without classes."""
    n_u = cond.n_free
    xu, xp = xv[:n_u], xv[n_u:]
    out = np.empty_like(xv)
    np.add(cond.A_g.csr @ xu, cond.B_g.T @ xp, out=out[:n_u])
    c_diag = cond.C_g.diagonal()
    if np.any(c_diag):
        np.add(cond.B_g @ xu, c_diag * xp, out=out[n_u:])
    else:
        out[n_u:] = cond.B_g @ xu
    return out


# (problem, 1/h, k): classes only, classes only, classes and other elements
# mixed, no class
CASES = [("cavity", 4, 2), ("step", 2, 3), ("cavity", 12, 2), ("jittered", 4, 2)]


@pytest.mark.parametrize("problem,n,k", CASES, ids=["cavity", "step", "mixed", "jittered"])
@pytest.mark.parametrize("tau,inv_lambda", [(1.0, 1.0), (0.0, 0.0)])
def test_apply_equals_condensed_matrix(problem, n, k, tau, inv_lambda):
    """Row i of K x sums, exactly, the products of every element block that
    holds row i and of the B_g^T or B_g and C_g entries of the row. With
    |S| the sum over the elements T of E_T^T |S_T| E_T, the majorant is
    M = |K~| |x|, K~ = [[|S|, |B_g^T|], [|B_g|, |C_g|]], and L the most
    entries of one of its rows.

    The CSR product of K = ``build_condensed_monolithic`` first rounds each
    entry of A_g, a sum of at most two element entries (error u per entry),
    then sums at most L products: within gamma_{L+1} M_i of the exact row
    (Higham, Accuracy and Stability, 2002, eq. 3.5; gamma_n = n u / (1 - n
    u)). The class apply sums each element's n_G <= L products in its GEMM,
    then at most two element outputs in the fold, then the other elements'
    CSR row (at most L products) and the B_g^T row: within gamma_{L+3} M_i,
    as is its pressure block (at most L products and one add). So the two
    differ by at most 2 gamma_{L+3} M_i in every row."""
    cond = _cond(problem, n, k, tau, inv_lambda)
    kmat = build_condensed_monolithic(cond)[0]
    x = np.random.default_rng(11).standard_normal(kmat.shape[0])
    got = operator_condensed(cond)(x)

    blocks = np.abs(_element_blocks(cond))
    k_abs = abs(
        sp.bmat(
            [[cond.structure.a_g.fill(blocks), cond.B_g.T], [cond.B_g, cond.C_g.csr]],
            format="csr",
        )
    )
    length = int(np.diff(k_abs.indptr).max())
    gamma = (length + 3) * U / (1.0 - (length + 3) * U)
    bound = 2.0 * gamma * (k_abs @ np.abs(x))
    assert np.all(np.abs(got - kmat @ x) <= bound)
    if problem == "jittered":  # no class: today's CSR product, bit for bit
        assert cond.class_blocks.shape[0] == 0
        assert np.array_equal(got, _csr_apply(cond, x))
    else:
        assert cond.class_blocks.shape[0] > 0
        assert not np.array_equal(got, _csr_apply(cond, x))  # the classes act


@pytest.mark.parametrize("problem,n,k", CASES, ids=["cavity", "step", "mixed", "jittered"])
def test_tables(problem, n, k):
    """The gather holds each class element's free positions, class by class
    and in element order within one; the fold finds each free unknown in
    the one or two class elements that hold it; the rest is every other
    element, on A_g's own pattern when there is no class."""
    cond = _cond(problem, n, k)
    s = cond.structure
    n_free = cond.n_free
    cls = cond.block.stacks.element_class
    size = np.bincount(cls)
    big = np.flatnonzero(size >= _CLASS_MIN)
    assert np.array_equal(s.part >= 0, np.isin(cls, big))
    assert np.array_equal(np.diff(s.ends), size[big])
    members = np.flatnonzero(s.part >= 0)
    members = members[np.argsort(s.part[members], kind="stable")]
    g_pos = cond.block.essential.pos[s.g_slots[members]]
    assert np.array_equal(s.gather, np.where(g_pos >= 0, g_pos, n_free))
    flat = np.r_[s.gather.ravel(), -1]  # the fold's pad reads -1
    held = np.bincount(s.gather.ravel(), minlength=n_free + 1)[:n_free]
    assert held.max(initial=0) <= 2
    assert np.array_equal(flat[s.fold[0]], np.where(held >= 1, np.arange(n_free), -1))
    assert np.array_equal(flat[s.fold[1]], np.where(held == 2, np.arange(n_free), -1))
    if problem == "jittered":
        assert s.rest is s.a_g and s.gather.size == 0
    elif problem == "cavity" and n == 12:
        assert 0 < members.size < s.part.size and s.rest is not s.a_g
    else:
        assert members.size == s.part.size and s.rest is None and cond.rest is None


@pytest.mark.parametrize("smoother", ["jacobi", "patch-sgs"])
def test_no_row_on_a_classed_mesh_assembles_a_g(smoother):
    """On a mesh whose elements all lie in classes, set-up and solve never
    assemble A_g: a Jacobi row reads its folded diagonal, a patch row sums
    its patch blocks from the class blocks, and MINRES applies it by
    class."""
    s = build_structure("cavity", 4, 2, smoother)
    cond, asp, schur = s.row(ProblemParams(tau=1.0, inv_lambda=1.0))
    _, rep = solve_condensed(cond, asp, schur, tol=1e-8, maxit=1000, seed=0)
    assert rep.converged and cond.rest is None
    assert "A_g" not in vars(cond) and "indices" not in vars(s.condensed.a_g)

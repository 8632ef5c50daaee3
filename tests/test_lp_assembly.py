"""The LP matrices the package builds with numpy are, array for array, the
ones scipy's sparse constructors made for the same LPs: the cut blocks, the
relaxation's equality rows and the transport rows.  HiGHS takes them as
they are, as CSR rows, so every LP passed to it is the one it was.  Dense
arrays and scipy CSR matrices are read into the same ``Csr`` form; other
scipy formats are refused rather than misread."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog as scipy_linprog

from teamsolve import cutting_plane, linprog, transport
from teamsolve.linprog import LpError, _as_csr, csr_from_dense
from teamsolve.measures import DiscreteMeasure
from teamsolve.transport import ot_discrete


def assert_same(got, ref):
    assert tuple(got.shape) == ref.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


def _sparse_dense(rng, shape):
    """Random entries with about a third of them zero."""
    D = rng.normal(size=shape)
    D[rng.uniform(size=shape) < 1 / 3] = 0.0
    return D


def test_dense_rows_drop_zeros_as_csr_matrix_does():
    rng = np.random.default_rng(1)
    for shape in ((1, 1), (3, 5), (6, 2), (0, 4), (4, 3)):
        D = _sparse_dense(rng, shape)
        assert_same(csr_from_dense(D), sparse.csr_matrix(D))
        assert_same(_as_csr(D, *shape, "ub"), sparse.csr_array(D))


class _Recorder:
    """A stand-in for ``LpProblem`` that keeps the rows it is given."""

    def __init__(self, n):
        self.n, self.blocks, self.n_ineq = n, [], 0

    def add_rows(self, A, b):
        self.blocks.append(A)
        self.n_ineq += len(b)
        return np.arange(self.n_ineq - len(b), self.n_ineq)


class _Rows:
    """A stand-in basis whose values at the given rows are the rows."""

    def eval_many(self, P):
        return P


class _Store:
    """A cut store whose points are the basis values to assemble."""

    def __init__(self, G, H):
        self.X, self.Z = G, H
        self.x_bases, self.z_basis = [_Rows() for _ in G], _Rows()
        self.c = [np.zeros(len(g)) for g in G]


def test_cut_blocks_match_csr_matrix_with_zero_entries():
    rng = np.random.default_rng(2)
    m, k = [3, 5], 4
    offsets = np.concatenate([[0], np.cumsum([1 + mi + k for mi in m])])
    G = [_sparse_dense(rng, (7, mi)) for mi in m]
    H = [_sparse_dense(rng, (7, k)) for _ in m]
    G[0][:, 1] = 0.0
    H[1][2] = 0.0
    problem = _Recorder(int(offsets[-1]))
    cutting_plane._add_new_cuts(problem, _Store(G, H), offsets,
                                [np.empty(0, dtype=int) for _ in m])
    for i, got in enumerate(problem.blocks):
        ref = sparse.csr_matrix(np.hstack([np.ones((7, 1)), G[i], H[i]]))
        ref = sparse.csr_matrix(
            (ref.data, ref.indices + offsets[i], ref.indptr),
            shape=(ref.shape[0], problem.n))
        assert_same(got, ref)


def test_relaxation_equality_rows_match_hstack(monkeypatch):
    got = {}

    def record(c, A_eq=None, b_eq=None):
        got["A_eq"] = A_eq
        return None

    monkeypatch.setattr(cutting_plane.linprog, "LpProblem", record)
    for m, k in (([2], 3), ([1, 4, 2], 5), ([3, 3], 1)):
        cutting_plane._relaxation([np.ones(mi) for mi in m], k)
        ref = sparse.hstack(
            [blk for mi in m for blk in (sparse.csr_matrix((k, 1 + mi)),
                                         sparse.identity(k))],
            format="csr")
        assert_same(got["A_eq"], ref)
    cutting_plane._relaxation([np.ones(2)], 0)
    assert got["A_eq"] is None


def test_transport_rows_match_kron(monkeypatch):
    rng = np.random.default_rng(3)
    got = []

    def record(c, A_eq, b_eq):
        got.append(A_eq)
        return linprog.solve_min(c, A_eq, b_eq)

    monkeypatch.setattr(transport, "solve_min", record)
    for n1 in range(2, 8):
        for n2 in range(2, 8):
            ot_discrete(
                DiscreteMeasure(rng.uniform(size=(n1, 1)),
                                rng.dirichlet(np.ones(n1))),
                DiscreteMeasure(rng.uniform(size=(n2, 1)),
                                rng.dirichlet(np.ones(n2))))
            ref = sparse.vstack([
                sparse.kron(sparse.eye(n1), np.ones((1, n2)), format="csr"),
                sparse.kron(np.ones((1, n1)), sparse.eye(n2),
                            format="csr")[:-1]], format="csr")
            assert_same(got[-1], ref)


def test_scipy_matrices_are_read_in_their_csr_form():
    rng = np.random.default_rng(5)
    D = _sparse_dense(rng, (4, 6))
    for A in (sparse.csr_matrix(D), sparse.csr_array(D)):
        assert_same(_as_csr(A, 4, 6, "ub"), sparse.csr_array(D))
    # a column-wise matrix also has an ``indptr``, over its columns
    for A in (sparse.csc_array(D), sparse.coo_array(D)):
        with pytest.raises(LpError, match="not CSR"):
            _as_csr(A, 4, 6, "ub")


_WEIGHTS = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(w1=_WEIGHTS, w2=_WEIGHTS, seed=st.integers(0, 2 ** 16))
def test_ot_discrete_marginals_and_value(w1, w2, seed):
    rng = np.random.default_rng(seed)
    a = np.array(w1) / sum(w1)
    b = np.array(w2) / sum(w2)
    nu1 = DiscreteMeasure(rng.uniform(size=(len(a), 2)), a)
    nu2 = DiscreteMeasure(rng.uniform(size=(len(b), 2)), b)
    coupling, w = ot_discrete(nu1, nu2)
    assert np.abs(coupling.plan.sum(axis=1) - nu1.weights).max() <= 1e-12
    assert np.abs(coupling.plan.sum(axis=0) - nu2.weights).max() <= 1e-12
    D = np.linalg.norm(nu1.atoms[:, None] - nu2.atoms[None], axis=2)
    n1, n2 = D.shape
    ref = scipy_linprog(
        D.ravel(), A_eq=np.vstack([np.kron(np.eye(n1), np.ones(n2)),
                                   np.kron(np.ones(n1), np.eye(n2))]),
        b_eq=np.concatenate([nu1.weights, nu2.weights]), method="highs")
    assert ref.status == 0
    assert abs(w - ref.fun) <= 1e-12 * max(1.0, ref.fun)

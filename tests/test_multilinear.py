import numpy as np
import pytest

from tenfun import BoxProduct, BoxSum, FourthTensor, SymTensor

from helpers import rand_sym


def loop_contract(dense, xs):
    """Index-loop contraction of a dense component array, kept deliberately
    dumb: Y_ij = T[i, j, k1, l1, ...] X1[k1, l1] X2[k2, l2] ..."""
    k = dense.ndim // 2
    out = np.zeros((3, 3))
    for idx in np.ndindex(*dense.shape):
        i, j, rest = idx[0], idx[1], idx[2:]
        val = dense[idx]
        for m in range(k - 1):
            val *= xs[m][rest[2 * m], rest[2 * m + 1]]
        out[i, j] += val
    return out


def test_identity_box_acts_as_identity():
    rng = np.random.default_rng(21)
    x = rand_sym(rng)
    got = FourthTensor.identity().apply(x)
    assert np.abs(got - x.matrix).max() <= 1e-15


def test_pair_contraction_matches_dense_multiply():
    a = SymTensor.diag(1, 2, 3)
    b = SymTensor.identity()
    x = np.zeros((3, 3))
    x[0, 1] = x[1, 0] = 1.0
    got = BoxProduct(a, b).contract([x])
    want = a.matrix @ x @ b.matrix.T
    assert np.abs(got - want).max() <= 1e-15
    rng = np.random.default_rng(22)
    for _ in range(10):
        a, b, xs = rand_sym(rng), rand_sym(rng), rand_sym(rng)
        got = BoxProduct(a, b).contract([xs])
        want = a.matrix @ xs.matrix @ b.matrix.T
        assert np.abs(got - want).max() <= 1e-13


def test_triple_contraction_matches_dense_multiply():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c, x, y = (rand_sym(rng) for _ in range(5))
        got = BoxProduct(a, b, c).contract([x, y])
        want = a.matrix @ x.matrix @ b.matrix.T @ y.matrix @ c.matrix.T
        assert np.abs(got - want).max() <= 1e-13


def test_contract_arity_mismatch():
    rng = np.random.default_rng(24)
    p = BoxProduct(rand_sym(rng), rand_sym(rng))
    with pytest.raises(ValueError):
        p.contract([rand_sym(rng), rand_sym(rng)])


def test_compose_with_identity():
    rng = np.random.default_rng(25)
    p = FourthTensor([(0.7, (rand_sym(rng), rand_sym(rng))),
                      (-1.3, (rand_sym(rng), rand_sym(rng)))])
    q = FourthTensor.identity().compose(p)
    x = rand_sym(rng)
    assert np.abs(q.apply(x) - p.apply(x)).max() <= 1e-13


def test_compose_inverse_pair_gives_identity():
    rng = np.random.default_rng(26)
    a = rand_sym(rng) + 3.0 * SymTensor.identity()  # invertible
    ainv = np.linalg.inv(a.matrix)
    prod = FourthTensor.box(a, a).compose(FourthTensor.box(ainv, ainv))
    assert np.abs(prod.dense() - FourthTensor.identity().dense()).max() <= 1e-12


def test_composed_action_equals_sequential_action():
    rng = np.random.default_rng(27)
    p = FourthTensor([(1.1, (rand_sym(rng), rand_sym(rng))),
                      (0.4, (rand_sym(rng), rand_sym(rng)))])
    q = FourthTensor([(-0.8, (rand_sym(rng), rand_sym(rng))),
                      (2.0, (rand_sym(rng), rand_sym(rng)))])
    comp = p.compose(q)
    for _ in range(20):
        x = rand_sym(rng)
        got = comp.apply(x)
        want = p.apply(q.apply(x))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_compose_associative():
    rng = np.random.default_rng(28)
    ts = [FourthTensor([(rng.uniform(-1, 1), (rand_sym(rng), rand_sym(rng))),
                        (rng.uniform(-1, 1), (rand_sym(rng), rand_sym(rng)))])
          for _ in range(3)]
    left = ts[0].compose(ts[1]).compose(ts[2])
    right = ts[0].compose(ts[1].compose(ts[2]))
    assert np.abs(left.dense() - right.dense()).max() <= 1e-12


def test_dense_identity_components():
    eye = np.eye(3)
    dense = BoxProduct(eye, eye).dense()
    want = np.einsum("ik,jl->ijkl", eye, eye)
    assert np.array_equal(dense, want)


def test_dense_single_component_readout():
    rng = np.random.default_rng(29)
    a, b = rand_sym(rng), rand_sym(rng)
    dense = BoxProduct(a, b).dense()
    # (A box B)_{1213} = A_11 B_23 with 1-based indices
    assert dense[0, 1, 0, 2] == pytest.approx(a.matrix[0, 0] * b.matrix[1, 2], rel=1e-15)


@pytest.mark.parametrize("k", [2, 3])
def test_dense_contraction_reproduces_contract(k):
    rng = np.random.default_rng(30 + k)
    p = BoxProduct(*[rand_sym(rng) for _ in range(k)])
    xs = [rand_sym(rng).matrix for _ in range(k - 1)]
    got = loop_contract(p.dense(), xs)
    want = p.contract(xs)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dense_contraction_all_orders_by_kron(k):
    rng = np.random.default_rng(40 + k)
    p = BoxProduct(*[rand_sym(rng) for _ in range(k)])
    xs = [rand_sym(rng).matrix for _ in range(k - 1)]
    flat = p.dense().reshape(9, 9 ** (k - 1))
    vec = xs[0].reshape(9)
    for x in xs[1:]:
        vec = np.kron(vec, x.reshape(9))
    got = (flat @ vec).reshape(3, 3)
    want = p.contract(xs)
    assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def test_contract_is_multilinear():
    rng = np.random.default_rng(33)
    p = BoxProduct(rand_sym(rng), rand_sym(rng), rand_sym(rng))
    x, x2, y = rand_sym(rng), rand_sym(rng), rand_sym(rng)
    lam = 0.731
    lhs = p.contract([(x + lam * x2), y])
    rhs = p.contract([x, y]) + lam * p.contract([x2, y])
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
    lhs = p.contract([x, lam * y])
    rhs = lam * p.contract([x, y])
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_sum_arithmetic():
    rng = np.random.default_rng(34)
    p = FourthTensor.box(rand_sym(rng), rand_sym(rng))
    q = FourthTensor.box(rand_sym(rng), rand_sym(rng))
    x = rand_sym(rng)
    got = (2.0 * p - q).apply(x)
    want = 2.0 * p.apply(x) - q.apply(x)
    assert np.abs(got - want).max() <= 1e-13
    with pytest.raises(ValueError):
        BoxSum.zero(nfactors=3) + BoxSum.zero(nfactors=2)

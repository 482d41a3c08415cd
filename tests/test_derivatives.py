import numpy as np
import pytest

from tenfun import (
    Exp,
    FourthTensor,
    Log,
    Monomial,
    Polynomial,
    SymTensor,
    apply_fn,
    decompose,
    derivative,
    expand_monomial,
    finite_diff_derivative,
    grad_chain_rule,
    grad_product_rule,
    grad_reciprocal,
    seth_hill,
    taylor_eval,
)
from tenfun.multilinear import BoxProduct, BoxSum

from helpers import rand_psym, rand_sym, rand_unit_sym


def test_gradient_of_square_is_anticommutator():
    rng = np.random.default_rng(61)
    for _ in range(10):
        a, x = rand_sym(rng), rand_sym(rng)
        got = derivative(Monomial(2), a, 1).contract([x]).matrix
        want = a.matrix @ x.matrix + x.matrix @ a.matrix
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_identity_function_derivatives():
    rng = np.random.default_rng(62)
    a = rand_sym(rng)
    g = derivative(Monomial(1), a, 1).as_fourth_tensor()
    assert np.abs(g.dense() - FourthTensor.identity().dense()).max() <= 1e-12
    d2 = derivative(Monomial(1), a, 2)
    assert np.abs(d2.as_box_sum().dense()).max() <= 1e-12


def test_second_derivative_matches_cubic_expansion():
    a = SymTensor.diag(1.0, 2.0, 4.0)
    rng = np.random.default_rng(63)
    for _ in range(5):
        x = rand_sym(rng)
        got = derivative(Monomial(3), a, 2).contract([x, x]).matrix
        want = expand_monomial(a, x, 3).terms[2]
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_contract_arity_and_zero():
    rng = np.random.default_rng(64)
    dv = derivative(Exp(), rand_sym(rng), 2)
    with pytest.raises(ValueError):
        dv.contract([rand_sym(rng)])
    zero = dv.contract([SymTensor.zero(), SymTensor.zero()])
    assert zero.norm() == 0.0


def test_contract_multilinearity():
    rng = np.random.default_rng(65)
    dv = derivative(Exp(), rand_sym(rng), 2)
    x1, x2 = rand_sym(rng), rand_sym(rng)
    doubled = dv.contract([2.0 * x1, x2])
    assert (doubled - 2.0 * dv.contract([x1, x2])).norm() <= 1e-12


def test_contract_symmetric_under_direction_permutation():
    rng = np.random.default_rng(66)
    dv = derivative(Log(), rand_psym(rng), 3)
    xs = [rand_sym(rng) for _ in range(3)]
    base = dv.contract(xs)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        permuted = dv.contract([xs[i] for i in perm])
        assert (permuted - base).norm() <= 1e-12 * max(1.0, base.norm())


def test_taylor_polynomial_is_exact():
    rng = np.random.default_rng(67)
    p = Polynomial([0.5, -1.0, 2.0, 1.5])
    for _ in range(5):
        a, x = rand_sym(rng), rand_sym(rng)
        got = taylor_eval(p, a, x, 3)
        want = apply_fn(decompose(a + x), p)
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


def test_taylor_zero_direction_returns_value():
    rng = np.random.default_rng(68)
    a = rand_psym(rng)
    got = taylor_eval(Log(), a, SymTensor.zero(), 4)
    want = apply_fn(decompose(a), Log())
    assert (got - want).norm() <= 1e-14


def test_taylor_remainder_shrinks_at_expected_rate():
    rng = np.random.default_rng(69)
    a = rand_psym(rng, 0.6, 2.0)
    x = rand_unit_sym(rng)
    n = 2
    eps = np.geomspace(1e-1, 1e-2, 4)
    rems = []
    for e in eps:
        exact = apply_fn(decompose(a + float(e) * x), Exp())
        rems.append((exact - taylor_eval(Exp(), a, float(e) * x, n)).norm())
    slopes = np.diff(np.log(rems)) / np.diff(np.log(eps))
    assert abs(np.median(slopes) - (n + 1)) < 0.2


def test_taylor_domain_violation():
    a = SymTensor.diag(0.5, 1.0, 2.0)
    x = SymTensor.diag(-1.0, 0.0, 0.0)
    with pytest.raises(Exception):
        taylor_eval(Log(), a, x, 2)


def test_product_rule_constant_factor():
    rng = np.random.default_rng(70)
    a = rand_psym(rng)
    one = Polynomial([1.0])
    got = grad_product_rule(Exp(), one, a)
    want = derivative(Exp(), a, 1).as_fourth_tensor()
    assert np.abs(got.dense() - want.dense()).max() <= 1e-12


def test_product_rule_linear_times_linear():
    rng = np.random.default_rng(71)
    a = rand_sym(rng)
    got = grad_product_rule(Monomial(1), Monomial(1), a)
    x = rand_sym(rng)
    want = a.matrix @ x.matrix + x.matrix @ a.matrix
    assert np.abs(got.apply(x) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_product_rule_matches_direct_derivative():
    rng = np.random.default_rng(72)
    for _ in range(5):
        a = rand_sym(rng)
        got = grad_product_rule(Monomial(2), Monomial(3), a)
        want = derivative(Monomial(5), a, 1).as_fourth_tensor()
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-10 * scale


def test_reciprocal_of_identity_function():
    rng = np.random.default_rng(73)
    a = rand_psym(rng)
    got = grad_reciprocal(Monomial(1), a)
    x = rand_sym(rng)
    ainv = np.linalg.inv(a.matrix)
    want = -ainv @ x.matrix @ ainv
    assert np.abs(got.apply(x) - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def test_reciprocal_of_constant_vanishes():
    rng = np.random.default_rng(74)
    got = grad_reciprocal(Polynomial([2.0]), rand_psym(rng))
    assert np.abs(got.dense()).max() <= 1e-14


def test_reciprocal_matches_direct_derivative():
    rng = np.random.default_rng(75)
    for _ in range(5):
        a = rand_psym(rng)
        got = grad_reciprocal(Monomial(2), a)
        want = derivative(Monomial(-2), a, 1).as_fourth_tensor()
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-10 * scale


def test_reciprocal_rejects_zero_crossing():
    a = SymTensor.diag(-1.0, 0.0, 1.0)
    with pytest.raises(Exception):
        grad_reciprocal(Monomial(1), a)


def test_chain_rule_with_identity_inner():
    rng = np.random.default_rng(76)
    a = rand_psym(rng)
    got = grad_chain_rule(Log(), Monomial(1), a)
    want = derivative(Log(), a, 1).as_fourth_tensor()
    assert np.abs(got.dense() - want.dense()).max() <= 1e-11


def test_chain_rule_exp_after_log_is_identity():
    rng = np.random.default_rng(77)
    a = rand_psym(rng)
    got = grad_chain_rule(Exp(), Log(), a)
    assert np.abs(got.dense() - FourthTensor.identity().dense()).max() <= 1e-10


def test_chain_rule_matches_direct_derivative():
    rng = np.random.default_rng(78)
    for _ in range(5):
        a = rand_psym(rng)
        got = grad_chain_rule(Monomial(2), Monomial(3), a)
        want = derivative(Monomial(6), a, 1).as_fourth_tensor()
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-10 * scale


@pytest.mark.parametrize("f", [Exp(), Log(), Monomial(3), seth_hill(2), seth_hill(-2)])
def test_gradient_commutator_identity(f):
    # (A box I - I box A) grad f(A) acts like f(A) box I - I box f(A)
    rng = np.random.default_rng(79)
    eye = np.eye(3)
    for _ in range(5):
        a = rand_psym(rng)
        fa = apply_fn(decompose(a), f)
        j_a = FourthTensor([(1.0, (a, eye)), (-1.0, (eye, a))])
        j_fa = FourthTensor([(1.0, (fa, eye)), (-1.0, (eye, fa))])
        grad = derivative(f, a, 1).as_fourth_tensor()
        lhs = j_a.compose(grad)
        for _ in range(3):
            x = rand_unit_sym(rng)
            resid = np.abs(lhs.apply(x) - j_fa.apply(x)).max()
            assert resid <= 1e-10


@pytest.mark.parametrize("f", [Exp(), Log(), Monomial(3), seth_hill(2)])
def test_second_derivative_triple_commutator_identity(f):
    # the three-slot commutator of the halved second derivative equals the
    # alternating box expansion of f(A) across the three slots
    rng = np.random.default_rng(80)
    eye = np.eye(3)
    a = rand_psym(rng)
    am = a.matrix
    fa = apply_fn(decompose(a), f).matrix

    def bs(*terms):
        return BoxSum([(w, BoxProduct(*fs)) for w, fs in terms], nfactors=3)

    t1 = bs((1, (am, eye, eye)), (-1, (eye, am, eye)))
    t2 = bs((1, (eye, am, eye)), (-1, (eye, eye, am)))
    t3 = bs((1, (eye, eye, am)), (-1, (am, eye, eye)))
    lhs = t1.compose(t2).compose(t3).compose(derivative(f, a, 2).as_box_sum())
    rhs = bs((1, (fa, eye, am)), (-1, (fa, am, eye)),
             (1, (am, fa, eye)), (-1, (eye, fa, am)),
             (1, (eye, am, fa)), (-1, (am, eye, fa)))
    for _ in range(5):
        x, y = rand_unit_sym(rng), rand_unit_sym(rng)
        resid = np.abs(lhs.contract([x, y]) - rhs.contract([x, y])).max()
        assert resid <= 1e-9


def test_monomial_contractions_match_expansion_terms():
    rng = np.random.default_rng(81)
    for m in range(2, 9):
        for n in range(1, min(4, m) + 1):
            a, x = rand_sym(rng), rand_sym(rng)
            term = expand_monomial(a, x, m).terms[n]
            got = derivative(Monomial(m), a, n).contract([x] * n).matrix
            assert np.abs(got - term).max() <= 1e-10 * max(1.0, np.abs(term).max())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_finite_difference_cross_check(n):
    import math

    rng = np.random.default_rng(82)
    a = rand_psym(rng, 0.6, 1.8)
    xs = [rand_unit_sym(rng) for _ in range(n)]
    dv = derivative(Exp(), a, n)
    want = math.factorial(n) * dv.contract(xs).matrix
    got = finite_diff_derivative(Exp(), a, xs, n)
    assert np.abs(got - want).max() <= 1e-5 * max(1.0, np.abs(want).max())


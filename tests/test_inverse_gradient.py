import math

import numpy as np
import pytest

from tenfun import (
    CoaxialMap,
    DomainError,
    Exp,
    FourthTensor,
    Log,
    Polynomial,
    Power,
    SymTensor,
    apply_fn,
    decompose,
    grad_chain_rule,
    grad_spectral,
    inverse_grad,
    j_pseudo,
    j_tensor,
    jk_decomposition,
    k_pseudo,
    k_tensor,
    log_inverse_integral,
    seth_hill,
    seth_hill_fractional_inverse,
    seth_hill_sum_form,
    sylvester_commutator,
    sylvester_power,
)

from helpers import dense_identity4, rand_psym, rand_sym


def cluster_blocks(s):
    """Projector squares A_i x A_i, then symmetrised pairs A_i x A_j + A_j x A_i,
    as box sums exported from indicator multipliers."""
    blocks = []
    for i, j in [(i, i) for i in range(s.d)] + [(i, j) for i in range(s.d)
                                                for j in range(i + 1, s.d)]:
        g = np.zeros((s.d, s.d))
        g[i, j] = g[j, i] = 1.0
        blocks.append(CoaxialMap.from_clusters(s, g).as_fourth_tensor())
    return blocks


def test_basis_orthogonality_and_completeness():
    rng = np.random.default_rng(91)
    for _ in range(10):
        s = decompose(rand_psym(rng))
        tensors = cluster_blocks(s)
        assert len(tensors) == s.d * (s.d + 1) // 2
        for i, ti in enumerate(tensors):
            for j, tj in enumerate(tensors):
                prod = ti.compose(tj).dense()
                want = ti.dense() if i == j else 0.0
                assert np.abs(prod - want).max() <= 1e-10
        total = sum(t.dense() for t in tensors)
        assert np.abs(total - dense_identity4()).max() <= 1e-12


def test_gradient_of_linear_measure_is_identity():
    rng = np.random.default_rng(92)
    s = decompose(rand_psym(rng))
    g = grad_spectral(seth_hill(1), s)
    assert np.abs(g.dense() - dense_identity4()).max() <= 1e-12


def test_gradient_of_quadratic_measure_action():
    rng = np.random.default_rng(93)
    a = rand_psym(rng)
    s = decompose(a)
    g = grad_spectral(seth_hill(2), s)
    for _ in range(5):
        x = rand_sym(rng)
        want = 0.5 * (a.matrix @ x.matrix + x.matrix @ a.matrix)
        assert np.abs(g.apply(x) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_log_gradient_coefficients_on_two_point_spectrum():
    s = decompose(SymTensor.diag(1.0, math.e, math.e))
    g = grad_spectral(Log(), s)
    # diagonal coefficients 1 and 1/e, pair coefficient 1/(e-1)... the pair
    # ratio for the INVERSE is (e-1); for the gradient it is its reciprocal
    gi = inverse_grad(Log(), s)
    p0, p1 = s.projectors[0].matrix, s.projectors[1].matrix
    x = np.outer([1.0, 0, 0], [0, 1.0, 0]) + np.outer([0, 1.0, 0], [1.0, 0, 0])
    # p0 X p1 extracts the pair block; compare coefficient action there
    pair_in = p0 @ x @ p1 + p1 @ x @ p0
    got = gi.apply(pair_in)
    want = (math.e - 1.0) * pair_in
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    got_diag = g.apply(p0)
    assert np.abs(got_diag - 1.0 * p0).max() <= 1e-12
    got_diag = g.apply(p1)
    assert np.abs(got_diag - (1.0 / math.e) * p1).max() <= 1e-12


def test_inverse_of_reciprocal_measure_is_squared_box():
    rng = np.random.default_rng(94)
    a = rand_psym(rng)
    s = decompose(a)
    gi = inverse_grad(seth_hill(-1), s)
    want = FourthTensor.box(a, a).dense()
    assert np.abs(gi.dense() - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


def test_inverse_of_linear_measure_is_identity():
    rng = np.random.default_rng(95)
    s = decompose(rand_psym(rng))
    gi = inverse_grad(seth_hill(1), s)
    assert np.abs(gi.dense() - dense_identity4()).max() <= 1e-12


def test_gradient_inverse_composition():
    rng = np.random.default_rng(96)
    s = decompose(rand_psym(rng))
    g = grad_spectral(seth_hill(3), s)
    gi = inverse_grad(seth_hill(3), s)
    resid = np.abs(g.compose(gi).dense() - dense_identity4()).max()
    assert resid <= 1e-10


def test_basis_coefficients_positive_for_strain_measures():
    rng = np.random.default_rng(97)
    for _ in range(100):
        s = decompose(rand_psym(rng, 0.2, 5.0))
        for m in range(-3, 4):
            assert np.all(grad_spectral(seth_hill(m), s).multiplier > 0.0)


def test_non_strain_measure_rejected():
    rng = np.random.default_rng(98)
    s = decompose(rand_psym(rng))
    with pytest.raises(DomainError):
        grad_spectral(Exp(), s)


def test_non_positive_spectrum_rejected():
    s = decompose(SymTensor.diag(-1.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        grad_spectral(seth_hill(2), s)
    with pytest.raises(DomainError):
        inverse_grad(seth_hill(2), s)


@pytest.mark.parametrize("m", [1, 2, 3, -1, -2, -3])
def test_power_sum_form_matches_spectral_gradient(m):
    rng = np.random.default_rng(200 + m)
    for _ in range(5):
        a = rand_psym(rng)
        got = seth_hill_sum_form(m, a)
        want = grad_spectral(seth_hill(m), decompose(a))
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-11 * scale


def test_power_sum_quadratic_explicit():
    rng = np.random.default_rng(99)
    a = rand_psym(rng)
    got = seth_hill_sum_form(2, a)
    eye = np.eye(3)
    want = FourthTensor([(0.5, (a, eye)), (0.5, (eye, a))])
    assert np.abs(got.dense() - want.dense()).max() <= 1e-13


def test_fractional_inverse_square_root_case():
    rng = np.random.default_rng(100)
    a = rand_psym(rng)
    s = decompose(a)
    got = seth_hill_fractional_inverse(2, a)
    root = s.power(0.5)
    eye = np.eye(3)
    want = FourthTensor([(0.5, (root, eye)), (0.5, (eye, root))])
    assert np.abs(got.dense() - want.dense()).max() <= 1e-12
    # and it inverts the gradient of the square-root measure
    grad_half = grad_spectral(seth_hill(0.5), s)
    resid = np.abs(got.compose(grad_half).dense() - dense_identity4()).max()
    assert resid <= 1e-10


@pytest.mark.parametrize("m", [2, 3, -2, -3])
def test_fractional_inverse_matches_inverse_grad(m):
    rng = np.random.default_rng(300 + m)
    for _ in range(5):
        a = rand_psym(rng)
        got = seth_hill_fractional_inverse(m, a)
        want = inverse_grad(seth_hill(1.0 / m), decompose(a))
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-10 * scale


def test_fractional_inverse_cubic_explicit():
    rng = np.random.default_rng(101)
    a = rand_psym(rng)
    s = decompose(a)
    third = seth_hill_fractional_inverse(3, a)
    want = (FourthTensor.box(s.power(2 / 3), np.eye(3))
            + FourthTensor.box(s.power(1 / 3), s.power(1 / 3))
            + FourthTensor.box(np.eye(3), s.power(2 / 3))) * (1.0 / 3.0)
    assert np.abs(third.dense() - want.dense()).max() <= 1e-12
    anti = seth_hill_fractional_inverse(-3, a)
    want = (FourthTensor.box(s.power(1 / 3), a)
            + FourthTensor.box(s.power(2 / 3), s.power(2 / 3))
            + FourthTensor.box(a, s.power(1 / 3))) * (1.0 / 3.0)
    assert np.abs(anti.dense() - want.dense()).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_opposite_sign_gradient_relation(m):
    rng = np.random.default_rng(400 + m)
    a = rand_psym(rng)
    s = decompose(a)
    neg = grad_spectral(seth_hill(-m), s)
    pos = grad_spectral(seth_hill(m), s)
    factor = FourthTensor.box(s.power(-m), s.power(-m))
    want = factor.compose(pos.as_fourth_tensor())
    scale = max(1.0, np.abs(want.dense()).max())
    assert np.abs(neg.dense() - want.dense()).max() <= 1e-10 * scale
    neg_inv = inverse_grad(seth_hill(-m), s)
    want_inv = FourthTensor.box(s.power(m), s.power(m)).compose(
        inverse_grad(seth_hill(m), s).as_fourth_tensor())
    scale = max(1.0, np.abs(want_inv.dense()).max())
    assert np.abs(neg_inv.dense() - want_inv.dense()).max() <= 1e-10 * scale


def test_log_integral_on_identity():
    got = log_inverse_integral(SymTensor.identity(), 8)
    assert np.abs(got.dense() - dense_identity4()).max() <= 1e-13


def test_log_integral_two_point_spectrum():
    a = SymTensor.diag(1.0, math.e, math.e)
    got = log_inverse_integral(a, 32)
    s = decompose(a)
    p0, p1 = s.projectors[0].matrix, s.projectors[1].matrix
    x = np.zeros((3, 3))
    x[0, 1] = x[1, 0] = 1.0
    pair_in = p0 @ x @ p1 + p1 @ x @ p0
    # off-diagonal coefficient is (e - 1)/(ln e - ln 1) = e - 1
    got_pair = got.apply(pair_in)
    assert np.abs(got_pair - (math.e - 1.0) * pair_in).max() <= 1e-12


def test_log_integral_converges_to_spectral_inverse():
    rng = np.random.default_rng(102)
    for _ in range(10):
        a = rand_psym(rng, 0.3, 12.0)  # condition up to ~40
        got = log_inverse_integral(a, 32)
        want = inverse_grad(Log(), decompose(a))
        scale = max(1.0, np.abs(want.dense()).max())
        assert np.abs(got.dense() - want.dense()).max() <= 1e-10 * scale


def test_log_integral_rejects_indefinite_input():
    with pytest.raises(DomainError):
        log_inverse_integral(SymTensor.diag(-1.0, 1.0, 2.0))


def test_commutator_zero_rhs():
    rng = np.random.default_rng(103)
    sol = sylvester_commutator(rand_psym(rng), np.zeros((3, 3)))
    assert np.abs(sol.solution).max() == 0.0
    assert sol.null_norm == 0.0


def test_commutator_pseudo_inverse_relations():
    rng = np.random.default_rng(104)
    for _ in range(10):
        a = rand_psym(rng)
        j = j_tensor(a)
        jstar = j_pseudo(a).as_fourth_tensor()
        jjj = j.compose(jstar).compose(j)
        assert np.abs(jjj.dense() - j.dense()).max() <= 1e-10
        sjs = jstar.compose(j).compose(jstar)
        assert np.abs(sjs.dense() - jstar.dense()).max() <= 1e-10


def test_commutator_two_by_two_block():
    a = SymTensor.diag(1.0, 2.0, 3.0)
    y = np.zeros((3, 3))
    y[0, 1], y[1, 0] = 1.0, -1.0  # skew
    sol = sylvester_commutator(a, y)
    x = sol.solution
    assert x[0, 1] == pytest.approx(-1.0, rel=1e-14)  # 1/(1-2)
    assert np.abs(x - x.T).max() <= 1e-14  # opposite parity: symmetric
    am = a.matrix
    assert np.abs(am @ x - x @ am - y).max() <= 1e-13
    assert sol.null_norm <= 1e-15


def test_commutator_reports_null_component():
    rng = np.random.default_rng(105)
    a = rand_psym(rng)
    s = decompose(a)
    y = s.projectors[0].matrix  # commutes with A: entirely unsolvable
    sol = sylvester_commutator(a, y)
    assert sol.null_norm == pytest.approx(np.linalg.norm(y), rel=1e-12)
    # nothing of y lies in the attainable range, so the projected solution is zero
    assert np.abs(sol.solution).max() <= 1e-12


def test_commutator_isotropic_input():
    a = SymTensor.diag(2.0, 2.0, 2.0)
    sol = sylvester_commutator(a, np.zeros((3, 3)))
    assert np.abs(sol.solution).max() == 0.0
    y = np.zeros((3, 3))
    y[0, 1] = y[1, 0] = 1.0
    with pytest.raises(DomainError):
        sylvester_commutator(a, y)


def test_power_solver_embedded_two_by_two():
    a = SymTensor.diag(1.0, 2.0, 3.0)
    c = SymTensor.from_matrix([[2.0, 3.0, 0.0], [3.0, 8.0, 0.0], [0.0, 0.0, 6.0]])
    x = sylvester_power(2, a, c)
    want = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(x.matrix - want).max() <= 1e-13


def test_power_solver_linear_case_returns_rhs():
    rng = np.random.default_rng(106)
    a, c = rand_psym(rng), rand_sym(rng)
    x = sylvester_power(1, a, c)
    assert (x - c).norm() <= 1e-13 * max(1.0, c.norm())


@pytest.mark.parametrize("m", [2, 3, 5])
def test_power_solver_back_substitution(m):
    rng = np.random.default_rng(500 + m)
    for _ in range(10):
        a, c = rand_psym(rng), rand_sym(rng)
        x = sylvester_power(m, a, c).matrix
        am = a.matrix
        lhs = sum(np.linalg.matrix_power(am, m - k) @ x @ np.linalg.matrix_power(am, k - 1)
                  for k in range(1, m + 1))
        assert np.abs(lhs - c.matrix).max() <= 1e-11 * max(1.0, c.norm())


def test_power_solver_rejects_indefinite():
    with pytest.raises(DomainError):
        sylvester_power(2, SymTensor.diag(-1.0, 1.0, 2.0), SymTensor.identity())


def test_jk_linear_measure_assembles_identity():
    rng = np.random.default_rng(107)
    a = rand_psym(rng)
    grad, inv = jk_decomposition(seth_hill(1), a)
    assert np.abs(grad.dense() - dense_identity4()).max() <= 1e-10
    assert np.abs(inv.dense() - dense_identity4()).max() <= 1e-10


def test_jjstar_kkstar_closure():
    rng = np.random.default_rng(108)
    for _ in range(10):
        a = rand_psym(rng)
        closure = (j_tensor(a).compose(j_pseudo(a).as_fourth_tensor())
                   + k_tensor(a).compose(k_pseudo(a)).as_fourth_tensor())
        assert np.abs(closure.dense() - dense_identity4()).max() <= 1e-10


def test_jk_decomposition_matches_spectral_forms():
    rng = np.random.default_rng(109)
    for f in (Log(), seth_hill(2), seth_hill(-2)):
        a = rand_psym(rng)
        s = decompose(a)
        grad, inv = jk_decomposition(f, a)
        want_g = grad_spectral(f, s)
        want_i = inverse_grad(f, s)
        assert np.abs(grad.dense() - want_g.dense()).max() <= 1e-10 * max(
            1.0, np.abs(want_g.dense()).max())
        assert np.abs(inv.dense() - want_i.dense()).max() <= 1e-10 * max(
            1.0, np.abs(want_i.dense()).max())


def test_commutator_annihilates_projectors():
    rng = np.random.default_rng(110)
    a = rand_psym(rng)
    s = decompose(a)
    j = j_tensor(a)
    for p in s.projectors:
        assert np.abs(j.apply(p)).max() <= 1e-12 * max(1.0, a.norm())


def test_jstar_j_is_identity_minus_diagonal_blocks():
    rng = np.random.default_rng(111)
    a = rand_psym(rng)
    s = decompose(a)
    diag = sum(t.dense() for t in cluster_blocks(s)[:s.d])
    jstar = j_pseudo(a).as_fourth_tensor()
    left = jstar.compose(j_tensor(a)).dense()
    right = j_tensor(a).compose(jstar).dense()
    want = dense_identity4() - diag
    assert np.abs(left - want).max() <= 1e-10
    assert np.abs(right - want).max() <= 1e-10


def test_inverse_function_gradient_identity():
    # for the quadratic measure f(x) = (x^2 - 1)/2 the inverse function is
    # sqrt(2 y + 1); its gradient equals the inverse gradient of f there
    from tenfun import CallbackFn

    rng = np.random.default_rng(112)
    finv = CallbackFn([lambda x: math.sqrt(2.0 * x + 1.0)], domain=lambda x: x > -0.5)
    for _ in range(5):
        a = rand_psym(rng, 0.6, 2.0)
        lhs = grad_chain_rule(Power(0.5), Polynomial([1.0, 2.0]), a)
        finv_a = apply_fn(decompose(a), finv)
        rhs = inverse_grad(seth_hill(2), decompose(finv_a))
        scale = max(1.0, np.abs(rhs.dense()).max())
        assert np.abs(lhs.dense() - rhs.dense()).max() <= 1e-9 * scale

import math

import numpy as np
import pytest

from tenfun import (
    CallbackFn,
    DomainError,
    Exp,
    Log,
    Monomial,
    ParseError,
    Polynomial,
    Power,
    StrainMeasureFn,
    parse_fn_spec,
    seth_hill,
)

from helpers import fd_scalar_derivative


def test_seth_hill_quadratic_value():
    # (3**2 - 1)/2
    assert seth_hill(2).deriv(0, 3.0) == pytest.approx(4.0, abs=1e-15)


def test_exp_high_order_at_zero():
    assert Exp().deriv(5, 0.0) == 1.0


def test_monomial_third_derivative():
    # 7*6*5 * 2**4, frozen from the falling-factorial oracle
    assert Monomial(7).deriv(3, 2.0) == pytest.approx(3360.0, rel=1e-15)


def test_seth_hill_linear_and_log_limits():
    f1 = seth_hill(1)
    assert f1(5.0) == 4.0
    assert f1.deriv(1, 5.0) == 1.0
    f0 = seth_hill(0)
    assert f0(1.0) == 0.0
    assert f0.deriv(1, 1.0) == 1.0
    assert f0(math.e) == pytest.approx(1.0, rel=1e-15)


def test_seth_hill_negative_exponent_value():
    # -(4**-2 - 1)/2 = 15/32
    assert seth_hill(-2)(4.0) == pytest.approx(15.0 / 32.0, rel=1e-15)


@pytest.mark.parametrize("f,xs", [
    (Exp(), [-1.2, 0.4, 1.7]),
    (Log(), [0.9, 1.4, 2.2]),
    (Monomial(6), [-1.1, 0.6, 1.8]),
    (Monomial(-2), [1.0, 1.6, 2.5]),
    (Power(2.5), [0.9, 1.6, 3.0]),
    (Polynomial([1.0, -2.0, 0.0, 0.5, 3.0]), [-1.3, 0.2, 1.1]),
    (seth_hill(3), [0.9, 1.3, 2.2]),
    (seth_hill(-2), [0.9, 1.3, 2.2]),
    (seth_hill(0), [0.9, 1.3, 2.2]),
])
def test_derivatives_match_finite_differences(f, xs):
    # grid points sit in the domain interior; agreement is 1e-6 relative up
    # to the oracle's own measured resolution (inverse powers at order 5 sit
    # exactly at the float64 finite-difference optimum)
    for x in xs:
        for order in range(6):
            exact = f.deriv(order, x)
            approx, gap = fd_scalar_derivative(lambda t: f(t), order, x)
            assert abs(exact - approx) <= 1e-6 * abs(exact) + 4.0 * gap + 1e-12


@pytest.mark.parametrize("m", list(range(-12, 13)))
def test_strain_measure_normalisation_exact(m):
    f = seth_hill(m)
    assert f(1.0) == 0.0
    assert f.deriv(1, 1.0) == 1.0


@pytest.mark.parametrize("m", [-3, -1, 0, 0.5, 2, 7])
def test_strain_measure_monotone(m):
    f = seth_hill(m)
    for x in np.linspace(0.05, 10.0, 40):
        assert f.deriv(1, float(x)) > 0.0


def test_polynomial_derivatives():
    p = Polynomial([1.0, 0.0, -2.0])  # 1 - 2 x**2
    assert p(2.0) == -7.0
    assert p.deriv(1, 2.0) == -8.0
    assert p.deriv(2, 2.0) == -4.0
    assert p.deriv(3, 2.0) == 0.0
    assert p.deriv(9, 0.3) == 0.0


def test_callback_declared_order_enforced():
    f = CallbackFn([math.sin, math.cos, lambda x: -math.sin(x)])
    assert f.deriv(2, 0.3) == pytest.approx(-math.sin(0.3))
    with pytest.raises(ValueError):
        f.deriv(3, 0.3)


def test_callback_domain_predicate():
    f = CallbackFn([math.log], domain=lambda x: x > 0)
    with pytest.raises(DomainError):
        f(0.0)


def test_strain_measure_wrapper_validates():
    ok = StrainMeasureFn(CallbackFn(
        [lambda x: x - 1.0, lambda x: 1.0, lambda x: 0.0],
        domain=lambda x: x > 0))
    assert ok.is_strain_measure
    with pytest.raises(ValueError):
        StrainMeasureFn(Exp())


def test_domain_violations_raise():
    with pytest.raises(DomainError):
        Log()(0.0)
    with pytest.raises(DomainError):
        Monomial(-1)(-2.0)
    with pytest.raises(DomainError):
        Power(0.5)(-1.0)
    with pytest.raises(DomainError):
        seth_hill(2)(-1.0)


def test_parse_fn_spec_roundtrip():
    assert isinstance(parse_fn_spec("exp"), Exp)
    assert isinstance(parse_fn_spec("log"), Log)
    assert parse_fn_spec("sqrt").p == 0.5
    assert parse_fn_spec("monomial:3").m == 3
    assert parse_fn_spec("seth_hill:-2").m == -2.0
    assert parse_fn_spec("poly:1,0,-2").coeffs == (1.0, 0.0, -2.0)
    assert parse_fn_spec("power:0.5").p == 0.5
    with pytest.raises(ParseError):
        parse_fn_spec("sinh")
    with pytest.raises(ParseError):
        parse_fn_spec("monomial:x")

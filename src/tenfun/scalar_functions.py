"""Scalar function families with exact derivatives of every order.

These feed the coefficient formulas, which need analytic derivatives: finite
differencing is never used here.  User-supplied functions enter only as
callback lists with a declared maximum derivative order and fail loudly past
it.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DomainError, ParseError

__all__ = [
    "ScalarFn",
    "Monomial",
    "Power",
    "Exp",
    "Log",
    "Polynomial",
    "SethHill",
    "CallbackFn",
    "StrainMeasureFn",
    "seth_hill",
    "parse_fn_spec",
]


def _falling(p: float, k: int) -> float:
    """Falling factorial p(p-1)...(p-k+1); empty product is 1."""
    out = 1.0
    for i in range(k):
        out *= p - i
    return out


class ScalarFn:
    """Scalar function of one real variable with exact derivatives.

    Subclasses implement ``_deriv(order, x)``; the public ``deriv`` guards the
    domain first.  ``is_strain_measure`` marks functions with f(1)=0,
    f'(1)=1, f'>0 on the positive axis.
    """

    is_strain_measure = False

    def in_domain(self, x: float) -> bool:
        return True

    def deriv(self, order: int, x: float) -> float:
        if order < 0 or order != int(order):
            raise ValueError(f"derivative order must be a non-negative integer, got {order}")
        x = float(x)
        if not self.in_domain(x):
            raise DomainError(f"{self!r} is undefined at x = {x}")
        return self._deriv(int(order), x)

    def _deriv(self, order: int, x: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        return self.deriv(0, x)


class Monomial(ScalarFn):
    """x**m for integer m; negative m restricted to x > 0."""

    def __init__(self, m: int):
        if m != int(m):
            raise ValueError(f"monomial exponent must be an integer, got {m}")
        self.m = int(m)

    def in_domain(self, x: float) -> bool:
        return x > 0.0 if self.m < 0 else True

    def _deriv(self, order, x):
        if self.m >= 0 and order > self.m:
            return 0.0
        return _falling(self.m, order) * x ** (self.m - order)

    def __repr__(self):
        return f"Monomial({self.m})"


class Power(ScalarFn):
    """x**p for real p, on x > 0."""

    def __init__(self, p: float):
        self.p = float(p)

    def in_domain(self, x: float) -> bool:
        return x > 0.0

    def _deriv(self, order, x):
        return _falling(self.p, order) * x ** (self.p - order)

    def __repr__(self):
        return f"Power({self.p})"


class Exp(ScalarFn):
    def _deriv(self, order, x):
        return math.exp(x)

    def __repr__(self):
        return "Exp()"


class Log(ScalarFn):
    """Natural logarithm; a strain measure (log(1)=0, derivative 1 there)."""

    is_strain_measure = True

    def in_domain(self, x: float) -> bool:
        return x > 0.0

    def _deriv(self, order, x):
        if order == 0:
            return math.log(x)
        sign = 1.0 if order % 2 == 1 else -1.0
        return sign * math.factorial(order - 1) * x ** (-order)

    def __repr__(self):
        return "Log()"


class Polynomial(ScalarFn):
    """Polynomial with coefficients in ascending degree order: c0 + c1 x + ..."""

    def __init__(self, coeffs: Sequence[float]):
        coeffs = [float(c) for c in coeffs]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        self.coeffs = tuple(coeffs)

    def _deriv(self, order, x):
        c = list(self.coeffs)
        for _ in range(order):
            c = [k * c[k] for k in range(1, len(c))]
            if not c:
                return 0.0
        out = 0.0
        for ck in reversed(c):
            out = out * x + ck
        return out

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


class SethHill(ScalarFn):
    """Seth-Hill strain measure (x**m - 1)/m, with the m = 0 limit log(x).

    Normalised so that f(1) = 0 and f'(1) = 1 hold exactly for every m, and
    f'(x) = x**(m-1) > 0 on the positive axis.
    """

    is_strain_measure = True

    def __init__(self, m: float):
        self.m = float(m)
        self._log = Log() if self.m == 0.0 else None

    def in_domain(self, x: float) -> bool:
        return x > 0.0

    def _deriv(self, order, x):
        if self._log is not None:
            return self._log._deriv(order, x)
        if order == 0:
            return (x ** self.m - 1.0) / self.m
        # derivatives of x**m / m: the leading m cancels exactly
        return _falling(self.m - 1.0, order - 1) * x ** (self.m - order)

    def __repr__(self):
        return f"SethHill({self.m:g})"


def seth_hill(m: float) -> SethHill:
    """Strain measure (x**m - 1)/m; m = 0 yields the logarithmic measure."""
    return SethHill(m)


class CallbackFn(ScalarFn):
    """User-supplied function given as a list of derivative callables.

    ``derivs[l]`` evaluates the l-th derivative; orders past the declared
    list raise instead of being approximated.
    """

    def __init__(self, derivs: Sequence[Callable[[float], float]],
                 domain: Callable[[float], bool] | None = None):
        if not derivs:
            raise ValueError("need at least the value callable")
        self.derivs = tuple(derivs)
        self.max_order = len(self.derivs) - 1
        self._domain = domain

    def in_domain(self, x: float) -> bool:
        return True if self._domain is None else bool(self._domain(x))

    def _deriv(self, order, x):
        if order > self.max_order:
            raise ValueError(
                f"derivative order {order} exceeds the declared maximum {self.max_order}")
        return float(self.derivs[order](x))

    def __repr__(self):
        return f"CallbackFn(max_order={self.max_order})"


class StrainMeasureFn(ScalarFn):
    """Wrap an arbitrary ScalarFn, validating the strain-measure constraints.

    Checks f(1) = 0 and f'(1) = 1 to rounding, and spot-checks f' > 0 on a
    grid of (0, 10].
    """

    is_strain_measure = True

    def __init__(self, fn: ScalarFn):
        if abs(fn.deriv(0, 1.0)) > 1e-12:
            raise ValueError("strain measure must satisfy f(1) = 0")
        if abs(fn.deriv(1, 1.0) - 1.0) > 1e-12:
            raise ValueError("strain measure must satisfy f'(1) = 1")
        for x in (0.05, 0.5, 1.0, 2.0, 5.0, 10.0):
            if fn.in_domain(x) and fn.deriv(1, x) <= 0.0:
                raise ValueError(f"strain measure must be increasing, f'({x}) <= 0")
        self.fn = fn

    def in_domain(self, x: float) -> bool:
        return x > 0.0 and self.fn.in_domain(x)

    def _deriv(self, order, x):
        return self.fn._deriv(order, x)

    def __repr__(self):
        return f"StrainMeasureFn({self.fn!r})"


def parse_fn_spec(spec: str) -> ScalarFn:
    """Parse a function spec string.

    Grammar: a family name, optionally followed by ':' and a parameter.
    Families: ``exp``, ``log``, ``sqrt``, ``monomial:<int>``,
    ``power:<real>``, ``poly:<c0>,<c1>,...`` (ascending degree) and
    ``seth_hill:<real>``.
    """
    spec = spec.strip()
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "exp":
            return Exp()
        if name == "log":
            return Log()
        if name == "sqrt":
            return Power(0.5)
        if name == "monomial":
            return Monomial(int(arg))
        if name == "power":
            return Power(float(arg))
        if name == "poly":
            return Polynomial([float(c) for c in arg.split(",")])
        if name == "seth_hill":
            return seth_hill(float(arg))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad parameter in function spec {spec!r}: {exc}") from exc
    raise ParseError(f"unknown function family in spec {spec!r}")

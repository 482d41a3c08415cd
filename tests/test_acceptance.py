"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS/FAIL line (run with ``pytest -s`` to see them all);
tolerances are pinned here and nowhere else.
"""
import math

import numpy as np
import pytest

from tenfun import (
    Exp,
    FourthTensor,
    IndexClass,
    Log,
    Monomial,
    Polynomial,
    Power,
    apply_fn,
    build_table,
    coeff_closed_form,
    coeff_divided_difference,
    coeff_interpolation,
    coeff_residue,
    count_classes,
    decompose,
    derivative,
    enumerate_classes,
    expand_monomial,
    grad_spectral,
    inverse_grad,
    j_pseudo,
    j_tensor,
    k_pseudo,
    k_tensor,
    log_inverse_integral,
    seth_hill,
    seth_hill_sum_form,
    sylvester_power,
    taylor_eval,
)
from tenfun.multilinear import BoxProduct, BoxSum

from helpers import (
    coeffs_agree,
    dense_identity4,
    fn_magnitude,
    monomial_power_sum,
    rand_psym,
    rand_sym,
    rand_unit_sym,
    separated_nodes,
    sym_from_eigs,
)


def report(number: int, description: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_taylor_remainder_order():
    """Remainder of the order-n expansion shrinks like eps**(n+1).

    The slope is the median of pairwise log-log slopes over the grid points
    whose remainder is resolvable above the float64 roundoff floor (at n = 4
    the mathematical remainder near eps = 1e-3 drops below machine noise on
    the value scale, where no order can be measured in double precision).
    """
    rng = np.random.default_rng(1001)
    eps = np.geomspace(1e-1, 1e-3, 5)
    fns = [(Exp(), 4), (Log(), 4), (Monomial(3), 2), (seth_hill(-2), 4)]
    ok = True
    worst = 0.0
    macheps = float(np.finfo(float).eps)
    for f, nmax in fns:
        for _ in range(20):
            a = rand_psym(rng, 0.25, 4.0)  # condition <= 16
            x = rand_unit_sym(rng)
            floor = 100.0 * macheps * max(1.0, apply_fn(decompose(a), f).norm())
            for n in range(1, nmax + 1):
                rems = []
                for e in eps:
                    xe = float(e) * x
                    exact = apply_fn(decompose(a + xe), f)
                    rems.append((exact - taylor_eval(f, a, xe, n)).norm())
                resolved = [(e, r) for e, r in zip(eps, rems) if r > floor]
                assert len(resolved) >= 2, "remainder never rose above roundoff"
                es = np.log([e for e, _ in resolved])
                rs = np.log([r for _, r in resolved])
                slopes = np.diff(rs) / np.diff(es)
                dev = abs(float(np.median(slopes)) - (n + 1))
                worst = max(worst, dev)
                ok = ok and dev <= 0.2
    report(1, f"taylor remainder log-log slope n+1 +/- 0.2 (worst dev {worst:.3f})", ok)


def test_criterion_2_monomial_oracle_equivalence():
    """Assembled derivative contraction equals the enumerated expansion term."""
    rng = np.random.default_rng(1002)
    ok = True
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, min(4, m) + 1))
        a, x = rand_sym(rng), rand_sym(rng)
        term = expand_monomial(a, x, m).terms[n]
        assembled = derivative(Monomial(m), a, n).contract([x] * n).matrix
        rel = np.abs(assembled - term).max() / max(1.0, np.abs(term).max())
        worst = max(worst, rel)
        ok = ok and rel <= 1e-10
    report(2, f"monomial expansion oracle, 50 cases (worst rel {worst:.2e})", ok)


def _random_coefficient_cases(rng, count):
    fns = [Exp(), Log(), Power(2.5), seth_hill(2), seth_hill(-2),
           Monomial(5), Monomial(6), Monomial(7), Monomial(8),
           Polynomial([0.3, -1.0, 0.2, 0.5, -0.1, 0.7])]
    for _ in range(count):
        n = int(rng.integers(1, 5))
        patterns = enumerate_classes(n)
        nu = patterns[int(rng.integers(0, len(patterns)))]
        active = sum(1 for v in nu if v > 0)
        while True:
            alphas = np.sort(rng.uniform(0.5, 3.0, active))
            if active == 1 or np.all(np.diff(alphas) >= 0.1):
                break
        labels = [-1] * (3 - active) + list(range(active))
        yield fns[int(rng.integers(0, len(fns)))], IndexClass(tuple(nu), tuple(labels)), alphas


def test_criterion_3_coefficient_three_way_agreement():
    """Divided-difference, residue and interpolation paths agree to 1e-8."""
    rng = np.random.default_rng(1003)
    closed_patterns = 0
    ok = True
    for f, cls, alphas in _random_coefficient_cases(rng, 500):
        fmag = fn_magnitude(f, cls.nodes(alphas))
        dd = coeff_divided_difference(f, cls.nodes(alphas))
        res = coeff_residue(f, cls, alphas)
        itp = coeff_interpolation(f, cls, alphas)
        ok = ok and coeffs_agree((dd, res, itp), fmag, 1e-8)
        try:
            cf = coeff_closed_form(f, cls, alphas)
        except ValueError:
            continue
        closed_patterns += 1
        ok = ok and coeffs_agree((dd, cf), fmag, 1e-8)
    assert closed_patterns > 100
    report(3, f"coefficient paths agree on 500 cases ({closed_patterns} closed-form)", ok)


def test_criterion_4_class_count_formula():
    """Closed count formula equals enumeration; small-order values match."""
    ok = all(count_classes(n) == len(enumerate_classes(n)) for n in range(1, 31))
    ok = ok and [count_classes(n) for n in (1, 2, 3, 4)] == [2, 3, 4, 5]
    report(4, "independent-coefficient count formula, n = 1..30", ok)


def test_criterion_5_commutator_identities():
    """First- and second-derivative commutator identities hold as maps."""
    rng = np.random.default_rng(1005)
    eye = np.eye(3)
    fns = [Exp(), Log(), Monomial(3), seth_hill(2), seth_hill(-2)]
    ok = True
    worst1 = worst2 = 0.0
    for f in fns:
        for _ in range(4):
            a = rand_psym(rng)
            am = a.matrix
            fa = apply_fn(decompose(a), f).matrix
            grad = derivative(f, a, 1).as_fourth_tensor()
            lhs4 = FourthTensor([(1.0, (am, eye)), (-1.0, (eye, am))]).compose(grad)
            rhs4 = FourthTensor([(1.0, (fa, eye)), (-1.0, (eye, fa))])

            def bs(*terms):
                return BoxSum([(w, BoxProduct(*fs)) for w, fs in terms], nfactors=3)

            t1 = bs((1, (am, eye, eye)), (-1, (eye, am, eye)))
            t2 = bs((1, (eye, am, eye)), (-1, (eye, eye, am)))
            t3 = bs((1, (eye, eye, am)), (-1, (am, eye, eye)))
            lhs6 = t1.compose(t2).compose(t3).compose(derivative(f, a, 2).as_box_sum())
            rhs6 = bs((1, (fa, eye, am)), (-1, (fa, am, eye)),
                      (1, (am, fa, eye)), (-1, (eye, fa, am)),
                      (1, (eye, am, fa)), (-1, (am, eye, fa)))
            for _ in range(3):
                x, y = rand_unit_sym(rng), rand_unit_sym(rng)
                r1 = np.abs(lhs4.apply(x) - rhs4.apply(x)).max()
                r2 = np.abs(lhs6.contract([x, y]) - rhs6.contract([x, y])).max()
                worst1, worst2 = max(worst1, r1), max(worst2, r2)
                ok = ok and r1 <= 1e-10 and r2 <= 1e-9
    report(5, f"commutator identities (first {worst1:.2e}, second {worst2:.2e})", ok)


def test_criterion_6_partial_fraction_identity():
    """Partial-fraction sum equals the brute-force monomial sum."""
    rng = np.random.default_rng(1006)
    ok = True
    worst = 0.0
    for n in range(1, 7):
        for m in range(n, 11):
            nodes = separated_nodes(rng, n + 1, 0.5, 2.0)
            rhs = 0.0
            for i, xi in enumerate(nodes):
                denom = 1.0
                for j, xj in enumerate(nodes):
                    if i != j:
                        denom *= xi - xj
                rhs += xi ** m / denom
            lhs = monomial_power_sum(m, nodes)
            rel = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-8
    report(6, f"partial-fraction monomial identity m <= 10, n <= 6 (worst {worst:.2e})", ok)


def test_criterion_7_confluence_limit():
    """Split-node coefficient converges linearly to the confluent value.

    The mathematical difference is bounded by the next scaled derivative
    times delta.  Divided differences additionally amplify roundoff by about
    eps/delta**n (the very cancellation the clustering gap guards against),
    so the measured difference is held to the linear bound plus that floor,
    and to the bare linear bound wherever the floor is negligible.
    """
    ok = True
    macheps = float(np.finfo(float).eps)
    for f in (Exp(), Log()):
        for n in (1, 2, 3, 4):
            ak = 1.1
            limit = f.deriv(n, ak) / math.factorial(n)
            grid = np.linspace(ak, ak + 0.11, 50)
            fmag = max(abs(f.deriv(0, float(t))) for t in grid)
            c_bound = 1.1 * max(abs(f.deriv(n + 1, float(t))) for t in grid) \
                / math.factorial(n + 1)
            clean_points = 0
            for delta in np.geomspace(1e-3, 1e-1, 9):
                delta = float(delta)
                val = coeff_divided_difference(f, [ak + delta] + [ak] * n)
                diff = abs(val - limit)
                floor = 10.0 * (n + 1) * macheps * fmag / delta ** n
                ok = ok and diff <= c_bound * delta + floor
                if floor <= 0.05 * c_bound * delta:
                    clean_points += 1
                    ok = ok and diff <= c_bound * delta
            ok = ok and clean_points >= 5
    report(7, "split-node coefficient converges linearly to confluent value", ok)


def test_criterion_8_inverse_gradient_composition():
    """Gradient composed with its inverse is the fourth-order identity."""
    rng = np.random.default_rng(1008)
    fns = [seth_hill(m) for m in range(-3, 4)] + [Log()]
    ident = dense_identity4()
    ok = True
    worst = 0.0
    for f in fns:
        for _ in range(5):
            s = decompose(rand_psym(rng, 0.3, 3.0))
            resid = np.abs(grad_spectral(f, s).compose(inverse_grad(f, s)).dense()
                           - ident).max()
            worst = max(worst, resid)
            ok = ok and resid <= 1e-10
    report(8, f"inverse gradient composition, m in -3..3 and log (worst {worst:.2e})", ok)


def test_criterion_9_power_sum_and_quadrature_forms():
    """Power-sum gradients and the log-measure quadrature match spectral forms."""
    rng = np.random.default_rng(1009)
    ok = True
    worst_sum = worst_quad = 0.0
    for m in (1, 2, 3, -1, -2, -3):
        for _ in range(5):
            a = rand_psym(rng)
            s = decompose(a)
            got = seth_hill_sum_form(m, a).dense()
            want = grad_spectral(seth_hill(m), s).dense()
            rel = np.abs(got - want).max() / max(1.0, np.abs(want).max())
            worst_sum = max(worst_sum, rel)
            ok = ok and rel <= 1e-11
    for _ in range(10):
        a = rand_psym(rng, 0.2, 20.0)  # condition <= 100
        got = log_inverse_integral(a, 32).dense()
        want = inverse_grad(Log(), decompose(a)).dense()
        rel = np.abs(got - want).max() / max(1.0, np.abs(want).max())
        worst_quad = max(worst_quad, rel)
        ok = ok and rel <= 1e-10
    report(9, f"power sums {worst_sum:.2e}, 32-point quadrature {worst_quad:.2e}", ok)


def test_criterion_10_sylvester_solvers():
    """Back-substitution residuals and Moore-Penrose relations."""
    rng = np.random.default_rng(1010)
    ok = True
    worst = 0.0
    for m in (1, 2, 3, 5):
        for _ in range(5):
            a, c = rand_psym(rng), rand_sym(rng)
            x = sylvester_power(m, a, c).matrix
            am = a.matrix
            lhs = sum(np.linalg.matrix_power(am, m - k) @ x @ np.linalg.matrix_power(am, k - 1)
                      for k in range(1, m + 1))
            resid = np.abs(lhs - c.matrix).max() / max(c.norm(), 1e-30)
            worst = max(worst, resid)
            ok = ok and resid <= 1e-11
    ident = dense_identity4()
    for _ in range(10):
        a = rand_psym(rng)
        j, jstar = j_tensor(a), j_pseudo(a).as_fourth_tensor()
        ok = ok and np.abs(j.compose(jstar).compose(j).dense() - j.dense()).max() <= 1e-10
        ok = ok and np.abs(jstar.compose(j).compose(jstar).dense()
                           - jstar.dense()).max() <= 1e-10
        closure = j.compose(jstar) + k_tensor(a).compose(k_pseudo(a)).as_fourth_tensor()
        ok = ok and np.abs(closure.dense() - ident).max() <= 1e-10
    report(10, f"sylvester solvers and pseudo-inverse relations (worst {worst:.2e})", ok)


def test_criterion_11_classical_coefficient_tables():
    """Assembled first and second derivative tables match the classical forms."""
    rng = np.random.default_rng(1011)
    ok = True
    worst = 0.0

    def close(got, want):
        nonlocal ok, worst
        rel = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, rel)
        ok = ok and rel <= 1e-12

    for f in (Exp(), Log(), seth_hill(-2)):
        for _ in range(10):
            a = sym_from_eigs(rng, separated_nodes(rng, 3, 0.5, 3.0))
            s = decompose(a)
            al = [float(v) for v in s.alphas]
            t1 = build_table(f, s, 1)
            for i in range(3):
                close(t1.get((i, i)), f.deriv(1, al[i]))
                for j in range(i + 1, 3):
                    close(t1.get((i, j)), (f(al[i]) - f(al[j])) / (al[i] - al[j]))
            t2 = build_table(f, s, 2)
            for i in range(3):
                close(t2.get((i, i, i)), 0.5 * f.deriv(2, al[i]))
                for j in range(3):
                    if i == j:
                        continue
                    want = (f(al[j]) - f(al[i]) - (al[j] - al[i]) * f.deriv(1, al[i])) \
                        / (al[j] - al[i]) ** 2
                    close(t2.get((i, i, j)), want)
            want = 0.0
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                want += f(al[i]) / ((al[i] - al[j]) * (al[i] - al[k]))
            close(t2.get((0, 1, 2)), want)
    report(11, f"first/second derivative coefficient tables (worst rel {worst:.2e})", ok)

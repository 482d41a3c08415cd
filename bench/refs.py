"""Reference values that share no algorithm with tenfun's production path.

Two routes:

* Cauchy/resolvent integrals in double precision, for well-separated
  spectra.  With R(z) = (zI - A)^-1,

      f(A)                       = (1/2 pi i) oint f(z) R dz
      D^n f(A)[X1..Xn] / n!      = (1/n!) sum_sigma (1/2 pi i) oint f(z) R X_s1 R ... X_sn R dz

  evaluated by the trapezoid rule on a circle around the spectrum (no
  eigendecomposition, no divided differences).
* Confluent divided differences by partial fractions (residues) in mpmath,
  at a precision of 50 digits plus whatever cancellation the node gaps can
  cost, on eigenvalues obtained as roots of the exact characteristic
  polynomial of the float matrix.  Used for near-confluent spectra.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# scalar families, evaluated independently of tenfun.scalar_functions


def complex_fn(spec: str):
    """f on complex arguments (principal branches), for contour integrals."""
    name, _, arg = spec.partition(":")
    if name == "exp":
        return np.exp
    if name == "log":
        return np.log
    if name == "sqrt":
        return np.sqrt
    if name == "seth_hill":
        m = float(arg)
        if m == 0.0:
            return np.log
        return lambda z: (np.power(z, m) - 1.0) / m
    raise ValueError(f"no complex form for {spec!r}")


def entire(spec: str) -> bool:
    name, _, arg = spec.partition(":")
    return name == "exp" or (name == "seth_hill" and float(arg) in (1.0, 2.0))


# ---------------------------------------------------------------------------
# resolvent route (double precision, batched over ops)


def contour(lo: np.ndarray, hi: np.ndarray, is_entire: bool, points: int):
    """Trapezoid nodes z and weights w with (1/2 pi i) oint g dz ~ sum w g(z).

    One circle per op around [lo, hi].  For functions with a singularity at
    0 (lo > 0 is required) the radius is at least the geometric mean of the
    spectrum's half-width and the centre's distance to 0, which balances the
    two geometric error terms, and at least 0.65 of that distance, which
    keeps the circle far from a narrow spectrum (less cancellation).
    """
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if is_entire:
        r = half + np.maximum(1.0, half)
    else:
        r = np.maximum(np.sqrt(half * c), 0.65 * c)
    # f and A are real, so the lower half of the circle mirrors the upper:
    # integrate over the upper half and double (integrate() keeps real parts)
    theta = 2.0 * np.pi * (np.arange(points // 2) + 0.5) / points
    e = np.exp(1j * theta)
    z = c[:, None] + r[:, None] * e[None, :]
    w = 2.0 * (r[:, None] * e[None, :]) / points
    return z, w


def resolvents(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R[k, j] = (z[k, j] I - A[k])^-1 for a stack of matrices A (K,3,3)."""
    eye = np.eye(3)
    return np.linalg.inv(z[:, :, None, None] * eye - a[:, None, :, :])


def integrate(fz: np.ndarray, w: np.ndarray, chain: np.ndarray):
    """Real part of sum_j w f(z_j) chain_j per op, and the sum of the terms'
    norms: the scale of the rounding error the sum can carry."""
    value = np.einsum("kj,kjab->kab", fz * w, chain).real
    scale = np.einsum("kj,kj->k", np.abs(fz * w), np.linalg.norm(chain, axis=(-2, -1)))
    return value, scale


def close(got: np.ndarray, ref: np.ndarray, scale, rel: float):
    """|got - ref| <= rel |ref| + 1e-12 max(scale, 1), Frobenius norms per matrix.

    The workloads keep f values and directions of order 1, so 1e-12 is also
    the floor for results that vanish (derivatives of seth_hill:2 past order 2).
    """
    norm = lambda m: np.linalg.norm(m, axis=(-2, -1))  # noqa: E731
    return norm(got - ref) <= rel * norm(ref) + 1e-12 * np.maximum(scale, 1.0)


def chain_equal(r: np.ndarray, x: np.ndarray, n: int) -> list[np.ndarray]:
    """[R, R X R, R X R X R, ...] up to n factors of X, for one stack."""
    out = [r]
    for _ in range(n):
        out.append(out[-1] @ x[:, None] @ r)
    return out


def chain_symmetrised(r: np.ndarray, xs: list[np.ndarray]) -> np.ndarray:
    """Sum over all orderings of R X_s1 R ... X_sn R, by subset recursion.

    T(S) = sum_{j in S} T(S - {j}) X_j R with T({}) = R; 2^n n products
    instead of n! chains.
    """
    n = len(xs)
    t = {0: r}
    for mask in range(1, 1 << n):
        acc = None
        for j in range(n):
            if mask >> j & 1:
                term = t[mask ^ (1 << j)] @ xs[j][:, None] @ r
                acc = term if acc is None else acc + term
        t[mask] = acc
    return t[(1 << n) - 1]


# ---------------------------------------------------------------------------
# mpmath route: eigenvalues of the float matrix and confluent divided
# differences by residues


def _charpoly(a: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (trace, sum of principal 2x2 minors, determinant) of a float matrix."""
    m = [[Fraction(float(v)) for v in row] for row in a]
    tr = m[0][0] + m[1][1] + m[2][2]
    c2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0] + m[0][0] * m[2][2] - m[0][2] * m[2][0]
          + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return tr, c2, det


def eigenvalues_mp(mp, a: np.ndarray, guesses, bits: int):
    """The three eigenvalues of the float symmetric matrix a.

    Roots of the exact characteristic polynomial, each found by safeguarded
    Newton iteration inside a bracket around its guess, to 2^-bits of the
    bracket width.  The brackets are a quarter of the smallest guess gap
    wide; a missing sign change means the guesses were not close enough and
    raises.  Near a root of a close triple p' is of order gap^2 while the
    rounding of p is of order |x|^3, so a Newton step carries noise of about
    |x|^3 / gap^2 ulps: 3 log2(|x| / gap) bits, which the working precision
    adds (a close pair costs 2 log2).
    """
    g = sorted(float(v) for v in guesses)
    width = min(g[1] - g[0], g[2] - g[1]) / 4
    prec = bits + 3 * int(math.log2(max(abs(g[0]), abs(g[2])) / width) + 1) + 32
    with mp.workprec(prec):
        tr, c2, det = (mp.mpf(v.numerator) / v.denominator for v in _charpoly(a))

        def p(x):
            return ((x - tr) * x + c2) * x - det

        width = mp.mpf(width)
        tol = width * mp.mpf(2) ** -bits
        roots = []
        for x in map(mp.mpf, g):
            lo, hi = x - width, x + width
            plo = p(lo)
            if plo * p(hi) > 0:
                raise ArithmeticError("eigenvalue bracket has no sign change")
            for _ in range(4 * prec):
                px = p(x)
                d = (3 * x - 2 * tr) * x + c2
                step = px / d if d != 0 else 2 * width
                if abs(step) <= tol:
                    x -= step
                    break
                if (px < 0) == (plo < 0):
                    lo = x
                else:
                    hi = x
                x = x - step if lo < x - step < hi else (lo + hi) / 2
            else:
                raise ArithmeticError("eigenvalue iteration did not converge")
            roots.append(x)
    return roots


def mp_taylor(mp, spec: str, x, n: int) -> list:
    """Taylor coefficients f^(t)(x)/t!, t = 0..n, from closed-form derivatives."""
    name, _, arg = spec.partition(":")
    out = []
    if name == "exp":
        e = mp.exp(x)
        fact = mp.mpf(1)
        for t in range(n + 1):
            out.append(e / fact)
            fact *= t + 1
        return out
    if name == "log" or (name == "seth_hill" and float(arg) == 0.0):
        out.append(mp.log(x))
        for t in range(1, n + 1):
            out.append((-1) ** (t - 1) / (t * x ** t))
        return out
    # x^p / p + const  (sqrt: p = 1/2 with factor p; seth_hill m: (x^m - 1)/m)
    p = mp.mpf(1) / 2 if name == "sqrt" else mp.mpf(arg)
    scale = 1 if name == "sqrt" else 1 / p
    out.append(x ** p if name == "sqrt" else (x ** p - 1) / p)
    coef = mp.mpf(scale)
    for t in range(1, n + 1):
        coef *= (p - (t - 1)) / t
        out.append(coef * x ** (p - t))
    return out


def dd_table_mp(mp, spec: str, nodes: list, n: int, prec: int) -> dict[tuple, object]:
    """All order-n divided differences over three distinct nodes, keyed by the
    sorted label multi-index, by residues at ``prec`` bits.

    The entry with multiplicities nu is the sum over occupied nodes l of the
    coefficient of t^(nu_l - 1) in F_l(t) prod_{m != l} (x_l - x_m + t)^(-nu_m),
    where F_l is the Taylor series of f at x_l.
    """
    with mp.workprec(prec):
        xs = [mp.mpf(v) for v in nodes]
        taylor = [mp_taylor(mp, spec, x, n) for x in xs]
        # factor[l][m][v]: series of (x_l - x_m + t)^-v, v = 0..n+1, n+1-v terms:
        # the t^k coefficient is C(v+k-1, k) (-1)^k (x_l - x_m)^-(v+k)
        factor = [[None] * 3 for _ in range(3)]
        for l in range(3):
            for m in range(3):
                if m != l:
                    pw = [mp.mpf(1)]
                    for _ in range(n + 1):
                        pw.append(pw[-1] / (xs[l] - xs[m]))
                    factor[l][m] = [[mp.mpf(1)] + [mp.mpf(0)] * n] + [
                        [pw[v + k] * ((-1) ** k * math.comb(v + k - 1, k))
                         for k in range(n + 1 - v)] for v in range(1, n + 2)]
        # F_l * (x_l - x_m1 + t)^-v1, shared by every entry with nu_m1 = v1
        partial = {}
        for l in range(3):
            m1 = (l + 1) % 3
            for v1 in range(n + 1):
                f1 = factor[l][m1][v1]
                partial[l, v1] = [mp.fdot(taylor[l][:j + 1], f1[j::-1])
                                  for j in range(n + 1 - v1)]
        out = {}
        for idx in itertools.combinations_with_replacement(range(3), n + 1):
            nu = [idx.count(l) for l in range(3)]
            total = mp.mpf(0)
            for l in range(3):
                q = nu[l] - 1
                if q < 0:
                    continue
                m1, m2 = (l + 1) % 3, (l + 2) % 3
                # coefficient of t^q in F_l f1 f2
                total += mp.fdot(partial[l, nu[m1]][:q + 1], factor[l][m2][nu[m2]][q::-1])
            out[idx] = total
    return out


def cancellation_bits(nodes: list[float], n: int) -> int:
    """Bits the residue sum can lose: n * log2(largest node / smallest gap)."""
    s = sorted(abs(float(v)) for v in nodes)
    gaps = [b - a for a, b in zip(sorted(nodes), sorted(nodes)[1:])]
    return int(math.ceil(n * math.log2(max(s[-1], 1.0) / min(gaps)))) + 1

"""Coefficient engine for spectral derivatives of tensor functions.

The n-th derivative of f applied spectrally is determined by a finite table
of scalar coefficients, one per sorted multi-index of eigenvalue labels of
length n+1.  Each coefficient is the confluent divided difference of f over
the eigenvalues named by the multi-index, equivalently the leading
coefficient of the Hermite interpolant matching f and its derivatives at
those nodes, equivalently a sum of residues of f(z) against the node
polynomial.  All three evaluation paths are implemented; the divided
difference table is the production path, the others are verification layers.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .scalar_functions import ScalarFn
from .spectral import Spectrum

__all__ = [
    "IndexClass",
    "CoeffTable",
    "enumerate_classes",
    "count_classes",
    "coeff_divided_difference",
    "coeff_residue",
    "coeff_interpolation",
    "coeff_closed_form",
    "build_table",
]

# condition-number ceiling for the interpolation linear systems
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class IndexClass:
    """Multiplicity pattern of eigenvalue labels inside one coefficient.

    ``nu`` holds the three multiplicities in ascending order with
    nu[0]+nu[1]+nu[2] = n+1; ``labels`` holds the matching eigenvalue labels
    (indices into an eigenvalue list), with -1 marking unused zero slots.
    """

    nu: tuple[int, int, int]
    labels: tuple[int, int, int]

    def __post_init__(self):
        if len(self.nu) != 3 or len(self.labels) != 3:
            raise ValueError("an index class has exactly three multiplicity slots")
        if list(self.nu) != sorted(self.nu):
            raise ValueError(f"multiplicities must be ascending, got {self.nu}")
        if any(v < 0 for v in self.nu):
            raise ValueError("multiplicities must be non-negative")
        active = [l for v, l in zip(self.nu, self.labels) if v > 0]
        if len(set(active)) != len(active):
            raise ValueError(f"active labels must be distinct, got {self.labels}")

    @property
    def order(self) -> int:
        return sum(self.nu) - 1

    @classmethod
    def from_multi_index(cls, idx: Sequence[int]) -> "IndexClass":
        """Classify a multi-index of eigenvalue labels by occurrence counts."""
        counts = Counter(int(i) for i in idx)
        if len(counts) > 3:
            raise ValueError("at most three distinct labels are supported")
        pairs = sorted(((v, l) for l, v in counts.items()))
        while len(pairs) < 3:
            pairs.insert(0, (0, -1))
        nu = tuple(v for v, _ in pairs)
        labels = tuple(l for _, l in pairs)
        return cls(nu=nu, labels=labels)

    def active(self, alphas: Sequence[float]) -> list[tuple[int, float]]:
        """(multiplicity, eigenvalue) pairs for the occupied slots."""
        alphas = np.asarray(alphas, dtype=float)
        return [(v, float(alphas[l])) for v, l in zip(self.nu, self.labels) if v > 0]

    def nodes(self, alphas: Sequence[float]) -> list[float]:
        """The node multiset: each eigenvalue repeated by its multiplicity."""
        out: list[float] = []
        for v, a in self.active(alphas):
            out.extend([a] * v)
        return out


def enumerate_classes(n: int) -> list[tuple[int, int, int]]:
    """All multiplicity triples 0 <= I <= J <= K with I + J + K = n + 1."""
    if n < 1:
        raise ValueError("derivative order must be at least 1")
    out = []
    for i in range(0, (n + 1) // 3 + 1):
        for j in range(i, (n + 1 - i) // 2 + 1):
            k = n + 1 - i - j
            if k >= j:
                out.append((i, j, k))
    return out


def count_classes(n: int) -> int:
    """Number of independent coefficient expressions for the n-th derivative.

    Computed by the closed formula floor(((n+4)^2 + 4)/12) and cross-checked
    against the explicit enumeration; the two must agree.
    """
    formula = ((n + 4) ** 2 + 4) // 12
    enumerated = len(enumerate_classes(n))
    if formula != enumerated:
        raise NumericalError(
            f"class count mismatch at n={n}: formula {formula}, enumeration {enumerated}")
    return formula


def coeff_divided_difference(f: ScalarFn, nodes: Sequence[float]) -> float:
    """Confluent (Hermite) divided difference f[x1, ..., x_{n+1}].

    Repeated nodes are allowed; a node occurring r times consumes derivative
    data of f up to order r-1.  Repeats must be exact (clustering upstream
    guarantees this for spectra).  This is the production coefficient path.
    """
    z = sorted(float(x) for x in nodes)
    m = len(z)
    if m == 0:
        raise ValueError("need at least one node")
    col = [f.deriv(0, x) for x in z]
    for j in range(1, m):
        nxt = []
        for i in range(m - j):
            if z[i + j] == z[i]:
                nxt.append(f.deriv(j, z[i]) / math.factorial(j))
            else:
                nxt.append((col[i + 1] - col[i]) / (z[i + j] - z[i]))
        col = nxt
    return col[0]


def _rational_derivs(others: list[tuple[int, float]], x: float, up_to: int) -> list[float]:
    """Derivatives at x, orders 0..up_to, of g(x) = prod (x - a_m)^(-nu_m).

    Uses the logarithmic derivative h = g'/g = -sum nu_m/(x - a_m), whose own
    derivatives are explicit, and the Leibniz recursion g^(s+1) = sum over r
    of C(s, r) h^(r) g^(s-r).
    """
    g = [1.0]
    for v, a in others:
        g[0] *= (x - a) ** (-v)
    if up_to == 0:
        return g
    h = []
    for r in range(up_to):
        hr = 0.0
        for v, a in others:
            hr -= v * (-1.0) ** r * math.factorial(r) * (x - a) ** (-(r + 1))
        h.append(hr)
    for s in range(up_to):
        nxt = 0.0
        for r in range(s + 1):
            nxt += math.comb(s, r) * h[r] * g[s - r]
        g.append(nxt)
    return g


def coeff_residue(f: ScalarFn, cls: IndexClass, alphas: Sequence[float]) -> float:
    """Coefficient as a sum of residues of f(z)/prod (z - alpha_m)^nu_m.

    For each occupied label l the residue contributes
    (1/(nu_l - 1)!) d^(nu_l - 1)/dx^(nu_l - 1) [ f(x) / prod_{m != l}
    (x - alpha_m)^nu_m ] at x = alpha_l, evaluated with analytic derivatives
    via the Leibniz rule.  Labels must map to distinct eigenvalues; cluster
    first.
    """
    active = cls.active(alphas)
    vals = [a for _, a in active]
    if len(set(vals)) != len(vals):
        raise ValueError(f"coincident eigenvalues for distinct labels: {vals}")
    total = 0.0
    for l, (v, a) in enumerate(active):
        others = [p for m, p in enumerate(active) if m != l]
        q = v - 1
        g = _rational_derivs(others, a, q)
        term = 0.0
        for t in range(q + 1):
            term += math.comb(q, t) * f.deriv(t, a) * g[q - t]
        total += term / math.factorial(q)
    return total


def coeff_interpolation(f: ScalarFn, cls: IndexClass, alphas: Sequence[float]) -> float:
    """Coefficient as the leading coefficient of the Hermite interpolant.

    The degree-n polynomial P matches f^(q)(alpha_l) for q < nu_l at each
    occupied node; the coefficient equals p_n, i.e. the n-th derivative of P
    over n factorial.  Solved by the shifted-ansatz route: centre on the node
    of highest multiplicity, whose conditions fix the low-order polynomial
    coefficients outright, and solve a small linear system for the rest.
    """
    active = cls.active(alphas)
    vals = [a for _, a in active]
    if len(set(vals)) != len(vals):
        raise ValueError(f"coincident eigenvalues for distinct labels: {vals}")
    n = cls.order
    # centre on the highest-multiplicity node; ties resolved to the last
    centre_pos = max(range(len(active)), key=lambda i: active[i][0])
    vc, ac = active[centre_pos]
    # coefficients of P in powers of t = x - ac; the leading one is unchanged
    p = np.zeros(n + 1)
    for l in range(vc):
        p[l] = f.deriv(l, ac) / math.factorial(l)
    unknown = list(range(vc, n + 1))
    if not unknown:
        return float(p[n])
    rows = []
    rhs = []
    for pos, (v, a) in enumerate(active):
        if pos == centre_pos:
            continue
        t = a - ac
        for q in range(v):
            row = np.zeros(len(unknown))
            r = f.deriv(q, a)
            for col, l in enumerate(unknown):
                row[col] = _ff(l, q) * t ** (l - q)
            for l in range(vc):
                if l >= q:
                    r -= p[l] * _ff(l, q) * t ** (l - q)
            rows.append(row)
            rhs.append(r)
    mat = np.array(rows)
    vec = np.array(rhs)
    if mat.shape[0] != mat.shape[1]:
        raise NumericalError(f"interpolation system is not square: {mat.shape}")
    if mat.shape[0] > 1:
        cond = np.linalg.cond(mat)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise NumericalError(
                f"ill-conditioned interpolation system (cond ~ {cond:.2e}); "
                "nodes are too close, cluster the spectrum first")
    try:
        sol = np.linalg.solve(mat, vec)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular interpolation system: {exc}") from exc
    return float(sol[-1])


def _ff(l: int, q: int) -> float:
    """Falling factorial l(l-1)...(l-q+1)."""
    out = 1.0
    for i in range(q):
        out *= l - i
    return out


def coeff_closed_form(f: ScalarFn, cls: IndexClass, alphas: Sequence[float]) -> float:
    """Tabulated closed forms for the five patterns that cover n <= 4.

    Supported multiplicity patterns: (0,0,n+1), (0,1,n), (0,2,n-1),
    (1,1,n-1) and (1,2,n-2).  Anything else raises ValueError; callers fall
    back to divided differences.  This path is a verification layer, not the
    production route.
    """
    n = cls.order
    a0, b0, c0 = cls.nu
    alphas = np.asarray(alphas, dtype=float)

    def val(lab, order=0):
        return f.deriv(order, float(alphas[lab]))

    la, lb, lc = cls.labels
    if (a0, b0) == (0, 0):
        return val(lc, n) / math.factorial(n)
    if (a0, b0) == (0, 1):
        aj, ak = float(alphas[lb]), float(alphas[lc])
        gap = aj - ak
        acc = val(lb)
        for l in range(n):
            acc -= gap ** l * val(lc, l) / math.factorial(l)
        return acc / gap ** n
    if (a0, b0) == (0, 2):
        aj, ak = float(alphas[lb]), float(alphas[lc])
        gap = aj - ak
        acc = gap * val(lb, 1) - (n - 1) * val(lb)
        for l in range(n - 1):
            acc += (n - 1 - l) / math.factorial(l) * gap ** l * val(lc, l)
        return acc / gap ** n
    if (a0, b0) == (1, 1):
        ai, aj, ak = float(alphas[la]), float(alphas[lb]), float(alphas[lc])
        acc = val(la) / (ai - ak) ** (n - 1) - val(lb) / (aj - ak) ** (n - 1)
        for l in range(n - 1):
            acc -= val(lc, l) / math.factorial(l) * (
                1.0 / (ai - ak) ** (n - 1 - l) - 1.0 / (aj - ak) ** (n - 1 - l))
        return acc / (ai - aj)
    if (a0, b0) == (1, 2):
        ai, aj, ak = float(alphas[la]), float(alphas[lb]), float(alphas[lc])
        acc = val(la) / (ai - ak) ** (n - 2)
        acc -= val(lb) / (aj - ak) ** (n - 2) * (1.0 + (n - 2) * (aj - ai) / (aj - ak))
        acc += (aj - ai) / (aj - ak) ** (n - 2) * val(lb, 1)
        for l in range(n - 2):
            acc -= val(lc, l) / math.factorial(l) * (
                1.0 / (ai - ak) ** (n - 2 - l)
                - (1.0 + (n - 2 - l) * (aj - ai) / (aj - ak)) / (aj - ak) ** (n - 2 - l))
        return acc / (ai - aj) ** 2
    raise ValueError(f"no closed form for multiplicity pattern {cls.nu}")


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Symmetric coefficient table for one derivative order and spectrum.

    Values are stored under sorted multi-indices (0-based eigenvalue labels)
    and looked up the same way, so any permutation of an index retrieves the
    identical stored value.
    """

    order: int
    d: int
    alphas: np.ndarray
    values: dict[tuple[int, ...], float]

    def get(self, idx: Sequence[int]) -> float:
        return self.values[tuple(sorted(int(i) for i in idx))]

    def expand(self, labels: Sequence[int]) -> np.ndarray:
        """Array over tuples of eigenvector columns, shape (len(labels),)*(n+1).

        Entry [a0, ..., an] is the value at the sorted cluster labels of the
        columns.  A sorted multi-index is fixed by how often each label
        occurs, so it is coded as the sum of (n+2)**label over its positions:
        the codes of all column tuples form an outer sum, and one gather
        from the coded table fills the array.
        """
        base = self.order + 2
        weights = base ** np.asarray(labels)
        codes = functools.reduce(np.add.outer, [weights] * (self.order + 1))
        coded = np.zeros(base ** self.d)
        for idx, v in self.values.items():
            coded[sum(base ** i for i in idx)] = v
        return coded[codes]

    def __len__(self):
        return len(self.values)


def build_table(f: ScalarFn, s: Spectrum, n: int, method: str = "dd",
                cross_check: bool = False) -> CoeffTable:
    """Coefficient table for the n-th derivative of f on the spectrum s.

    One value per sorted multi-index over the d eigenvalue labels of length
    n+1 (at most (n+2)(n+3)/2 distinct values when d = 3).  ``method``
    selects the evaluation path: "dd" (divided differences, production),
    "residue" or "interp".  With ``cross_check`` every entry is verified
    against the residue path and a disagreement raises NumericalError.
    """
    if n < 1:
        raise ValueError("derivative order must be at least 1")
    if method not in ("dd", "residue", "interp"):
        raise ValueError(f"unknown coefficient method {method!r}")
    values: dict[tuple[int, ...], float] = {}
    for idx in itertools.combinations_with_replacement(range(s.d), n + 1):
        if method == "dd":
            cls = None
            v = coeff_divided_difference(f, [float(s.alphas[i]) for i in idx])
        else:
            cls = IndexClass.from_multi_index(idx)
            evaluate = coeff_residue if method == "residue" else coeff_interpolation
            v = evaluate(f, cls, s.alphas)
        if cross_check:
            if cls is None:
                cls = IndexClass.from_multi_index(idx)
            ref = coeff_residue(f, cls, s.alphas)
            if abs(v - ref) > 1e-7 * max(1.0, abs(v), abs(ref)):
                raise NumericalError(
                    f"coefficient cross-check failed at index {idx}: "
                    f"{method} gave {v!r}, residue gave {ref!r}")
        values[idx] = float(v)
    return CoeffTable(order=n, d=s.d, alphas=np.array(s.alphas), values=values)

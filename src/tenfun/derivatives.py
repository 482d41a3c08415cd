"""Assembly and contraction of spectral derivatives, plus the gradient calculus.

The n-th derivative of f at A, divided by n factorial, is fixed by the
coefficient table: in A's eigenframe V, with X^ = V^t X V and C the table
spread over eigenvector columns through the cluster labels, its contraction
with equal directions is

    V (sum over a1..a(n-1) of C[a0, .., an] X^[a0, a1] ... X^[a(n-1), an]) V^t.

Gradients (n = 1) reduce to Hadamard multipliers in the frame (CoaxialMap),
which is how the product, reciprocal and chain rules are carried out.  The
same derivative expands into weighted box products of eigenprojectors for
dense export and verification.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import CoeffTable, build_table
from .errors import DomainError
from .multilinear import BoxProduct, BoxSum, CoaxialMap, FourthTensor, _as_matrix
from .scalar_functions import ScalarFn
from .spectral import DEFAULT_CLUSTER_TOL, Spectrum, SymTensor, apply_fn, decompose

__all__ = [
    "SpectralDerivative",
    "derivative",
    "taylor_eval",
    "grad_product_rule",
    "grad_reciprocal",
    "grad_chain_rule",
]


def _ordered_chains(hats: list[np.ndarray], counts: list[int]) -> np.ndarray:
    """Chain arrays X1[a0, a1] X2[a1, a2] ... Xn[a(n-1), an] summed over the
    distinct orderings of a direction multiset (hats[j] occurring counts[j]
    times).

    Dynamic programming over sub-multisets: the chains of a sub-multiset are
    the chains of each one-smaller sub-multiset with one more direction
    appended, so no ordering is enumerated.
    """
    sums = {(0,) * len(counts): np.ones(3)}
    for c in sorted(itertools.product(*(range(k + 1) for k in counts)), key=sum)[1:]:
        total = 0.0
        for j, cj in enumerate(c):
            if cj:
                total = total + sums[c[:j] + (cj - 1,) + c[j + 1:]][..., None] * hats[j]
        sums[c] = total
    return sums[tuple(counts)]


@dataclass(frozen=True, eq=False)
class SpectralDerivative:
    """The n-th derivative of f at A, normalised by 1/n!.

    Stored as the spectrum (eigenframe and projectors) plus the symmetric
    coefficient table; never densely.  Contracting with n direction tensors
    yields the degree-n term of the expansion of f(A + X).
    """

    order: int
    spectrum: Spectrum
    coeffs: CoeffTable

    def contract(self, xs: Sequence) -> SymTensor:
        """Contraction with n directions, as a totally symmetric multilinear map.

        The path sum pins the derivative down only on equal directions; mixed
        directions are averaged over the distinct orderings of the direction
        list, which is exactly the identity map when all directions coincide.
        """
        xs = [_as_matrix(x) for x in xs]
        n = self.order
        if len(xs) != n:
            raise ValueError(f"need {n} directions, got {len(xs)}")
        s = self.spectrum
        v = s.frame
        slots: dict[bytes, int] = {}
        hats: list[np.ndarray] = []
        counts: list[int] = []
        for x in xs:
            j = slots.setdefault(x.tobytes(), len(hats))
            if j == len(hats):
                hats.append(v.T @ x @ v)
                counts.append(0)
            counts[j] += 1
        chains = _ordered_chains(hats, counts)
        paths = (self.coeffs.expand(s.labels) * chains).reshape(3, -1, 3).sum(axis=1)
        orderings = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
        return SymTensor.sym_part(v @ paths @ v.T / orderings)

    def as_box_sum(self) -> BoxSum:
        """Expand into a weighted sum of projector box products."""
        projs = [p.matrix for p in self.spectrum.projectors]
        terms = []
        for idx in itertools.product(range(self.spectrum.d), repeat=self.order + 1):
            c = self.coeffs.get(idx)
            if c != 0.0:
                terms.append((c, BoxProduct(*[projs[i] for i in idx])))
        return BoxSum(terms, nfactors=self.order + 1)

    def as_fourth_tensor(self) -> FourthTensor:
        """First-derivative view as an order-4 tensor (gradient map)."""
        if self.order != 1:
            raise ValueError("only the first derivative is a fourth-order tensor")
        mult = self.coeffs.expand(self.spectrum.labels)
        return CoaxialMap(self.spectrum, mult).as_fourth_tensor()


def derivative(f: ScalarFn, a: SymTensor, n: int,
               cluster_tol: float = DEFAULT_CLUSTER_TOL,
               method: str = "dd") -> SpectralDerivative:
    """Assemble the spectral derivative of order n of f at A (times 1/n!)."""
    if n < 1:
        raise ValueError("derivative order must be at least 1")
    s = decompose(a, cluster_tol)
    return SpectralDerivative(order=n, spectrum=s, coeffs=build_table(f, s, n, method=method))


def taylor_eval(f: ScalarFn, a: SymTensor, x: SymTensor, n: int,
                cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SymTensor:
    """Truncated expansion f(A) + sum over k <= n of the degree-k term at X.

    A + X must stay inside the domain of f (e.g. positive definite for log);
    the series itself only consumes derivatives of f on the spectrum of A.
    """
    s = decompose(a, cluster_tol)
    for alpha in np.linalg.eigvalsh((a + x).matrix):
        if not f.in_domain(float(alpha)):
            raise DomainError(f"{f!r} is undefined on the spectrum of A + X (at {alpha})")
    out = apply_fn(s, f)
    for k in range(1, n + 1):
        dv = SpectralDerivative(order=k, spectrum=s, coeffs=build_table(f, s, k))
        out = out + dv.contract([x] * k)
    return out


def _gradient_multiplier(f: ScalarFn, x, merge: float = 0.0) -> np.ndarray:
    """First divided differences of f on the nodes x, as a square matrix.

    Off the diagonal (f(x_i) - f(x_j)) / (x_i - x_j); nodes at most ``merge``
    apart (the diagonal always) take the mean slope instead.
    """
    x = np.asarray(x, dtype=float)
    fx = np.array([f.deriv(0, float(t)) for t in x])
    slope = np.array([f.deriv(1, float(t)) for t in x])
    gap = x[:, None] - x[None, :]
    close = np.abs(gap) <= merge
    return np.where(close, 0.5 * (slope[:, None] + slope[None, :]),
                    (fx[:, None] - fx[None, :]) / np.where(close, 1.0, gap))


def grad_product_rule(f: ScalarFn, g: ScalarFn, a: SymTensor,
                      cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Gradient of the pointwise product: (I x g(A)) grad f + (f(A) x I) grad g."""
    s = decompose(a, cluster_tol)
    fv = np.array([f.deriv(0, float(t)) for t in s.alphas])
    gv = np.array([g.deriv(0, float(t)) for t in s.alphas])
    mult = (_gradient_multiplier(f, s.alphas) * gv[None, :]
            + fv[:, None] * _gradient_multiplier(g, s.alphas))
    return CoaxialMap.from_clusters(s, mult)


def grad_reciprocal(f: ScalarFn, a: SymTensor,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Gradient of 1/f: -[f(A)^-1 x f(A)^-1] grad f."""
    s = decompose(a, cluster_tol)
    vals = np.array([f.deriv(0, float(t)) for t in s.alphas])
    scale = float(np.abs(vals).max())
    if np.any(np.abs(vals) <= 1e-14 * max(1.0, scale)):
        raise DomainError("f vanishes at an eigenvalue; reciprocal gradient undefined")
    mult = -_gradient_multiplier(f, s.alphas) / np.outer(vals, vals)
    return CoaxialMap.from_clusters(s, mult)


def grad_chain_rule(f: ScalarFn, g: ScalarFn, a: SymTensor,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Gradient of the composition f(g(A)): grad f at g(A), composed with grad g.

    g(A) shares A's eigenframe; values of g closer than the clustering gap
    count as one eigenvalue of g(A), as decomposing g(A) would merge them.
    """
    s = decompose(a, cluster_tol)
    inner = np.array([g.deriv(0, float(t)) for t in s.alphas])
    merge = cluster_tol * max(1.0, float(np.abs(inner).max()))
    mult = _gradient_multiplier(f, inner, merge) * _gradient_multiplier(g, s.alphas)
    return CoaxialMap.from_clusters(s, mult)

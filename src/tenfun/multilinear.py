"""Fourth- and higher-order tensors: eigenframe maps and box-product sums.

Every fourth-order map the package builds on A is coaxial with A and is
held as a CoaxialMap: a 3x3 multiplier applied elementwise in A's
eigenframe.  Generic box products serve dense export and the independent
verification routes.  A box product of k factors is an order-2k tensor
acting on k-1 second-order tensors by interleaved multiplication:
(A x B x ... x C) : X Y ... Z = A X B^t Y ... Z C^t.  Weighted sums of box
products are closed under composition via (A x B)(X x Y) = (AX) x (BY),
applied factorwise.

Dense layout: for k factors the component array has 2k axes ordered
(i, j, k1, l1, ..., k_{k-1}, l_{k-1}) where (i, j) indexes the output and
each (k_m, l_m) pair contracts with the m-th argument, so that for k = 2
(A x B)_{ijkl} = A_{ik} B_{jl} and Y_{ij} = T_{ijkl} X_{kl}.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .spectral import Spectrum

__all__ = ["BoxProduct", "BoxSum", "FourthTensor", "CoaxialMap"]


def _as_matrix(x) -> np.ndarray:
    """Coerce a SymTensor or array-like to a 3x3 float array."""
    m = getattr(x, "matrix", x)
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 tensor, got shape {m.shape}")
    return m


class BoxProduct:
    """A single box product of k >= 2 second-order factors.

    Factors are stored as general (not necessarily symmetric) 3x3 arrays:
    composition produces matrix products of symmetric factors, which need
    not be symmetric.
    """

    __slots__ = ("factors",)

    def __init__(self, *factors):
        if len(factors) < 2:
            raise ValueError("a box product needs at least two factors")
        self.factors = tuple(_as_matrix(f) for f in factors)

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        return 2 * len(self.factors)

    def contract(self, xs) -> np.ndarray:
        """Contract against k-1 second-order tensors: A X1 B^t X2 ... C^t."""
        xs = list(xs)
        if len(xs) != self.nfactors - 1:
            raise ValueError(
                f"arity mismatch: {self.nfactors} factors consume {self.nfactors - 1} "
                f"arguments, got {len(xs)}")
        m = self.factors[0]
        for x, f in zip(xs, self.factors[1:]):
            m = m @ _as_matrix(x) @ f.T
        return m

    def dense(self) -> np.ndarray:
        """Cartesian components, shape (3,)*2k, axes as documented above."""
        k = self.nfactors
        letters = string.ascii_lowercase
        out_r, out_c = letters[0], letters[1]
        rows = [letters[2 + 2 * m] for m in range(k - 1)]
        cols = [letters[3 + 2 * m] for m in range(k - 1)]
        subs = [out_r + rows[0]]
        for m in range(1, k - 1):
            subs.append(rows[m] + cols[m - 1])
        subs.append(out_c + cols[k - 2])
        out = out_r + out_c + "".join(r + c for r, c in zip(rows, cols))
        return np.einsum(",".join(subs) + "->" + out, *self.factors)

    def __repr__(self):
        return f"BoxProduct(<{self.nfactors} factors>)"


class BoxSum:
    """Weighted sum of box products of uniform arity.

    Supports addition, scalar multiplication, composition and contraction.
    """

    __slots__ = ("nfactors", "terms")

    def __init__(self, terms, nfactors: int | None = None):
        norm = []
        for w, p in terms:
            if not isinstance(p, BoxProduct):
                p = BoxProduct(*p)
            norm.append((float(w), p))
        if nfactors is None:
            if not norm:
                raise ValueError("empty sum needs an explicit factor count")
            nfactors = norm[0][1].nfactors
        for _, p in norm:
            if p.nfactors != nfactors:
                raise ValueError("all terms must share the same number of factors")
        self.nfactors = int(nfactors)
        self.terms = tuple(norm)

    @classmethod
    def identity(cls, nfactors: int = 2) -> "BoxSum":
        eye = np.eye(3)
        return cls([(1.0, BoxProduct(*([eye] * nfactors)))])

    @classmethod
    def zero(cls, nfactors: int = 2) -> "BoxSum":
        return cls([], nfactors=nfactors)

    @property
    def order(self) -> int:
        return 2 * self.nfactors

    def contract(self, xs) -> np.ndarray:
        xs = [_as_matrix(x) for x in xs]
        out = np.zeros((3, 3))
        for w, p in self.terms:
            out += w * p.contract(xs)
        return out

    def apply(self, x) -> np.ndarray:
        """Action on a single second-order tensor (two-factor sums only)."""
        if self.nfactors != 2:
            raise ValueError("apply() needs a two-factor sum; use contract()")
        return self.contract([x])

    def compose(self, other: "BoxSum") -> "BoxSum":
        """Composition acting as self after other, expanded termwise."""
        if self.nfactors != other.nfactors:
            raise ValueError("can only compose sums of equal arity")
        terms = []
        for wa, pa in self.terms:
            for wb, pb in other.terms:
                terms.append((wa * wb,
                              BoxProduct(*[fa @ fb for fa, fb in zip(pa.factors, pb.factors)])))
        return type(self)(terms, nfactors=self.nfactors)

    def dense(self) -> np.ndarray:
        out = np.zeros((3,) * self.order)
        for w, p in self.terms:
            out += w * p.dense()
        return out

    def __add__(self, other: "BoxSum") -> "BoxSum":
        if self.nfactors != other.nfactors:
            raise ValueError("can only add sums of equal arity")
        return type(self)(self.terms + other.terms, nfactors=self.nfactors)

    def __sub__(self, other: "BoxSum") -> "BoxSum":
        return self + (-other)

    def __neg__(self) -> "BoxSum":
        return self * -1.0

    def __mul__(self, scalar: float) -> "BoxSum":
        s = float(scalar)
        return type(self)([(w * s, p) for w, p in self.terms], nfactors=self.nfactors)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(<{len(self.terms)} terms, {self.nfactors} factors>)"


class FourthTensor(BoxSum):
    """Order-4 tensor as a weighted sum of two-factor box products B x C.

    Acts on second-order tensors as X -> sum of w * B X C^t.
    """

    def __init__(self, terms, nfactors: int = 2):
        if nfactors != 2:
            raise ValueError("a fourth-order tensor has exactly two factors per term")
        super().__init__(terms, nfactors=2)

    @classmethod
    def box(cls, b, c) -> "FourthTensor":
        """The single box product B x C."""
        return cls([(1.0, BoxProduct(b, c))])

    @classmethod
    def identity(cls, nfactors: int = 2) -> "FourthTensor":
        if nfactors != 2:
            raise ValueError("a fourth-order tensor has exactly two factors per term")
        return cls.box(np.eye(3), np.eye(3))


@dataclass(frozen=True, eq=False)
class CoaxialMap:
    """Fourth-order map coaxial with A, in the eigenframe of its spectrum.

    With V the spectrum's frame and G a 3x3 multiplier the map is
    X -> V (G o V^t X V) V^t, where o is the elementwise product.  G is
    constant on each block of frame columns that share a cluster, so the
    map does not depend on the choice of eigenvectors inside a merged
    cluster.  Composition multiplies the multipliers elementwise.
    """

    spectrum: Spectrum
    multiplier: np.ndarray

    @classmethod
    def from_clusters(cls, s: Spectrum, g) -> "CoaxialMap":
        """Map whose multiplier is the d x d cluster matrix g, spread over the frame."""
        g = np.asarray(g, dtype=float)
        return cls(s, g[np.ix_(s.labels, s.labels)])

    def apply(self, x) -> np.ndarray:
        v = self.spectrum.frame
        return v @ (self.multiplier * (v.T @ _as_matrix(x) @ v)) @ v.T

    def compose(self, other: "CoaxialMap") -> "CoaxialMap":
        """Composition acting as self after other; both must share a frame."""
        if not np.array_equal(self.spectrum.frame, other.spectrum.frame):
            raise ValueError("coaxial maps compose only in a shared eigenframe")
        return CoaxialMap(self.spectrum, self.multiplier * other.multiplier)

    def dense(self) -> np.ndarray:
        v = self.spectrum.frame
        return np.einsum("ia,ka,jb,lb,ab->ijkl", v, v, v, v, self.multiplier)

    def as_fourth_tensor(self) -> FourthTensor:
        """Export as the weighted sum of projector box products A_i x A_j."""
        s = self.spectrum
        first = np.unique(s.labels, return_index=True)[1]
        g = self.multiplier[np.ix_(first, first)]
        projs = [p.matrix for p in s.projectors]
        return FourthTensor([(g[i, j], BoxProduct(projs[i], projs[j]))
                             for i in range(s.d) for j in range(s.d) if g[i, j] != 0.0])

"""Symmetric second-order tensors on 3-space and their spectral decomposition.

The decomposition clusters near-coincident eigenvalues before any projector is
built: downstream divided-difference formulas lose roughly half their digits
per near-coincident node pair, so eigenvalues closer than the clustering gap
are merged into a single cluster with a combined projector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalError

__all__ = ["DEFAULT_CLUSTER_TOL", "SymTensor", "Spectrum", "decompose", "apply_fn"]

DEFAULT_CLUSTER_TOL = 1e-7

# storage order of the six unique components
_ROWS = np.array([0, 1, 2, 0, 0, 1])
_COLS = np.array([0, 1, 2, 1, 2, 2])
# the stored component behind each entry of the full matrix, row-major
_FULL = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])


@dataclass(frozen=True, eq=False)
class SymTensor:
    """Symmetric 3x3 tensor stored as its six unique components.

    Component order is (11, 22, 33, 12, 13, 23).  Symmetry holds by
    construction; entries must be finite.
    """

    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float).reshape(-1)
        if comp.shape != (6,):
            raise ValueError(f"expected 6 components, got shape {np.shape(self.components)}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("tensor components must be finite")
        comp = comp.copy()
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)

    @classmethod
    def from_matrix(cls, m, tol: float = 1e-8) -> "SymTensor":
        """Build from a 3x3 array, rejecting asymmetry beyond ``tol`` (relative)."""
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 array, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("tensor components must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        skew = float(np.abs(m - m.T).max())
        if skew > tol * scale:
            raise ValueError(f"matrix is not symmetric: max |A - A^t| = {skew:.3e}")
        sym = 0.5 * (m + m.T)
        return cls(sym[_ROWS, _COLS])

    @classmethod
    def sym_part(cls, m) -> "SymTensor":
        """Symmetric part (M + M^t)/2 of an arbitrary 3x3 array."""
        m = np.asarray(m, dtype=float)
        sym = 0.5 * (m + m.T)
        return cls(sym[_ROWS, _COLS])

    @classmethod
    def identity(cls) -> "SymTensor":
        return cls(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))

    @classmethod
    def zero(cls) -> "SymTensor":
        return cls(np.zeros(6))

    @classmethod
    def diag(cls, a: float, b: float, c: float) -> "SymTensor":
        return cls(np.array([a, b, c, 0.0, 0.0, 0.0]))

    @property
    def matrix(self) -> np.ndarray:
        """Full 3x3 array."""
        return self.components[_FULL].reshape(3, 3)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return SymTensor(self.components + other.components)

    def __sub__(self, other: "SymTensor") -> "SymTensor":
        return SymTensor(self.components - other.components)

    def __neg__(self) -> "SymTensor":
        return SymTensor(-self.components)

    def __mul__(self, scalar: float) -> "SymTensor":
        return SymTensor(self.components * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymTensor({np.array2string(self.components, separator=', ')})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Clustered spectral decomposition of a SymTensor.

    ``d`` is the eigen-index (number of distinct eigenvalues after
    clustering), ``alphas`` the strictly increasing eigenvalues and
    ``projectors`` the matching orthogonal eigenprojectors, which are
    idempotent, mutually annihilating, and sum to the identity.  ``frame``
    holds orthonormal eigenvectors as columns (the identity when d = 1) and
    ``labels`` the cluster of each column, so that projector i is the sum of
    v v^t over the columns labelled i.
    """

    d: int
    alphas: np.ndarray
    projectors: tuple[SymTensor, ...]
    positive: bool
    frame: np.ndarray
    labels: tuple[int, ...]

    def reconstruct(self) -> SymTensor:
        """Reassemble the source tensor from eigenvalues and projectors."""
        out = SymTensor.zero()
        for a, p in zip(self.alphas, self.projectors):
            out = out + float(a) * p
        return out

    def apply(self, values: Sequence[float] | Callable[[float], float]) -> SymTensor:
        """Apply per-eigenvalue values (or a callable) on the projector basis."""
        if callable(values):
            values = [values(a) for a in self.alphas]
        out = SymTensor.zero()
        for v, p in zip(values, self.projectors):
            out = out + float(v) * p
        return out

    def power(self, p: float) -> SymTensor:
        """Matrix power computed spectrally.

        Non-integer or negative powers require a positive spectrum.
        """
        p = float(p)
        if p != int(p) or p < 0:
            if not self.positive:
                raise DomainError(f"matrix power {p} requires a positive definite tensor")
        return self.apply([a ** p for a in self.alphas])


def decompose(a: SymTensor, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Spectrum:
    """Spectral decomposition with relative eigenvalue clustering.

    Raw eigenvalues whose gap is at most ``cluster_tol`` times the spectral
    radius (floored at 1) are merged into one cluster; the cluster eigenvalue
    is their mean and its projector is the sum of the rank-1 eigenprojectors
    v v^t over the cluster.  The sum is invariant under the arbitrary choice
    of basis inside a degenerate cluster (and under eigenvector signs), so
    the decomposition is deterministic and the projectors stay orthogonal and
    idempotent to machine precision even for merged clusters with genuine
    spread.  The eigenvector frame is kept alongside; when d = 1 it is the
    identity, so maps built in the frame stay exact on isotropic tensors.
    """
    m = a.matrix
    try:
        raw, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed to converge: {exc}") from exc
    scale = max(float(np.abs(raw).max()), 1.0)
    gap = cluster_tol * scale

    groups: list[slice] = []
    start = 0
    for i in range(1, raw.size):
        if raw[i] - raw[i - 1] > gap:
            groups.append(slice(start, i))
            start = i
    groups.append(slice(start, raw.size))

    alphas = np.array([float(raw[g].mean()) for g in groups])
    d = alphas.size
    labels = tuple(i for i, g in enumerate(groups) for _ in range(g.stop - g.start))
    if d == 1:
        projectors = (SymTensor.identity(),)
        vecs = np.eye(3)
    else:
        projectors = tuple(SymTensor.sym_part(vecs[:, g] @ vecs[:, g].T) for g in groups)
    return Spectrum(d=d, alphas=alphas, projectors=projectors, positive=bool(alphas[0] > 0),
                    frame=vecs, labels=labels)


def apply_fn(s: Spectrum, f) -> SymTensor:
    """Evaluate the tensor function: sum of f(alpha_i) times projector A_i.

    ``f`` must be defined at every eigenvalue (a DomainError propagates
    otherwise, e.g. log of a non-positive eigenvalue).
    """
    return s.apply([f.deriv(0, a) for a in s.alphas])

"""Inverse gradients of strain measures and the induced Sylvester solvers.

For a strictly monotonic strain measure on a positive definite argument the
gradient map is a positive definite fourth-order tensor coaxial with A: in
A's eigenframe it multiplies each entry by a positive first divided
difference, so its inverse divides by the same numbers.  The commutator
pseudo-inverse J*, the diagonal-block map K, the power-sum and quadrature
forms and both Sylvester solvers are eigenframe multipliers too.  The
commutator map J itself is built from A's matrix as a box sum, which keeps
the J J* + K K* closure check independent of the frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import _gradient_multiplier
from .errors import DomainError, NumericalError
from .multilinear import BoxProduct, CoaxialMap, FourthTensor, _as_matrix
from .scalar_functions import ScalarFn
from .spectral import DEFAULT_CLUSTER_TOL, Spectrum, SymTensor, decompose

__all__ = [
    "grad_spectral",
    "inverse_grad",
    "seth_hill_sum_form",
    "seth_hill_fractional_inverse",
    "log_inverse_integral",
    "j_tensor",
    "j_pseudo",
    "k_tensor",
    "k_pseudo",
    "CommutatorSolution",
    "sylvester_commutator",
    "sylvester_power",
    "jk_decomposition",
]


def _require_positive(s: Spectrum, what: str) -> None:
    if not s.positive:
        raise DomainError(f"{what} requires a positive definite tensor "
                          f"(eigenvalues {s.alphas})")


def _require_strain_measure(f: ScalarFn) -> None:
    if not f.is_strain_measure:
        raise DomainError(f"{f!r} is not a strain measure (need f(1)=0, f'(1)=1, f'>0)")


def _commutator(m) -> FourthTensor:
    """Commutator map X -> MX - XM as the box sum M x I - I x M."""
    m, eye = _as_matrix(m), np.eye(3)
    return FourthTensor([(1.0, BoxProduct(m, eye)), (-1.0, BoxProduct(eye, m))])


def _pair_inverse(values) -> np.ndarray:
    """Cluster matrix 1/(v_i - v_j) off the diagonal, zero on it: the
    multiplier of the commutator pseudo-inverse for cluster values v."""
    v = np.asarray(values, dtype=float)
    gap = v[:, None] - v[None, :]
    off = ~np.eye(v.size, dtype=bool)
    return np.divide(1.0, gap, out=np.zeros_like(gap), where=off)


def grad_spectral(f: ScalarFn, s: Spectrum) -> CoaxialMap:
    """Gradient of a strain measure on a positive spectrum, as an eigenframe map."""
    _require_strain_measure(f)
    _require_positive(s, "the strain-measure gradient")
    return CoaxialMap.from_clusters(s, _gradient_multiplier(f, s.alphas))


def inverse_grad(f: ScalarFn, s: Spectrum) -> CoaxialMap:
    """Inverse of the gradient map; composition with grad_spectral is the identity.

    Requires every multiplier entry strictly positive, which strict
    monotonicity of f on a positive spectrum guarantees.
    """
    _require_strain_measure(f)
    _require_positive(s, "the inverse gradient")
    mult = _gradient_multiplier(f, s.alphas)
    floor = 1e-14 * max(1.0, float(np.abs(mult).max()))
    if np.any(mult <= floor):
        raise DomainError(f"gradient is not invertible: multiplier entry <= {floor:g} "
                          "(function not strictly monotonic on the spectrum)")
    return CoaxialMap.from_clusters(s, 1.0 / mult)


def _power_products(s: Spectrum, weights, p: np.ndarray, q: np.ndarray) -> CoaxialMap:
    """The map sum over k of w_k A^(p_k) x A^(q_k): multiplier entries
    sum_k w_k alpha_i^p_k alpha_j^q_k on the cluster eigenvalues."""
    al = s.alphas[:, None]
    return CoaxialMap.from_clusters(s, (weights * al ** p) @ (al ** q).T)


def _seth_hill_ks(m: int) -> np.ndarray:
    """The k range of the Seth-Hill power sums: 1..m for m > 0, m+1..0 for m < 0."""
    if m == 0:
        raise ValueError("m = 0 has no power-sum form; use log_inverse_integral")
    return np.arange(1, m + 1) if m > 0 else np.arange(m + 1, 1)


def seth_hill_sum_form(m: int, a: SymTensor,
                       cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Power-sum form of the Seth-Hill gradient for integer m != 0.

    For m > 0 this is (1/m) sum over k = 1..m of A^(m-k) x A^(k-1); for
    m < 0 the k range is m+1..0.  Equals the spectral gradient of the
    measure (x^m - 1)/m.
    """
    m = int(m)
    ks = _seth_hill_ks(m)
    s = decompose(a, cluster_tol)
    _require_positive(s, "the Seth-Hill power sum")
    return _power_products(s, 1.0 / abs(m), m - ks, ks - 1)


def seth_hill_fractional_inverse(m: int, a: SymTensor,
                                 cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Power-sum form of the INVERSE gradient of the fractional measure 1/m.

    (1/|m|) sum of A^(1 - k/m) x A^((k-1)/m) over the same k range as the
    integer sum.
    """
    m = int(m)
    ks = _seth_hill_ks(m)
    s = decompose(a, cluster_tol)
    _require_positive(s, "the fractional inverse power sum")
    return _power_products(s, 1.0 / abs(m), 1.0 - ks / m, (ks - 1.0) / m)


def log_inverse_integral(a: SymTensor, quad_points: int = 32,
                         cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Inverse gradient of the logarithmic measure as a quadrature.

    Gauss-Legendre discretisation of the integral over x in [0, 1] of
    A^x x A^(1-x); the integrand is entire in x, so convergence to the
    spectral form is spectral in the point count.
    """
    if quad_points < 1:
        raise ValueError("need at least one quadrature point")
    s = decompose(a, cluster_tol)
    _require_positive(s, "the logarithmic inverse gradient")
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    x = 0.5 * (nodes + 1.0)
    return _power_products(s, 0.5 * weights, x, 1.0 - x)


def j_tensor(a: SymTensor) -> FourthTensor:
    """Commutator map X -> AX - XA as a fourth-order tensor (A positive definite)."""
    s = decompose(a)
    _require_positive(s, "the commutator map")
    return _commutator(a)


def j_pseudo(a: SymTensor, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Moore-Penrose pseudo-inverse of the commutator map, in spectral form."""
    s = decompose(a, cluster_tol)
    _require_positive(s, "the commutator pseudo-inverse")
    return CoaxialMap.from_clusters(s, _pair_inverse(s.alphas))


def k_tensor(a: SymTensor, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Diagonal-block map: sum of alpha_i A_i x A_i (A positive definite)."""
    s = decompose(a, cluster_tol)
    _require_positive(s, "the diagonal-block map")
    return CoaxialMap.from_clusters(s, np.diag(s.alphas))


def k_pseudo(a: SymTensor, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CoaxialMap:
    """Pseudo-inverse of the diagonal-block map: sum of alpha_i^-1 A_i x A_i."""
    s = decompose(a, cluster_tol)
    _require_positive(s, "the diagonal-block pseudo-inverse")
    return CoaxialMap.from_clusters(s, np.diag(1.0 / s.alphas))


@dataclass(frozen=True, eq=False)
class CommutatorSolution:
    """Minimum-norm solution of AX - XA = Y plus the unsolvable component.

    ``null_norm`` is the Frobenius norm of the part of Y commuting with A,
    which the commutator map cannot reach; the solution solves the equation
    with Y projected onto the attainable range.
    """

    solution: np.ndarray
    null_norm: float


def sylvester_commutator(a: SymTensor, y,
                         cluster_tol: float = DEFAULT_CLUSTER_TOL) -> CommutatorSolution:
    """Solve AX - XA = Y by the commutator pseudo-inverse.

    Y may be symmetric or skew (the solution has the opposite parity), given
    as a SymTensor or a 3x3 array.  In the eigenframe each off-block entry of
    Y is divided by its eigenvalue gap; the diagonal blocks are the
    unreachable part.  For an isotropic A (single eigenvalue) the map
    vanishes and only Y = 0 is solvable.
    """
    s = decompose(a, cluster_tol)
    _require_positive(s, "the commutator solver")
    ym = _as_matrix(y)
    null_norm = float(np.linalg.norm(CoaxialMap.from_clusters(s, np.eye(s.d)).apply(ym)))
    if s.d == 1 and null_norm > 1e-12 * max(1.0, a.norm()):
        raise DomainError("A has a single eigenvalue: AX - XA vanishes identically, "
                          f"but |Y| = {null_norm:.3e}")
    x = CoaxialMap.from_clusters(s, _pair_inverse(s.alphas)).apply(ym)
    return CommutatorSolution(solution=x, null_norm=null_norm)


def sylvester_power(m: int, a: SymTensor, c,
                    cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SymTensor:
    """Solve sum over k = 1..m of A^(m-k) X A^(k-1) = C for X.

    In the eigenframe the left-hand side multiplies X elementwise by
    sum_k alpha_i^(m-k) alpha_j^(k-1), which is (alpha_i^m - alpha_j^m) /
    (alpha_i - alpha_j) off the diagonal blocks and m alpha^(m-1) on them,
    so the solution divides C by it; positive definiteness of A keeps every
    entry away from zero.
    """
    m = int(m)
    if m < 1:
        raise ValueError("the power-sum equation needs a positive integer m")
    s = decompose(a, cluster_tol)
    _require_positive(s, "the power-sum solver")
    ks = _seth_hill_ks(m)
    lhs = _power_products(s, 1.0, m - ks, ks - 1)
    return SymTensor.sym_part(CoaxialMap(s, 1.0 / lhs.multiplier).apply(c))


def jk_decomposition(f: ScalarFn, a: SymTensor,
                     cluster_tol: float = DEFAULT_CLUSTER_TOL
                     ) -> tuple[CoaxialMap, CoaxialMap]:
    """Split the gradient and its inverse into diagonal-block and pair parts.

    Returns (grad, inverse) assembled as

        grad f(A)      = K(f'(A)) + J*(A) J(f(A))
        inverse grad   = K*(f'(A)) + J(A) J*(f(A))

    where K acts on f'(A) through the projector resolution of A (the
    continuous extension when f' happens to merge eigenvalues).  The identity
    J J* + K K* = fourth-order identity is verified internally, with J built
    from A's matrix as a box sum.
    """
    _require_strain_measure(f)
    s = decompose(a, cluster_tol)
    _require_positive(s, "the J/K decomposition")
    fv = np.array([f.deriv(0, float(x)) for x in s.alphas])
    fp = np.array([f.deriv(1, float(x)) for x in s.alphas])
    jstar_of_a = _pair_inverse(s.alphas)
    grad = np.diag(fp) + jstar_of_a * (fv[:, None] - fv[None, :])
    inv = np.diag(1.0 / fp) + (s.alphas[:, None] - s.alphas[None, :]) * _pair_inverse(fv)

    # internal consistency: J J* + K K* must be the fourth-order identity
    # (tolerance leaves headroom for spectra near the clustering threshold,
    # where projector roundoff scales like eps over the eigenvalue gap)
    kkstar = CoaxialMap.from_clusters(s, np.eye(s.d)).as_fourth_tensor()
    jstar = CoaxialMap.from_clusters(s, jstar_of_a).as_fourth_tensor()
    closure = _commutator(a).compose(jstar) + kkstar
    resid = float(np.abs(closure.dense() - FourthTensor.identity().dense()).max())
    if resid > 1e-8:
        raise NumericalError(f"J J* + K K* deviates from the identity by {resid:.3e}")
    return CoaxialMap.from_clusters(s, grad), CoaxialMap.from_clusters(s, inv)

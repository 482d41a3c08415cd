"""Tensor functions of symmetric 3x3 tensors.

Values f(A), spectral derivatives of every order, inverse gradients of
strain measures, and the Sylvester-type solvers they induce.
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericalError, ParseError
from .spectral import DEFAULT_CLUSTER_TOL, Spectrum, SymTensor, apply_fn, decompose
from .scalar_functions import (
    CallbackFn,
    Exp,
    Log,
    Monomial,
    Polynomial,
    Power,
    ScalarFn,
    SethHill,
    StrainMeasureFn,
    parse_fn_spec,
    seth_hill,
)
from .multilinear import BoxProduct, BoxSum, CoaxialMap, FourthTensor
from .coefficients import (
    CoeffTable,
    IndexClass,
    build_table,
    coeff_closed_form,
    coeff_divided_difference,
    coeff_interpolation,
    coeff_residue,
    count_classes,
    enumerate_classes,
)
from .derivatives import (
    SpectralDerivative,
    derivative,
    grad_chain_rule,
    grad_product_rule,
    grad_reciprocal,
    taylor_eval,
)
from .inverse_gradient import (
    CommutatorSolution,
    grad_spectral,
    inverse_grad,
    j_pseudo,
    j_tensor,
    jk_decomposition,
    k_pseudo,
    k_tensor,
    log_inverse_integral,
    seth_hill_fractional_inverse,
    seth_hill_sum_form,
    sylvester_commutator,
    sylvester_power,
)
from .oracle import (
    PerturbationSeries,
    expand_monomial,
    finite_diff_derivative,
    hermite_data,
    hermite_interp_solve,
)

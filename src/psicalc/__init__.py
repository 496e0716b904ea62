"""psicalc: exact deformed umbral calculus on rational polynomials.

A calculus built from an admissible sequence of nonzero factors: the
deformed derivative and antiderivative, the noncommutative star product,
Bernoulli-Taylor type expansions with exact Cauchy-form remainders,
forward-difference calculus on the integer lattice, and Hahn/Jackson
q-calculus.  All arithmetic is exact over the rationals; the single
numeric routine is the Jackson quadrature for black-box integrands.
"""

from .discrete import (
    DeltaExpansionReport,
    LatticeFunction,
    MaclaurinReport,
    backward_nabla,
    bernoulli_maclaurin,
    definite_sum,
    falling_factorial_poly,
    falling_factorial_value,
    forward_difference,
    iterated_sum,
    newton_expansion,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DegenerateParamsError,
    DomainError,
    InternalError,
    ParseError,
    PsiCalcError,
    RangeError,
)
from .expansions import (
    ExpansionReport,
    psi_bernoulli_taylor,
    taylor_classical,
    verify_expansion,
)
from .hahn import (
    HahnParams,
    JacksonQuadrature,
    hahn_derivative,
    jackson_antiderivative,
    jackson_integral_exact,
    jackson_integral_numeric,
    q_derivative,
    verify_hahn_reduction,
    verify_jackson_inverse,
)
from .operators import (
    Counterexample,
    GhwPair,
    VerificationReport,
    bernoulli_identity_sweep,
    delta_pair,
    derivative_pair,
    divided_difference_zero,
    exp_poly,
    historical_divided_difference_sum,
    historical_evaluation_sum,
    psi_antiderivative,
    psi_definite_integral,
    psi_derivative,
    psi_exp,
    psi_pair,
    psi_power,
    star_psi,
    umbral_tilde,
    verify_bernoulli_identity,
    verify_commutator,
    verify_exp_addition,
    verify_fundamental_theorem,
    verify_historical_series,
    verify_leibniz,
    verify_per_partes,
    verify_telescoping,
    x_hat_psi,
)
from .parsing import parse_poly
from .poly import Polynomial
from .sequences import (
    AdmissibilityReport,
    AdmissibleSequence,
    PsiContext,
    admissibility_check,
    parse_psi_spec,
    parse_rational,
)

__version__ = "0.1.0"

"""psicalc: exact deformed umbral calculus on rational polynomials.

A calculus built from an admissible sequence of nonzero factors: the
deformed derivative and antiderivative, the noncommutative star product,
Bernoulli-Taylor type expansions with exact Cauchy-form remainders,
forward-difference calculus on the integer lattice, and Hahn/Jackson
q-calculus.  All arithmetic is exact over the rationals; the single
numeric routine is the Jackson quadrature for black-box integrands.

`import psicalc` imports none of the submodules.  Each public name, and
each submodule, is imported on its first access as an attribute of the
package (PEP 562) and then bound here, so a later access is a plain
attribute read; `from psicalc import *` and `dir(psicalc)` list every
name.  So a CLI start compiles only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "discrete": (
        "DeltaExpansionReport", "LatticeFunction", "MaclaurinReport", "backward_nabla",
        "bernoulli_maclaurin", "definite_sum", "falling_factorial_poly",
        "falling_factorial_value", "forward_difference", "iterated_sum", "newton_expansion",
    ),
    "errors": (
        "AdmissibilityError", "ConvergenceError", "DegenerateParamsError", "DomainError",
        "InternalError", "ParseError", "PsiCalcError", "RangeError",
    ),
    "expansions": (
        "ExpansionReport", "psi_bernoulli_taylor", "taylor_classical", "verify_expansion",
    ),
    "hahn": (
        "HahnParams", "JacksonQuadrature", "hahn_derivative", "jackson_antiderivative",
        "jackson_integral_exact", "jackson_integral_numeric", "q_derivative",
        "verify_hahn_reduction", "verify_jackson_inverse",
    ),
    "operators": (
        "Counterexample", "GhwPair", "VerificationReport", "bernoulli_identity_sweep",
        "delta_pair", "derivative_pair", "divided_difference_zero", "exp_poly",
        "historical_divided_difference_sum", "historical_evaluation_sum", "psi_antiderivative",
        "psi_definite_integral", "psi_derivative", "psi_exp", "psi_pair", "psi_power",
        "star_psi", "umbral_tilde", "verify_bernoulli_identity", "verify_commutator",
        "verify_exp_addition", "verify_fundamental_theorem", "verify_historical_series",
        "verify_leibniz", "verify_per_partes", "verify_telescoping", "x_hat_psi",
    ),
    "parsing": ("parse_poly",),
    "poly": ("Polynomial",),
    "record": (),
    "sequences": (
        "AdmissibilityReport", "AdmissibleSequence", "PsiContext", "admissibility_check",
        "parse_psi_spec", "parse_rational",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_ORIGIN, *_EXPORTS]


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value  # so that the next access is a plain attribute read
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

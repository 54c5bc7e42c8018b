"""Census, fixed rings, and Levi coverage for moduli of tame parameters.

Preset groups: GL_n (n >= 1), SL_n (n >= 2), GSp_4, GSp_6, U_n (n >= 2).
Everything is exact: integer lattices, Laurent polynomials, small finite
fields.  The `oracle` module shadows the symbolic results with brute force.

`import param_atlas` loads no submodule.  Each name in `__all__` is imported
from its home module on first use (PEP 562) and then kept here, so a CLI job
loads only the modules its subcommand runs.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

# home module -> the names exported from it
_EXPORTS = {
    "budget": "BudgetExceededError DEFAULT_BUDGET check_budget current_budget",
    "census": "CensusEntry ComponentGroup ExplicitGroup TwistedClasses UnipotentClass census "
              "component_group cyclic_group direct_product partitions quaternion_group "
              "symmetric_group_3 symplectic_partitions twisted_class_count "
              "unipotent_classes",
    "coverage": "CoverageVerdict StandardLevi coverage_report is_regular_in "
                "simple_root_permutation standard_levis",
    "gf": "FiniteField get_field",
    "invariant_rings": "GeneratorSet NotInvariantError RingPresentation adams bg_presentation "
                       "count_points dickson_polynomial frobenius_pullback "
                       "fundamental_invariants orbit_sum rewrite_in_generators",
    "laurent": "LaurentPolynomial",
    "oracle": "AvoidantReport IdentityReport JacobianReport TwistReport all_automorphisms "
              "avoidant_check classify_twist eval_identity_trials "
              "is_commutant_solution jacobian_probe solve_commutant twisted_orbits_bruteforce",
    "root_datum": "ArithmeticContext GroupDatum UnsupportedPresetError build_group "
                  "prime_power_base",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package.  `census` names both a
        # submodule and an exported function; the function keeps the name.
        if name in _HOME and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

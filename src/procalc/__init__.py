"""A workbench for process calculi parametrised by an algebraic theory of
branching: normal forms, operational semantics, bisimilarity, equation
solving, equational proofs, and the star fragment.  Each exported name
loads its module on first use (PEP 562), so ``import procalc`` loads none."""

import sys

_EXPORTS = {  # module -> the names procalc exports from it
    "theory": "Theory TheoryError make_theory THEORY_NAMES is_skew_associative generator_key",
    "syntax": "Exp Zero Var Op Prefix Mu ZERO parse_exp unparse substitute "
              "guarded_subst_exp is_guarded free_vars ParseError",
    "semantics": "Tick TICK step gsubst_bm reachable Coalgebra coalgebra_to_json "
                 "coalgebra_from_json coalgebra_to_dot render_sterm StateCapExceeded "
                 "disjoint_union",
    "equivalence": "bisim_partition equivalent check_states Certificate",
    "solver": "EqSystem associated_system solve check_solution synthesize parse_system "
              "UnguardedSystem",
    "axioms": "check_proof parse_proof load_proof Proof ProofStep Verdict",
    "star": "SExp SOne SAct SSeq SStar SONE parse_sexp translate star_reachable "
            "is_guarded_star check_estar_instance partial_derivative output_guard tick_mass "
            "UNIT_VAR",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # imported by the statement, so -X importtime lists it
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_MODULE_OF[name]), name)
    return value  # kept in globals(), so later lookups skip this function


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""A workbench for process calculi parametrised by an algebraic theory of
branching: normal forms, operational semantics, bisimilarity, equation
solving, equational proofs, and the star fragment."""

from .theory import (Theory, TheoryError, make_theory, THEORY_NAMES,
                     is_skew_associative, generator_key)
from .syntax import (Exp, Zero, Var, Op, Prefix, Mu, Leaf, ZERO, parse_exp, unparse,
                     substitute, guarded_subst_exp, is_guarded,
                     free_vars, ParseError)
from .semantics import (Tick, Step, TICK, step, gsubst_bm, reachable,
                        Coalgebra, coalgebra_to_json, coalgebra_from_json,
                        coalgebra_to_dot, render_sterm, StateCapExceeded,
                        disjoint_union)
from .equivalence import bisim_partition, equivalent, check_states, Certificate
from .solver import (EqSystem, associated_system, solve,
                     check_solution, synthesize, parse_system, UnguardedSystem)
from .axioms import check_proof, parse_proof, load_proof, Proof, ProofStep, Verdict
from .star import (SExp, SZero, SOne, SAct, SChoice, SSeq, SStar, SZERO, SONE,
                   parse_sexp, unparse_sexp, translate, lstep, star_reachable,
                   star_equivalent, is_guarded_star, check_estar_instance,
                   partial_derivative, output_guard, tick_mass, UNIT_VAR)

__version__ = "0.1.0"

"""Guarded equation systems and their unique (up to bisimilarity) solutions.

A finite coalgebra gives an equation system whose unknowns are its states;
each right-hand side is the term reading of a state's normal form with
transitions turned back into syntax (outputs become variables, steps become
prefixes on unknowns).  Systems are solved by
elimination: the last unknown is closed with a mu-binder, substituted away,
and the smaller system solved recursively.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax
from .equivalence import equivalent
from .semantics import Out, Tick
from .syntax import Mu, Prefix, Var, free_vars, bound_vars, is_guarded, substitute
from .theory import TheoryError


class UnguardedSystem(ValueError):
    pass


@dataclass
class EqSystem:
    theory: object
    variables: tuple  # unknowns, in order
    exprs: tuple  # right-hand sides

    def __post_init__(self):
        unknowns = set()
        for x in self.variables:
            if x in unknowns:
                raise TheoryError(f"duplicate unknown {x!r}")
            unknowns.add(x)
        for y, e in zip(self.variables, self.exprs):
            bound = unknowns & bound_vars(e)
            if bound:
                raise TheoryError(f"unknown {min(bound)!r} is bound in the equation for {y!r}")

    def render(self):
        return "\n".join(
            f"{x} = {syntax.unparse(e)}"
            for x, e in zip(self.variables, self.exprs)
        )


def associated_system(c):
    """The guarded equation system of a finite coalgebra.

    State ids double as unknowns when they do not clash with output
    variables; clashing ids are renamed into the reserved % namespace.
    """
    outputs = set()
    for s in c.states:
        for g in c.theory.generators(c.structure[s]):
            if isinstance(g, Out):
                outputs.add(g.var)
            elif isinstance(g, Tick):
                raise TheoryError("termination transitions have no syntax")
    rename = {}
    for i, s in enumerate(c.states):
        rename[s] = s if s not in outputs else f"%{i}"

    def leaf(g):
        if isinstance(g, Out):
            return Var(g.var)
        return Prefix(g.action, Var(rename[g.target]))

    exprs = tuple(c.theory.term_of_nf(c.structure[s], leaf) for s in c.states)
    return EqSystem(c.theory, tuple(rename[s] for s in c.states), exprs)


def solve(system, order=None):
    """Milner elimination.  ``order`` lists the unknown positions in the
    order they are eliminated (default: last to first).  Returns the solution
    as a dict unknown -> closed-over expression."""
    for y, e in zip(system.variables, system.exprs):
        for x in system.variables:
            if not is_guarded(x, e):
                raise UnguardedSystem(f"unknown {x!r} is unguarded in the equation for {y!r}")
    if order is None:
        order = tuple(reversed(range(len(system.variables))))
    if sorted(order) != list(range(len(system.variables))):
        raise TheoryError("elimination order must permute the unknowns")
    eqs = list(zip(system.variables, system.exprs))
    phi = _solve(eqs, list(order))
    for x, e in phi.items():
        leftover = free_vars(e) & set(system.variables)
        if leftover:
            raise TheoryError(f"solution for {x} mentions unknowns {leftover}")
    return phi


def _solve(eqs, order):
    if len(eqs) == 1:
        x, e = eqs[0]
        return {x: Mu(x, e)}
    j = order[0]
    x_n, e_n = eqs[j]
    f_n = Mu(x_n, e_n)
    rest = [
        (x, substitute(e, {x_n: f_n})) for i, (x, e) in enumerate(eqs) if i != j
    ]
    shifted = [i if i < j else i - 1 for i in order[1:]]
    phi = _solve(rest, shifted)
    g_n = substitute(f_n, phi)
    return {**phi, x_n: g_n}


def check_solution(system, phi, cap=10000):
    """Semantic check: each unknown's value is bisimilar to its unfolded
    right-hand side, and values mention no unknowns."""
    unknowns = set(system.variables)
    for x in system.variables:
        if x not in phi:
            return False, f"no value for {x}"
        if free_vars(phi[x]) & unknowns:
            return False, f"value for {x} mentions unknowns"
    for x, e in zip(system.variables, system.exprs):
        cert = equivalent(phi[x], substitute(e, phi), system.theory, cap)
        if not cert.equivalent:
            return False, f"equation for {x} fails: {cert.detail}"
    return True, "solution checks"


def synthesize(c, state, order=None):
    """A closed expression whose behaviour matches the given state."""
    system = associated_system(c)
    phi = solve(system, order)
    pos = list(c.states).index(state)
    return phi[system.variables[pos]]


# -- system text format ------------------------------------------------------

def parse_system(text, theory, actions=None):
    """One equation per line, ``x = term``; blank lines and # comments ok."""
    variables = []
    exprs = []
    use = syntax.NameUse(actions)
    pending = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise syntax.ParseError(f"expected 'x = term' in {line!r}")
        lhs, rhs = line.split("=", 1)
        x = lhs.strip()
        if not x.isidentifier():
            raise syntax.ParseError(f"bad unknown {x!r}")
        variables.append(x)
        pending.append(rhs)
    for x in variables:
        use.see_variable(x, None)
    for x, rhs in zip(variables, pending):
        try:
            exprs.append(syntax.parse_exp(rhs, theory, names=use))
        except (syntax.ParseError, TheoryError) as err:
            raise type(err)(f"equation for {x!r}: {err}") from None
    return EqSystem(theory, tuple(variables), tuple(exprs))

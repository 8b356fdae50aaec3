"""Guarded equation systems and their unique (up to bisimilarity) solutions.

An equation system is ``semantics.EqSystem``, the record a finite
coalgebra is: its unknowns are the state ids and each right-hand side is
the term reading of a state's normal form.  Its transitions are syntax
already: an output is its variable, and a step is a prefix on an unknown;
only termination has none, and `solve` refuses it.  Systems are solved by elimination
in two passes.  The forward pass closes each unknown in turn with a
mu-binder and substitutes it into the equations left that mention it,
found through an index from each unknown to those equations; the back
pass substitutes the solutions of later unknowns into the closed
equations, only for the unknowns asked for and those they depend on.
"""

from __future__ import annotations

from . import syntax
from .semantics import EqSystem
from .syntax import Mu, Prefix, Tick, bound_vars, free_vars, post_order, substitute, unguarded_sets
from .theory import TheoryError


class UnguardedSystem(ValueError):
    pass


def associated_system(c):  # timed by perfbench/tracing.py; ROADMAP item 1b deletes it
    """The equation system of a finite coalgebra, which is the coalgebra."""
    return c


def solve(system, order=None, wanted=None):
    """Milner elimination.  ``order`` lists the unknown positions in the
    order they are eliminated (default: last to first).  Returns the
    solutions of the ``wanted`` unknowns (default: all) as a dict unknown ->
    closed-over expression.

    The forward pass substitutes a closed unknown only into the equations
    left in which it is free, so it makes one substitution per such
    occurrence, not one per pair of unknowns."""
    if any(type(n) is Tick for n in post_order(system.exprs, lambda n: type(n) is not Prefix)):
        raise TheoryError("termination transitions have no syntax")
    known = set(system.variables)
    unguarded = unguarded_sets(system.exprs)
    for y, e in zip(system.variables, system.exprs):
        bad = known.intersection(unguarded.get(e, ()))
        if bad:
            x = min(bad, key=system.variables.index)
            raise UnguardedSystem(f"unknown {x!r} is unguarded in the equation for {y!r}")
    if order is None:
        order = tuple(reversed(range(len(system.variables))))
    if sorted(order) != list(range(len(system.variables))):
        raise TheoryError("elimination order must permute the unknowns")
    wanted = system.variables if wanted is None else tuple(wanted)

    # forward: close each unknown in turn and substitute it away, so the
    # closed equation of an unknown mentions only unknowns eliminated later.
    # ``occurs`` maps each unknown left to the equations it is free in, and
    # to some closed ones, which are skipped.  The unknowns of the closed
    # equation, all of them left, now occur wherever the closed one did
    rest = dict(zip(system.variables, system.exprs))
    occurs = {x: set() for x in rest}
    for y, e in rest.items():
        for x in known.intersection(free_vars(e)):
            occurs[x].add(y)
    closed = {}
    for i in order:
        x = system.variables[i]
        closed[x] = f = Mu(x, rest.pop(x))
        targets = occurs.pop(x)
        for y in targets:
            if y in rest:
                rest[y] = substitute(rest[y], {x: f})
        for u in known.intersection(free_vars(f)):
            occurs[u] |= targets

    # back: only the wanted unknowns and, transitively, the later ones their
    # closed equations mention.  Back-substitution renames a binder only
    # where an equation binds a name left free in another; its fresh name
    # then depends on every later solution, so all are computed.
    need = set(wanted)
    outside = set().union(*map(free_vars, system.exprs)) - known
    if outside and not outside.isdisjoint(bound_vars(*system.exprs)):
        need = set(known)
    for x, f in closed.items():
        if x in need:
            need |= free_vars(f) & known
    phi = {}
    for x, f in reversed(closed.items()):
        if x in need:
            phi[x] = f if free_vars(f).isdisjoint(phi) else substitute(f, phi)
    for x in wanted:
        leftover = free_vars(phi[x]) & known
        if leftover:
            raise TheoryError(f"solution for {x} mentions unknowns {leftover}")
    return {x: phi[x] for x in wanted}


def check_solution(system, phi, cap=10000):
    """Semantic check: each unknown's value is bisimilar to its unfolded
    right-hand side, and values mention no unknowns."""
    from .equivalence import equivalent  # only this check refines; solving does not

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
    return solve(c, order, wanted=(state,))[state]


# -- system text format ------------------------------------------------------

def parse_system(text, theory, actions=None):
    """One equation per line, ``x = term``; blank lines and # comments ok.
    An unknown is a name as the term parser reads it, ``%k`` included."""
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
        if not syntax.is_name(x):  # as the term parser reads a name
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

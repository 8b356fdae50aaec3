"""Seeded random generators for terms, star expressions, and coalgebras."""

import random
import zlib
from fractions import Fraction

import procalc as pc

ATOMS = ("x1", "x2")
ACTIONS = ("a1", "a2")
OUTVARS = ("u", "v", "w")


def seed_for(name, salt=0):
    """Deterministic per-theory RNG seed (builtin hash() is randomised)."""
    return zlib.crc32(f"{salt}:{name}".encode())


def theory(name):
    return pc.make_theory(name, ATOMS if name == "gs" else None)


ALL_THEORIES = [theory(n) for n in pc.THEORY_NAMES]


def rand_prob(rng, max_den=4):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_guard(rng, atoms=ATOMS):
    return frozenset(a for a in atoms if rng.random() < 0.5)


def rand_param(th, rng):
    if th.id in ("sl", "cm"):
        return None
    if th.id == "gs":
        return rand_guard(rng, th.atoms)
    if th.id == "ca":
        return rand_prob(rng)
    return None if rng.random() < 0.5 else rand_prob(rng)


def rand_exp(th, rng, depth=3, bound=()):
    """Random process term; bound mu-variables may recur."""
    variables = OUTVARS + tuple(bound)
    leaf_kinds = ["zero", "var", "var"]
    kinds = leaf_kinds if depth <= 0 else ["zero", "var", "prefix", "prefix", "op", "op", "mu"]
    kind = rng.choice(kinds)
    if kind == "zero":
        return pc.ZERO
    if kind == "var":
        return pc.Var(rng.choice(variables))
    if kind == "prefix":
        return pc.Prefix(rng.choice(ACTIONS), rand_exp(th, rng, depth - 1, bound))
    if kind == "op":
        return pc.Op(
            rand_param(th, rng),
            (rand_exp(th, rng, depth - 1, bound), rand_exp(th, rng, depth - 1, bound)),
        )
    v = f"m{rng.randint(1, 3)}"
    body = rand_exp(th, rng, depth - 1, bound + (v,))
    return pc.Mu(v, body)


def rand_guarded_exp(th, rng, depth=3):
    """Random term where every mu-variable is guarded in its body (so the
    term denotes a productive process)."""
    for _ in range(200):
        e = rand_exp(th, rng, depth)
        if _all_mus_guarded(e):
            return e
    return pc.Prefix(ACTIONS[0], pc.ZERO)


def _all_mus_guarded(e):
    if isinstance(e, pc.Mu):
        if not pc.is_guarded(e.var, e.body):
            return False
    return all(_all_mus_guarded(c) for c in _children(e))


def _children(e):
    if isinstance(e, pc.Op):
        return e.args
    if isinstance(e, (pc.Prefix, pc.Mu)):
        return (e.body,)
    return ()


def rand_sterm(th, rng, states, depth=2):
    """Random structure term over out-variables and steps into states."""
    kind = rng.choice(
        ["leaf", "leaf"] if depth <= 0 else ["leaf", "op", "op"]
    )
    if kind == "leaf":
        which = rng.random()
        if which < 0.2:
            return pc.ZERO
        if which < 0.5:
            return pc.Var(rng.choice(OUTVARS))
        return pc.Prefix(rng.choice(ACTIONS), pc.Var(rng.choice(states)))
    return pc.Op(
        rand_param(th, rng),
        (rand_sterm(th, rng, states, depth - 1), rand_sterm(th, rng, states, depth - 1)),
    )


def rand_coalgebra(th, rng, max_states=5, depth=2):
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    structure = {
        s: pc.step(rand_sterm(th, rng, states, depth), th) for s in states
    }
    return pc.Coalgebra(th, states, structure)


def rand_sexp(th, rng, depth=3):
    kinds = ["zero", "one", "act", "act"] if depth <= 0 else [
        "zero", "one", "act", "act", "choice", "choice", "seq", "seq", "star"
    ]
    kind = rng.choice(kinds)
    if kind == "zero":
        return pc.ZERO
    if kind == "one":
        return pc.SONE
    if kind == "act":
        return pc.SAct(rng.choice(ACTIONS))
    if kind == "choice":
        return pc.Op(
            rand_param(th, rng),
            (rand_sexp(th, rng, depth - 1), rand_sexp(th, rng, depth - 1)),
        )
    if kind == "seq":
        return pc.SSeq(rand_sexp(th, rng, depth - 1), rand_sexp(th, rng, depth - 1))
    return pc.SStar(rand_param(th, rng), rand_guarded_sexp(th, rng, depth - 1))


def rand_guarded_sexp(th, rng, depth=2):
    """Random star expression in which the unit is guarded (usable as a loop
    body): an action, a sequence led by a guarded expression, or a choice of
    two guarded expressions."""
    kinds = ["act"] if depth <= 0 else ["act", "act", "seq", "choice"]
    kind = rng.choice(kinds)
    if kind == "act":
        return pc.SAct(rng.choice(ACTIONS))
    if kind == "seq":
        return pc.SSeq(rand_guarded_sexp(th, rng, depth - 1), rand_sexp(th, rng, depth - 1))
    return pc.Op(
        rand_param(th, rng),
        (rand_guarded_sexp(th, rng, depth - 1), rand_guarded_sexp(th, rng, depth - 1)),
    )

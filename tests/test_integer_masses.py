"""The integer-count ``ca`` and ``cs`` backends against the ``Fraction``-mass
backends they replaced (``tests/oracles.py``): every result equal after
conversion (``tests/masses.py``), and every result in lowest terms."""

import math
import random
from fractions import Fraction

import procalc as pc
from procalc import Op, ZERO, step
from procalc.theory import ZERO_SUBDIST, canonical_convex_set

from gen import rand_exp, theory
from masses import count_point, fraction_form, fraction_point, is_lowest
from oracles import (FractionConvexAlgebra, FractionConvexSemilattice,
                     fraction_canonical_convex_set, gen_term)

F = Fraction
CA, CS = theory("ca"), theory("cs")
REFERENCE = {"ca": FractionConvexAlgebra(), "cs": FractionConvexSemilattice()}
# 0 and 1 drop a side; the primes make denominators grow along a chain, and
# the chains draw 0 and 1 seldom, so that they grow deep
PROBS = (F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 7), F(5, 11), F(12, 13), F(1, 97))


def _agree(th, got, want):
    """``got`` is in lowest terms and is ``want`` in ``Fraction`` form."""
    points = [got] if th is CA else list(got)
    assert all(map(is_lowest, points)), got
    assert th is CA or ZERO_SUBDIST in got
    assert fraction_form(th, got) == want


def _terms_agree(th, nf, ref_nf):
    ref = REFERENCE[th.id]
    _agree(th, nf, ref_nf)
    assert th.term_of_nf(th.nf_map(nf, gen_term)) is ref.term_of_nf(ref.nf_map(ref_nf, gen_term))
    for g in th.generators(nf) | {"absent"}:
        got, want = th.weight(nf, g), ref.weight(ref_nf, g)
        assert got == want and type(got) is type(want)
    got, want = th.edges(nf), ref.edges(ref_nf)
    assert got == want and [type(w) for _, w in got] == [type(w) for _, w in want]


def test_unit_and_bottom_agree():
    for th in (CA, CS):
        ref = REFERENCE[th.id]
        _terms_agree(th, th.bottom(), ref.bottom())
        for g in ("g", pc.TICK, pc.Var("v"), pc.Prefix("a", pc.Var("s0"))):
            _terms_agree(th, th.unit(g), ref.unit(g))


def test_generated_terms_step_and_explore_alike():
    # step covers unit, op_apply and bind (each mu unfolding); reachable
    # covers nf_map onto state ids
    rng = random.Random(61)
    for th in (CA, CS):
        ref = REFERENCE[th.id]
        for _ in range(150):
            e = rand_exp(th, rng, depth=4)
            _terms_agree(th, step(e, th), step(e, ref))
            c, r = pc.reachable(e, th), pc.reachable(e, ref)
            assert c.variables == r.variables and c.exprs == r.exprs
            for x in c.exprs:
                _terms_agree(th, step(x, th), step(x, ref))


def _chain(th, rng, gens, length):
    """A random choice chain over ``gens`` of ``length`` choices, nested to
    the left or the right at each level, its parameters drawn from
    ``PROBS``; in ``cs`` some choices are plain sums."""
    t = gen_term(rng.choice(gens))
    for _ in range(length):
        p = None if th is CS and rng.random() < 0.2 else \
            rng.choice(PROBS[2:] if rng.random() < 0.97 else PROBS[:2])
        u = ZERO if rng.random() < 0.1 else gen_term(rng.choice(gens))
        t = Op(p, (t, u) if rng.random() < 0.5 else (u, t))
    return t


def test_random_chains_agree_on_every_operation():
    rng = random.Random(67)
    gens = ("g1", "g2", "g3", pc.TICK)
    seen = dict.fromkeys(("reduced", "deep"), 0)
    for th in (CA, CS):
        ref = REFERENCE[th.id]
        nfs = []
        for _ in range(120):
            # cs chains stay short: each plain sum doubles a mixture's points
            t = _chain(th, rng, gens, rng.choice((1, 3, 8, 40, 80) if th is CA else (1, 3, 6)))
            nf, ref_nf = step(t, th), step(t, ref)
            _terms_agree(th, nf, ref_nf)
            nfs.append((nf, ref_nf))
            seen["deep"] += th is CA and nf[0] > 2 ** 64
        for _ in range(300):
            (l, rl), (r, rr) = rng.choice(nfs), rng.choice(nfs)
            p = rng.choice(PROBS + (None,) if th is CS else PROBS)
            got = th.op_apply(p, (l, r))
            _agree(th, got, ref.op_apply(p, (rl, rr)))
            # the counts of a mixture had a common factor to divide out
            if th is CA and p not in (0, 1):
                seen["reduced"] += got[0] < p.denominator * math.lcm(l[0], r[0])
            # an equal mixture of one side with itself is that side again
            if p is not None:
                assert th.op_apply(p, (l, l)) == l
            # a merging pushforward
            f = {"g1": "h", "g2": "h", "g3": "g3", pc.TICK: pc.TICK}.get
            _agree(th, th.nf_map(l, f), ref.nf_map(rl, f))
            # bind onto the chain normal forms, the same images on both sides
            images = {g: rng.choice(nfs) for g in gens}
            got = th.bind(l, lambda g: images[g][0])
            _agree(th, got, ref.bind(rl, lambda g: images[g][1]))
    # at seed 67: 79 reduced mixtures, 32 chains over 2 ** 64
    assert min(seen.values()) >= 20, seen


def test_canonical_convex_sets_agree():
    rng = random.Random(71)
    coords = ("x", "y", "z")
    for _ in range(400):
        points = set()
        for _ in range(rng.randint(1, 6)):
            chosen = rng.sample(coords, rng.randint(0, 3))
            weights = [rng.randint(1, 6) for _ in chosen]
            total = sum(weights) + rng.choice((0, 0, 1, 5))
            points.add(frozenset((c, F(w, total)) for c, w in zip(chosen, weights)))
        got = canonical_convex_set(map(count_point, points))
        _agree(CS, got, fraction_canonical_convex_set(points))


def test_conversion_round_trips():
    rng = random.Random(73)
    for _ in range(200):
        t = _chain(CA, rng, ("g1", "g2", "g3"), 12)
        nf = step(t, CA)
        assert count_point(fraction_point(nf)) == nf

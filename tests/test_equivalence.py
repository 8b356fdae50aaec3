"""Bisimilarity: partition refinement, certificates, cross-check oracle."""

import itertools
import random
from fractions import Fraction

import pytest

import procalc as pc

from gen import (ALL_THEORIES, rand_coalgebra, rand_guarded_exp, rand_param, rand_sexp, seed_for,
                 theory)
from masses import fraction_point
from oracles import moore_check_states, moore_partition, naive_bisim_relation, reachable_union

F = Fraction


def equiv(a, b, name, **kw):
    th = theory(name)
    return pc.equivalent(pc.parse_exp(a, th), pc.parse_exp(b, th), th, **kw)


# ---------------------------------------------------------------------------
# pinned examples

def test_mu_vv_is_zero():
    assert equiv("mu v. v", "0", "sl").equivalent


def test_guarded_unrolling():
    assert equiv("mu v. a.v", "a.(mu v. a.v)", "sl").equivalent


def test_distinct_actions_not_equivalent():
    cert = equiv("a.0", "b.0", "sl")
    assert not cert.equivalent
    assert "signature" in cert.detail


def test_gs_skew_commutativity():
    assert equiv("u +[x1] w", "w +[x2] u", "gs").equivalent
    assert not equiv("u +[x1] w", "w +[x1] u", "gs").equivalent


def test_unguarded_recursion_counterexample():
    # mu v.(u +[1/2] v) reaches u with mass 1/2, its unguarded unrolling
    # with mass 3/4, so R1 fails without the guardedness side condition
    th = theory("ca")
    e = pc.parse_exp("u +[1/2] v", th)
    m = pc.Mu("v", e)
    unrolled = pc.substitute(e, {"v": m})

    def out_mass(x, var):
        return sum(
            (p for g, p in fraction_point(pc.step(x, th)) if g == pc.Var(var)), F(0)
        )

    assert out_mass(m, "u") == F(1, 2)
    assert out_mass(unrolled, "u") == F(3, 4)
    assert not pc.equivalent(m, unrolled, th).equivalent


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_fixpoint_stability(th):
    # mu v.e ~ e[mu v.e/v] whenever v is guarded in e
    rng = random.Random(seed_for(th.id, 65521))
    done = 0
    while done < 40:
        body = rand_guarded_exp(th, rng, depth=3)
        if not pc.is_guarded("u", body):
            continue
        done += 1
        m = pc.Mu("u", body)
        assert pc.equivalent(m, pc.substitute(body, {"u": m}), th).equivalent


# ---------------------------------------------------------------------------
# relation laws

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_equivalence_relation_laws(th):
    rng = random.Random(seed_for(th.id, 32749))
    for _ in range(100):
        e1 = rand_guarded_exp(th, rng, depth=2)
        e2 = rand_guarded_exp(th, rng, depth=2)
        e3 = rand_guarded_exp(th, rng, depth=2)
        assert pc.equivalent(e1, e1, th).equivalent
        r12 = pc.equivalent(e1, e2, th).equivalent
        assert r12 == pc.equivalent(e2, e1, th).equivalent
        if r12 and pc.equivalent(e2, e3, th).equivalent:
            assert pc.equivalent(e1, e3, th).equivalent


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_congruence_spot_checks(th):
    rng = random.Random(seed_for(th.id, 28657))
    found = 0
    for _ in range(300):
        e1 = rand_guarded_exp(th, rng, depth=2)
        e2 = rand_guarded_exp(th, rng, depth=2)
        if not pc.equivalent(e1, e2, th).equivalent:
            continue
        found += 1
        assert pc.equivalent(
            pc.Prefix("a1", e1), pc.Prefix("a1", e2), th
        ).equivalent
        p = rand_param(th, rng)
        f = rand_guarded_exp(th, rng, depth=1)
        assert pc.equivalent(
            pc.Op(p, (e1, f)), pc.Op(p, (e2, f)), th
        ).equivalent
        if found >= 15:
            break
    assert found >= 5


# ---------------------------------------------------------------------------
# oracle agreement

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_partition_agrees_with_naive_relation(th):
    rng = random.Random(seed_for(th.id, 16127))
    for _ in range(60):
        c = rand_coalgebra(th, rng, max_states=4)
        block = pc.bisim_partition(c)
        rel = naive_bisim_relation(c)
        for x in c.states:
            for y in c.states:
                assert ((x, y) in rel) == (block[x] == block[y])


def test_certificate_contents():
    cert = equiv("mu v. a.v", "a.(mu v. a.v)", "sl")
    assert cert.equivalent and cert.detail.startswith("stable partition")
    cert = equiv("a.a.0", "a.0", "sl")
    assert not cert.equivalent and "round" in cert.detail


def test_a_step_to_a_state_outside_the_coalgebra_raises():
    # loading a file refuses such a step; a coalgebra built in code is
    # explored from its states, and stepping the unknown target raises
    c = pc.semantics.Coalgebra(theory("sl"), ("s0",),
                               {"s0": frozenset({pc.Prefix("a", pc.Var("s1"))})})
    for refine in (pc.bisim_partition, lambda c: pc.check_states(c, "s0", "s0")):
        with pytest.raises(KeyError, match="s1"):
            refine(c)


def long_cycle(k, op, laps=1, last_out=None):
    """``mu x. a^k.(u OP a.x)``; ``laps=2`` unrolls the loop once more
    (bisimilar); ``last_out`` replaces the output of the last lap."""
    body = "x"
    for lap in reversed(range(laps)):
        out = last_out if (last_out and lap == laps - 1) else "u"
        body = "a1." * k + f"({out} {op} a1.{body})"
    return f"mu x. {body}"


LONG_OPS = {"sl": "+", "cm": "+", "gs": "+[x1]", "ca": "+[1/2]", "cs": "+[1/3]"}


def long_pairs(th, k):
    """The coalgebras of a long cycle against its period-doubled unfolding
    (equivalent) and against a different last output (not equivalent)."""
    left = pc.reachable(pc.parse_exp(long_cycle(k, LONG_OPS[th.id]), th), th)
    for kw in ({"laps": 2}, {"last_out": "v"}):
        right = pc.parse_exp(long_cycle(k, LONG_OPS[th.id], **kw), th)
        yield pc.disjoint_union(left, pc.reachable(right, th))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_incremental_refinement_agrees_with_moore(th):
    rng = random.Random(seed_for(th.id, 40503))
    coalgebras = [rand_coalgebra(th, rng, max_states=8) for _ in range(30)]
    pairs = [(c, x, y) for c in coalgebras for x, y in itertools.combinations(c.states, 2)]
    for _ in range(60):
        e, f = rand_guarded_exp(th, rng), rand_guarded_exp(th, rng)
        c = pc.disjoint_union(pc.reachable(e, th), pc.reachable(f, th))
        coalgebras.append(c)
        pairs.append((c, "as0", "bs0"))
    for c in long_pairs(th, 6):
        coalgebras.append(c)
        pairs.append((c, "as0", "bs0"))
    for c in coalgebras:
        assert pc.bisim_partition(c) == moore_partition(c)
    for c, x, y in pairs:
        assert pc.check_states(c, x, y) == moore_check_states(c, x, y)


def _named_union_certificates(x, y, th, stepper=pc.step):
    """The certificates of the named union of two explorations, from
    ``check_states`` and from whole-trace Moore refinement."""
    c = reachable_union(x, y, th, stepper=stepper)
    return pc.check_states(c, "as0", "bs0"), moore_check_states(c, "as0", "bs0")


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_refining_explored_terms_agrees_with_the_named_union(th):
    # equivalent refines the explored terms of either grammar by position,
    # and reads a term that both sides reach at its first position; the
    # oracle names both sides' states first.  Sides that share subterms: e
    # against e, a.e and e + 0, and a cycle against its unfolding.
    rng = random.Random(seed_for(th.id, 15151))
    pairs = []
    for _ in range(25):
        e, f = rand_guarded_exp(th, rng), rand_guarded_exp(th, rng)
        pairs += [(e, f), (e, e), (e, pc.Prefix("a1", e)), (pc.Prefix("a1", e), e),
                  (e, pc.Op(rand_param(th, rng), (e, pc.ZERO)))]
    for kw in ({"laps": 2}, {"last_out": "v"}):
        pairs.append(tuple(pc.parse_exp(long_cycle(6, LONG_OPS[th.id], **k), th)
                           for k in ({}, kw)))
    # not equivalent, with prefix roots: their certificates print the
    # signature of a prefix state, which refinement never built
    cycle = pc.parse_exp(long_cycle(6, LONG_OPS[th.id]), th)
    apart = [(pc.parse_exp("a1.b1.0", th), pc.parse_exp("a1.c1.0", th)),
             (cycle, pc.Prefix("a2", cycle))]
    unfolded = pc.substitute(cycle.body, {"x": cycle})
    pairs.append((cycle, unfolded))
    apart.append((unfolded, pc.Prefix("a1", pc.Prefix("a1", unfolded.body))))
    for e, f in (pairs[-1], *apart[1:]):
        orders = [pc.semantics._explore((x,), th, 100, pc.step)[0] for x in (e, f)]
        assert len(set(orders[0]) & set(orders[1])) >= 5
    verdicts = set()
    for e, f in pairs + apart:
        cert = pc.equivalent(e, f, th)
        assert [cert, cert] == list(_named_union_certificates(e, f, th))
        verdicts.add(cert.equivalent)
    for e, f in apart:
        assert not pc.equivalent(e, f, th).equivalent
    for _ in range(25):
        s, t = rand_sexp(th, rng), rand_sexp(th, rng)
        for x, y in ((s, t), (s, s), (s, pc.SSeq(pc.SAct("a1"), s))):
            cert = pc.equivalent(x, y, th)
            assert [cert, cert] == list(_named_union_certificates(x, y, th, pc.step))
            verdicts.add(cert.equivalent)
    assert verdicts == {True, False}


def _runs(th, rng, runs):
    """``mu x.`` over a choice of ``runs`` runs of one action, 1 to 12 long,
    each over 0, an output or x: most states are prefixes on that action,
    and many of them share a block in the same round."""
    op = f" {LONG_OPS[th.id]} "
    return "mu x. " + op.join("a1." * rng.randint(1, 12) + rng.choice(("0", "u", "v", "x"))
                              for _ in range(runs))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_prefix_states_signed_by_shared_units_agree_with_moore(th):
    # refinement builds the signature of a prefix state once per (action,
    # block) pair in a call; Moore refinement of the named union rebuilds
    # every signature in every round: the same rounds and certificate text
    rng = random.Random(seed_for(th.id, 0x5161))
    verdicts = set()
    for _ in range(30):
        texts = [_runs(th, rng, rng.randint(2, 5)) for _ in range(2)]
        e, f = (pc.parse_exp(t, th) for t in texts)
        unfolded = pc.substitute(e.body, {"x": e})
        for x, y in ((e, f), (e, unfolded), (e, pc.Prefix("a1", e)), (f, f)):
            cert = pc.equivalent(x, y, th)
            assert [cert, cert] == list(_named_union_certificates(x, y, th)), texts
            verdicts.add(cert.equivalent)
        c = reachable_union(e, unfolded, th)
        assert pc.bisim_partition(c) == moore_partition(c)
    assert verdicts == {True, False}


@pytest.mark.parametrize("th", [t for t in ALL_THEORIES if t.id != "cs"], ids=lambda t: t.id)
def test_equiv_reads_each_explored_state_once(th, monkeypatch):
    # exploration hands refinement the successors it found, and steps a prefix
    # without its generators; cs is left out, because its own combinations
    # and pushforwards read generators
    calls = []
    generators = type(th).generators
    monkeypatch.setattr(type(th), "generators", lambda self, nf: calls.append(nf) or generators(self, nf))
    e, f = (pc.parse_exp(long_cycle(6, LONG_OPS[th.id], **kw), th) for kw in ({}, {"laps": 2}))
    orders = [pc.semantics._explore((x,), th, 100, pc.step)[0] for x in (e, f)]
    calls.clear()
    assert pc.equivalent(e, f, th).equivalent
    states = [x for order in orders for x in order]
    assert len(calls) <= len(states)
    assert len(calls) == sum(type(x) is not pc.Prefix for x in states) < len(states)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_state_cap_is_checked_on_each_side(th):
    # a prefixed term has more states, so each order puts the larger side first once
    e = pc.parse_exp(long_cycle(3, LONG_OPS[th.id]), th)
    s = pc.SSeq(pc.SStar(rand_param(th, random.Random(1)), pc.SAct("a1")), pc.SAct("b1"))
    for x, y, check, stepper, reach in (
            (e, pc.Prefix("a2", e), pc.equivalent, pc.step, pc.reachable),
            (s, pc.SSeq(pc.SAct("a2"), s), pc.equivalent, pc.step, pc.star_reachable)):
        for x, y in ((x, y), (y, x)):
            sizes = len(reach(x, th).states), len(reach(y, th).states)
            assert sizes[0] != sizes[1]
            n = max(sizes)
            assert check(x, y, th, cap=n) == _named_union_certificates(x, y, th, stepper)[0]
            with pytest.raises(pc.StateCapExceeded) as ours:
                check(x, y, th, cap=n - 1)
            with pytest.raises(pc.StateCapExceeded) as oracle:
                reachable_union(x, y, th, cap=n - 1, stepper=stepper)
            assert str(ours.value) == str(oracle.value) == f"more than {n - 1} reachable states"


@pytest.mark.parametrize("name", ["sl", "ca", "gs"])
def test_refinement_recomputes_only_predecessors_of_moved_states(name, monkeypatch):
    # Moore refinement rebuilds every signature in every round: 11,163 and
    # 7,566 calls here, against 363 and 244 (one pushforward per signature,
    # and two more for the certificate of the pair that is not equivalent)
    th = theory(name)
    calls = []
    nf_map = th.nf_map
    monkeypatch.setattr(th, "nf_map", lambda nf, f: calls.append(nf) or nf_map(nf, f))
    for c, eq in zip(long_pairs(th, 60), (True, False)):
        calls.clear()
        cert = pc.check_states(c, "as0", "bs0")
        assert cert.equivalent == eq and cert.rounds == (60 if eq else 61)
        assert len(calls) <= 3 * len(c.states)


@pytest.mark.parametrize("name", pc.THEORY_NAMES)
def test_equivalent_pushes_each_state_forward_once(name, monkeypatch):
    # refinement reads the explored terms, so no state is pushed forward to
    # be named (naming both sides took one more nf_map per state, relabelling
    # a disjoint union two); a prefix state a.t is its own step, signed as the
    # unit of (a, block of t), so it builds no node and gets no nf_map, only
    # the other states' signatures push forward; and a mu unfolding is one
    # bind, which builds the only prefixes made
    from procalc import semantics, syntax

    th = theory(name)
    e, f = (pc.parse_exp(long_cycle(60, LONG_OPS[name], **kw), th)
            for kw in ({}, {"laps": 2}))
    states = [x for c in (e, f) for x in semantics._explore((c,), th, 1000, pc.step)[0]]
    prefix_steps = {x for x in states if type(x) is pc.Prefix}
    others = [pc.step(x, th) for x in states if type(x) is not pc.Prefix]
    made, pushed, binds, unfolding = [], [], [], []
    prefix_run, nf_map, gsubst_bm = syntax._prefix_run, th.nf_map, semantics.gsubst_bm

    def unfold(*args):
        binds.append(args)
        unfolding.append(args)
        try:
            return gsubst_bm(*args)
        finally:
            unfolding.pop()

    # made: for each run of prefixes built, whether an unfolding builds it
    monkeypatch.setattr(syntax, "_prefix_run",
                        lambda acts, body: made.append(bool(unfolding)) or prefix_run(acts, body))
    monkeypatch.setattr(th, "nf_map", lambda nf, g: pushed.append(nf) or nf_map(nf, g))
    monkeypatch.setattr(semantics, "gsubst_bm", unfold)
    assert pc.equivalent(e, f, th).equivalent
    assert len(states) == 183 and len(prefix_steps) == 178 and len(binds) == 2
    assert made and all(made)
    # round 1 signs the five other states, later rounds fewer than that again
    assert all(nf in others for nf in pushed)
    assert len(others) <= len(pushed) < 2 * len(others)

"""Operational semantics: step, guarded substitution on structures,
reachable subcoalgebras, serialisation."""

import json
import pickle
import random
from fractions import Fraction

import pytest

import procalc as pc
from procalc import cli, semantics
from procalc.semantics import StateCapExceeded, Tick, disjoint_union
from procalc.theory import ZERO_SUBDIST, TheoryError

from gen import (ACTIONS, ALL_THEORIES, rand_coalgebra, rand_exp, rand_guarded_exp, rand_param,
                 rand_sexp, rand_sterm, seed_for, theory)
from masses import count_point, fraction_point
from oracles import (axiom_side_ok, coalgebra_from_dict_by_step, instantiate_schema, lstep_walk,
                     reachable_union, reachable_unmemoised, step_walk, u_set, unparse_uncached)

F = Fraction


def sub(*pairs):
    return count_point(frozenset((g, F(m)) for g, m in pairs))


# ---------------------------------------------------------------------------
# frozen golden derivations

GS_E = "mu w. (a1.(v +[x1] a2.w) +[x1] u)"
CA_E = "mu v. (a1.u +[1/2] (a2.v +[1/3] w))"
CS_E = "mu v. ((a1.v +[1/3] a2.w) + a2.v)"


def test_step_gs_example():
    th = theory("gs")
    e = pc.parse_exp(GS_E, th)
    f = pc.parse_exp("v +[x1] a2.(mu w. (a1.(v +[x1] a2.w) +[x1] u))", th)
    assert pc.step(e, th) == (pc.Prefix("a1", f), pc.Var("u"))


def test_step_ca_example():
    th = theory("ca")
    e = pc.parse_exp(CA_E, th)
    assert pc.step(e, th) == sub(
        (pc.Prefix("a1", pc.Var("u")), F(1, 2)),
        (pc.Prefix("a2", e), F(1, 6)),
        (pc.Var("w"), F(1, 3)),
    )


def test_step_cs_example():
    th = theory("cs")
    e = pc.parse_exp(CS_E, th)
    assert pc.step(e, th) == frozenset(
        {
            ZERO_SUBDIST,
            sub((pc.Prefix("a1", e), F(1, 3)), (pc.Prefix("a2", pc.Var("w")), F(2, 3))),
            sub((pc.Prefix("a2", e), F(1))),
        }
    )


def test_step_base_cases():
    th = theory("sl")
    assert pc.step(pc.Var("v"), th) == frozenset({pc.Var("v")})
    assert pc.step(pc.Prefix("a", pc.ZERO), th) == frozenset(
        {pc.Prefix("a", pc.ZERO)}
    )
    assert pc.step(pc.parse_exp("mu v. v", th), th) == th.bottom()
    assert pc.step(pc.ZERO, th) == th.bottom()


# ---------------------------------------------------------------------------
# guarded substitution on structures

def test_gsubst_bm_examples():
    th = theory("sl")
    g = pc.Prefix("b", pc.ZERO)
    assert pc.gsubst_bm(th.unit(pc.Var("v")), g, "v", th) == th.bottom()
    assert pc.gsubst_bm(
        th.unit(pc.Prefix("a", pc.Var("v"))), g, "v", th
    ) == th.unit(pc.Prefix("a", g))

    ca = theory("ca")
    nf = sub((pc.Var("v"), F(1, 2)), (pc.Var("u"), F(1, 2)))
    assert pc.gsubst_bm(nf, g, "v", ca) == sub((pc.Var("u"), F(1, 2)))


_CHOICE = {"sl": None, "cm": None, "gs": frozenset({"x1"}), "ca": F(1, 3), "cs": F(1, 3)}


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_an_output_is_its_own_var_node(th):
    """A free variable steps to the unit of its own hash-consed ``Var``
    node, which is also its term reading; a ``mu`` unfolding zeroes the
    output of the bound variable only, and rewires the steps to it."""
    v, u = pc.Var("v"), pc.Var("u")
    nf = pc.step(v, th)
    assert nf == th.unit(v)
    (g,) = th.generators(nf)
    assert g is v and g is pc.Var("v")
    assert th.term_of_nf(nf) in (v, pc.Op(None, (pc.ZERO, v)))  # cs: the deadlock point too
    p = _CHOICE[th.id]
    fix = pc.parse_exp("mu v. a.v", th)
    body = pc.step(pc.Op(p, (u, pc.Op(p, (v, pc.Prefix("a", v))))), th)
    assert pc.gsubst_bm(body, fix, "v", th) == \
        pc.step(pc.Op(p, (u, pc.Op(p, (pc.ZERO, pc.Prefix("a", fix))))), th)
    assert pc.gsubst_bm(body, fix, "w", th) == body


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_r1_semantic_identity(th):
    # epsilon(e[mu v e // v]) = epsilon(mu v e) on random bodies.  With
    # nested unguarded binders the two sides can produce syntactically
    # distinct (but bisimilar) step targets, e.g. body = mu m. a.m + u;
    # in that case fall back to comparing the processes behaviourally.
    rng = random.Random(seed_for(th.id, 100003))
    for _ in range(200):
        body = rand_exp(th, rng, depth=3)
        m = pc.Mu("u", body)
        unrolled = pc.guarded_subst_exp(body, m, "u")
        if not pc.step(m, th) == pc.step(unrolled, th):
            assert pc.equivalent(m, unrolled, th).equivalent, pc.unparse(m)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_step_invariant_under_root_axiom_rewrite(th):
    # replacing the root by an axiom-equal term leaves the structure map
    # unchanged (well-definedness modulo Eq at depth 1)
    from procalc.axioms import _match
    from gen import rand_param

    rng = random.Random(seed_for(th.id, 9973))
    checked = 0
    while checked < 200:
        e = pc.Op(
            rand_param(th, rng),
            (rand_exp(th, rng, depth=2), rand_exp(th, rng, depth=2)),
        )
        ax = rng.choice(th.axioms)
        menv, penv = {}, {}
        if not _match(ax.lhs, e, menv, penv, th) or not axiom_side_ok(ax, penv):
            continue
        try:
            inst = instantiate_schema(ax.rhs, menv, penv, th)
        except TheoryError:
            continue
        checked += 1
        assert pc.step(e, th) == pc.step(inst, th), (ax.name, pc.unparse(e))


# ---------------------------------------------------------------------------
# reachable subcoalgebras

def test_reachable_gs_example():
    th = theory("gs")
    c = pc.reachable(pc.parse_exp(GS_E, th), th)
    assert c.states == ("s0", "s1")
    assert c.structure["s0"] == (pc.Prefix("a1", pc.Var("s1")), pc.Var("u"))
    assert c.structure["s1"] == (pc.Var("v"), pc.Prefix("a2", pc.Var("s0")))


def test_reachable_ca_example():
    th = theory("ca")
    c = pc.reachable(pc.parse_exp(CA_E, th), th)
    assert len(c.states) == 2
    # the second state is the a1-target u, which only outputs
    assert c.structure[c.states[1]] == sub((pc.Var("u"), F(1)))
    # self-loop 1/6 | a2 on the seed
    s0 = c.states[0]
    assert (pc.Prefix("a2", pc.Var(s0)), F(1, 6)) in fraction_point(c.structure[s0])


def test_reachable_trivial():
    th = theory("sl")
    c = pc.reachable(pc.parse_exp("mu v. v", th), th)
    assert len(c.states) == 1
    assert c.structure[c.states[0]] == th.bottom()


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_reachable_closure_and_oracle_bound(th):
    rng = random.Random(seed_for(th.id, 7919))
    for _ in range(60):
        e = rand_guarded_exp(th, rng, depth=3)
        c = pc.reachable(e, th)
        listed = set(c.states)
        for s in c.states:
            for g in th.generators(c.structure[s]):
                if isinstance(g, pc.Prefix):
                    assert g.body.name in listed
        assert len(c.states) <= len(u_set(e))


def test_state_cap():
    th = theory("sl")
    e = pc.parse_exp("a.b.c.0", th)
    with pytest.raises(StateCapExceeded):
        pc.reachable(e, th, cap=2)


def test_reachable_deterministic():
    th = theory("ca")
    e = pc.parse_exp(CA_E, th)
    c1, c2 = pc.reachable(e, th), pc.reachable(e, th)
    assert c1.states == c2.states and c1.structure == c2.structure


CYC_OPS = {"sl": "+", "cm": "+", "gs": "+[x1]", "ca": "+[1/2]", "cs": "+[1/3]"}


def cyc(n, op):
    """n nested binders, each level doing ``a`` and then choosing between
    the outermost binder and the next level."""
    return "".join(f"mu x{i}. a.(x0 {op} b." for i in range(n)) + "0" + ")" * n


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_memoised_reachable_agrees_with_fresh_stepping(th):
    rng = random.Random(seed_for(th.id, 7919))
    terms = [rand_guarded_exp(th, rng, depth=4) for _ in range(40)]
    terms += [pc.parse_exp(cyc(n, CYC_OPS[th.id]), th) for n in (6, 14, 40)]
    for e in terms:
        c, o = pc.reachable(e, th), reachable_unmemoised(e, th)
        assert (c.states, c.structure) == (o.states, o.structure)
    for _ in range(40):
        s = rand_sexp(th, rng, depth=4)
        c, o = pc.star_reachable(s, th), reachable_unmemoised(s, th, pc.step)
        assert (c.states, c.structure) == (o.states, o.structure)


@pytest.mark.parametrize("name", ["sl", "ca"])
def test_reachable_unfolds_each_mu_once(name, monkeypatch):
    # stepping every state afresh makes 18,178 _subst calls here
    from procalc import syntax

    th = theory(name)
    e = pc.parse_exp(cyc(60, CYC_OPS[name]), th)
    calls, unfolded = [], []
    subst, gsubst_bm = syntax._subst, semantics.gsubst_bm
    monkeypatch.setattr(syntax, "_subst", lambda *a: calls.append(a[0]) or subst(*a))
    monkeypatch.setattr(semantics, "gsubst_bm", lambda *a: unfolded.append(a[1]) or gsubst_bm(*a))
    c = pc.reachable(e, th)
    assert len(c.states) == 121
    assert len(calls) <= 3 * len(c.states)
    assert len(unfolded) == len(set(unfolded))


@pytest.mark.parametrize("atoms", [["x1"], ["x1", "x2"], ["x1", "x2", "x3", "x4"]])
def test_gs_unfolding_rewrites_its_target_once(atoms, monkeypatch):
    # bind calling f once per atom rewrote the unfolded target once per atom
    from procalc import syntax

    th = pc.make_theory("gs", atoms)
    e = pc.parse_exp("mu x. " + "a." * 100 + "(u +[x1] a.x)", th)
    calls, subst = [], syntax._subst
    monkeypatch.setattr(syntax, "_subst", lambda *a: calls.append(a[0]) or subst(*a))
    assert len(pc.reachable(e, th).states) == 101
    assert len(calls) == 1


def _walk_terms(th, rng):
    """``tests/gen.py`` terms, some under a vacuous binder (``mu z. t``) and
    some under two binders of one of their free variables, the outer one
    shadowed (``mu x. mu x. t``)."""
    for _ in range(30):
        t = rand_exp(th, rng, depth=4)
        yield t
        yield pc.Mu("z", t)
        for x in sorted(t._free)[:1]:
            yield pc.Mu(x, pc.Mu(x, t))
        yield pc.Op(rand_param(th, rng), (pc.Mu("z", pc.Mu("z", t)), rand_exp(th, rng, depth=3)))


def _explored(e, th, stepper):
    """``_explore`` from ``e`` and its memo, or the error it raised.  Each
    state's successor positions follow its generators in set order, which
    equal normal forms built apart need not share, so they are sorted."""
    memos = []

    def keep_memo(x, theory, memo):
        memos[:] = [memo]
        return stepper(x, theory, memo)

    try:
        order, index, raw, succ = semantics._explore((e,), th, 2000, keep_memo)
    except StateCapExceeded as err:
        return str(err), memos
    return (order, index, raw, [sorted(targets) for targets in succ]), memos


def _lts_text(c, capsys):
    for fmt in ("text", "json"):
        cli._emit_coalgebra(c, fmt)
    return capsys.readouterr().out


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_step_agrees_with_one_walk_per_term(th, capsys):
    # step evaluates a node with stepped children at once and steps a
    # vacuous mu as its body; the oracle walks and unfolds every binder
    rng = random.Random(seed_for(th.id, 2801))
    for e in _walk_terms(th, rng):
        assert pc.step(e, th) == step_walk(e, th)
        # one memo shared over an exploration, as reachable and equiv keep it
        assert _explored(e, th, pc.step) == _explored(e, th, step_walk)
        if not e._free:
            c, o = pc.reachable(e, th, 2000), reachable_unmemoised(e, th, step_walk, 2000)
            assert _lts_text(c, capsys) == _lts_text(o, capsys)


def _without_zero(explored):
    """``_explored``'s result with ``0`` left out of the memo: the walk
    memoises it, `step` makes it at once."""
    result, memos = explored
    return result, [{n: nf for n, nf in memo.items() if n is not pc.ZERO} for memo in memos]


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_step_on_star_expressions_agrees_with_a_walk_per_node_type(th, capsys):
    # the star nodes carry their rules and step memoises them as it does Op
    # and Mu; the oracle walks every node with one rule per node type
    rng = random.Random(seed_for(th.id, 2901))
    for _ in range(60):
        s = rand_sexp(th, rng, depth=4)
        assert pc.step(s, th) == lstep_walk(s, th)
        assert _without_zero(_explored(s, th, pc.step)) == _without_zero(
            _explored(s, th, lstep_walk))
        o = reachable_unmemoised(s, th, lstep_walk)
        assert _lts_text(pc.reachable(s, th), capsys) == _lts_text(o, capsys)
    for value in ("a", 1, None, th.unit(pc.TICK)):
        with pytest.raises(TypeError):
            pc.step(value, th)
    for g in (pc.TICK, pc.Prefix("a", pc.Var("s1")), pc.Prefix("a", s)):  # transitions are terms
        assert pc.step(g, th) == th.unit(g)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_a_prefix_reads_back_as_itself(th):
    # a.t steps to the unit of a.t, whose reading is the same node and
    # prints as the term does, brackets included; cs reads its deadlock
    # point too
    rng = random.Random(seed_for(th.id, 3132))
    bracketed = 0
    for _ in range(150):
        t = rand_exp(th, rng, depth=rng.randint(0, 4))
        for a in ACTIONS:
            p = pc.Prefix(a, t)
            reading = th.term_of_nf(pc.step(p, th))
            if th.id == "cs":
                assert type(reading) is pc.Op and reading.args[0] is pc.ZERO
                reading = reading.args[1]
            assert reading is p
            assert pc.unparse(reading) == unparse_uncached(p)
            bracketed += "(" in pc.unparse(p)
    assert bracketed >= 100, bracketed


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_a_leaf_step_target_is_unfolded_under_its_binder(th):
    # the step a.x is a leaf of a normal form's reading and the prefix a.x
    # at once: under mu x its target is unfolded, alone, in a choice, or in
    # the reading of that choice's normal form
    x = pc.Var("x")
    leaf = pc.Prefix("a", x)
    param = pc.parse_exp(f"u {CYC_OPS[th.id]} v", th).param
    either = pc.Op(param, (x, leaf))
    assert leaf._free == {"x"} and pc.is_guarded("x", leaf)
    for body in (leaf, either, th.term_of_nf(pc.step(either, th))):
        g = pc.Mu("x", body)
        steps = [t for t in th.generators(pc.step(g, th)) if type(t) is pc.Prefix]
        assert steps == [pc.Prefix("a", g)] and not g._free
    # substitution rewrites the target, and guarded substitution counts it as guarded
    assert pc.substitute(leaf, {"x": pc.Var("y")}) is pc.Prefix("a", pc.Var("y"))
    assert pc.guarded_subst_exp(either, pc.ZERO, "x") is pc.Op(
        param, (pc.ZERO, pc.Prefix("a", pc.ZERO)))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_a_binder_over_a_step_under_a_prefix_unfolds_into_the_target(th):
    # the step b.x under the prefix a is the run a.b.x, whose last body the
    # binder's unfolding rewrites
    found = pc.Mu("x", pc.Prefix("a", pc.Prefix("b", pc.Var("x"))))
    assert found is pc.parse_exp("mu x. a.b.x", th)
    assert pc.step(found, th) == th.unit(pc.Prefix("a", pc.Prefix("b", found)))
    assert pc.reachable(found, th).structure == {
        "s0": th.unit(pc.Prefix("a", pc.Var("s1"))), "s1": th.unit(pc.Prefix("b", pc.Var("s0")))}


@pytest.mark.parametrize("name", sorted(CYC_OPS))
def test_equiv_unfolds_one_binder_per_cyc_side(name, monkeypatch):
    # only x0 occurs in cyc(n): unfolding the 13 vacuous inner binders too
    # made 14 gsubst_bm calls per side, and every state's children are
    # stepped before it, so no state takes a post_order walk
    th = theory(name)
    text = cyc(14, CYC_OPS[name])
    e, f = (pc.parse_exp(t, th) for t in (text, text.replace("mu x", "mu y").replace("(x0", "(y0")))
    unfolded, walks = [], []
    gsubst_bm, post_order = semantics.gsubst_bm, semantics.post_order
    monkeypatch.setattr(semantics, "gsubst_bm", lambda *a: unfolded.append(a[2]) or gsubst_bm(*a))
    monkeypatch.setattr(semantics, "post_order", lambda *a: walks.append(a) or post_order(*a))
    assert pc.equivalent(e, f, th).equivalent
    assert unfolded == ["x0", "y0"]
    assert walks == []


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_a_state_id_target_is_kept_under_a_binder(th):
    # a step to the state id s1 is a prefix on the variable s1, which no
    # unfolding of x touches
    s1 = pc.Prefix("a", pc.Var("s1"))
    param = pc.parse_exp(f"u {CYC_OPS[th.id]} v", th).param
    either = pc.Op(param, (pc.Var("x"), s1))
    g = pc.Mu("x", either)
    want = th.op_apply(param, [th.bottom(), th.unit(s1)])
    assert pc.step(pc.Mu("x", s1), th) == th.unit(s1)
    assert pc.step(g, th) == want
    assert pc.gsubst_bm(th.unit(s1), g, "x", th) == th.unit(s1)
    assert pc.gsubst_bm(pc.step(either, th), g, "x", th) == want


def _cyc_nodes(n, var="x"):
    """The ROADMAP's cyc(n): level i does ``a`` and then chooses between
    binder (7 i) mod i and the next level; built without the parser."""
    e = pc.ZERO
    for i in reversed(range(n)):
        back = pc.Var(f"{var}{(7 * i) % max(i, 1)}")
        e = pc.Mu(f"{var}{i}", pc.Prefix("a", pc.Op(None, (back, pc.Prefix("b", e)))))
    return e


def test_cyc_500_is_explored_and_decided():
    th = theory("sl")
    e, f = _cyc_nodes(500), _cyc_nodes(500, var="y")
    c = pc.reachable(e, th)
    assert len(c.states) == 1001
    assert pc.equivalent(e, f, th).equivalent


def test_reachable_sorts_only_where_two_successors_are_new():
    # sorting a state's generators builds the printed text of every target;
    # the names are fresh, so no other test has printed these terms
    th = theory("sl")
    e = pc.parse_exp("mu x. " + "notext." * 60 + "(notext_u + notext.x)", th)
    pc.reachable(e, th)
    states = pc.semantics._explore((e,), th, 100, pc.step)[0]
    assert len(states) == 61
    assert all(x._text is None for x in states)


def test_reachable_union_is_the_disjoint_union_of_reachables():
    # the oracle for the equiv path names the union's states in one pass
    for th in ALL_THEORIES:
        rng = random.Random(seed_for(th.id, 3301))
        for _ in range(20):
            e, f = rand_guarded_exp(th, rng), rand_guarded_exp(th, rng)
            u = reachable_union(e, f, th)
            d = disjoint_union(pc.reachable(e, th), pc.reachable(f, th))
            assert (u.states, u.structure) == (d.states, d.structure)
            s, t = rand_sexp(th, rng), rand_sexp(th, rng)
            u = reachable_union(s, t, th, stepper=pc.step)
            d = disjoint_union(pc.star_reachable(s, th), pc.star_reachable(t, th))
            assert (u.states, u.structure) == (d.states, d.structure)


def test_step_is_a_value():
    th = theory("sl")
    a = pc.Prefix("a", pc.Var("s1"))
    assert a == pc.Prefix("a", pc.Var("s1")) and hash(a) == hash(pc.Prefix("a", pc.Var("s1")))
    assert a != pc.Prefix("b", pc.Var("s1")) and a != pc.Prefix("a", pc.Var("s2"))
    assert a != pc.Var("a") and pc.Var("a") != a and a != ("a", "s1")
    assert pc.Prefix("a", pc.parse_exp("b.0", th)) == pc.Prefix("a", pc.parse_exp("b.0", th))
    assert repr(a) == "Prefix(action='a', body=Var(name='s1'))"
    with pytest.raises(AttributeError):
        a.action = "b"
    with pytest.raises(AttributeError):
        del a.body
    assert pickle.loads(pickle.dumps(a)) == a
    assert len({a, pc.Prefix("a", pc.Var("s1")), pc.Prefix("a", pc.Var("s2"))}) == 2


def test_disjoint_union():
    th = theory("sl")
    c1 = pc.reachable(pc.parse_exp("a.0", th), th)
    c2 = pc.reachable(pc.parse_exp("b.0", th), th)
    u = disjoint_union(c1, c2)
    assert set(u.states) == {"as0", "as1", "bs0", "bs1"}
    assert u.structure["as0"] == frozenset({pc.Prefix("a", pc.Var("as1"))})


# ---------------------------------------------------------------------------
# serialisation

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_json_round_trip(th):
    rng = random.Random(seed_for(th.id, 104729))
    for _ in range(25):
        c = rand_coalgebra(th, rng)
        text = pc.coalgebra_to_json(c)
        d = json.loads(text)  # valid JSON
        assert d["theory"] == th.id
        c2 = pc.coalgebra_from_json(text)
        assert c2.states == c.states
        assert c2.structure == c.structure
        assert c2.theory.id == th.id and c2.theory.atoms == th.atoms


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_reader_agrees_with_term_then_step_oracle(th, monkeypatch):
    # the reader evaluates each entry as it reads it, and never steps a term
    rng = random.Random(seed_for(th.id, 53))
    texts = []
    for _ in range(25):
        texts.append(pc.coalgebra_to_json(rand_coalgebra(th, rng)))
        # structure terms as drawn, not as term readings of normal forms
        states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
        d = {"theory": th.id, "atoms": list(th.atoms), "states": list(states), "structure": {
            s: semantics._sterm_to_json(rand_sterm(th, rng, states, depth=3))[0] for s in states}}
        texts.append(json.dumps(d))
    expected = [coalgebra_from_dict_by_step(json.loads(text)) for text in texts]

    def no_step(*args):
        raise AssertionError("the reader stepped a term")

    monkeypatch.setattr(semantics, "step", no_step)
    assert [pc.coalgebra_from_json(text) for text in texts] == expected


def test_json_rejects_dangling_target():
    bad = json.dumps(
        {
            "theory": "sl",
            "states": ["s0"],
            "structure": {"s0": {"act": "a", "to": "s9"}},
        }
    )
    with pytest.raises(ValueError):
        pc.coalgebra_from_json(bad)


def _deep_sum(n):
    """An ``sl`` structure whose s0 term nests ``n`` choice nodes: 2n + 3
    JSON levels."""
    node = {"act": "a", "to": "s0"}
    for _ in range(n):
        node = {"op": "+", "args": [node, {"act": "b", "to": "s0"}]}
    return {"theory": "sl", "states": ["s0"], "structure": {"s0": node}}


def test_json_depth_limit_is_exact(monkeypatch):
    # a small limit keeps both sides of it within reach of every Python's decoder
    monkeypatch.setattr(pc.theory, "MAX_JSON_DEPTH", 41)
    assert pc.coalgebra_from_json(json.dumps(_deep_sum(19))).states == ("s0",)
    with pytest.raises(TheoryError, match="^coalgebra JSON is nested too deeply$"):
        pc.coalgebra_from_json(json.dumps(_deep_sum(20)))
    assert pc.theory.read_json("[" * 41 + "]" * 41, "proof")
    with pytest.raises(TheoryError, match="^proof JSON is nested too deeply$"):
        pc.theory.read_json("[" * 42 + "]" * 42, "proof")


def test_structure_terms_load_deeper_than_the_recursion_limit():
    # the structure walk keeps no Python frame per level: only read_json bounds the depth
    c = semantics.coalgebra_from_dict(_deep_sum(3000))
    assert sorted(c.theory.generators(c.structure["s0"]), key=str) == [
        pc.Prefix("a", pc.Var("s0")), pc.Prefix("b", pc.Var("s0"))]


def test_json_writer_depth_limit_is_exact(monkeypatch):
    # a k-way sum's structure term nests 2k - 1 levels, the coalgebra two more
    monkeypatch.setattr(semantics, "MAX_JSON_DEPTH", 41)
    monkeypatch.setattr(pc.theory, "MAX_JSON_DEPTH", 41)
    th = theory("sl")

    def wide(k):
        return pc.parse_exp(" + ".join(f"a{i}.0" for i in range(k)), th)

    c = pc.reachable(wide(20), th)
    assert pc.coalgebra_from_json(pc.coalgebra_to_json(c)).structure == c.structure
    with pytest.raises(TheoryError, match="^state 's0': coalgebra JSON would be nested too deeply$"):
        pc.coalgebra_to_json(pc.reachable(wide(21), th))
    assert json.loads(semantics.structure_json(th.term_of_nf(pc.step(wide(21), th))))
    with pytest.raises(TheoryError, match="^normal form JSON would be nested too deeply$"):
        semantics.structure_json(th.term_of_nf(pc.step(wide(22), th)))


def test_structure_terms_are_written_deeper_than_the_recursion_limit():
    # only the depth check, not the walk, stops a deep term
    th = theory("sl")
    t = th.term_of_nf(pc.step(pc.parse_exp(" + ".join(f"a{i}.0" for i in range(3000)), th), th))
    d, depth = semantics._sterm_to_json(t)
    assert depth == 5999 and d["args"][1] == {"act": "a999", "to": "0"}


ACT = {"act": "a", "to": "s1"}
HUGE = "<5,000-digit integer>"  # stands in the JSON text for 10 ** 5000, which json.dumps refuses
NAMES = "a name is an identifier other than mu, or %k"


@pytest.mark.parametrize("s0, message", [
    ({"op": "+", "prob": "1/2", "args": [ACT]}, "choice operations are binary"),
    ({"op": "+", "prob": "1/2", "args": [ACT, ACT, ACT]}, "choice operations are binary"),
    ({"op": "+", "prob": "1/2"},
     "choice node {'op': '+', 'prob': '1/2'} has no argument list"),
    ({"op": "+", "prob": "x/2", "args": [ACT, ACT]}, "bad probability 'x/2'"),
    ({"op": "+", "guard": "x1", "args": [ACT, ACT]}, "bad guard 'x1'"),
    ({"act": "a"}, "action 'a' has no target"),
    ({"bogus": 1}, "bad structure term {'bogus': 1}"),
    ({"op": "+", "prob": "1/2", "args": [ACT, {"act": "b", "to": "s7"}]},
     "unknown target state 's7'"),
    ({"act": "a", "to": ["s0"]}, "the target of action 'a' must be a string, not ['s0']"),
    ({"out": ["u"]}, "an output must be a string, not ['u']"),
    ({"act": ["a"], "to": "s1"}, "an action must be a string, not ['a']"),
    ({"op": "+", "guard": [["x1"]], "args": [ACT, ACT]}, "bad guard [['x1']]"),
    # JSON Infinity and 1e400 both read as inf; an exponent would build 10 ** e
    ({"op": "+", "prob": float("inf"), "args": [ACT, ACT]}, "bad probability inf"),
    ({"op": "+", "prob": float("-inf"), "args": [ACT, ACT]}, "bad probability -inf"),
    ({"op": "+", "prob": "1e-30000000", "args": [ACT, ACT]}, "bad probability '1e-30000000'"),
    ({"op": "+", "prob": "1e-100000", "args": [ACT, ACT]}, "bad probability '1e-100000'"),
    # a bool is no probability; an integer too long for int reads as inf
    ({"op": "+", "prob": True, "args": [ACT, ACT]}, "bad probability True"),
    ({"op": "+", "prob": HUGE, "args": [ACT, ACT]}, "bad probability inf"),
    # names must print as one token
    ({"act": "", "to": "s1"}, f"bad action '': {NAMES}"),
    ({"act": "mu", "to": "s1"}, f"bad action 'mu': {NAMES}"),
    ({"out": "a b"}, f"bad output 'a b': {NAMES}"),
    ({"out": "0"}, f"bad output '0': {NAMES}"),
], ids=["one-arg", "three-args", "no-args", "bad-prob", "bad-guard", "no-target",
        "unknown-node", "dangling-target", "list-target", "list-output", "list-action",
        "list-guard-atom", "infinite-prob", "minus-infinite-prob", "huge-exponent-prob",
        "exponent-prob", "bool-prob", "huge-integer-prob", "empty-action", "mu-action",
        "spaced-output", "numeral-output"])
def test_malformed_structure_json_names_the_state_and_the_fault(s0, message):
    d = {"theory": "ca", "states": ["s0", "s1"], "structure": {"s0": s0, "s1": {"const": "0"}}}
    if "guard" in s0:
        d.update(theory="gs", atoms=["x1", "x2"])
    with pytest.raises(TheoryError) as err:
        pc.coalgebra_from_json(json.dumps(d).replace(json.dumps(HUGE), "1" + "0" * 5000))
    assert str(err.value) == f"state 's0': {message}"


@pytest.mark.parametrize("state", ["s 0", "mu", "0", "", "s0.a", "%x"])
def test_state_ids_must_print_as_one_name(state):
    d = {"theory": "sl", "states": ["s0", state],
         "structure": {"s0": {"act": "a", "to": state}, state: {"out": "u"}}}
    with pytest.raises(TheoryError) as err:
        pc.coalgebra_from_json(json.dumps(d))
    assert str(err.value) == f"state {state!r}: bad state id {state!r}: {NAMES}"


def test_reserved_names_are_read():
    d = {"theory": "sl", "states": ["%0", "s_1'"],
         "structure": {"%0": {"act": "a_b", "to": "s_1'"}, "s_1'": {"out": "%3"}}}
    c = pc.coalgebra_from_json(json.dumps(d))
    assert c.structure == {"%0": frozenset({pc.Prefix("a_b", pc.Var("s_1'"))}),
                           "s_1'": frozenset({pc.Var("%3")})}


def test_dot_export():
    th = theory("ca")
    c = pc.reachable(pc.parse_exp(CA_E, th), th)
    dot = pc.coalgebra_to_dot(c)
    assert dot.startswith("digraph")
    assert '"s0" -> "s0" [label="1/6|a2"]' in dot
    assert "var_w" in dot  # output rendered as a double arrow to a var node


def test_render_sterm():
    th = theory("ca")
    e = pc.parse_exp(CA_E, th)
    text = pc.render_sterm(th.term_of_nf(pc.step(e, th)))
    assert isinstance(text, str) and "1/2" in text and "a1" in text

"""Hash-consed term nodes: sharing, cached per-node data, the swept intern table."""

import copy
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

import procalc as pc
from procalc import syntax
from procalc.syntax import (_TABLE, Mu, Op, Prefix, Var, ZERO, _prefix_run, _sweep,
                            bound_vars, free_vars, unparse)

from gen import ALL_THEORIES, rand_exp, rand_sexp, seed_for, theory
from oracles import Gen, unparse_sexp_uncached, unparse_uncached

F = Fraction
DEPTH = 10_000


def _chain(n):
    """mu v. a0.a1.a2.a0. ... .(v + w) with n prefixes, built bottom-up."""
    e = Op(None, (Var("v"), Var("w")))
    for i in range(n):
        e = Prefix(f"a{i % 3}", e)
    return Mu("v", e)


def test_deep_term_is_shared_and_cheap():
    e, f = _chain(DEPTH), _chain(DEPTH)
    assert e is f
    assert hash(e) == hash(f)
    assert e == f
    assert e != _chain(DEPTH - 1)
    assert free_vars(e) == frozenset({"w"})
    assert bound_vars(e) == frozenset({"v"})


def test_nested_distinct_binders_are_cheap():
    # a node keeps its free names only; the bound ones are found by a walk
    n = 5000
    tracemalloc.start()
    try:
        e = Prefix("a", Var("x0"))
        for i in reversed(range(n)):
            e = Mu(f"x{i}", e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert free_vars(e) == frozenset()
    assert bound_vars(e) == {f"x{i}" for i in range(n)}


def test_equal_structure_is_one_object():
    a, b = Var("a"), Var("b")
    assert Op(None, (a, b)) is Op(param=None, args=(Var("a"), Var("b")))
    assert Prefix("x", ZERO) is Prefix(action="x", body=pc.Zero())
    assert Op(None, (a, b)) is not Op(None, (b, a))
    assert pc.SSeq(pc.SAct("a"), pc.SONE) is pc.SSeq(pc.SAct("a"), pc.SOne())


def test_param_type_is_part_of_the_key():
    a, b = Var("a"), Var("b")
    held = Op(1, (a, b))
    assert type(held.param) is int
    assert type(Op(F(1), (a, b)).param) is Fraction
    assert Op(F(1), (a, b)) is not held
    assert type(Op(True, (a, b)).param) is bool
    star = pc.SStar(1, pc.SAct("a"))
    assert type(pc.SStar(F(1), pc.SAct("a")).param) is Fraction
    assert pc.SStar(F(1), pc.SAct("a")) is not star


def test_fraction_params_key_on_their_ratio_and_type():
    # a Fraction parameter is keyed on (numerator, denominator): equal
    # ratios are one node, and 1, True, Fraction(1) and the pair (1, 1)
    # stay four nodes
    a, b = Var("a"), Var("b")
    nodes = [Op(p, (a, b)) for p in (1, True, F(1), (1, 1))]
    assert len({id(n) for n in nodes}) == 4
    assert [type(n.param) for n in nodes] == [int, bool, Fraction, tuple]
    assert Op(F(2, 4), (a, b)) is Op(F(1, 2), (a, b)) is not Op((1, 2), (a, b))
    assert unparse(nodes[2]) == "a +[1] b"
    stars = [pc.Op(p, (pc.SAct("a"), pc.SONE)) for p in (1, True, F(1))]
    assert len({id(n) for n in stars}) == 3
    assert pc.SStar(F(3, 6), pc.SAct("a")) is pc.SStar(F(1, 2), pc.SAct("a"))
    leaves = [Gen(g) for g in (1, True, F(1))]
    assert len({id(n) for n in leaves}) == 3 and Gen(F(1)) is leaves[2]
    assert [type(n.gen) for n in leaves] == [int, bool, Fraction]


def test_nodes_are_immutable_and_copy_to_themselves():
    e = Prefix("a", Mu("x", Var("x")))
    with pytest.raises(AttributeError):
        e.action = "b"
    with pytest.raises(AttributeError):
        del e.body
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert repr(e) == "Prefix(action='a', body=Mu(var='x', body=Var(name='x')))"
    with pytest.raises(TypeError):
        Prefix("a")
    with pytest.raises(TypeError):
        Prefix("a", ZERO, label="x")


def _cyc(n):
    text = "".join(f"mu x{i}. a.(x{(7 * i) % max(i, 1)} + b." for i in range(n))
    return text + "0" + ")" * n


def test_weak_table_releases_dead_terms():
    gc.collect()
    before = len(_TABLE)
    th = theory("sl")
    e = pc.parse_exp(_cyc(12), th)
    c = pc.reachable(e, th)
    assert len(c.states) > 12
    assert len(_TABLE) > before
    del c, e
    gc.collect()
    assert len(_TABLE) == before


def _term(tag):
    return Prefix(f"keep_{tag}", Op(None, (Var(f"v_{tag}"), ZERO)))


# a way to hold a node, and the way to read it back
HOLDERS = {
    "list": (lambda n: [n], lambda h: h[0]),
    "dict value": (lambda n: {"k": n}, lambda h: h["k"]),
    "frozenset member": (lambda n: frozenset({n}), lambda h: next(iter(h))),
    "prefix body": (lambda n: Prefix("a", n), lambda h: h.body),
    "closure cell": (lambda n: lambda: n, lambda h: h()),
}


@pytest.mark.parametrize("how", list(HOLDERS))
def test_sweep_keeps_a_node_held_only_by(how):
    wrap, unwrap = HOLDERS[how]
    holder = wrap(_term(how))
    _sweep()
    held = unwrap(holder)
    assert _term(how) is held
    assert Op(None, (Var(f"v_{how}"), ZERO)) is held.body


def test_sweep_drops_a_dead_term_in_one_pass():
    _sweep()
    before = len(_TABLE)
    e = Var("dead")
    for i in range(300):
        e = Op(None, (Prefix(f"dead{i}", e), Var(f"dead{i}")))
    assert len(_TABLE) > before + 300
    del e
    _sweep()
    assert len(_TABLE) == before


def test_sweep_under_constant_collection_keeps_the_table_sound():
    # the sweep's own allocations start collections, whose callback must not
    # sweep again while the table is being walked
    saved = gc.get_threshold()
    gc.set_threshold(1)
    try:
        e = _chain(DEPTH)
        _sweep()
    finally:
        gc.set_threshold(*saved)
    assert e is _chain(DEPTH)
    for key, node in _TABLE.copy().items():
        cls = key[0]
        fields = tuple(getattr(node, f) for f in cls._fields)
        assert type(node) is cls
        assert all(a is b for a, b in zip(fields, key[1:]))
        assert cls(*fields) is node


def _levels(node, n):
    """The first n nodes down a run of prefixes, and the node below them."""
    levels = []
    for _ in range(n):
        assert type(node) is Prefix
        levels.append(node)
        node = node.body
    return levels, node


def test_prefix_run_is_the_chain_of_single_prefixes():
    body = Op(None, (Var("run_u"), Mu("run_x", Prefix("run_b", Var("run_x")))))
    actions = [f"run_a{k % 3}" for k in range(40)]
    top = _prefix_run(actions, body)
    one_by_one = body
    for a in reversed(actions):
        one_by_one = Prefix(a, one_by_one)
    assert top is one_by_one
    levels, below = _levels(top, 40)
    assert below is body
    assert [n.action for n in levels] == actions
    assert all(n._free is body._free for n in levels)
    assert all(_TABLE[Prefix, n.action, n.body] is n for n in levels)
    assert _prefix_run(actions, body) is top
    assert _prefix_run((), body) is body
    assert _prefix_run(actions[:1], body) is Prefix(actions[0], body)


def test_prefix_run_interns_each_new_node_once(monkeypatch):
    body = Var("once_v")
    actions = [f"once_a{k}" for k in range(30)]
    held = _prefix_run(actions[10:], body)  # the lower 20 nodes exist already
    interned = []
    intern = syntax._intern
    monkeypatch.setattr(syntax, "_intern", lambda key, node: interned.append(node) or intern(key, node))
    top = _prefix_run(actions, body)
    levels, _ = _levels(top, 30)
    assert interned == levels[9::-1]  # innermost first, one call each
    assert levels[10] is held


def test_prefix_run_keeps_every_node_through_a_sweep_mid_run(monkeypatch):
    # the table limit is dropped to 0 before the 5th and the 20th new node,
    # so _intern sweeps the table while the run is half built
    body = Op(None, (Var("swept_v"), ZERO))
    actions = [f"swept_a{k}" for k in range(40)]
    sweeps, count = [], 0
    intern, sweep = syntax._intern, syntax._sweep

    def intern_forcing_sweeps(key, node):
        nonlocal count
        count += 1
        if count in (5, 20):
            monkeypatch.setattr(syntax, "_limit", 0)
        intern(key, node)

    monkeypatch.setattr(syntax, "_intern", intern_forcing_sweeps)
    monkeypatch.setattr(syntax, "_sweep", lambda: sweeps.append(len(_TABLE)) or sweep())
    top = _prefix_run(actions, body)
    assert len(sweeps) >= 2 and count == 40  # a full collection may sweep once more
    levels, below = _levels(top, 40)
    assert below is body
    assert all(_TABLE[Prefix, n.action, n.body] is n for n in levels)
    assert [n.action for n in levels] == actions


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_cached_text_matches_uncached_printer(th):
    rng = random.Random(seed_for(th.id, 0x1DE))
    for _ in range(300):
        e = rand_exp(th, rng, depth=5)
        assert unparse(e) == unparse_uncached(e)
        assert pc.parse_exp(unparse(e), th) is e
        assert e.sort_key() == ("exp", unparse_uncached(e))
    for _ in range(300):
        s = rand_sexp(th, rng, depth=4)
        assert pc.unparse(s) == unparse_sexp_uncached(s)
        assert pc.parse_sexp(pc.unparse(s), th) is s
        assert s.sort_key() == ("exp", unparse_sexp_uncached(s))

"""Normal-form backends: worked examples, axiom soundness, monad laws,
canonicalisation oracle, skew-associativity classifier."""

import itertools
import random
import re
from fractions import Fraction

import pytest

import procalc as pc
from procalc import ZERO, Op, Var, cli, step
from procalc.theory import (TheoryError, ZERO_SUBDIST, eval_param, generator_key,
                            in_lower_hull, param_family, param_symbols, sorted_gens,
                            theory_from_json)

from gen import (ALL_THEORIES, ATOMS, rand_coalgebra, rand_exp, rand_guard, rand_param, rand_prob,
                 rand_sexp, seed_for, theory)
from masses import count_form, count_point, fraction_point
from oracles import (Gen, axiom_side_ok, ca_nf_flatten_validating, ca_nf_map_validating,
                     ca_op_apply_validating, ca_term_of_nf_sorted, canonical_convex_set_lp,
                     cm_bind_counter, cm_counter, cm_nf_map_counter, cm_op_apply_counter,
                     convex_member_bruteforce, cs_edges_sorted, cs_nf_flatten_validating,
                     cs_nf_map_validating, cs_op_apply_validating, cs_term_of_nf_sorted,
                     gen_term, generator_key_by_isinstance, nf_flatten, step_generator_key)

F = Fraction


def t(*args):
    """Shorthand: t(param, l, r) builds an Op, strings become generators."""
    param, l, r = args
    return Op(param, (gen_term(l), gen_term(r)))


def sub(**kw):
    return count_point(frozenset((g, F(m)) for g, m in kw.items()))


# ---------------------------------------------------------------------------
# worked examples

def test_sl_examples():
    th = theory("sl")
    assert step(t(None, t(None, "v", ZERO), "v"), th) == frozenset({"v"})
    assert step(t(None, "x", t(None, "y", "x")), th) == frozenset({"x", "y"})
    assert step(ZERO, th) == frozenset()


def test_cm_examples():
    th = theory("cm")
    nf = step(t(None, "x", t(None, "y", "x")), th)
    assert nf == count_form(th, frozenset({("x", 2), ("y", 1)}))
    assert step(t(None, "x", ZERO), th) == count_form(th, frozenset({("x", 1)}))


def test_gs_examples():
    th = theory("gs")
    full = frozenset(ATOMS)
    assert step(t(full, "x", "y"), th) == ("x", "x")
    b = frozenset({"x1"})
    assert step(t(b, "x", ZERO), th) == ("x", None)
    # GS3: x +_b y = y +_bbar x
    assert step(t(b, "x", "y"), th) == step(t(full - b, "y", "x"), th)


def test_ca_examples():
    th = theory("ca")
    nf = step(t(F(1, 2), t(F(1, 2), "x", "y"), "y"), th)
    assert nf == sub(x=F(1, 4), y=F(3, 4))
    assert step(t(F(1, 2), "x", ZERO), th) == sub(x=F(1, 2))
    assert step(ZERO, th) == ZERO_SUBDIST


def test_cs_nf_of_term_example():
    # (x + y) +_1/2 z -> {0, (x:1/2 z:1/2), (y:1/2 z:1/2)}
    th = theory("cs")
    nf = step(t(F(1, 2), t(None, "x", "y"), "z"), th)
    assert nf == frozenset(
        {ZERO_SUBDIST, sub(x=F(1, 2), z=F(1, 2)), sub(y=F(1, 2), z=F(1, 2))}
    )


def test_cs_equality_removes_interior_points():
    th = theory("cs")
    a = frozenset({ZERO_SUBDIST, sub(x=1)})
    b = pc.theory.canonical_convex_set({ZERO_SUBDIST, sub(x=F(1, 2)), sub(x=1)})
    assert a == b


def test_nf_equal_trivia():
    assert frozenset({"v", "w"}) == frozenset({"w", "v"})
    assert not sub(x=F(1, 2)) == sub(x=F(1, 3))


def test_param_validation_errors():
    with pytest.raises(TheoryError):
        theory("ca").check_param(F(3, 2))
    with pytest.raises(TheoryError):
        theory("gs").check_param(frozenset({"nope"}))
    with pytest.raises(TheoryError):
        theory("sl").check_param(F(1, 2))
    with pytest.raises(TheoryError):
        step(t(F(1, 2), "x", "y"), theory("cm"))


def test_check_param_accepts_exactly_the_theory_families():
    params = (None, frozenset({ATOMS[0]}), F(1, 2))
    assert [param_family(p) for p in params] == ["plus", "gplus", "pplus"]
    with pytest.raises(TheoryError):
        param_family(0.5)
    for th in ALL_THEORIES:
        for p in params:
            if param_family(p) in th.binary_families:
                th.check_param(p)
            else:
                with pytest.raises(TheoryError, match="has no"):
                    th.check_param(p)


def test_theory_registry():
    assert pc.THEORY_NAMES == ("sl", "cm", "gs", "ca", "cs")
    assert [theory(n).id for n in pc.THEORY_NAMES] == list(pc.THEORY_NAMES)
    assert pc.make_theory("CA") == theory("ca")
    with pytest.raises(TheoryError, match="unknown theory 'xx'"):
        pc.make_theory("XX")
    with pytest.raises(TheoryError, match="requires --atoms"):
        pc.make_theory("gs")


def test_gs_atoms_are_what_a_guard_reads_back():
    assert pc.make_theory("gs", ["x1", "_b'", "07"]).atoms == ("x1", "_b'", "07")
    for bad in ("x 1", "", "+", " x1", "x1 ", "a.b"):
        with pytest.raises(TheoryError, match=re.escape(f"bad atom {bad!r}:")):
            pc.make_theory("gs", ["x2", bad])
    with pytest.raises(TheoryError, match="duplicate atoms"):
        pc.make_theory("gs", ["x1", "x1"])
    for d in ({"theory": "gs"}, {"theory": "GS", "atoms": []}):
        with pytest.raises(TheoryError, match="theory gs needs a nonempty 'atoms' field"):
            theory_from_json(d)
    assert theory_from_json({"theory": "sl"}) == theory("sl")


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_weight_of_a_generator(th):
    present, absent = {
        "sl": (True, False),
        "cm": (2, 0),
        "gs": (frozenset(ATOMS), frozenset()),
        "ca": (F(1), F(0)),
        "cs": (None, None),
    }[th.id]
    nf = th.unit("g")
    if th.id == "cm":
        nf = th.op_apply(None, [nf, nf])
    for g, want in (("g", present), ("h", absent)):
        got = th.weight(nf, g)
        assert got == want and type(got) is type(want)


def test_edges_list_weighted_generators_in_generator_order():
    cm = theory("cm")
    assert theory("sl").edges(frozenset({"b", "a"})) == [("a", True), ("b", True)]
    assert cm.edges(step(t(None, t(None, "b", "a"), "b"), cm)) == [("a", 1), ("b", 2)]
    assert theory("gs").edges(("b", "a")) == [("a", frozenset({"x2"})), ("b", frozenset({"x1"}))]
    assert theory("ca").edges(sub(b=F(1, 4), a=F(1, 2))) == [("a", F(1, 2)), ("b", F(1, 4))]
    # cs lists the masses of every generating point, each pair once
    cs = frozenset({ZERO_SUBDIST, sub(a=F(1, 2), c=F(1, 2)), sub(a=F(1, 2), b=F(1, 2))})
    assert theory("cs").edges(cs) == [("a", F(1, 2)), ("b", F(1, 2)), ("c", F(1, 2))]


def test_cs_edges_agree_with_the_sorted_masses_oracle():
    # edges reads the points in the order term_of_nf ranks them; the oracle
    # sorts frozensets of Fraction masses by generator_key
    rng = random.Random(67)
    cs = theory("cs")
    gens = ("g1", "g2", Var("v"), pc.TICK, pc.Prefix("a", pc.Var("s0")),
            pc.Prefix("a", pc.Var("s1")))
    shared = 0
    for _ in range(300):
        nf = _rand_cs_nf(rng, gens, most=5)
        assert cs.edges(nf) == cs_edges_sorted(nf)
        points = [pairs for _, pairs in nf if pairs]
        shared += len(points) > 1 and len(cs.generators(nf)) < sum(map(len, points))
    assert shared >= 100, shared


# ---------------------------------------------------------------------------
# axiom soundness: every axiom holds in its backend

def _schema_to_sterm(schema, menv, penv, th):
    if isinstance(schema, Var):
        return Gen(menv[schema.name])
    if schema is ZERO:
        return ZERO
    param = None
    if schema.param is not None:
        param = eval_param(schema.param, penv, th.atoms)
    return Op(param, tuple(_schema_to_sterm(a, menv, penv, th) for a in schema.args))


GENS = ("g1", "g2", "g3")


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_axiom_soundness(th):
    rng = random.Random(20260823)
    for ax in th.axioms:
        syms = set()
        for side in (ax.lhs, ax.rhs):
            stack = [side]
            while stack:
                node = stack.pop()
                if isinstance(node, Op):
                    syms |= param_symbols(node.param)
                    stack.extend(node.args)
        for _ in range(20):
            penv = {}
            for s in syms:
                penv[s] = (
                    rand_guard(rng, th.atoms)
                    if th.id == "gs"
                    else rand_prob(rng)
                )
            if not axiom_side_ok(ax, penv):
                continue
            for combo in itertools.product(GENS, repeat=3):
                menv = dict(zip("xyz", combo))
                lhs = step(_schema_to_sterm(ax.lhs, menv, penv, th), th)
                rhs = step(_schema_to_sterm(ax.rhs, menv, penv, th), th)
                assert lhs == rhs, (ax.name, penv, combo)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_nontriviality(th):
    assert not th.unit("x") == th.unit("y")
    assert not th.unit("x") == th.bottom()


# ---------------------------------------------------------------------------
# functor and monad laws

def _random_nfs(th, rng, tokens, count=12, depth=2):
    from gen import rand_param

    def rand_sterm(d):
        if d <= 0 or rng.random() < 0.3:
            return ZERO if rng.random() < 0.2 else Gen(rng.choice(tokens))
        return Op(rand_param(th, rng), (rand_sterm(d - 1), rand_sterm(d - 1)))

    return [step(rand_sterm(depth), th) for _ in range(count)]


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_functor_laws(th):
    rng = random.Random(7)
    f = {"g1": "h1", "g2": "h1", "g3": "h2"}.get
    g = {"h1": "k", "h2": "h2"}.get
    for nf in _random_nfs(th, rng, GENS):
        assert th.nf_map(nf, lambda x: x) == nf
        assert th.nf_map(th.nf_map(nf, f), g) == th.nf_map(nf, lambda x: g(f(x)))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_unit_is_natural(th):
    # nf_map(unit(g), f) == unit(f(g)): refinement signs a prefix state a.t
    # as the unit of (a, block of t), and reachable names it the unit of a.s<j>,
    # without pushing its normal form forward
    gens = (pc.Prefix("a1", pc.Var("s0")), pc.Var("u"), pc.TICK)
    maps = (
        lambda g: g,  # keep
        {gens[0]: pc.Prefix("a1", pc.Var("s1")), gens[1]: pc.Var("w"),
         gens[2]: pc.TICK}.get,  # rename
        {gens[0]: pc.Prefix("b1", pc.Var("s0")), gens[1]: pc.Prefix("b1", pc.Var("s0")),
         gens[2]: pc.Var("u")}.get,  # merge two, move the third
        lambda g: ("a1", 0),  # merge all, as a signature's pairs do
        lambda g: (g.action, 3) if type(g) is pc.Prefix else g,  # the signature reader
    )
    for g in gens:
        for f in maps:
            assert th.nf_map(th.unit(g), f) == th.unit(f(g))


def _identity(u):
    return u


def _kleisli_map(th, rng, sources, targets):
    """A random map from ``sources`` to normal forms over ``targets``.  Its
    images come from a pool of two, so it often sends several sources to
    one image, and half the time the pool holds the bottom image."""
    pool = _random_nfs(th, rng, targets, count=2)
    if rng.random() < 0.5:
        pool[0] = th.bottom()
    return dict(zip(sources, [rng.choice(pool) for _ in sources])).__getitem__


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_monad_laws(th):
    # the unit laws of the Kleisli extension: bind(nf, unit) = nf and
    # bind(unit(g), f) = f(g)
    rng = random.Random(11)
    for nf in _random_nfs(th, rng, GENS):
        f = _kleisli_map(th, rng, GENS, ("h1", "h2"))
        assert th.bind(nf, th.unit) == nf
        for g in GENS:
            assert th.bind(th.unit(g), f) == f(g)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_flatten_associativity(th):
    # the third Kleisli law: binding f and then k is binding the composite
    # g -> bind(f(g), k), so flattening in either order gives one result
    rng = random.Random(13)
    middle = ("h1", "h2", "h3")
    for nf in _random_nfs(th, rng, GENS, count=20):
        f = _kleisli_map(th, rng, GENS, middle)
        k = _kleisli_map(th, rng, middle, ("k1", "k2"))
        assert th.bind(th.bind(nf, f), k) == th.bind(nf, lambda g: th.bind(f(g), k))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_bind_agrees_with_flattened_pushforward(th):
    rng = random.Random(47)
    gens = GENS + ("g4",)
    seen = dict.fromkeys(("merging", "bottom image", "several points"), 0)
    for _ in range(180):
        nf = _random_nfs(th, rng, gens, count=1, depth=3)[0]
        f = _kleisli_map(th, rng, gens, ("h1", "h2", "h3"))
        assert th.bind(nf, f) == nf_flatten(th, th.nf_map(nf, f))
        images = [f(g) for g in th.generators(nf)]
        seen["merging"] += len(set(images)) < len(images)
        seen["bottom image"] += th.bottom() in images
        # a cs image with two points besides deadlock
        seen["several points"] += th.id == "cs" and any(len(u) > 2 for u in images)
    # at seed 47: 23 (gs) to 91 (sl) merging maps, 52 to 72 with a bottom
    # image, and 54 cs maps with an image of several points
    assert seen["merging"] >= 20 and seen["bottom image"] >= 20, seen
    assert th.id != "cs" or seen["several points"] >= 20, seen


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_term_reading_round_trip(th):
    rng = random.Random(17)
    for nf in _random_nfs(th, rng, GENS, count=20):
        assert step(th.term_of_nf(th.nf_map(nf, gen_term)), th) == nf


def test_ca_term_reading_of_2000_generators():
    # built in one loop from the right.  The chain is read back along its
    # right spine: stepping it in ca re-merges the distribution at every
    # level, O(n**2) Fraction operations (about 30 s at this size)
    th = theory("ca")
    n = 2000
    for total in (F(1), F(1, 2)):
        want = frozenset((pc.Prefix(f"a{i}", ZERO), total / n) for i in range(n))
        nf = count_point(want)
        t, masses, reach = th.term_of_nf(nf), {}, F(1)
        while isinstance(t, Op):
            (leaf, t), weight = t.args, t.param
            masses[leaf] = reach * weight
            reach *= 1 - weight
        if total == 1:
            masses[t] = reach
        else:
            assert t is ZERO
        assert frozenset(masses.items()) == want


def test_gs_flatten_is_diagonal():
    th = theory("gs")
    b = frozenset({"x1"})
    inner_x = th.unit("x")
    nested = step(t(b, Gen(inner_x), ZERO), th)
    assert th.bind(nested, _identity) == ("x", None)


def test_cm_flatten_weighted_sum():
    th = theory("cm")
    n1 = step(t(None, "x", "x"), th)
    nested = step(t(None, Gen(n1), Gen(n1)), th)
    assert th.bind(nested, _identity) == count_form(th, frozenset({("x", 4)}))


def test_ca_flatten_expectation():
    th = theory("ca")
    n1 = th.unit("x")
    n2 = sub(y=F(1, 2))
    nested = step(t(F(1, 2), Gen(n1), Gen(n2)), th)
    assert th.bind(nested, _identity) == sub(x=F(1, 2), y=F(1, 4))


def _rand_subdist(rng, gens):
    """Some of ``gens`` with positive masses; the masses total exactly 1
    about half the time."""
    chosen = rng.sample(gens, rng.randint(0, len(gens)))
    weights = [rng.randint(1, 4) for _ in chosen]
    total = sum(weights) + rng.choice((0, 0, 1, 3))
    return count_point(frozenset((g, F(w, total)) for g, w in zip(chosen, weights)))


def test_trusted_pushforward_agrees_with_validating_oracle():
    rng = random.Random(31)
    ca, cs = theory("ca"), theory("cs")
    gens = ("g1", "g2", "g3", "g4", "g5")
    collided = full = 0
    maps = {"one-to-one": 0, "merging": 0}
    for _ in range(450):
        # onto fewer images, or a permutation half the time
        images = [rng.choice(("h1", "h2", "h3")) for _ in gens] if rng.random() < 0.5 \
            else rng.sample(gens, len(gens))
        f = dict(zip(gens, images)).__getitem__
        d = _rand_subdist(rng, gens)
        mapped = ca.nf_map(d, f)
        assert mapped == ca_nf_map_validating(d, f)
        total = sum(m for _, m in fraction_point(d))
        assert sum(m for _, m in fraction_point(mapped)) == total
        collided += len(mapped[1]) < len(d[1])
        full += total == 1
        points = {_rand_subdist(rng, gens) for _ in range(rng.randint(1, 3))}
        nf = pc.theory.canonical_convex_set(points)
        # cs.nf_map keeps a one-to-one image as it is and canonicalises a merged one
        assert cs.nf_map(nf, f) == cs_nf_map_validating(nf, f)
        one_to_one = len(set(map(f, cs.generators(nf)))) == len(cs.generators(nf))
        maps["one-to-one" if one_to_one else "merging"] += 1
    assert collided > 100 and full > 100 and min(maps.values()) >= 100, maps


def _rand_cs_nf(rng, gens, most=3):
    return pc.theory.canonical_convex_set(
        {_rand_subdist(rng, gens) for _ in range(rng.randint(1, most))})


def test_trusted_combinations_agree_with_validating_oracles():
    rng = random.Random(37)
    ca, cs = theory("ca"), theory("cs")
    gens = ("g1", "g2", "g3", "g4")
    weights = set()
    shared = 0
    cs_cases = dict.fromkeys(itertools.product(("apart", "shared"), ("+", "0", "1", "p")), 0)
    for _ in range(200):
        p = rand_prob(rng)
        weights.add(p)
        l, r = _rand_subdist(rng, gens), _rand_subdist(rng, gens)
        assert ca.op_apply(p, (l, r)) == ca_op_apply_validating(p, (l, r))
        shared += bool(ca.generators(l) & ca.generators(r))
        inner = list(dict.fromkeys(_rand_subdist(rng, gens) for _ in range(3)))
        nested = _rand_subdist(rng, inner)
        assert ca.bind(nested, _identity) == nf_flatten(ca, nested) \
            == ca_nf_flatten_validating(nested)
        # op_apply keeps a result whose sides share no generator as it is;
        # sides drawn from two halves of the generators share none
        if rng.random() < 0.5:
            left, right = _rand_cs_nf(rng, gens[:2]), _rand_cs_nf(rng, gens[2:])
        else:
            left, right = _rand_cs_nf(rng, gens), _rand_cs_nf(rng, gens)
        apart = cs.generators(left).isdisjoint(cs.generators(right))
        for q in (None, p):
            assert cs.op_apply(q, (left, right)) == cs_op_apply_validating(q, (left, right))
            kind = "+" if q is None else str(q) if q in (0, 1) else "p"
            cs_cases["apart" if apart else "shared", kind] += 1
        inner_sets = list(dict.fromkeys(_rand_cs_nf(rng, gens, 2) for _ in range(3)))
        nf = _rand_cs_nf(rng, inner_sets, 2)
        assert cs.bind(nf, _identity) == nf_flatten(cs, nf) == cs_nf_flatten_validating(nf)
    # the weights 0 and 1 drop a side; shared generators add their masses
    assert {F(0), F(1)} <= weights and shared > 30
    assert min(cs_cases.values()) >= 20, cs_cases


def _rand_multiset(rng, gens):
    return count_form(theory("cm"), frozenset(
        (g, rng.randint(1, 4)) for g in rng.sample(gens, rng.randint(0, len(gens)))))


def test_weighted_sums_agree_with_counter_and_validating_oracles():
    """``cm`` and ``ca`` share bottom, unit, the pushforward, bind,
    generators and weight.  Checked on random normal forms under merging
    and one-to-one maps: ``cm`` against ``collections.Counter``, and
    ``cm.op_apply`` on argument lists of any length; ``ca`` against the
    validating oracles."""
    rng = random.Random(53)
    cm, ca = theory("cm"), theory("ca")
    shared = pc.theory._WeightedSums
    for name in ("bottom", "unit", "nf_map", "bind", "generators", "weight"):
        assert getattr(type(cm), name) is getattr(type(ca), name) is getattr(shared, name)
    gens, images = ("g1", "g2", "g3", "g4", "g5"), ("h1", "h2", "h3")
    arities, merged = set(), 0
    for _ in range(300):
        merging = rng.random() < 0.5
        f = dict(zip(gens, [rng.choice(images) for _ in gens] if merging
                     else rng.sample(gens, len(gens)))).__getitem__
        m = _rand_multiset(rng, gens)
        assert cm.nf_map(m, f) == cm_nf_map_counter(m, f)
        merged += len(cm.nf_map(m, f)[1]) < len(m[1])
        args = [_rand_multiset(rng, gens) for _ in range(rng.randint(0, 4))]
        arities.add(len(args))
        assert cm.op_apply(None, args) == cm_op_apply_counter(args)
        kleisli = {g: _rand_multiset(rng, images) for g in gens}.__getitem__
        assert cm.bind(m, kleisli) == cm_bind_counter(m, kleisli)
        assert cm.generators(m) == set(cm_counter(m))
        assert [cm.weight(m, g) for g in gens] == [cm_counter(m)[g] for g in gens]
        d = _rand_subdist(rng, gens)
        assert ca.nf_map(d, f) == ca_nf_map_validating(d, f)
        inner = {g: _rand_subdist(rng, images) for g in gens}.__getitem__
        assert ca.bind(d, inner) == ca_nf_flatten_validating(ca_nf_map_validating(d, inner))
        assert ca.generators(d) == {g for g, _ in fraction_point(d)}
        masses = dict(fraction_point(d))
        assert [ca.weight(d, g) for g in gens] == [masses.get(g, F(0)) for g in gens]
    assert cm.bottom() == ca.bottom() == cm_op_apply_counter([]) == count_form(cm, frozenset())
    assert type(cm.weight(cm.bottom(), "g1")) is int and type(ca.weight(ca.bottom(), "g1")) is F
    assert arities == {0, 1, 2, 3, 4} and merged > 50


def test_cs_points_move_by_the_shared_pushforward(monkeypatch):
    shared = pc.theory._WeightedSums
    push, calls = shared.nf_map, []
    monkeypatch.setattr(shared, "nf_map",
                        staticmethod(lambda nf, f: calls.append(nf) or push(nf, f)))
    rng = random.Random(59)
    cs = theory("cs")
    for _ in range(20):
        nf = _rand_cs_nf(rng, ("g1", "g2", "g3"))
        calls.clear()
        merged = cs.nf_map(nf, lambda g: "h")
        assert len(calls) == len(nf) and set(calls) == nf
        assert merged == cs_nf_map_validating(nf, lambda g: "h")
    assert cs.unit("g") == frozenset({ZERO_SUBDIST, theory("ca").unit("g")})


def _count_redundant_calls(monkeypatch):
    """Route the canonicaliser's redundancy questions through a recorder;
    returns the list of points it was asked about."""
    calls = []
    redundant = pc.theory._redundant

    def recording(g, others, mass):
        calls.append(g)
        return redundant(g, others, mass)

    monkeypatch.setattr(pc.theory, "_redundant", recording)
    return calls


def _mix(k):
    """``mix(k)`` of ``perfbench/gen.py``: a k-way sum of two-action
    mixtures, mixed with a k-way sum of prefixes; its one-step normal form
    has k * k + 1 points."""
    left = " + ".join(f"(a{i}.0 +[1/{i + 2}] b{i}.0)" for i in range(k))
    right = " + ".join(f"c{i}.0" for i in range(k))
    return f"({left}) +[1/2] ({right})"


class _CanonicalisingCS(type(theory("cs"))):
    """The cs backend with every choice canonicalised."""

    def op_apply(self, param, args):
        self.check_param(param)
        return cs_op_apply_validating(param, args)


def test_cs_step_of_mix30_makes_no_redundancy_call(monkeypatch, capsys):
    # no generator occurs on both sides of any choice in mix(k)
    calls = _count_redundant_calls(monkeypatch)
    assert cli.run(["step", "--theory", "cs", _mix(30)]) == 0
    out = capsys.readouterr().out
    assert out.count(" + ") == 900 and calls == []
    th = theory("cs")
    e = pc.parse_exp(_mix(6), th)
    assert step(e, th) == step(e, _CanonicalisingCS())


def test_cs_state_renaming_makes_no_redundancy_call(monkeypatch):
    th = theory("cs")
    e = pc.parse_exp("(a.b.0 +[1/3] a.c.b.0) + (a.b.0 +[1/2] b.a.0) + a.c.b.0", th)
    calls = _count_redundant_calls(monkeypatch)
    expected = pc.reachable(e, th)
    assert calls  # stepping the shared a.b.0 and a.c.b.0 canonicalises
    order, index, raw, _ = pc.semantics._explore((e,), th, 100, step)
    assert [nf is None for nf in raw] == [type(x) is pc.Prefix for x in order]
    # a prefix state's raw entry is None: step it here
    stepped = {x: step(x, th) if nf is None else nf for x, nf in zip(order, raw)}
    calls.clear()
    monkeypatch.setattr(pc.semantics, "step", lambda x, th, memo: stepped[x])
    c = pc.reachable(e, th)
    assert c == expected and calls == []

    def rename(g):
        return pc.Prefix(g.action, pc.Var(f"s{index[g.body]}"))

    assert list(c.exprs) == [th.term_of_nf(cs_nf_map_validating(stepped[x], rename))
                             for x in order]


def _count_canonicalised_points(monkeypatch):
    """Route ``canonical_convex_set`` through a recorder; returns the list
    of how many points each call was handed."""
    counts = []
    canonical = pc.theory.canonical_convex_set

    def recording(points):
        points = list(points)
        counts.append(len(points))
        return canonical(points)

    monkeypatch.setattr(pc.theory, "canonical_convex_set", recording)
    return counts


def _uniform_mixture(k, leaf):
    """``leaf(0) +[1/k] (leaf(1) +[1/(k-1)] (... leaf(k-1)))``: the k
    leaves, each with mass 1/k."""
    t = leaf(k - 1)
    for i in range(k - 2, -1, -1):
        t = f"{leaf(i)} +[1/{k - i}] ({t})"
    return t


def test_cs_unfolding_and_sequence_of_a_mixture_canonicalise_few_points(monkeypatch):
    # a mu unfolding and a sequence map each step of the k-way mixture to a
    # unit; taking deadlock from a unit only where it is the one point
    # leaves one mixture to canonicalise, where every choice made 2**k
    th = theory("cs")
    counts = _count_canonicalised_points(monkeypatch)
    for k in range(8, 17):
        e = pc.parse_exp("mu x. " + _uniform_mixture(k, lambda i: f"a{i}.x"), th)
        s = pc.parse_sexp(f"({_uniform_mixture(k, lambda i: f'a{i}')}) ; b", th)
        for nf in (step(e, th), pc.step(s, th)):
            (point,) = nf - {ZERO_SUBDIST}
            assert sorted(m for _, m in fraction_point(point)) == [F(1, k)] * k
        assert sum(counts) <= k, (k, counts)
        counts.clear()


def test_cs_choices_over_shared_generators_still_canonicalise(monkeypatch):
    calls = _count_redundant_calls(monkeypatch)
    th = theory("cs")
    e = pc.parse_exp("(a.0 +[1/3] b.0) + c.0", th)
    ee = pc.parse_exp("((a.0 +[1/3] b.0) + c.0) + ((a.0 +[1/3] b.0) + c.0)", th)
    assert step(ee, th) == step(ee, _CanonicalisingCS()) == step(e, th)
    assert calls
    calls.clear()
    # (a + b) / 2 lies in the hull of a and b
    mixed, ends = (pc.parse_exp(text, th) for text in ("(a.0 + b.0) +[1/2] (a.0 + b.0)", "a.0 + b.0"))
    assert step(mixed, th) == step(mixed, _CanonicalisingCS()) == step(ends, th)
    assert calls


def test_convex_steps_and_readings_hash_no_fraction(monkeypatch, capsys):
    # masses are integer counts and a +[p] node is interned on p's
    # numerator and denominator, so stepping and printing hash no Fraction
    calls = []
    fraction_hash = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda q: calls.append(q) or fraction_hash(q))
    assert hash(F(1, 3)) == fraction_hash(F(1, 3)) and len(calls) == 1
    calls.clear()
    for theory_id, term in (
            ("ca", "mu x. (a.x +[1/3] (b.0 +[2/5] a.x)) +[1/2] (c.0 +[0] (a.x +[1] d.0))"),
            ("cs", _mix(4)),
            ("cs", "(a.0 +[1/3] b.0) + (a.0 +[1/2] b.0) + ((a.0 + b.0) +[1/2] c.0)")):
        assert cli.run(["step", "--theory", theory_id, term]) == 0
        assert capsys.readouterr().out.count("+[") >= 3
        assert calls == [], (theory_id, term)


def test_convex_readings_agree_with_sorting_oracles():
    rng = random.Random(43)
    ca, cs = theory("ca"), theory("cs")
    targets = [pc.parse_exp(text, ca) for text in ("0", "a.0", "b.a.0", "a.0 +[1/3] b.0")]
    gens = [pc.Prefix(act, x) for act in ("a", "b") for x in targets] + \
        [pc.Prefix("a", pc.Var("s1")), pc.Var("x"), pc.TICK]
    counts = dict.fromkeys(("total 1", "total < 1", "mass 1", "empty", "shared step"), 0)
    for _ in range(300):
        d = _rand_subdist(rng, gens) if rng.random() < 0.8 else ca.unit(rng.choice(gens))
        assert ca.term_of_nf(d) is ca_term_of_nf_sorted(d)
        masses = [m for _, m in fraction_point(d)]
        counts["total 1" if sum(masses) == 1 else "total < 1"] += 1
        counts["mass 1"] += any(m == 1 for m in masses)
        counts["empty"] += not masses
        # the points draw on one pool, so one step occurs in several
        nf = pc.theory.canonical_convex_set(
            {_rand_subdist(rng, gens[:5]) for _ in range(rng.randint(1, 4))})
        assert cs.term_of_nf(nf) is cs_term_of_nf_sorted(nf)
        counts["shared step"] += sum(len(pairs) for _, pairs in nf) > len(cs.generators(nf))
    assert min(counts.values()) >= 20, counts


# ---------------------------------------------------------------------------
# CS canonicalisation oracle (independent algorithm)

def test_cs_canonicalisation_against_bruteforce():
    rng = random.Random(23)
    coords = ("x", "y")
    for _ in range(60):
        pts = set()
        for _ in range(rng.randint(1, 4)):
            d = {}
            budget = F(1)
            for c in coords:
                if rng.random() < 0.7:
                    m = rand_prob(rng) * budget
                    if m > 0:
                        d[c] = m
                        budget -= m
            pts.add(count_point(frozenset(d.items())))
        canon = pc.theory.canonical_convex_set(pts)
        kept = [p for p in canon if p != ZERO_SUBDIST]
        for p in pts:
            if p not in canon and p != ZERO_SUBDIST:
                assert convex_member_bruteforce(p, kept)
                assert in_lower_hull(p, kept)
        for p in kept:
            others = [q for q in kept if q != p]
            assert not convex_member_bruteforce(p, others)
        # idempotence
        assert pc.theory.canonical_convex_set(canon) == canon


def _count_lp_calls(monkeypatch):
    """Route the canonicaliser's simplex calls through a recorder; returns
    the list of (point, candidates) it was asked about."""
    calls = []

    def recording(point, gens):
        calls.append((point, list(gens)))
        return in_lower_hull(point, gens)

    monkeypatch.setattr(pc.theory, "in_lower_hull", recording)
    return calls


def test_cs_canonicalisation_filters_agree_with_lp_oracle(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    rng = random.Random(31)
    for _ in range(2000):
        coords = ("x", "y", "z", "w")[: rng.randint(1, 4)]
        pts = set()
        for _ in range(rng.randint(1, 6)):
            d = {}
            budget = F(1)
            for c in coords:
                if rng.random() < 0.7:
                    m = rand_prob(rng) * budget
                    if m > 0:
                        d[c] = m
                        budget -= m
            pts.add(count_point(frozenset(d.items())))
        assert pc.theory.canonical_convex_set(pts) == canonical_convex_set_lp(pts), pts
    # the filters leave some questions to the narrowed simplex
    assert calls


def test_cs_redundancy_decided_by_dominance(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    big = sub(x=F(1, 2), y=F(1, 2))
    assert pc.theory.canonical_convex_set({sub(x=F(1, 4)), big}) == {ZERO_SUBDIST, big}
    assert calls == []


def test_cs_point_kept_when_no_candidate_reaches_a_coordinate(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    pts = {sub(x=F(1, 2), y=F(1, 2)), sub(x=F(1, 4), y=F(3, 4))}
    assert pc.theory.canonical_convex_set(pts) == pts | {ZERO_SUBDIST}
    assert calls == []


def test_cs_tight_coordinate_narrows_the_lp(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    a, b, c = sub(x=F(1, 2), y=F(1, 2)), sub(x=F(1, 2), z=F(1, 2)), sub(y=1)
    mid = sub(x=F(1, 2), y=F(1, 4), z=F(1, 4))  # (a + b) / 2, dominated by neither
    assert pc.theory.canonical_convex_set({a, b, c, mid}) == {ZERO_SUBDIST, a, b, c}
    # x is tight at mid: only a and b reach 1/2 there, so c never enters the LP
    assert [(p, sorted_gens(gens)) for p, gens in calls] == [(mid, sorted_gens([a, b]))]


def test_cs_step_of_mix6_needs_no_lp(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    th = theory("cs")
    nf = pc.step(pc.parse_exp(_mix(6), th), th)
    assert len(nf) == 37
    assert calls == []


def test_canonical_convex_set_is_the_lp_answer_in_any_insertion_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def point_lists(draw):
        coords = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
        points = []
        for _ in range(draw(st.integers(1, 8))):
            # masses w / total with w and the missing mass 0..3: denominators up to 15
            ws = [draw(st.integers(0, 3)) for _ in coords]
            total = sum(ws) + draw(st.integers(0, 3))
            points.append(count_point(frozenset((c, F(w, total)) for c, w in zip(coords, ws) if w)))
        return points

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(point_lists(), st.randoms(use_true_random=False))
    def check(points, rnd):
        canon = pc.theory.canonical_convex_set(points)
        assert canon == canonical_convex_set_lp(points)
        shuffled = list(points)
        rnd.shuffle(shuffled)
        assert pc.theory.canonical_convex_set(shuffled) == canon
        assert pc.theory.canonical_convex_set(reversed(points)) == canon

    check()


def test_feasibility_against_bruteforce():
    rng = random.Random(29)
    coords = ("x", "y", "z")
    for _ in range(40):
        def rand_point():
            d = {}
            budget = F(1)
            for c in coords:
                if rng.random() < 0.6:
                    m = rand_prob(rng) * budget
                    if m > 0:
                        d[c] = m
                        budget -= m
            return count_point(frozenset(d.items()))

        point = rand_point()
        gens = [rand_point() for _ in range(rng.randint(0, 3))]
        assert in_lower_hull(point, gens) == convex_member_bruteforce(point, gens)


# ---------------------------------------------------------------------------
# skew-associativity

@pytest.mark.parametrize(
    "name,expected",
    [("sl", True), ("cm", True), ("gs", True), ("ca", True), ("cs", False)],
)
def test_skew_classifier(name, expected):
    assert pc.is_skew_associative(theory(name)) is expected


# ---------------------------------------------------------------------------
# generator sort keys

def test_generator_key_agrees_with_isinstance_chain():
    rng = random.Random(43)
    samples = [None, True, False, 0, 7, F(2, 3), "s1", 1.5,
               pc.TICK, pc.Var("u"), pc.Prefix("a", pc.Var("s0")), pc.Prefix("a", pc.Var("s10")),
               pc.Prefix("a", pc.Prefix("b", pc.ZERO)),
               pc.Prefix("b", pc.SSeq(pc.TICK, pc.SAct("c"))),
               frozenset({(pc.TICK, F(1, 2)), (pc.Var("v"), F(1, 3))})]
    for th in ALL_THEORIES:
        for _ in range(40):
            e = rand_exp(th, rng)
            nf = step(e, th)
            samples += [nf, *th.generators(nf), *th.edges(nf)]
            c = pc.reachable(e, th)
            samples += [step(x, th) for x in c.exprs]
    kinds = {type(g) for g in samples}
    assert {tuple, frozenset, pc.Prefix, pc.Var, bool, int, F, str, type(None)} <= kinds
    assert any(isinstance(g, pc.Prefix) and type(g.body) is not pc.Var for g in samples)
    for g in samples:
        assert generator_key(g) == generator_key_by_isinstance(g), g


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_prefix_generators_sort_as_the_step_nodes_they_replaced(th):
    # a step a.t was a node of its own kind, keyed by its action and then
    # by t's text; as a prefix it must keep that place among the generators
    # of process terms, star expressions and coalgebra states alike
    rng = random.Random(seed_for(th.id, 3131))

    def old_key(g):
        return step_generator_key(g) if type(g) is pc.Prefix else generator_key(g)

    nfs = []
    for _ in range(120):
        nfs.append(step(rand_exp(th, rng, depth=4), th))
        nfs.append(step(rand_sexp(th, rng, depth=3), th))
        nfs += [step(x, th) for x in rand_coalgebra(th, rng).exprs]
    ties = 0
    for nf in nfs:
        gens = list(th.generators(nf))
        rng.shuffle(gens)
        assert sorted_gens(gens) == sorted(gens, key=old_key)
        actions = [g.action for g in gens if type(g) is pc.Prefix]
        ties += len(set(actions)) < len(actions)
    assert ties >= 10, ties  # 12 (gs) to 86 (sl) at this seed

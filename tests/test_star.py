"""Star fragment: translation, direct semantics, fixpoint axioms,
syntactic derivatives."""

import random
import re
from fractions import Fraction

import pytest

import procalc as pc
from procalc.semantics import disjoint_union, step
from procalc.equivalence import check_states, equivalent
from procalc.star import (SAct, SOne, SSeq, SStar, SONE,
                          UNIT_VAR, check_estar_instance,
                          output_guard, parse_sexp, partial_derivative,
                          star_reachable, translate, is_guarded_star)
from procalc.syntax import ZERO, Op, unparse

from gen import ACTIONS, ALL_THEORIES, rand_guarded_sexp, rand_sexp, seed_for, theory
from masses import count_point
from oracles import (deriv_gs, deriv_sl, lstep_recursive, parse_sexp_recursive,
                     translate_recursive)

F = Fraction


def sx(text, name, **kw):
    return parse_sexp(text, theory(name), **kw)


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_sexp_basics():
    assert sx("0", "sl") == ZERO
    assert sx("1", "sl") == SONE
    assert sx("a", "sl") == SAct("a")
    assert sx("a ; b", "sl") == SSeq(SAct("a"), SAct("b"))
    assert sx("a + b", "sl") == Op(None, (SAct("a"), SAct("b")))
    assert sx("a^*", "sl") == SStar(None, SAct("a"))
    assert sx("a^[1/2]", "ca") == SStar(F(1, 2), SAct("a"))


def test_parse_sexp_precedence():
    # seq binds tighter than choice, postfix star tightest
    assert sx("a ; b + c", "sl") == Op(None, (SSeq(SAct("a"), SAct("b")), SAct("c")))
    assert sx("a ; b^*", "sl") == SSeq(SAct("a"), SStar(None, SAct("b")))
    assert sx("(a ; b)^*", "sl") == SStar(None, SSeq(SAct("a"), SAct("b")))


def test_gkat_sugar():
    th = theory("gs")
    e = parse_sexp("test[x1]", th, gkat=True)
    assert e == Op(frozenset({"x1"}), (SONE, ZERO))
    # lambda xi. (xi in b ? Tick : bottom)
    assert step(e, th) == (pc.TICK, None)
    with pytest.raises(pc.ParseError):
        parse_sexp("test[x1]", th)  # sugar off by default


@pytest.mark.parametrize("name", ["sl", "cm", "gs", "ca", "cs"])
def test_sexp_print_parse_round_trip(name):
    th = theory(name)
    rng = random.Random(seed_for(name, 2003))
    for _ in range(300):
        e = rand_sexp(th, rng, depth=4)
        assert parse_sexp(unparse(e), th) == e


# the tokens that the mutations below insert, or put in place of another
MUTATION_TOKENS = ("(", ")", "+", ";", "^", "*", "[", "]", "/", "0", "1", "2",
                   "a1", "a3", "x1", "test")


def _parsed_or_error(text, th, gkat, actions, parser):
    try:
        return parser(text, th, gkat, actions)
    except (pc.ParseError, pc.TheoryError) as err:
        return (type(err), str(err))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_parse_sexp_agrees_with_recursive_descent(th):
    # printed random expressions, each also with one token deleted, one
    # inserted and one replaced; nodes are interned, so == is identity
    rng = random.Random(seed_for(th.id, 0x5E9))
    texts = ["", "(", ")", "a1 ;", "test", "test[x1] ; a1", "test[1/2]^*", "a1^", "(a1 + a2"]
    for _ in range(300):
        toks = pc.syntax.tokenize(unparse(rand_sexp(th, rng, depth=4)))[:-1]
        texts.append(" ".join(toks))
        for edit in ("delete", "insert", "replace"):
            mutated = list(toks)
            at = rng.randrange(len(mutated) + (edit == "insert"))
            if edit != "insert":
                del mutated[at]
            if edit != "delete":
                mutated.insert(at, rng.choice(MUTATION_TOKENS))
            texts.append(" ".join(mutated))
    outcomes = set()
    for text in texts:
        for gkat in (False, True):
            actions = rng.choice([None, ACTIONS, ACTIONS[:1]])
            new = _parsed_or_error(text, th, gkat, actions, parse_sexp)
            assert new == _parsed_or_error(text, th, gkat, actions, parse_sexp_recursive), \
                (text, gkat, actions)
            outcomes.add(new[0] if type(new) is tuple else "parsed")
    assert {"parsed", pc.ParseError} <= outcomes


def test_parse_sexp_at_depth():
    sl = theory("sl")
    n = 10 ** 4
    assert parse_sexp("(" * n + "a" + ")" * n, sl) is SAct("a")
    with pytest.raises(pc.ParseError, match=rf"expected '\)', found '' \(at {2 * n}\)"):
        parse_sexp("(" * n + "a" + ")" * (n - 1), sl)
    right = SAct("b")
    for _ in range(n):
        right = SSeq(SAct("a"), right)
    assert parse_sexp("a ; (" * n + "b" + ")" * n, sl) is right


# ---------------------------------------------------------------------------
# translation

def test_translate_examples():
    u = pc.Var(UNIT_VAR)
    assert translate(SONE) == u
    assert translate(SAct("a")) == pc.Prefix("a", u)
    assert translate(SSeq(SAct("a"), SAct("b"))) == pc.Prefix(
        "a", pc.Prefix("b", u)
    )
    star = translate(SStar(None, SAct("a")))
    assert isinstance(star, pc.Mu)
    v = star.var
    assert v.startswith("%")
    assert star.body == pc.Op(None, (pc.Prefix("a", pc.Var(v)), u))


def test_right_distributivity_structural():
    rng = random.Random(404)
    for name in ("sl", "gs", "ca", "cs"):
        th = theory(name)
        from gen import rand_param

        for _ in range(30):
            e1 = rand_sexp(th, rng, depth=2)
            e2 = rand_sexp(th, rng, depth=2)
            f = rand_sexp(th, rng, depth=2)
            p = rand_param(th, rng)
            assert translate(SSeq(Op(p, (e1, e2)), f)) == translate(
                Op(p, (SSeq(e1, f), SSeq(e2, f)))
            )


def test_is_guarded_star():
    assert is_guarded_star(sx("a", "sl"))
    assert not is_guarded_star(sx("1", "sl"))
    assert not is_guarded_star(sx("1 +[1/3] a", "ca"))
    assert is_guarded_star(sx("a ; a^*", "sl"))


# ---------------------------------------------------------------------------
# direct semantics (Fig. 3)

def test_lstep_base_cases():
    th = theory("sl")
    assert step(ZERO, th) == th.bottom()
    assert step(SONE, th) == th.unit(pc.TICK)
    assert step(SAct("a"), th) == th.unit(pc.Prefix("a", SONE))


def test_lstep_ca_star_counterexample_masses():
    th = theory("ca")
    e = sx("1 +[1/3] a", "ca")
    star = SStar(F(1, 2), e)
    assert step(star, th) == count_point(frozenset(
        {
            (pc.TICK, F(1, 2)),
            (pc.Prefix("a", SSeq(SONE, star)), F(1, 3)),
        }
    ))
    unrolled = Op(F(1, 2), (SSeq(e, star), SONE))
    assert pc.tick_mass(star, th) == F(1, 2)
    assert pc.tick_mass(unrolled, th) == F(7, 12)
    assert not equivalent(star, unrolled, th).equivalent


def test_star_equivalent_examples():
    th = theory("sl")
    assert equivalent(sx("1 ; a", "sl"), SAct("a"), th).equivalent
    assert equivalent(sx("0 ; a", "sl"), ZERO, th).equivalent
    assert equivalent(
        sx("a ; (b ; c)", "sl"), sx("(a ; b) ; c", "sl"), th
    ).equivalent
    # bisimilarity distinguishes a(b+c) from ab + ac
    assert not equivalent(
        sx("a ; (b + c)", "sl"), sx("a;b + a;c", "sl"), th
    ).equivalent


# ---------------------------------------------------------------------------
# coherence of Fig. 3 with Fig. 1

def unit_identified(c):
    """Rename the $unit outputs of a translated star process to Tick."""
    return pc.EqSystem(c.theory, c.variables,
                       tuple(pc.substitute(x, {UNIT_VAR: pc.TICK}) for x in c.exprs))


@pytest.mark.parametrize("name", ["sl", "cm", "gs", "ca", "cs"])
def test_coherence_with_translation(name):
    th = theory(name)
    rng = random.Random(seed_for(name, 1009))
    for _ in range(60):
        s = rand_sexp(th, rng, depth=3)
        c1 = star_reachable(s, th)
        c2 = unit_identified(pc.reachable(translate(s), th))
        u = disjoint_union(c1, c2)
        assert check_states(u, "as0", "bs0").equivalent, unparse(s)


# ---------------------------------------------------------------------------
# fixpoint axioms E*1..E*6

def test_estar_valid_instances():
    sl = theory("sl")
    a, b = SAct("a"), SAct("b")
    assert check_estar_instance("E1", sl, {"e": a}).ok
    assert check_estar_instance("E2", sl, {"e": a}).ok
    assert check_estar_instance("E3", sl, {"e1": a, "e2": b, "e3": a}).ok
    assert check_estar_instance(
        "E4", sl, {"e": a}, {"sigma": None, "tau": None}
    ).ok
    assert check_estar_instance("E5", sl, {"e": a}, {"sigma": None}).ok
    g = SSeq(SStar(None, a), b)
    assert check_estar_instance(
        "E6", sl, {"g": g, "e": a, "f": b}, {"sigma": None}
    ).ok


def test_estar_gs_and_ca_instances():
    gs = theory("gs")
    b1 = frozenset({"x1"})
    assert check_estar_instance(
        "E5", gs, {"e": SAct("a1")}, {"sigma": b1}
    ).ok
    ca = theory("ca")
    assert check_estar_instance(
        "E5", ca, {"e": SAct("a1")}, {"sigma": F(1, 2)}
    ).ok


def test_estar_side_condition_detection():
    ca = theory("ca")
    e = sx("1 +[1/3] a", "ca")
    res = check_estar_instance("E5", ca, {"e": e}, {"sigma": F(1, 2)})
    assert not res.ok and not res.side_condition_ok
    # ignoring the side condition exposes a genuine semantic failure
    res = check_estar_instance(
        "E5", ca, {"e": e}, {"sigma": F(1, 2)}, ignore_side_conditions=True
    )
    assert not res.ok and res.side_condition_ok


# ---------------------------------------------------------------------------
# the bottom-up walks against plain recursion, and at depth

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_translate_and_lstep_agree_with_recursive_walks(th):
    rng = random.Random(seed_for(th.id, 83))
    for _ in range(300):
        e = rand_sexp(th, rng, depth=4)
        assert translate(e) is translate_recursive(e)
        assert step(e, th) == lstep_recursive(e, th)


def test_star_walks_at_depth():
    # a sequence nested 10,000 deep to the right, built without the parser
    sl = theory("sl")
    e, unit = SAct("a"), pc.Prefix("a", pc.Var(UNIT_VAR))
    for _ in range(10_000):
        e, unit = SSeq(SAct("a"), e), pc.Prefix("a", unit)
    assert step(e, sl) == sl.unit(pc.Prefix("a", SSeq(SONE, e.right)))
    assert translate(e) is unit
    assert is_guarded_star(e)
    assert partial_derivative(e, sl) is e


# ---------------------------------------------------------------------------
# Appendix F derivatives

def test_derivative_base_cases():
    sl = theory("sl")
    assert partial_derivative(ZERO, sl) == ZERO
    assert partial_derivative(SONE, sl) == ZERO
    assert partial_derivative(SAct("a"), sl) == SAct("a")


def test_output_guard():
    sl = theory("sl")
    assert output_guard(SONE, sl) is True
    assert output_guard(SAct("a"), sl) is False
    gs = theory("gs")
    assert output_guard(SONE, gs) == frozenset({"x1", "x2"})
    assert output_guard(sx("test[x1]", "gs", gkat=True), gs) == frozenset({"x1"})


def test_sl_derivative_characterisation():
    sl = theory("sl")
    rng = random.Random(71)
    for _ in range(100):
        e = rand_sexp(sl, rng, depth=3)
        d = partial_derivative(e, sl)
        rhs = Op(None, (d, SONE)) if output_guard(e, sl) else d
        assert equivalent(e, rhs, sl).equivalent, unparse(e)
        # derivatives never tick
        assert output_guard(d, sl) is False


def test_gs_derivative_characterisation():
    gs = theory("gs")
    rng = random.Random(73)
    for _ in range(100):
        e = rand_sexp(gs, rng, depth=3)
        d = partial_derivative(e, gs)
        b = output_guard(e, gs)
        assert equivalent(e, Op(b, (SONE, d)), gs).equivalent, unparse(e)
        assert output_guard(d, gs) == frozenset()


@pytest.mark.parametrize("name", ["sl", "gs"])
def test_partial_derivative_agrees_with_recursive_walks(name):
    th, oracle = theory(name), {"sl": deriv_sl, "gs": deriv_gs}[name]
    rng = random.Random(seed_for(name, 89))
    for _ in range(300):
        e = rand_sexp(th, rng, depth=4)
        assert partial_derivative(e, th) is oracle(e, th), unparse(e)


@pytest.mark.parametrize("name", ["sl", "gs"])
def test_partial_derivative_rejects_mixed_choices_as_the_recursive_walks(name):
    # a choice of the other theory's kind where the recursive walks meet it
    # first: at the top, or under a choice of the right kind
    th, oracle = theory(name), {"sl": deriv_sl, "gs": deriv_gs}[name]
    right, wrong = (None, [frozenset({"x1"}), F(1, 2)]) if name == "sl" else (
        frozenset({"x2"}), [None, F(1, 3)])
    rng = random.Random(seed_for(name, 97))
    for _ in range(100):
        e, f = rand_sexp(th, rng, depth=3), rand_sexp(th, rng, depth=3)
        bad = Op(rng.choice(wrong), (e, f))
        for mixed in (bad, Op(right, (f, bad))):
            with pytest.raises(pc.TheoryError) as old:
                oracle(mixed, th)
            with pytest.raises(pc.TheoryError, match=f"^{re.escape(str(old.value))}$"):
                partial_derivative(mixed, th)


def test_partial_derivative_rejects_a_wrong_choice_anywhere():
    # the recursive sl walk derived a sequence's right side only after a
    # left side that ticks, so it let this guarded choice through
    sl = theory("sl")
    e = SSeq(SAct("a1"), Op(frozenset({"x1"}), (SAct("a1"), SAct("a2"))))
    assert deriv_sl(e, sl) is e
    with pytest.raises(pc.TheoryError, match="guarded choice in an sl expression"):
        partial_derivative(e, sl)


def test_unguarded_unrolling_sl_and_gs():
    sl = theory("sl")
    rng = random.Random(79)
    for _ in range(100):
        e = rand_sexp(sl, rng, depth=2)
        star = SStar(None, e)
        assert equivalent(
            star, Op(None, (SSeq(e, star), SONE)), sl
        ).equivalent, unparse(e)
    gs = theory("gs")
    rng = random.Random(83)
    for _ in range(100):
        e = rand_sexp(gs, rng, depth=2)
        from gen import rand_guard

        b = rand_guard(rng)
        star = SStar(b, e)
        assert equivalent(
            star, Op(b, (SSeq(e, star), SONE)), gs
        ).equivalent, unparse(e)

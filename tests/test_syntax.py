"""Parser, printer, variable analysis, guardedness, substitution."""

import random
from fractions import Fraction

import pytest

import procalc as pc
from procalc.syntax import (Mu, Op, ParseError, Prefix, Var, ZERO,
                            bound_vars, free_vars, fresh_name,
                            guarded_subst_exp, tokenize, unguarded_vars,
                            unparse, substitute)

from gen import ALL_THEORIES, rand_exp, rand_sexp, seed_for, theory
from oracles import alpha_eq, is_guarded_recursive, tokenize_by_match

F = Fraction


# ---------------------------------------------------------------------------
# parsing

def test_parse_basics():
    th = theory("sl")
    assert pc.parse_exp("0", th) == ZERO
    assert pc.parse_exp("v", th) == Var("v")
    assert pc.parse_exp("a.v", th) == Prefix("a", Var("v"))
    assert pc.parse_exp("v + w", th) == Op(None, (Var("v"), Var("w")))


def test_precedence_dot_tighter_than_plus():
    th = theory("sl")
    assert pc.parse_exp("a.v + w", th) == Op(None, (Prefix("a", Var("v")), Var("w")))
    assert pc.parse_exp("a.(v + w)", th) == Prefix("a", Op(None, (Var("v"), Var("w"))))


def test_plus_left_associative():
    th = theory("sl")
    e = pc.parse_exp("u + v + w", th)
    assert e == Op(None, (Op(None, (Var("u"), Var("v"))), Var("w")))


def test_mu_extends_maximally_right():
    th = theory("sl")
    e = pc.parse_exp("mu v. a.v + w", th)
    assert e == Mu("v", Op(None, (Prefix("a", Var("v")), Var("w"))))


def test_parse_example_32():
    th = theory("gs")
    e = pc.parse_exp("mu w. (a1.(v +[x1] a2.w) +[x1] u)", th)
    b = frozenset({"x1"})
    inner = Op(b, (Var("v"), Prefix("a2", Var("w"))))
    assert e == Mu("w", Op(b, (Prefix("a1", inner), Var("u"))))


def test_parse_example_33():
    th = theory("ca")
    e = pc.parse_exp("mu v.(a1.u +[1/2] (a2.v +[1/3] w))", th)
    assert e == Mu(
        "v",
        Op(
            F(1, 2),
            (
                Prefix("a1", Var("u")),
                Op(F(1, 3), (Prefix("a2", Var("v")), Var("w"))),
            ),
        ),
    )


def test_parse_empty_guard():
    th = theory("gs")
    e = pc.parse_exp("u +[] v", th)
    assert e == Op(frozenset(), (Var("u"), Var("v")))


def test_parse_errors():
    th = theory("sl")
    with pytest.raises(ParseError):
        pc.parse_exp("a. + v", th)
    with pytest.raises(ParseError):
        pc.parse_exp("v w", th)
    with pytest.raises(ParseError):
        pc.parse_exp("a.v + a", th)  # a used as action and variable
    with pytest.raises(ParseError):
        pc.parse_exp("u % v", th)
    with pytest.raises(pc.TheoryError):
        pc.parse_exp("v +[1/2] w", th)  # sl has no probabilistic choice
    with pytest.raises((ParseError, pc.TheoryError)):
        pc.parse_exp("v +[3/2] w", theory("ca"))
    with pytest.raises((ParseError, pc.TheoryError)):
        pc.parse_exp("v +[zz] w", theory("gs"))


def test_declared_actions_enforced():
    th = theory("sl")
    with pytest.raises(ParseError):
        pc.parse_exp("b.v", th, actions=["a"])
    with pytest.raises(ParseError):
        pc.parse_exp("a + v", th, actions=["a"])  # declared action as variable
    assert pc.parse_exp("a.v", th, actions=["a"]) == Prefix("a", Var("v"))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_print_parse_round_trip(th):
    rng = random.Random(seed_for(th.id, 0xFFFF))
    for _ in range(500):
        e = rand_exp(th, rng, depth=4)
        assert pc.parse_exp(unparse(e), th) == e


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as err:
        return ("error", str(err), err.pos)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_tokenize_agrees_with_match_loop(th):
    rng = random.Random(seed_for(th.id, 0x70C))
    texts = ["", " ", "\t\n ", "@", "a.0 @", "  a . 0  "]
    for _ in range(200):
        text = rng.choice([unparse(rand_exp(th, rng, depth=4)),
                           pc.unparse_sexp(rand_sexp(th, rng, depth=3))])
        at = rng.randrange(len(text) + 1)
        texts += [text, text + rng.choice([" ", "  \n", "\t"]),
                  text[:at] + rng.choice("@#$!&") + text[at:]]
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(tokenize_by_match, text)
    assert _tokens_or_error(tokenize, "a.0 @") == ("error", "unexpected character '@' (at 4)", 4)


# ---------------------------------------------------------------------------
# variable analysis

def test_var_info_examples():
    th = theory("gs")
    e = Mu("v", Var("v"))
    assert (free_vars(e), bound_vars(e)) == (frozenset(), frozenset({"v"}))
    e = pc.parse_exp("mu w. (a1.(v +[x1] a2.w) +[x1] u)", th)
    assert free_vars(e) == frozenset({"v", "u"})
    assert bound_vars(e) == frozenset({"w"})
    assert free_vars(Prefix("a", Var("v"))) == frozenset({"v"})


def test_is_guarded_clauses():
    assert pc.is_guarded("v", Prefix("a", Var("v")))
    assert not pc.is_guarded("v", Var("v"))
    assert pc.is_guarded("v", Var("u"))
    assert pc.is_guarded("v", ZERO)
    assert pc.is_guarded("v", Mu("v", Var("v")))
    assert not pc.is_guarded("v", Mu("u", Var("v")))
    assert not pc.is_guarded("v", Op(None, (Var("v"), Prefix("a", Var("v")))))


def test_unguarded_vars_clauses():
    e = Op(None, (Var("v"), Op(None, (Prefix("a", Var("u")), Mu("w", Op(None, (Var("w"), Var("x"))))))))
    assert unguarded_vars(e) == {"v", "x"}
    assert unguarded_vars(Op(None, (Mu("v", Var("v")), Var("v")))) == {"v"}
    assert unguarded_vars(ZERO) == set()


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_unguarded_vars_matches_recursive_guardedness(th):
    rng = random.Random(seed_for(th.id, 7717))
    for _ in range(150):
        e = rand_exp(th, rng, depth=4)
        for v in free_vars(e) | bound_vars(e) | {"nowhere"}:
            assert (v in unguarded_vars(e)) == (not is_guarded_recursive(v, e)), unparse(e)


def test_unguarded_vars_at_depth():
    # a choice nested 5,000 deep, built without the parser
    e = Var("v")
    for i in range(5000):
        e = Op(None, (Prefix("a", Var(f"g{i}")), e)) if i % 2 else Op(None, (e, Var("u")))
    assert unguarded_vars(e) == {"u", "v"}
    assert not pc.is_guarded("v", Mu("w", e))


# ---------------------------------------------------------------------------
# substitution

def test_substitute_basics():
    f = Prefix("a", ZERO)
    assert substitute(Var("v"), {"v": f}) == f
    e = Mu("v", Var("v"))
    assert substitute(e, {"v": f}) == e  # v not free in mu v. e
    assert substitute(Var("u"), {}) == Var("u")


def test_substitute_capture_avoidance():
    # (mu u. a.v)[u/v] must rename the binder
    e = Mu("u", Prefix("a", Var("v")))
    r = substitute(e, {"v": Var("u")})
    assert isinstance(r, Mu) and r.var != "u"
    assert r.var.startswith("%")
    assert r.body == Prefix("a", Var("u"))
    # oracle: pre-rename the binder, then substitute naively
    pre = Mu("%0", Prefix("a", Var("v")))
    assert alpha_eq(r, substitute(pre, {"v": Var("u")}))


def test_substitute_simultaneous():
    e = Op(None, (Var("u"), Var("v")))
    r = substitute(e, {"u": Var("v"), "v": Var("u")})
    assert r == Op(None, (Var("v"), Var("u")))


def test_substitute_not_free_is_identity():
    th = theory("sl")
    rng = random.Random(99)
    for _ in range(100):
        e = rand_exp(th, rng, depth=3)
        if "zz" not in pc.free_vars(e):
            assert substitute(e, {"zz": Prefix("a", ZERO)}) == e


def test_alpha_renaming_preserves_free_vars():
    th = theory("sl")
    rng = random.Random(101)
    g = Prefix("a1", Var("m1"))  # mentions a common binder name
    for _ in range(100):
        e = rand_exp(th, rng, depth=3)
        r = substitute(e, {"u": g})
        expected = (pc.free_vars(e) - {"u"}) | (
            pc.free_vars(g) if "u" in pc.free_vars(e) else frozenset()
        )
        assert pc.free_vars(r) == expected


def test_guarded_subst_examples():
    g = Prefix("b", ZERO)
    assert guarded_subst_exp(Var("v"), g, "v") == ZERO
    assert guarded_subst_exp(Prefix("a", Var("v")), g, "v") == Prefix("a", g)
    e = Op(None, (Var("v"), Prefix("a", Var("v"))))
    assert guarded_subst_exp(e, g, "v") == Op(None, (ZERO, Prefix("a", g)))


def test_guarded_subst_agrees_when_guarded():
    th = theory("sl")
    rng = random.Random(103)
    g = Prefix("a1", ZERO)
    n = 0
    for _ in range(300):
        e = rand_exp(th, rng, depth=3)
        if pc.is_guarded("u", e) and "u" in pc.free_vars(e):
            n += 1
            assert guarded_subst_exp(e, g, "u") == substitute(e, {"u": g})
    assert n > 10


def test_fresh_name():
    assert fresh_name(set()) == "%0"
    assert fresh_name({"%0", "%1"}) == "%2"

"""Parser, printer, variable analysis, guardedness, substitution."""

import random
import re
from fractions import Fraction

import pytest

import procalc as pc
from procalc import syntax
from procalc.syntax import (Mu, Op, ParseError, Prefix, Var, ZERO,
                            bound_vars, free_vars, fresh_name,
                            guarded_subst_exp, tokenize, unguarded_vars,
                            unparse, substitute)

from gen import ACTIONS, ALL_THEORIES, OUTVARS, rand_exp, rand_param, rand_sexp, seed_for, theory
from oracles import (alpha_eq, guarded_subst_renaming, is_guarded_recursive, parse_exp_recursive,
                     parse_sexp_recursive, substitute_recursive, tokenize_by_match)

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


def _match_loop_texts(text):
    """``tokenize_by_match``'s token texts, with ``""`` for the end."""
    return [t[1] for t in tokenize_by_match(text)]


# quotes, digits and non-ASCII characters at the edges of identifiers and numbers
_EDGE_TEXTS = ["1", "a.1", "u + 1", "'a", "1'", "a1'", "1a'", "a''", "a1''b", "12'x", "a.1'", "١'", "a١'", "١a'",
               "a\u00a0.\u00a00", "\u00a0", "\u00e9", "a.\u00e9", "caf\u00e9.0", "a.+ @",
               "a.0 +[\u0661/\u0662] b.0", "x1 ' y", "a'.b'.0", "_'", "_1'.0",
               # a bad character and a bad quote: the first one is reported
               "@ 'a", "a.\u00e9 1'", "'a @", "1' \u00e9", "a' @ 'b",
               # %k names, and a % with no digit after it
               "%0", "mu %1. a.%1", "%12.%3", "a%1", "%1a", "%1'", "%\u0661", "%", "a.%",
               "%x", "% 1", "%%1", "a.0 +[1/2] %7", "'%1", "%1 @"]


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_tokenize_agrees_with_match_loop(th):
    # the token texts, the first bad character and its offset, each token's
    # kind as token_kind reads it, and its offset as token_pos finds it again
    rng = random.Random(seed_for(th.id, 0x70C))
    texts = ["", " ", "\t\n ", "@", "a.0 @", "  a . 0  ", *_EDGE_TEXTS]
    bad = "@#$!&'\u00a0\u00e9\u0663"
    for _ in range(200):
        text = rng.choice([unparse(rand_exp(th, rng, depth=4)),
                           pc.unparse(rand_sexp(th, rng, depth=3))])
        at, to = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        texts += [text, text + rng.choice([" ", "  \n", "\t"]),
                  text[:at] + rng.choice(bad) + text[at:],
                  text[:at] + rng.choice(bad) + text[at:to] + rng.choice(bad) + text[to:]]
    errors = 0
    for text in texts:
        new = _tokens_or_error(tokenize, text)
        assert new == _tokens_or_error(_match_loop_texts, text), text
        if new[0] == "error":
            errors += 1
            continue
        oracle = tokenize_by_match(text)
        assert [syntax.token_kind(t) for t in new] == [t[0] for t in oracle], text
        assert [syntax.token_pos(text, k) for k in range(len(new))] == [t[2] for t in oracle], text
    assert errors >= 100
    assert _tokens_or_error(tokenize, "a.0 @") == ("error", "unexpected character '@' (at 4)", 4)
    # the bad character is found before the parse error that precedes it
    assert _tokens_or_error(tokenize, "a.+ @") == ("error", "unexpected character '@' (at 4)", 4)
    assert _tokens_or_error(tokenize, "1'") == ("error", "unexpected character \"'\" (at 1)", 1)
    assert tokenize("a1' 1a' a''") == ["a1'", "1", "a'", "a''", ""]


def test_a_unicode_digit_is_a_number():
    th = theory("ca")
    assert tokenize("+[\u0661/\u0662]") == ["+", "[", "\u0661", "/", "\u0662", "]", ""]
    e = pc.parse_exp("a.0 +[\u0661/\u0662] b.0", th)
    assert e is pc.parse_exp("a.0 +[1/2] b.0", th)
    assert e.param == F(1, 2)


def _parsed_or_error(parser, text, th, actions):
    try:
        return parser(text, th, actions)
    except (ParseError, pc.TheoryError) as err:
        return ("error", type(err), str(err), getattr(err, "pos", None))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_parse_exp_agrees_with_recursive_descent(th):
    rng = random.Random(seed_for(th.id, 0x9A5))
    texts = ["", "  ", "@", "a.0 @", "a.(0 + @", "a.0 + mu a + 0", "mu x x", "mu 0",
             "mu %1. a.%1", "%0 + a.%0", "%0.%1", "mu %1. %1.0", "a.%"]
    for _ in range(300):
        text = unparse(rand_exp(th, rng, depth=4))
        at = rng.randrange(len(text) + 1)
        texts += [text, text[:at] + rng.choice([")", "(", "+", ".", "mu ", "[1/2]"]) + text[at:]]
    for text in texts:
        actions = rng.choice([None, ACTIONS, ACTIONS[:1]])
        new = _parsed_or_error(pc.parse_exp, text, th, actions)
        old = _parsed_or_error(parse_exp_recursive, text, th, actions)
        if isinstance(old, tuple):
            assert new == old, text
        else:
            assert new is old, text


def _run_term(th, rng, depth=0, share=True):
    """The text of a random term made of prefix runs of 1 to 50 actions,
    each over 0, a variable, a ``mu``, a bracketed choice, or (at the top)
    a choice of two.  With ``share``, a choice's right side is at times a
    suffix of its left side, which the parsed DAG then shares."""
    run = "".join(f"{rng.choice(ACTIONS)}." for _ in range(rng.randint(1, 50)))
    pick = rng.random()
    if depth >= 3 or pick < 0.3:
        return run + rng.choice(["0", "u", "v", "m1"])
    if pick < 0.55:
        return f"{run}mu m1. {_run_term(th, rng, depth + 1, share)}"
    left = _run_term(th, rng, depth + 1, share)
    right = left[3:] if share and rng.random() < 0.3 else _run_term(th, rng, depth + 1, share)
    choice = f"{left} +{syntax.render_param(rand_param(th, rng))} {right}"
    return choice if depth == 0 and pick > 0.9 else f"{run}({choice})"


# what a fault inside or right after a run inserts or puts in place of a token
RUN_FAULTS = ("(", ")", "+", ".", "mu", "0", "1", "a1", "u", "m1", "[", "]", "/", "@", "'", ";")


def _run_texts(th, rng, count):
    """``count`` run-heavy texts, each also with a fault inside or right
    after one of its runs: a token deleted, inserted or replaced at a dot,
    just after it, or one further."""
    texts = []
    for _ in range(count):
        toks = tokenize(_run_term(th, rng))[:-1]
        texts.append(" ".join(toks))
        dots = [k for k, t in enumerate(toks) if t == "."]
        for edit in ("delete", "insert", "replace"):
            mutated = list(toks)
            at = min(rng.choice(dots) + rng.choice((0, 1, 2)), len(mutated) - (edit != "insert"))
            if edit != "insert":
                del mutated[at]
            if edit != "delete":
                mutated.insert(at, rng.choice(RUN_FAULTS))
            texts.append(" ".join(mutated))
    return texts


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_parse_exp_agrees_with_recursive_descent_on_prefix_runs(th):
    rng = random.Random(seed_for(th.id, 0x2A9))
    outcomes = []
    for text in _run_texts(th, rng, 150):
        actions = rng.choice([None, None, ACTIONS, ACTIONS[:1]])
        new = _parsed_or_error(pc.parse_exp, text, th, actions)
        old = _parsed_or_error(parse_exp_recursive, text, th, actions)
        if isinstance(old, tuple):
            assert new == old, text
            outcomes.append("clash" if "used both" in old[2] else old[2].split(" ")[0])
        else:
            assert new is old, text
            outcomes.append("parsed")
    # parsed terms, and errors of the tokenizer, the parser, the names and the theory
    assert {"parsed", "unexpected", "expected", "trailing", "clash", "undeclared"} <= set(outcomes)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_parse_sexp_agrees_with_recursive_descent_on_prefix_runs(th):
    # the star grammar has no prefix, so a run is an error at its first dot;
    # the same texts with "." read as ";" are runs of sequenced actions
    rng = random.Random(seed_for(th.id, 0x2AA))
    parsed = 0
    for text in _run_texts(th, rng, 60):
        for star_text in (text, text.replace(".", ";").replace("mu m1;", "(m1) ;")):
            actions = rng.choice([None, None, ACTIONS])
            new = _parsed_or_error(pc.parse_sexp, star_text, th, actions)
            old = _parsed_or_error(parse_sexp_recursive, star_text, th, actions)
            if isinstance(old, tuple):
                assert new == old, star_text
            else:
                assert new is old, star_text
                parsed += 1
    assert parsed >= 20


def test_parse_exp_at_depth():
    # built bottom-up without the parser, and never printed: the printer
    # keeps every suffix's text (CHANGES.md)
    th = theory("sl")
    n = 10 ** 5
    chain = ZERO
    for _ in range(n):
        chain = Prefix("a", chain)
    same = pc.parse_exp("a." * n + "0", th) is chain
    assert same
    n = 10 ** 4
    assert pc.parse_exp("(" * n + "a.0" + ")" * n, th) is Prefix("a", ZERO)
    with pytest.raises(ParseError, match=rf"expected '\)', found '' \(at {2 * n + 2}\)"):
        pc.parse_exp("(" * n + "a.0" + ")" * (n - 1), th)
    n = 10 ** 3
    nested = Prefix("a", Var("x0"))
    for i in reversed(range(n)):
        nested = Mu(f"x{i}", nested)
    text = "".join(f"mu x{i}. " for i in range(n)) + "a.x0"
    assert pc.parse_exp(text, th) is nested


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
    assert unguarded_vars(pc.SSeq(pc.SAct("a"), pc.SStar(None, Op(None, (pc.SONE, ZERO))))) == set()


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


def test_unguarded_vars_walks_the_dag_not_the_tree():
    # 60 levels of t + t: 2**60 leaves as a tree, 61 nodes as a DAG
    e = Op(None, (Var("v"), Prefix("a", Var("u"))))
    for _ in range(60):
        e = Op(None, (e, e))
    assert unguarded_vars(e) == {"v"}
    assert unguarded_vars(Mu("v", e)) == set()
    assert bound_vars(Mu("w", e), Prefix("a", Mu("v", ZERO))) == {"v", "w"}


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


def _random_binding(th, rng):
    # rand_exp binds m1..m3, so a value with one of them free forces a renaming
    if rng.random() < 0.5:
        return Prefix(rng.choice(ACTIONS), Var(rng.choice(("m1", "m2", "m3"))))
    return rand_exp(th, rng, depth=2, bound=("m1", "m2", "m3"))


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_substitute_agrees_with_recursive_walk(th):
    rng = random.Random(seed_for(th.id, 0x5B5))
    renamed = 0
    for _ in range(600):
        e = rand_exp(th, rng, depth=rng.randint(2, 5))
        bindings = {v: _random_binding(th, rng) for v in OUTVARS + ("m1",) if rng.random() < 0.5}
        old = substitute_recursive(e, bindings)
        assert substitute(e, bindings) is old, (unparse(e), bindings)
        renamed += "%" in unparse(old)
    assert renamed >= 10


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_substitute_agrees_with_recursive_walk_on_prefix_runs(th):
    # runs of up to 50 prefixes over mu m1 binders, which a value with m1
    # free renames; where runs share a suffix, the DAG walk renames a shared
    # binder once and the tree walk once per occurrence
    rng = random.Random(seed_for(th.id, 0x5B6))
    renamed = 0
    for k in range(200):
        share = k % 2 == 1
        try:
            e = pc.parse_exp(_run_term(th, rng, share=share), th)
        except pc.TheoryError:  # a sampled parameter the theory refuses
            continue
        bindings = {v: _random_binding(th, rng) for v in ("u", "v", "m1") if rng.random() < 0.6}
        if rng.random() < 0.5:
            bindings["u"] = Prefix("a1", Var("m1"))  # captured under every mu m1
        old, new = substitute_recursive(e, bindings), substitute(e, bindings)
        if share:
            assert alpha_eq(new, old), (unparse(e), bindings)
        else:
            assert new is old, (unparse(e), bindings)
            renamed += "%" in unparse(old)
    assert renamed >= 10


def test_a_renamed_binder_avoids_the_names_bound_in_step_targets():
    # %0 is bound in a step target, so the binder y, which would capture the
    # y put for x, is renamed to %1
    target = Mu("%0", Prefix("b", Op(None, (Var("y"), Var("%0")))))
    e = Mu("y", Op(None, (Var("x"), Prefix("a", target))))
    assert unparse(substitute(e, {"x": Var("y")})) == "mu %1. y + a.(mu %0. b.(%1 + %0))"


def test_substitute_renames_binders_below_runs_in_walk_order():
    th = theory("sl")
    e = pc.parse_exp("a1.a2.a1.(mu m. b.(m + u)) + a2.a2.(c.(mu m. c.(m + u)) + mu n. a1.(n + u))", th)
    new = substitute(e, {"u": Var("m")})
    assert new is substitute_recursive(e, {"u": Var("m")})
    assert unparse(new) == ("a1.a2.a1.(mu %0. b.(%0 + m))"
                            " + a2.a2.(c.(mu %1. c.(%1 + m)) + (mu n. a1.(n + m)))")
    e = pc.parse_exp("a1.(mu m. b.(m + u)) + a2.(mu m. c.(m + u))", th)
    assert unparse(substitute(e, {"u": Var("m")})) == "a1.(mu %0. b.(%0 + m)) + a2.(mu %1. c.(%1 + m))"


def test_a_run_that_does_not_change_is_kept():
    th = theory("sl")
    run = pc.parse_exp("a1." * 50 + "v", th)
    assert substitute(run, {"u": ZERO}) is run
    e = Op(None, (run, Var("u")))
    assert substitute(e, {"u": ZERO}).args[0] is run


def test_substitute_renames_a_shared_subterm_once():
    # the one place where the DAG walk and the tree walk differ: a subterm
    # that occurs twice and renames a binder is rewritten once
    m = Mu("m", Prefix("a", Op(None, (Var("m"), Var("u")))))
    e = Op(None, (m, m))
    new, old = substitute(e, {"u": Var("m")}), substitute_recursive(e, {"u": Var("m")})
    assert unparse(new) == "(mu %0. a.(%0 + m)) + (mu %0. a.(%0 + m))"
    assert unparse(old) == "(mu %0. a.(%0 + m)) + (mu %1. a.(%1 + m))"
    assert alpha_eq(new, old)


def test_substitute_keeps_a_shared_subterm_apart_per_binding_set():
    # n occurs outside and inside mu w, where w is no longer substituted, and
    # inside mu m, whose binder is renamed; each needs its own rewrite
    n = Op(None, (Var("v"), Op(None, (Var("w"), Var("m")))))
    e = Op(None, (n, Op(None, (Mu("w", Prefix("a", n)), Mu("m", Prefix("b", n))))))
    bindings = {"v": Prefix("c", Var("m")), "w": ZERO}
    assert substitute(e, bindings) is substitute_recursive(e, bindings)
    assert unparse(substitute(e, bindings)) == (
        "c.m + (0 + m) + ((mu w. a.(c.m + (w + m))) + (mu %0. b.(c.m + (0 + %0))))")


def test_substitute_walks_the_dag_not_the_tree(monkeypatch):
    # 60 levels of t + t: 2**60 leaves as a tree, 61 nodes as a DAG
    e = Var("x")
    for _ in range(60):
        e = Op(None, (e, e))
    built = []
    intern = syntax._intern
    monkeypatch.setattr(syntax, "_intern", lambda key, node: built.append(node) or intern(key, node))
    r = substitute(e, {"x": Prefix("fresh_dag_action", ZERO)})
    assert len(built) <= 2 * 62
    for _ in range(60):
        assert r.args[0] is r.args[1]
        r = r.args[0]
    assert r is Prefix("fresh_dag_action", ZERO)


def test_substitute_rewrites_each_prefix_of_shared_runs_once(monkeypatch):
    # every suffix of a 200-prefix run, shortest first, joined by choices:
    # the tree has 20,100 prefixes, the DAG 200, and each is rebuilt once
    suffixes = [Var("x")]
    for k in range(200):
        suffixes.append(Prefix(f"shared{k % 3}", suffixes[-1]))
    e = suffixes[0]
    for t in suffixes[1:]:
        e = Op(None, (e, t))
    rebuilt = []
    prefix_run = syntax._prefix_run
    monkeypatch.setattr(syntax, "_prefix_run",
                        lambda actions, body: rebuilt.extend(actions) or prefix_run(actions, body))
    r = substitute(e, {"x": ZERO})
    assert len(rebuilt) == 200
    assert r is substitute_recursive(e, {"x": ZERO})


def _deep(n, level):
    """n levels over Var("v"), built bottom-up without the parser; a binder
    ``mu u`` every 1,000 levels (distinct binder names at every level would
    make the per-node bound-variable sets quadratic)."""
    e = Var("v")
    for i in range(n):
        e = level(e)
        if i % 1000 == 0:
            e = Mu("u", Op(None, (e, Var("u"))))
    return e


def test_substitute_at_depth():
    e = _deep(10 ** 4, lambda e: Prefix("a", Op(None, (e, Var("w")))))
    r = substitute(e, {"v": Prefix("b", Var("u"))})
    assert free_vars(r) == frozenset({"u", "w"})
    renamed = []
    while r is not Prefix("b", Var("u")):
        if isinstance(r, Mu):
            renamed.append(r.var)
            r = r.body.args[0]
        else:
            r = r.body.args[0]
    assert renamed == [f"%{k}" for k in range(10)]


def test_guarded_subst_at_depth():
    g = Prefix("b", Var("u"))
    e = _deep(10 ** 4, lambda e: Op(None, (Prefix("a", Var("v")), e)))
    r = guarded_subst_exp(e, g, "v")
    assert free_vars(r) == frozenset({"u"})
    renamed, depth = [], 0
    while r is not ZERO:
        if isinstance(r, Mu):
            renamed.append(r.var)
            r = r.body.args[0]
        else:
            assert r.args[0] is Prefix("a", g)
            r, depth = r.args[1], depth + 1
    assert (depth, renamed) == (10 ** 4, [f"%{k}" for k in range(10)])


def test_guarded_subst_examples():
    g = Prefix("b", ZERO)
    assert guarded_subst_exp(Var("v"), g, "v") == ZERO
    assert guarded_subst_exp(Prefix("a", Var("v")), g, "v") == Prefix("a", g)
    e = Op(None, (Var("v"), Prefix("a", Var("v"))))
    assert guarded_subst_exp(e, g, "v") == Op(None, (ZERO, Prefix("a", g)))
    # a binder that would capture g's free u is renamed past every name of e and g
    g = Prefix("b", Op(None, (Var("u"), Mu("%0", Var("%0")))))
    e = Mu("u", Prefix("a", Op(None, (Var("v"), Var("u")))))
    assert guarded_subst_exp(e, g, "v") is Mu("%1", Prefix("a", Op(None, (g, Var("%1")))))


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


def _has_guarded(v, e, guarded=False):
    """Whether v occurs free in e under an action prefix."""
    if type(e) is Var:
        return guarded and e.name == v
    if type(e) is Prefix:
        return _has_guarded(v, e.body, True)
    if type(e) is Mu:
        return e.var != v and _has_guarded(v, e.body, guarded)
    return type(e) is Op and any(_has_guarded(v, a, guarded) for a in e.args)


def _renames_needlessly(e, g, v):
    """Whether a binder of e above its prefixes captures a free name of g
    although v occurs in its body, but only unguarded: the renaming walk
    renames it, and zeroing v leaves nothing to capture."""
    if type(e) is Op:
        return any(_renames_needlessly(a, g, v) for a in e.args)
    if type(e) is not Mu or e.var == v or v not in free_vars(e.body):
        return False
    if e.var in free_vars(g) and not _has_guarded(v, e.body):
        return True
    return _renames_needlessly(e.body, g, v)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_guarded_subst_agrees_with_renaming_walk(th):
    # the same term up to alpha, and the same text unless the walk renamed a
    # binder needlessly or the result has two renamed binders: the walk
    # counts fresh names afresh under each prefix, substitute once over the
    # whole term
    rng = random.Random(seed_for(th.id, 0x6A7))
    kept = needless = 0
    for _ in range(2000):
        e = rand_exp(th, rng, depth=rng.randint(3, 6))
        v = rng.choice(OUTVARS)
        m = Var(rng.choice(("m1", "m2", "m3")))  # free in g, so binders of e capture it
        g = Prefix("a1", m) if rng.random() < 0.5 else Mu(v, Op(rand_param(th, rng), (e, m)))
        old, new = guarded_subst_renaming(e, g, v), guarded_subst_exp(e, g, v)
        assert alpha_eq(new, old), (unparse(e), unparse(g), v)
        if _renames_needlessly(e, g, v):
            needless += 1
        elif len(set(re.findall(r"mu (%\d+)", unparse(new)))) < 2:
            assert new is old, (unparse(e), unparse(g), v)
            kept += "%" in unparse(new)
    assert kept >= 20 and needless >= 5


def test_guarded_subst_renames_no_binder_that_only_holds_v_unguarded():
    th = theory("sl")
    e = pc.parse_exp("(mu u. (v + a.u)) + b.u", th)
    g = Mu("v", e)
    assert unparse(guarded_subst_renaming(e, g, "v")) == "(mu %0. 0 + a.%0) + b.u"
    assert unparse(guarded_subst_exp(e, g, "v")) == "(mu u. 0 + a.u) + b.u"
    # renamings under two prefixes take %0 and %1 from one count
    e = pc.parse_exp("a.(mu u. b.(v + u)) + c.(mu u. d.(v + u))", th)
    g = pc.parse_exp("e.u", th)
    assert unparse(guarded_subst_renaming(e, g, "v")) == (
        "a.(mu %0. b.(e.u + %0)) + c.(mu %0. d.(e.u + %0))")
    assert unparse(guarded_subst_exp(e, g, "v")) == (
        "a.(mu %0. b.(e.u + %0)) + c.(mu %1. d.(e.u + %1))")


def test_fresh_name():
    assert fresh_name(set()) == "%0"
    assert fresh_name({"%0", "%1"}) == "%2"


# ---------------------------------------------------------------------------
# %k names, choice brackets read once, and substitution under binder chains

def test_percent_names_are_names():
    th = theory("sl")
    e = pc.parse_exp("mu %1. a.%1 + %0", th)
    assert e is Mu("%1", Op(None, (Prefix("a", Var("%1")), Var("%0"))))
    assert unparse(e) == "mu %1. a.%1 + %0"
    assert pc.parse_exp("%2.0", th) is Prefix("%2", ZERO)
    for text, pos in (("u % v", 2), ("a.%", 2), ("%x", 0), ("%1'", 2)):
        with pytest.raises(ParseError) as err:
            pc.parse_exp(text, th)
        assert err.value.pos == pos, text
    assert syntax.is_name("%12") and not syntax.is_name("%") and not syntax.is_name("%x")


# a bracket that reads like one before it up to where it fails, and one
# that fails its theory's check after a good one: each fails with the
# message and offset of a bracket read on its own
_BRACKET_ERRORS = [
    ("ca", "a.0 +[1/2] b.0 +[1/2 c.0", ParseError, "expected ']', found 'c' (at 21)"),
    ("ca", "a.0 +[1/2] b.0 +[1/2 c.0 +[1/2] d.0", ParseError, "expected ']', found 'c' (at 21)"),
    ("ca", "a.0 +[1/2] b.0 +[3/2] c.0", pc.TheoryError, "probability 3/2 outside [0, 1]"),
    ("ca", "a.0 +[1/2] b.0 +[1/0] c.0", ParseError, "zero denominator (at 17)"),
    ("ca", "(a.0 +[1/2] b.0) +[1/2] mu x. a.x +[1/2] x +[1/2", ParseError,
     "expected ']', found '' (at 48)"),
    ("gs", "a.0 +[x1] b.0 +[x3] c.0", pc.TheoryError, "guard ['x3'] not within declared atoms"),
    ("gs", "a.0 +[x1] b.0 +[x1 x3] c.0", pc.TheoryError,
     "guard ['x1', 'x3'] not within declared atoms"),
    ("gs", "a.0 +[x1] b.0 +[x1 c.0", ParseError, "expected ']', found '.' (at 20)"),
]


@pytest.mark.parametrize("name, text, kind, message", _BRACKET_ERRORS)
def test_a_bad_bracket_after_a_good_one_fails_as_on_its_own(name, text, kind, message):
    th = theory(name)
    with pytest.raises(kind) as err:
        pc.parse_exp(text, th)
    assert type(err.value) is kind and str(err.value) == message
    assert _parsed_or_error(parse_exp_recursive, text, th, None)[1:3] == (kind, message)


def test_each_distinct_bracket_is_read_once(monkeypatch):
    reads = []
    parse_param = syntax.parse_param
    monkeypatch.setattr(syntax, "parse_param",
                        lambda toks, i, th: reads.append(i) or parse_param(toks, i, th))
    for name, text, distinct in (
            ("ca", "a.0 +[1/2] b.0 +[1/2] c.0 +[1/3] d.0 +[1/2] e.0", 2),
            ("gs", "(a.0 +[x1] b.0) +[x2 x1] (c.0 +[x1] d.0 +[x1 x2] e.0)", 3)):
        reads.clear()
        th = theory(name)
        assert pc.parse_exp(text, th) is parse_exp_recursive(text, th, None)
        assert len(reads) == distinct


def _binder_chain(th, rng, levels):
    """A chain of ``levels`` binders, each over a choice between a variable
    and a prefix on the next, above a random term.  Binders are named m1,
    m2, m3 or u, so some shadow a binder above them (mu m1 under mu m1) or
    the output u, and many are vacuous."""
    e = rand_exp(th, rng, depth=2, bound=("m1", "m2", "m3"))
    for _ in range(levels):
        var = Var(rng.choice(OUTVARS + ("m1", "m2", "m3")))
        e = Mu(rng.choice(("m1", "m2", "m3", "u")),
               Op(rand_param(th, rng), (var, Prefix(rng.choice(ACTIONS), e))))
    return e


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_substitute_under_binder_chains_agrees_with_recursive_walk(th):
    # a binder whose body keeps every binding, none of whose values has it
    # free, passes its bindings on unchanged; shadowing drops a binding,
    # and a value with m1, m2 or m3 free is captured and renames the binder
    rng = random.Random(seed_for(th.id, 0x5B7))
    renamed = shadowed = 0
    for _ in range(400):
        e = _binder_chain(th, rng, rng.randint(1, 8))
        bindings = {}
        for v in ("u", "v", "m1"):
            if rng.random() < 0.6:
                bindings[v] = (Prefix("a1", Var(rng.choice(("m1", "m2", "m3"))))
                               if rng.random() < 0.4 else _random_binding(th, rng))
        new, old = substitute(e, bindings), substitute_recursive(e, bindings)
        assert alpha_eq(new, old), (unparse(e), bindings)
        if len(syntax.post_order((e,))) == _tree_size(e):  # no shared subterm
            assert new is old, (unparse(e), bindings)
        renamed += "%" in unparse(old)
        shadowed += any(type(n) is Mu and n.var in bindings for n in syntax.post_order((e,)))
    assert renamed >= 40 and shadowed >= 100


def _tree_size(e):
    """The number of nodes of ``e`` read as a tree."""
    size, stack = 0, [e]
    while stack:
        n = stack.pop()
        size += 1
        stack += n._kids()
    return size

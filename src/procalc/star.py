"""The star fragment: iteration expressions, their direct semantics, and
syntactic derivative operators.

Star expressions ``0 | 1 | a | e +_s f | e;f | e^(s)`` are terms of the
calculus: ``0`` and choice are its own ``ZERO`` and ``Op``, and the nodes
``SOne``, ``SAct``, ``SSeq`` and ``SStar`` defined here are ``Exp`` nodes
with no free variables.  ``syntax.unparse`` prints them, and each carries
its one-step rule, which ``semantics.step`` applies: so ``step``,
``reachable`` and ``equivalent`` compute the direct semantics, with a
termination transition in place of a continuation.  An action ``a`` steps
to ``a.1``, a prefix on a star expression, which is its own transition;
a sequence sits at ``syntax``'s ``_SEQ`` level, so a prefix brackets it, as
in ``a.(1 ; b)``.  Star expressions also translate into the full calculus
via a reserved continuation variable (spelled ``$unit``); the two routes
agree up to renaming outputs of the continuation variable to termination.

The parser is one loop over ``syntax.tokenize``'s list with an explicit
stack of open brackets, run by ``syntax.parse_tokens`` as
``syntax.parse_exp`` is.  Translation and the derivative are computed
bottom-up, each in one loop over ``syntax.post_order``, and ``step`` is
such a loop too.  So an expression's depth is no limit.
"""

from __future__ import annotations

from fractions import Fraction

from . import syntax
from .semantics import reachable, step
from .syntax import (_ATOM, _EMPTY, _SEQ, TICK, Exp, Mu, Op, ParseError, Prefix, Record, Tick,
                     Var, ZERO, all_names, bracket, choice_param, expect_token, fresh_name,
                     is_guarded, parse_param, post_order, render_param, substitute, token_kind)
from .theory import TheoryError

UNIT_VAR = "$unit"


# ---------------------------------------------------------------------------
# abstract syntax

_POST = _ATOM  # a choice is an Op, at syntax's _SUM; a sequence is at its _SEQ


class SExp(Exp):
    """A star expression node.  ``_step(theory, *nfs)`` is its one-step
    rule: its normal form, given those of its children."""

    __slots__ = ()
    _free = _EMPTY
    _prec = _POST


class SOne(SExp):
    __slots__ = _fields = ()

    def _render(self):
        return "1"

    def _step(self, theory):
        return theory.unit(TICK)


class SAct(SExp):
    __slots__ = _fields = ("action",)

    def _render(self):
        return self.action

    def _step(self, theory):
        return theory.unit(Prefix(self.action, SONE))


class SSeq(SExp):
    __slots__ = _fields = ("left", "right")
    _prec = _SEQ

    def _kids(self):
        return (self.left, self.right)

    def _render(self):
        return f"{bracket(self.left, _SEQ)} ; {bracket(self.right, _POST)}"

    def _step(self, theory, left, right):
        return _then(left, self.right, right, theory)


class SStar(SExp):
    __slots__ = _fields = ("param", "body")
    _typed_param = True

    def _kids(self):
        return (self.body,)

    def _render(self):
        suffix = "^*" if self.param is None else f"^{render_param(self.param)}"
        return f"{bracket(self.body, _POST)}{suffix}"

    def _step(self, theory, body):
        looped = _then(body, self, theory.bottom(), theory)
        return theory.op_apply(self.param, [looped, theory.unit(TICK)])


def _then(nf, after, on_tick, theory):
    """The normal form ``nf`` followed by the expression ``after``: each step
    ``a.t`` goes on to ``a.(t ; after)``, and termination becomes
    ``on_tick``."""

    def leaf(t):
        if isinstance(t, Tick):
            return on_tick
        if type(t) is Prefix:
            return theory.unit(Prefix(t.action, SSeq(t.body, after)))
        raise TheoryError("star expressions have no free outputs")

    return theory.bind(nf, leaf)


SONE = SOne()


# ---------------------------------------------------------------------------
# parser

def parse_sexp(text, theory, gkat=False, actions=None):
    """Parse a star expression in one loop over its tokens, with an explicit
    stack of frames: a list ``[choice, param, seq]`` for the whole input
    and one per open bracket above it, holding the ``+`` run so far, the
    parameter of its last ``+`` and the ``;`` run so far.  A complete atom
    takes its postfix ``^`` operators, then joins the ``;`` run, then the
    ``+`` run; a frame closes at the first token that continues neither,
    which must be ``)``, or the end for the whole input."""
    return syntax.parse_tokens(text, _parse_sexp_tokens, theory, gkat, syntax.NameUse(actions))


def _parse_sexp_tokens(toks, theory, gkat, use):
    stack = [[None, None, None]]
    read = {}  # the brackets read, for choice_param
    i = 0  # an error is raised as soon as the eof token is consumed
    while True:
        tok = toks[i]
        i += 1
        if tok == "(":
            stack.append([None, None, None])
            continue
        if tok == "0" or tok == "1":
            e = ZERO if tok == "0" else SONE
        elif tok == "test" and gkat:
            at = i - 1
            guard, i = parse_param(toks, i, theory)
            if not isinstance(guard, frozenset):
                raise ParseError("test expects a guard", at)
            e = Op(guard, (SONE, ZERO))
        elif token_kind(tok) == "ident":
            use.see_action(tok, i - 1)
            e = SAct(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}", i - 1)
        while True:  # e is a complete atom
            while toks[i] == "^":
                if toks[i + 1] == "*":
                    i += 2
                    param = None
                    theory.check_param(None)
                else:
                    param, i = parse_param(toks, i + 1, theory)
                e = SStar(param, e)
            top = stack[-1]
            if top[2] is not None:
                e = SSeq(top[2], e)
            if toks[i] == ";":
                i += 1
                top[2] = e
                break
            if top[0] is not None:
                e = Op(top[1], (top[0], e))
            if toks[i] == "+":
                param, i = choice_param(toks, i + 1, theory, read)
                top[:] = e, param, None
                break
            stack.pop()
            if not stack:
                if toks[i]:
                    raise ParseError(f"trailing input {toks[i]!r}", i)
                return e
            expect_token(toks, i, ")")
            i += 1


# ---------------------------------------------------------------------------
# translation into the full calculus

def translate(s):
    done = {}
    for n in post_order((s,)):
        if n is ZERO:
            done[n] = ZERO
        elif isinstance(n, SOne):
            done[n] = Var(UNIT_VAR)
        elif isinstance(n, SAct):
            done[n] = Prefix(n.action, Var(UNIT_VAR))
        elif type(n) is Op:
            l, r = n.args
            done[n] = Op(n.param, (done[l], done[r]))
        elif isinstance(n, SSeq):
            done[n] = substitute(done[n.left], {UNIT_VAR: done[n.right]})
        elif isinstance(n, SStar):
            body = done[n.body]
            v = fresh_name(all_names(body))
            done[n] = Mu(v, Op(n.param, (substitute(body, {UNIT_VAR: Var(v)}), Var(UNIT_VAR))))
        else:
            raise TypeError(f"not a star expression: {n!r}")
    return done[s]


def is_guarded_star(s):
    """Productivity of iteration: the loop body may not terminate
    immediately."""
    return is_guarded(UNIT_VAR, translate(s))


# ---------------------------------------------------------------------------
# direct semantics: ``semantics.step`` applies the rules above

star_reachable = reachable  # public name; perfbench/tracing.py calls it


def tick_mass(s, theory):
    """Termination mass of the one-step behaviour, in a theory whose
    weights are masses (``ca``)."""
    mass = theory.weight(step(s, theory), TICK)
    if isinstance(mass, Fraction):
        return mass
    raise TheoryError("tick mass only defined for ca")


# ---------------------------------------------------------------------------
# fixpoint axioms of iteration

def _star_axiom_sides(name, exps, params):
    def need(*keys):
        for k in keys:
            if k not in exps:
                raise TheoryError(f"{name} needs expression {k!r}")

    sigma = params.get("sigma")
    tau = params.get("tau")
    if name == "E1":
        need("e")
        e = exps["e"]
        return [(SSeq(SONE, e), e), (SSeq(e, SONE), e)], None
    if name == "E2":
        need("e")
        return [(SSeq(ZERO, exps["e"]), ZERO)], None
    if name == "E3":
        need("e1", "e2", "e3")
        e1, e2, e3 = exps["e1"], exps["e2"], exps["e3"]
        return [(SSeq(SSeq(e1, e2), e3), SSeq(e1, SSeq(e2, e3)))], None
    if name == "E4":
        need("e")
        e = exps["e"]
        return [
            (SStar(sigma, Op(tau, (e, SONE))), SStar(sigma, Op(tau, (e, ZERO))))
        ], None
    if name == "E5":
        need("e")
        e = exps["e"]
        star = SStar(sigma, e)
        return [(star, Op(sigma, (SSeq(e, star), SONE)))], ("guarded", e)
    if name == "E6":
        need("g", "e", "f")
        g, e, f = exps["g"], exps["e"], exps["f"]
        premise = (g, Op(sigma, (SSeq(e, g), f)))
        conclusion = (g, SSeq(SStar(sigma, e), f))
        return [premise, conclusion], ("guarded", e)
    raise TheoryError(f"unknown star axiom {name!r}")


class EStarResult(Record):
    _fields = ("ok", "side_condition_ok", "detail")


def check_estar_instance(name, theory, exps, params=None, cap=10000,
                         ignore_side_conditions=False):
    """Semantic validity of one instance of a star fixpoint axiom; side
    conditions are checked syntactically first (unless explicitly ignored,
    for exploring unsound instances)."""
    from .equivalence import equivalent  # star step, lts and deriv do not refine

    sides, condition = _star_axiom_sides(name, exps, params or {})
    if condition is not None and not ignore_side_conditions:
        kind, e = condition
        if kind == "guarded" and not is_guarded_star(e):
            return EStarResult(False, False, "loop body is not guarded")
    for l, r in sides:
        cert = equivalent(l, r, theory, cap)
        if not cert.equivalent:
            return EStarResult(False, True, cert.detail)
    return EStarResult(True, True, "instance holds")


# ---------------------------------------------------------------------------
# syntactic derivatives (set and guarded theories)

def output_guard(s, theory):
    """Immediate termination: a boolean for sl, the atom set on which the
    expression ticks for gs."""
    guard = theory.weight(step(s, theory), TICK)
    if isinstance(guard, (bool, frozenset)):
        return guard
    raise TheoryError("output guards are defined for sl and gs only")


def partial_derivative(s, theory):
    """One-step syntactic derivative; sound for sl and gs star expressions,
    the theories whose weights are booleans and atom sets.  Computed in one
    bottom-up pass; the output guards it reads share one ``step`` memo."""
    kind = type(theory.weight(theory.bottom(), TICK))
    if kind is not bool and kind is not frozenset:
        raise TheoryError("derivatives are defined for sl and gs only")
    guarded = kind is frozenset
    memo, done = {}, {}

    def ticks(x):
        return theory.weight(step(x, theory, memo), TICK)

    for n in post_order((s,)):
        if n is ZERO or isinstance(n, SOne):
            done[n] = ZERO
        elif isinstance(n, SAct):
            done[n] = n
        elif type(n) is Op:
            if guarded and not isinstance(n.param, frozenset):
                raise TheoryError("unguarded choice in a gs expression")
            if not guarded and n.param is not None:
                raise TheoryError("guarded choice in an sl expression")
            l, r = n.args
            done[n] = Op(n.param, (done[l], done[r]))
        elif isinstance(n, SSeq):
            then = SSeq(done[n.left], n.right)
            if guarded:
                done[n] = Op(ticks(n.left), (done[n.right], then))
            else:
                done[n] = Op(None, (then, done[n.right])) if ticks(n.left) else then
        elif isinstance(n, SStar):
            loop = SSeq(done[n.body], n)
            done[n] = Op(ticks(n.body), (ZERO, loop)) if guarded else loop
        else:
            raise TypeError(f"not a star expression: {n!r}")
    return done[s]

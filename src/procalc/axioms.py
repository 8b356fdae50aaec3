"""Checker for equational proofs over a theory's axioms plus the three
fixpoint rules.

A proof is a list of numbered lines; each line asserts an equation between
two process terms and is justified by a rule:

* ``refl``, ``sym``/``trans`` (referencing earlier lines),
* ``axiom`` -- an instance of a named theory axiom, applied at a position,
* ``cong`` -- an earlier line applied at a position,
* ``subst`` -- a substitution instance of an earlier line,
* ``r1`` -- fixpoint unfolding ``mu v. e = e[mu v. e // v]``,
* ``r2`` -- alpha-renaming of the recursion binder to a fresh variable,
* ``r3`` -- uniqueness of guarded fixpoints: from ``g = e[g/v]`` with ``v``
  guarded in ``e``, conclude ``g = mu v. e``.

The last line must match the goal.  Rules applied at a position or cited via
``sym`` may be used in either orientation; rejection reports the first bad
line and a reason.
"""

from __future__ import annotations

from . import syntax
from .syntax import (Mu, Op, Record, Var, Zero, children, free_vars,
                     guarded_subst_exp, is_guarded, substitute)
from .theory import (TheoryError, eval_param, param_family, param_symbols, read_json,
                     theory_from_json)


class ProofStep(Record):
    _fields = ("rule", "lhs", "rhs", "at", "name", "refs", "var", "body", "bindings")
    at = ()
    name = None  # axiom name
    refs = ()  # cited earlier lines (1-based)
    var = None  # r3 recursion variable
    body = None  # r3 witness body
    bindings = None  # subst instantiation


class Proof(Record):
    _fields = ("theory", "goal", "steps")  # goal is (lhs, rhs)


class Verdict(Record):
    _fields = ("accepted", "reason", "step")
    reason = "ok"
    step = None  # 1-based index of the offending line

    def __bool__(self):
        return self.accepted


class BadStep(Exception):
    pass


# ---------------------------------------------------------------------------
# matching axiom schemas against expressions

def _match(schema, e, menv, penv, theory):
    if isinstance(schema, Var):
        return menv.setdefault(schema.name, e) == e
    if isinstance(schema, Zero):
        return isinstance(e, Zero)
    if not isinstance(e, Op) or param_family(e.param) != param_family(schema.param):
        return False
    if schema.param is not None:
        if schema.param[0] in ("gsym", "psym"):
            if penv.setdefault(schema.param[1], e.param) != e.param:
                return False
        else:
            if param_symbols(schema.param) - set(penv):
                return False
            try:
                value = eval_param(schema.param, penv, theory.atoms)
            except TheoryError:
                return False
            if value != e.param:
                return False
    return all(_match(s, a, menv, penv, theory) for s, a in zip(schema.args, e.args))


def axiom_instance(ax, lhs, rhs, theory):
    """Does lhs = rhs instantiate the axiom, in either orientation?  Both
    sides of the schema are matched under one assignment of metavariables
    and parameter symbols.  A side condition is checked where its parameter
    is evaluated: CA4's ``pca4`` is undefined for pq = 1, so ``eval_param``
    raises and ``_match`` answers no."""
    for a, b in ((lhs, rhs), (rhs, lhs)):
        menv, penv = {}, {}
        if _match(ax.lhs, a, menv, penv, theory) and _match(ax.rhs, b, menv, penv, theory):
            return True
    return False


# ---------------------------------------------------------------------------
# positions

def _split_at(lhs, rhs, at):
    """Navigate both sides along ``at``, requiring identical context."""
    for idx in at:
        cl, cr = children(lhs), children(rhs)
        # one kind of node, with the same choice parameter, action or binder
        if type(lhs) is not type(rhs) or len(cl) != len(cr) or any(
                getattr(lhs, f, None) != getattr(rhs, f, None) for f in ("param", "action", "var")):
            raise BadStep("sides differ outside the rewrite position")
        if not 0 <= idx < len(cl):
            raise BadStep(f"no subterm at position {list(at)}")
        if any(i != idx and cl[i] != cr[i] for i in range(len(cl))):
            raise BadStep("sides differ outside the rewrite position")
        lhs, rhs = cl[idx], cr[idx]
    return lhs, rhs


# ---------------------------------------------------------------------------
# rules

def _r1_pair(lhs, rhs):
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if isinstance(a, Mu) and guarded_subst_exp(a.body, a, a.var) == b:
            return True
    return False


def _r2_pair(lhs, rhs):
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if not (isinstance(a, Mu) and isinstance(b, Mu)):
            continue
        w = b.var
        if w in free_vars(a.body) and w != a.var:
            continue
        if substitute(a.body, {a.var: Var(w)}) == b.body:
            return True
    return False


def _check_step(proof, idx):
    step = proof.steps[idx]
    n = idx + 1
    rule = step.rule
    theory = proof.theory

    if rule == "refl":
        if step.lhs != step.rhs:
            raise BadStep("sides of refl differ")
        return
    if rule == "sym":
        cited = _cited_line(proof, n, step.refs)
        if not (cited.lhs == step.rhs and cited.rhs == step.lhs):
            raise BadStep("sym does not flip the cited line")
        return
    if rule == "trans":
        if len(step.refs) != 2:
            raise BadStep("trans cites two lines")
        a = _cited_line(proof, n, step.refs[:1])
        b = _cited_line(proof, n, step.refs[1:])
        if not (a.lhs == step.lhs and a.rhs == b.lhs and b.rhs == step.rhs):
            raise BadStep("trans lines do not compose")
        return
    if rule == "subst":
        cited = _cited_line(proof, n, step.refs)
        bnd = step.bindings or {}
        if substitute(cited.lhs, bnd) != step.lhs or substitute(cited.rhs, bnd) != step.rhs:
            raise BadStep("not a substitution instance of the cited line")
        return

    l, r = _split_at(step.lhs, step.rhs, step.at)
    if rule == "axiom":
        ax = next((a for a in theory.axioms if a.name == step.name), None)
        if ax is None:
            raise BadStep(f"theory {theory.id} has no axiom {step.name!r}")
        if not axiom_instance(ax, l, r, theory):
            raise BadStep(f"not an instance of {step.name}")
        return
    if rule == "cong":
        cited = _cited_line(proof, n, step.refs)
        if not ((cited.lhs == l and cited.rhs == r) or (cited.lhs == r and cited.rhs == l)):
            raise BadStep("rewrite position does not match the cited line")
        return
    if rule == "r1":
        if not _r1_pair(l, r):
            raise BadStep("not a fixpoint unfolding")
        return
    if rule == "r2":
        if not _r2_pair(l, r):
            raise BadStep("not a fresh renaming of the binder")
        return
    if rule == "r3":
        if step.at:
            raise BadStep("r3 applies at the root only")
        if step.var is None or step.body is None:
            raise BadStep("r3 needs a recursion variable and body")
        v, e = step.var, step.body
        if not is_guarded(v, e):
            raise BadStep(f"{v!r} is not guarded in the witness body")
        g, fix = l, r
        if fix != Mu(v, e):
            raise BadStep("conclusion is not the fixpoint of the witness")
        unfolded = substitute(e, {v: g})
        cited = _cited_line(proof, n, step.refs)
        if (cited.lhs, cited.rhs) not in ((g, unfolded), (unfolded, g)):
            raise BadStep("premise g = e[g/v] is not the cited line")
        return
    raise BadStep(f"unknown rule {rule!r}")


def _cited_line(proof, n, refs):
    """The one earlier line that step ``n`` cites; a bool is no line number."""
    if len(refs) != 1:
        raise BadStep("rule cites exactly one line")
    k = refs[0]
    if type(k) is not int or not 1 <= k < n:
        raise BadStep(f"reference to line {k} is out of range")
    return proof.steps[k - 1]


def check_proof(proof):
    if not proof.steps:
        return Verdict(False, "empty proof", None)
    for idx in range(len(proof.steps)):
        try:
            _check_step(proof, idx)
        except BadStep as err:
            return Verdict(False, str(err), idx + 1)
    last = proof.steps[-1]
    if (last.lhs, last.rhs) != proof.goal:
        return Verdict(False, "last line is not the goal", len(proof.steps))
    return Verdict(True)


# ---------------------------------------------------------------------------
# JSON interchange

def parse_proof(data, actions=None):
    """Load a proof; a malformed file raises `TheoryError` naming the field,
    and the 1-based step when the field belongs to a step."""
    if not isinstance(data, dict):
        raise TheoryError("a proof must be a JSON object")
    for key in ("theory", "goal", "steps"):
        if key not in data:
            raise TheoryError(f"proof has no {key!r} field")
    theory = theory_from_json(data)
    use = syntax.NameUse(actions)

    def term(text, field):
        if not isinstance(text, str):
            raise TheoryError(f"{field!r} must be a term string")
        return syntax.parse_exp(text, theory, names=use)

    goal = data["goal"]
    if not (isinstance(goal, list) and len(goal) == 2):
        raise TheoryError("'goal' must be a list of two terms")
    goal = (term(goal[0], "goal"), term(goal[1], "goal"))
    if not isinstance(data["steps"], list):
        raise TheoryError("'steps' must be a list")
    steps = []
    for n, raw in enumerate(data["steps"], 1):
        try:
            steps.append(_parse_step(raw, term))
        except TheoryError as err:
            raise TheoryError(f"step {n}: {err}") from None
    return Proof(theory, goal, steps)


def _parse_step(raw, term):
    if not isinstance(raw, dict):
        raise TheoryError("a step must be a JSON object")
    for key in ("rule", "lhs", "rhs"):
        if key not in raw:
            raise TheoryError(f"no {key!r} field")
    refs = [raw["ref"]] if "ref" in raw else raw.get("refs", [])
    if not isinstance(refs, list):
        raise TheoryError("'refs' must be a list of line numbers")
    at = raw.get("at", [])
    if not (isinstance(at, list) and all(type(i) is int for i in at)):
        raise TheoryError("'at' must be a list of integers")
    if not isinstance(raw.get("var", ""), str):
        raise TheoryError("'var' must be a variable name")
    bindings = raw.get("bindings")
    if bindings is not None:
        if not isinstance(bindings, dict):
            raise TheoryError("'bindings' must map variables to terms")
        bindings = {v: term(t, "bindings") for v, t in bindings.items()}
    return ProofStep(
        rule=raw["rule"],
        lhs=term(raw["lhs"], "lhs"),
        rhs=term(raw["rhs"], "rhs"),
        at=tuple(at),
        name=raw.get("name"),
        refs=tuple(refs),
        var=raw.get("var"),
        body=term(raw["body"], "body") if "body" in raw else None,
        bindings=bindings,
    )


def load_proof(text, actions=None):
    return parse_proof(read_json(text, "proof"), actions)

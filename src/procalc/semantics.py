"""Operational semantics: one-step behaviour and reachable coalgebras.

The one-step map sends a term to a normal form over *transitions*: outputs
(a free variable's own ``Var`` node), action steps (the prefix ``a.t``
itself), and (for the star fragment) successful termination ``TICK``.  Each
of them is a term node of its own, whose normal form is its unit, so the
term reading of a normal form steps back to it.  Process terms and star
expressions are one kind of term, so one map serves both: each node is
stepped by its rule, and the star nodes carry theirs (``star.py``), which
this module applies without loading that one.  Recursion unfolds via the
guarded substitution on behaviours: unguarded occurrences of the recursion
variable collapse to deadlock, guarded ones are rewired to the fixpoint
term.

Terms are hash-consed, so the one-step map is a pure function of a node and
a theory.  It is computed bottom-up, in one loop over ``syntax.post_order``,
so a term's depth is no limit.  ``reachable`` keeps one memo for its whole
exploration and steps each distinct subterm once: the states under one
``mu`` share its unfolding instead of substituting the fixpoint into its
body again at every state.  Two rules spare most of that work, and both
are exact.  A node whose children are already stepped is evaluated by its
rule at once, with no walk; in an exploration that is the common case,
since a state's subterms are mostly states stepped before.  And ``mu x. t``
with ``x`` not free in ``t`` steps as ``t``: every output and step
of ``t``'s normal form has its free variables among ``t``'s, so guarded
substitution would leave each of them as it is.

A prefix state ``a.t`` steps to the unit of ``a.t``, and the unit is
natural: its pushforward along any map ``f`` is the unit of ``f(a.t)``.  So
exploration keeps no normal form for a prefix state, only its successor's
position, and whoever needs one builds it from the action and that
position: ``reachable`` names the state the unit of ``a.s<j>``.

A coalgebra's states are named by ids ``s0``, ``s1``, ...; its normal forms
step to ``a.s<j>``, a prefix on the ``Var`` of the id, so the term reading of
a state's normal form is its equation over the ids.  An id that is also an
output or an action would read as that name, so ``equations`` renames it
to a fresh ``%k``; ``lts`` text and ``solver.associated_system`` both take
their equations from it, and ``solve`` reads that text back.
"""

from __future__ import annotations

from fractions import Fraction

from .syntax import (TICK, Exp, Mu, Op, Prefix, Record, Tick, Var, Zero, fresh_name, is_name,
                     post_order, sorted_gens, substitute, unparse)
from .theory import MAX_JSON_DEPTH, TheoryError, exact_fraction, read_json, theory_from_json


class StateCapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# one-step semantics

_GENERATORS = frozenset((Prefix, Var, Tick))  # each steps to its own unit
_AT_ONCE = _GENERATORS | {Zero}  # stepped in constant time, not memoised


def step(e, theory, memo=None):
    """The one-step normal form of the term ``e``, of either grammar.  An
    output, a prefix and termination each step to their own unit, so this
    also evaluates the term reading of a normal form; a star node has its
    own rule, ``_step``.

    ``memo`` maps the nodes already stepped to their normal forms: every
    node but a prefix, ``0`` and a generator, which step in constant
    time.  The nodes under ``e`` that it lacks are stepped
    children first and added to it, both sides of a sequence included, so
    a caller that steps many terms sharing subterms (``reachable``) steps
    each of them once.  A node whose children are all stepped is evaluated
    by its rule at once; only one with a pending child takes a
    ``post_order`` walk.

    ``mu x. t`` unfolds by `gsubst_bm`, unless ``x`` is not free in ``t``:
    then it steps as ``t``.  That is exact, because the outputs and steps
    of ``t``'s normal form have their free variables among ``t``'s, so
    there is no output ``x`` to make deadlock and no step to put the
    fixpoint into."""
    if memo is None:
        memo = {}
    if type(e) not in _AT_ONCE and e not in memo:
        if not isinstance(e, Exp):
            raise TypeError(f"not an expression: {e!r}")
        for kid in e._kids():
            if type(kid) not in _AT_ONCE and kid not in memo:  # a pending child
                def pending(n):
                    return type(n) not in _AT_ONCE and n not in memo

                for n in post_order((e,), pending):
                    memo[n] = _rule(n, theory, memo)
                break
        else:
            memo[e] = _rule(e, theory, memo)
    return _stepped(e, theory, memo)


def _rule(n, theory, memo):
    """The normal form of the node ``n``, whose children are stepped: a
    choice's theory operation on theirs, a binder's unfolding, or a star
    node's own rule."""
    cls = type(n)
    if cls is Op:
        return theory.op_apply(n.param, [_stepped(a, theory, memo) for a in n.args])
    if cls is Mu:
        nf = _stepped(n.body, theory, memo)
        if n.var not in n.body._free:  # vacuous: nothing to substitute
            return nf
        return gsubst_bm(nf, n, n.var, theory)
    return n._step(theory, *[_stepped(a, theory, memo) for a in n._kids()])


def _stepped(e, theory, memo):
    """The normal form of ``e``, made at once or read from ``memo``."""
    cls = type(e)
    if cls in _GENERATORS:  # a prefix is the most common state
        return theory.unit(e)
    if cls is Zero:
        return theory.bottom()
    if e in memo:
        return memo[e]
    raise TypeError(f"not an expression: {e!r}")


def gsubst_bm(nf, g, v, theory):
    """Guarded substitution on behaviours: the output ``Var(v)`` becomes
    deadlock, and each step ``a.t`` becomes ``a.t[g/v]``."""
    out = Var(v)

    def leaf(t):
        if t is out:
            return theory.bottom()
        return theory.unit(substitute(t, {v: g}) if type(t) is Prefix else t)

    return theory.bind(nf, leaf)


# ---------------------------------------------------------------------------
# coalgebras

class Coalgebra(Record):  # state ids "s0", "s1", ...; id -> normal form over steps a.<id>
    _fields = ("theory", "states", "structure")


def _explore(roots, theory, cap, stepper):
    """Breadth-first exploration from the sequence ``roots``: the reachable
    states in BFS order (the distinct roots first), a dict from each of
    them to its position in that order, their normal forms, whose steps
    ``a.t`` go to states ``t``, and for each of them the positions of its
    steps' states.  Nothing is named.

    ``stepper(x, theory, memo)`` is the one-step map: `step` for terms, a
    lookup for a loaded coalgebra's states, which are the ``Var`` nodes of
    their ids.  One memo serves the whole exploration, so each distinct
    subterm is stepped once.  A prefix ``a.t`` is not stepped: its normal
    form, the unit of ``a.t``, is left as None, and only the position of
    ``t`` is kept.  A state's new successors are numbered in generator
    order; only they are sorted, and only when there are two or more,
    because the sort key of a term is built from its printed text."""
    memo = {}
    index = {x: i for i, x in enumerate(dict.fromkeys(roots))}
    order = list(index)
    raw = []
    succ = []
    for x in order:
        if type(x) is Prefix:  # the most common state
            t = x.body
            j = index.get(t)
            if j is None:
                if len(order) >= cap:
                    raise StateCapExceeded(f"more than {cap} reachable states")
                j = index[t] = len(order)
                order.append(t)
            raw.append(None)
            succ.append((j,))
            continue
        nf = stepper(x, theory, memo)
        steps = [g for g in theory.generators(nf) if type(g) is Prefix]
        raw.append(nf)
        new = [g for g in steps if g.body not in index]
        if len(new) > 1:
            new = sorted_gens(new)
        for g in new:
            if g.body not in index:
                if len(order) >= cap:
                    raise StateCapExceeded(f"more than {cap} reachable states")
                index[g.body] = len(order)
                order.append(g.body)
        succ.append([index[g.body] for g in steps])
    return order, index, raw, succ


def _retarget(theory, nf, name):
    """``nf`` with each step ``a.t`` replaced by ``a.name(t)``."""
    return theory.nf_map(nf, lambda g: Prefix(g.action, name(g.body)) if type(g) is Prefix else g)


def reachable(e, theory, cap=10000):
    """The reachable subcoalgebra from the term ``e``, of either grammar,
    explored by `step`, with states ``s0``, ``s1``, ... in breadth-first
    order.  Each normal form is pushed forward once, from term steps onto
    id steps; a prefix ``a.t`` is named the unit of ``a.s<j>``, ``s<j>``
    being ``t``'s id."""
    order, index, raw, succ = _explore((e,), theory, cap, step)
    ids = [Var(f"s{j}") for j in range(len(order))]

    def name(t):
        return ids[index[t]]

    return Coalgebra(theory, tuple(v.name for v in ids), {
        s.name: _retarget(theory, nf, name) if nf is not None
        else theory.unit(Prefix(x.action, ids[targets[0]]))
        for s, x, nf, targets in zip(ids, order, raw, succ)})


def equations(c):
    """The unknowns and normal forms of a coalgebra's equations, in state
    order.  A state id is its own unknown unless it is also an output or an
    action, which its equations would read as that name; such an id is
    renamed to the least ``%k`` that names no state, output or action, nor
    an earlier renamed state, and every step to it with it.  Both
    ``solver.associated_system`` and ``lts`` text use them, so ``solve``
    reads that text back."""
    names = set()  # the outputs and actions
    for s in c.states:
        for g in c.theory.generators(c.structure[s]):
            if type(g) is Var:
                names.add(g.name)
            elif type(g) is Prefix:
                names.add(g.action)
    nfs = [c.structure[s] for s in c.states]
    if names.isdisjoint(c.states):
        return c.states, nfs
    taken = names | set(c.states)
    rename = {}
    for s in c.states:
        rename[s] = fresh_name(taken) if s in names else s
        taken.add(rename[s])
    return (tuple(rename.values()),
            [_retarget(c.theory, nf, lambda v: Var(rename[v.name])) for nf in nfs])


def disjoint_union(c1, c2):
    """The union of two coalgebras over one theory, their states tagged
    ``a`` and ``b``."""
    if c1.theory != c2.theory:
        raise TheoryError("coalgebras over different theories")
    states, structure = (), {}
    for c, tag in ((c1, "a"), (c2, "b")):
        ren = {s: f"{tag}{s}" for s in c.states}
        states += tuple(ren.values())
        structure.update((ren[s], _retarget(c.theory, c.structure[s],
                                            lambda v: Var(ren[v.name])))
                         for s in c.states)
    return Coalgebra(c1.theory, states, structure)


# ---------------------------------------------------------------------------
# structure terms: the term readings of normal forms, as text and as JSON

render_sterm = unparse  # public name; perfbench/tracing.py calls it


def _sterm_to_json(t):
    """The JSON form of the structure term ``t``, and how many levels of
    objects and arrays it nests.  Built children first, in one loop over
    ``post_order`` of its choices, so a term's depth is no limit here; a
    step ``a.u`` is a leaf, whose ``"to"`` is the text of ``u``."""
    def leaf(n):
        if isinstance(n, Zero):
            return {"const": "0"}, 1
        if type(n) is Var:
            return {"out": n.name}, 1
        if type(n) is Prefix:
            return {"act": n.action, "to": unparse(n.body)}, 1
        return {"tick": True}, 1

    done = {}
    for n in post_order((t,), lambda n: type(n) is Op):
        node = {"op": "+"}
        if isinstance(n.param, frozenset):
            node["guard"] = sorted(n.param)
        elif isinstance(n.param, Fraction):
            node["prob"] = str(n.param)
        args = [done[a] if a in done else leaf(a) for a in n.args]
        node["args"] = [a for a, _ in args]
        done[n] = node, 2 + max(depth for _, depth in args)
    return done[t] if t in done else leaf(t)


def _json_text(value, depth, what, indent=None):
    """``json.dumps(value, indent=indent)`` for a value nested ``depth``
    levels.  Past ``MAX_JSON_DEPTH``, where the reader would refuse it, it
    raises `TheoryError` saying that ``what`` is nested too deeply; so does
    an encoder that runs out of stack first (3.11 counts its levels against
    the recursion limit)."""
    if depth <= MAX_JSON_DEPTH:
        import json  # only --format json writes it
        try:
            return json.dumps(value, indent=indent)
        except RecursionError:
            pass
    raise TheoryError(f"{what} JSON would be nested too deeply")


def structure_json(t):
    """The structure term ``t`` as one line of JSON."""
    return _json_text(*_sterm_to_json(t), "normal form")


class _Choice(tuple):
    """(param, arity) of a structure JSON choice node whose arguments are
    being evaluated."""


def _nf_from_json(d, states, theory):
    """The normal form a structure JSON node describes, with its step targets
    checked against ``states``.  Each node is evaluated as it is read, from an
    explicit stack, so any depth the JSON reader accepts is loaded."""
    todo, built = [d], []
    while todo:
        d = todo.pop()
        if type(d) is _Choice:  # its arguments' normal forms are on top of `built`
            param, arity = d
            if arity != 2:
                raise TheoryError("choice operations are binary")
            right = built.pop()
            built[-1] = theory.op_apply(param, (built[-1], right))
        elif not isinstance(d, dict):
            raise TheoryError(f"bad structure term {d!r}")
        elif "const" in d:
            built.append(theory.bottom())
        elif "out" in d:
            _check_name("output", d["out"])
            built.append(theory.unit(Var(d["out"])))
        elif "tick" in d:
            built.append(theory.unit(TICK))
        elif "act" in d:
            _check_name("action", d["act"])
            if "to" not in d:
                raise TheoryError(f"action {d['act']!r} has no target")
            if not isinstance(d["to"], str):
                raise TheoryError(
                    f"the target of action {d['act']!r} must be a string, not {d['to']!r}")
            if d["to"] not in states:
                raise TheoryError(f"unknown target state {d['to']!r}")
            built.append(theory.unit(Prefix(d["act"], Var(d["to"]))))
        elif "op" in d:
            if "guard" in d:
                if not isinstance(d["guard"], list) or not all(
                        isinstance(a, str) for a in d["guard"]):
                    raise TheoryError(f"bad guard {d['guard']!r}")
                param = frozenset(d["guard"])
            elif "prob" in d:
                try:
                    param = exact_fraction(d["prob"])
                except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                    raise TheoryError(f"bad probability {d['prob']!r}") from None
            else:
                param = None
            if not isinstance(d.get("args"), list):
                raise TheoryError(f"choice node {d!r} has no argument list")
            todo.append(_Choice((param, len(d["args"]))))
            todo += d["args"][::-1]
        else:
            raise TheoryError(f"bad structure term {d!r}")
    return built[0]


def _check_name(kind, name):
    """Refuse a name that is not a string, or would not print as one token."""
    if not isinstance(name, str):
        raise TheoryError(f"an {kind} must be a string, not {name!r}")
    if not is_name(name):
        raise TheoryError(
            f"bad {kind} {name!r}: a name is an identifier other than mu, or %k")


def coalgebra_to_json(c):
    """The coalgebra as indented JSON.  A structure term too deep for the
    reader raises `TheoryError` naming the deepest state."""
    out = {"theory": c.theory.id}
    if c.theory.atoms:
        out["atoms"] = list(c.theory.atoms)
    out["states"] = list(c.states)
    out["structure"] = {}
    deepest, depth = None, 0
    for s in c.states:
        out["structure"][s], d = _sterm_to_json(c.theory.term_of_nf(c.structure[s]))
        if d > depth:
            deepest, depth = s, d
    return _json_text(out, 2 + depth, f"state {deepest!r}: coalgebra", indent=2)


def coalgebra_from_dict(d):
    """Load a coalgebra, evaluating each structure entry as it reads it; a
    malformed file raises `TheoryError` naming the field or state at fault."""
    if not isinstance(d, dict):
        raise TheoryError("a coalgebra must be a JSON object")
    for key in ("theory", "states", "structure"):
        if key not in d:
            raise TheoryError(f"coalgebra has no {key!r} field")
    theory = theory_from_json(d)
    states = d["states"]
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise TheoryError("'states' must be a list of strings")
    if not isinstance(d["structure"], dict):
        raise TheoryError("'structure' must be an object")
    states = tuple(states)
    known = set()
    for s in states:
        if s in known:
            raise TheoryError(f"'states' lists {s!r} twice")
        known.add(s)
    structure = {}
    for s in states:
        if s not in d["structure"]:
            raise TheoryError(f"state {s!r} has no structure entry")
        try:
            _check_name("state id", s)
            structure[s] = _nf_from_json(d["structure"][s], known, theory)
        except TheoryError as err:
            raise TheoryError(f"state {s!r}: {err}") from None
    return Coalgebra(theory, states, structure)


def coalgebra_from_json(text):
    return coalgebra_from_dict(read_json(text, "coalgebra"))


# ---------------------------------------------------------------------------
# DOT export

def _weight_label(w, atoms):
    """DOT label prefix of an edge weight: ``{guard}|`` for an atom set (in
    declared atom order), ``mass|`` for a mass, ``n|`` for a count n > 1,
    and nothing for an ``sl`` edge or a count of 1."""
    if isinstance(w, frozenset):
        return "{" + " ".join(a for a in atoms if a in w) + "}|"
    if isinstance(w, Fraction) or w != 1:
        return f"{w}|"
    return ""


def coalgebra_to_dot(c):
    th = c.theory
    lines = ["digraph lts {"]
    outs = set()
    ticks = False
    edges = []
    for s in c.states:
        for g, w in th.edges(c.structure[s]):
            label = _weight_label(w, th.atoms)
            if type(g) is Prefix:
                edges.append(f'  "{s}" -> "{g.body.name}" [label="{label}{g.action}"];')
            elif type(g) is Var:
                v = g.name
                outs.add(v)
                edges.append(
                    f'  "{s}" -> "var_{v}" [label="{label}{v}", arrowhead="normalnormal"];'
                )
            else:
                ticks = True
                edges.append(
                    f'  "{s}" -> "tick" [label="{label}tick", arrowhead="normalnormal"];'
                )
    for s in c.states:
        lines.append(f'  "{s}" [shape=circle];')
    for v in sorted(outs):
        lines.append(f'  "var_{v}" [shape=none, label="{v}"];')
    if ticks:
        lines.append('  "tick" [shape=none, label="ok"];')
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"

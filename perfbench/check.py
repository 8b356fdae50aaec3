"""Correctness checks for benchmark ops, independent of procalc.

Every op carries the answer fixed by construction in ``op["expect"]``:

- ``exit``: the exit code (0, or 10 for "not equivalent");
- ``stdout``: the exact output;
- ``gens``: the number of generators of a ``cs`` normal form, counted as
  the summands of the printed ``+`` tree;
- ``spec``: a ``solve`` result, which must be bisimilar to a one-state
  term such as ``mu x. a.x + b.x``.

The last check parses the printed term with its own parser and decides
bisimilarity on the term's syntax graph: a subterm position stands for the
closed term obtained by replacing each free recursion variable with its
binder, so the reachable states are positions.  The spec has one state, so
the term is bisimilar to it exactly when every reachable position has the
spec's one-step behaviour once all step targets are identified.  It takes
milliseconds on the benchmark's outputs.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_']*)|(\d+)|([+.()\[\]/])|(\S))")


class BadOutput(ValueError):
    pass


def _tokens(text):
    toks = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        ident, num, punct, bad = m.groups()
        if bad:
            raise BadOutput(f"unexpected character {bad!r}")
        toks.append(("ident", ident) if ident else ("num", num) if num else (punct, punct))
        pos = m.end()
    if text[pos:].strip():
        raise BadOutput("unreadable output")
    toks.append(("eof", ""))
    return toks


class Term:
    """A parsed process term as a flat node table.

    ``nodes[i]`` is one of ``("zero",)``, ``("var", name, binder)`` (binder
    is the node index of the ``mu``, or None when free), ``("pre", action,
    body)``, ``("op", param, left, right)`` or ``("mu", name, body)``.
    """

    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0
        self.nodes = []
        self.root = self._sum({})
        if self.toks[self.i][0] != "eof":
            raise BadOutput(f"trailing input {self.toks[self.i][1]!r}")

    def _next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def _expect(self, kind):
        t = self._next()
        if t[0] != kind:
            raise BadOutput(f"expected {kind!r}, found {t[1]!r}")
        return t[1]

    def _add(self, node):
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _sum(self, env):
        e = self._item(env)
        while self.toks[self.i][0] == "+":
            self._next()
            param = self._param() if self.toks[self.i][0] == "[" else None
            f = self._item(env)
            e = self._add(("op", param, e, f))
        return e

    def _param(self):
        self._expect("[")
        words = []
        while self.toks[self.i][0] in ("ident", "num", "/"):
            words.append(self._next()[1])
        self._expect("]")
        if words and words[0].isdigit():
            return Fraction("".join(words))
        return frozenset(words)

    def _item(self, env):
        kind, val = self._next()
        if kind == "num" and val == "0":
            return self._add(("zero",))
        if kind == "(":
            e = self._sum(env)
            self._expect(")")
            return e
        if kind != "ident":
            raise BadOutput(f"unexpected token {val!r}")
        if val == "mu":
            var = self._expect("ident")
            self._expect(".")
            me = self._add(None)
            body = self._sum({**env, var: me})
            self.nodes[me] = ("mu", var, body)
            return me
        if self.toks[self.i][0] == ".":
            self._next()
            return self._add(("pre", val, self._item(env)))
        return self._add(("var", val, env.get(val)))

    def leaves(self, pos, atoms):
        """One-step behaviour of a position as (weight, guard, label,
        target) leaves; unguarded recursion contributes deadlock."""
        out = []
        stack = [(pos, frozenset(), Fraction(1), frozenset(atoms))]
        while stack:
            p, entered, w, g = stack.pop()
            node = self.nodes[p]
            kind = node[0]
            if kind == "pre":
                out.append((w, g, ("act", node[1]), node[2]))
            elif kind == "op":
                _, param, left, right = node
                if isinstance(param, Fraction):
                    stack.append((left, entered, w * param, g))
                    stack.append((right, entered, w * (1 - param), g))
                elif isinstance(param, frozenset):
                    stack.append((left, entered, w, g & param))
                    stack.append((right, entered, w, g - param))
                else:
                    stack.append((left, entered, w, g))
                    stack.append((right, entered, w, g))
            elif kind == "mu":
                stack.append((node[2], entered | {p}, w, g))
            elif kind == "var":
                binder = node[2]
                if binder is None:
                    out.append((w, g, ("out", node[1]), None))
                elif binder not in entered:
                    stack.append((binder, entered, w, g))
        return out


def behaviour(leaves, theory, atoms):
    """The normal form of a one-step behaviour with every step target
    identified, in the given theory."""
    if theory == "sl":
        return frozenset(label for _, _, label, _ in leaves)
    if theory == "cm":
        return Counter(label for _, _, label, _ in leaves)
    if theory == "gs":
        return {a: sorted(label for _, g, label, _ in leaves if a in g) for a in atoms}
    if theory == "ca":
        mass = {}
        for w, _, label, _ in leaves:
            if w:
                mass[label] = mass.get(label, Fraction(0)) + w
        return mass
    raise ValueError(f"no spec check for theory {theory!r}")


def bisimilar_to_spec(text, spec):
    """None when the printed term is bisimilar to the one-state term
    ``spec["term"]``, else a reason."""
    theory, atoms = spec["theory"], spec.get("atoms", ())
    model = Term(spec["term"])
    want = behaviour(model.leaves(model.root, atoms), theory, atoms)
    term = Term(text)
    seen = {term.root}
    todo = [term.root]
    while todo:
        p = todo.pop()
        leaves = term.leaves(p, atoms)
        if behaviour(leaves, theory, atoms) != want:
            return f"a reachable state (node {p}) does not behave like {spec['term']}"
        for *_, target in leaves:
            if target is not None and target not in seen:
                seen.add(target)
                todo.append(target)
    return None


def choice_summands(text):
    """Number of summands of the top-level ``+`` tree of a printed term."""
    term = Term(text)

    def count(p):
        node = term.nodes[p]
        if node[0] == "op" and node[1] is None:
            return count(node[2]) + count(node[3])
        return 1

    return count(term.root)


def check(op, code, stdout):
    """None when the op's result is the one fixed by construction, else a
    short reason."""
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    out = stdout.strip()
    if op["kind"] in ("equiv", "star_equiv"):
        verdict = "equivalent:" if code == 0 else "not equivalent:"
        if not out.startswith(verdict):
            return f"verdict does not read {verdict!r}"
    if "stdout" in expect and out != expect["stdout"]:
        return "output differs from the expected text"
    try:
        if "gens" in expect:
            n = choice_summands(out)
            if n != expect["gens"]:
                return f"{n} generators, expected {expect['gens']}"
        if "spec" in expect:
            return bisimilar_to_spec(out, expect["spec"])
    except BadOutput as err:
        return f"unreadable output: {err}"
    return None

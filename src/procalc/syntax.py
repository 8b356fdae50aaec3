"""Process terms: abstract syntax, parser, printer, substitution.

Surface grammar (theory decides how choice parameters read):

    term   := sum
    sum    := item ('+' ('[' param ']')? item)*        # left-associative
    item   := 'mu' IDENT '.' sum                        # extends maximally right
            | IDENT '.' item                            # action prefix
            | '0' | IDENT | '(' sum ')'

Guards are space-separated atom lists (``+[a1 a2]``, ``[]`` is the empty
guard); probabilities are integers or fractions (``+[1/2]``).  Recursion
variables introduced internally live in the reserved ``%`` namespace, which
the tokenizer cannot produce, so freshness never clashes with user input.
"""

from __future__ import annotations

import gc
import re
import sys
from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# hash-consed nodes

_TABLE = {}  # (cls, *fields) -> node, swept by _sweep
_EMPTY = frozenset()
_set = object.__setattr__  # nodes refuse plain assignment


class Interned:
    """Base class of hash-consed, immutable term nodes (Filliâtre and
    Conchon, *Type-Safe Modular Hash-Consing*, ML 2006).

    The constructor looks a node up in one table keyed on
    ``(cls, *fields)``; its children are interned already, so the key costs
    O(1) to build and two structurally equal nodes are the same object.
    Equality and hashing are therefore ``object``'s own, by identity.  A
    ``param`` or ``gen`` field is keyed on its type as well, because
    ``1 == True == Fraction(1)``.  The table is a plain dict, and
    ``_sweep`` drops the nodes that only the table holds, so a term dies
    soon after its last user.

    Subclasses list their fields in ``_fields`` (and ``__slots__``), with
    ``param`` or ``gen`` first when they have one (``_typed_param``); their
    child nodes in ``_kids``; their printing precedence in ``_prec``; and
    their printed text in ``_render``, which may read the cached ``_text``
    of every child.
    """

    __slots__ = ("_text",)
    _fields = ()
    _typed_param = False

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _bind(cls, args, kwargs)
        key = (cls, *args)
        if cls._typed_param:
            key += (type(args[0]),)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                _set(node, name, value)
            _set(node, "_text", None)
            node._derive()
            _TABLE[key] = node
            if len(_TABLE) > _limit:
                _sweep()
        return node

    def _derive(self):
        """Fill the per-node caches that are built from the children's."""

    def _kids(self):
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


_limit = 1024  # the table size that triggers the next sweep
_sweeping = False
_PROBE = object()  # the key of an entry that only the table holds


def _sweep():
    """Drop the table entries whose node nothing else holds.

    Entries are visited newest first.  A node is interned after its
    children, and its key holds them, so dropping a parent frees its
    children before they are visited: one pass collects a whole dead term.
    The reference count of a node held by the table alone is measured on
    a probe entry, visited first by the same code.  A collection that the
    sweep's own allocations start does not sweep again."""
    global _limit, _sweeping
    if _sweeping:
        return
    _sweeping = True
    try:
        _TABLE[_PROBE] = object()
        entries = list(_TABLE.items())
        alone = None
        while entries:
            key, node = entries.pop()
            held = sys.getrefcount(node)
            if alone is None:
                alone = held
            if held == alone:
                del _TABLE[key]
        _limit = max(1024, 2 * len(_TABLE))
    finally:
        _sweeping = False


def _sweep_after_full_collection(phase, info):
    if phase == "stop" and info["generation"] == 2:
        _sweep()


gc.callbacks.append(_sweep_after_full_collection)


def _bind(cls, args, kwargs):
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name not in kwargs:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        values.append(kwargs.pop(name))
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
    return tuple(values)


def cached_text(node):
    """The printed text of an interned node, built once per node.  Children
    are printed first, with an explicit stack, and keep their text too."""
    if node._text is None:
        stack = [node]
        while stack:
            n = stack[-1]
            todo = [k for k in n._kids() if k._text is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            if n._text is None:
                _set(n, "_text", n._render())
    return node._text


def bracket(node, level):
    """The cached text of a child printed at ``level``."""
    return f"({node._text})" if node._prec < level else node._text


# ---------------------------------------------------------------------------
# abstract syntax

_SUM, _ITEM = 0, 1


class Exp(Interned):
    __slots__ = ("_free", "_bound")
    _prec = _ITEM

    def sort_key(self):
        return ("exp", unparse(self))


class Zero(Exp):
    __slots__ = _fields = ()

    def _derive(self):
        _set(self, "_free", _EMPTY)
        _set(self, "_bound", _EMPTY)

    def _render(self):
        return "0"


class Var(Exp):
    __slots__ = _fields = ("name",)

    def _derive(self):
        _set(self, "_free", frozenset({self.name}))
        _set(self, "_bound", _EMPTY)

    def _render(self):
        return self.name


class Op(Exp):
    """Binary choice; param is None, a frozenset guard, or a Fraction."""
    __slots__ = _fields = ("param", "args")
    _typed_param = True
    _prec = _SUM

    def _derive(self):
        l, r = self.args  # a child's set is shared when the other's is empty
        f, g = l._free, r._free
        _set(self, "_free", f | g if f and g else f or g)
        f, g = l._bound, r._bound
        _set(self, "_bound", f | g if f and g else f or g)

    def _kids(self):
        return self.args

    def _render(self):
        # a mu on the left of a sum must be bracketed: it binds rightward
        left, right = self.args
        l = bracket(left, _ITEM) if isinstance(left, Mu) else left._text
        return f"{l} +{render_param(self.param)} {bracket(right, _ITEM)}"


class Prefix(Exp):
    __slots__ = _fields = ("action", "body")

    def _derive(self):
        _set(self, "_free", self.body._free)
        _set(self, "_bound", self.body._bound)

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"{self.action}.{bracket(self.body, _ITEM)}"


class Mu(Exp):
    __slots__ = _fields = ("var", "body")
    _prec = _SUM

    def _derive(self):
        free, bound = self.body._free, self.body._bound
        _set(self, "_free", free - {self.var} if self.var in free else free)
        _set(self, "_bound", bound if self.var in bound else bound | {self.var})

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"mu {self.var}. {self.body._text}"


class Leaf(Exp):
    """A generator of a theory's normal forms standing as a term: an output,
    an action step or termination, in the term reading of a normal form."""
    __slots__ = _fields = ("gen",)
    _typed_param = True

    def _derive(self):
        _set(self, "_free", _EMPTY)
        _set(self, "_bound", _EMPTY)

    def _render(self):
        return self.gen.text()


ZERO = Zero()


def children(e):
    return e._kids()


def rebuild(e, kids):
    if isinstance(e, Op):
        return Op(e.param, tuple(kids))
    if isinstance(e, Prefix):
        return Prefix(e.action, kids[0])
    if isinstance(e, Mu):
        return Mu(e.var, kids[0])
    return e


# ---------------------------------------------------------------------------
# variables

def free_vars(e):
    return e._free


def bound_vars(e):
    return e._bound


def all_names(e):
    return free_vars(e) | bound_vars(e)


def fresh_name(avoid):
    k = 0
    while f"%{k}" in avoid:
        k += 1
    return f"%{k}"


def unguarded_vars(e):
    """The free variables of e with an occurrence not under an action prefix."""
    out = set()
    stack = [(e, _EMPTY)]  # a node and the names bound above it
    while stack:
        e, bound = stack.pop()
        if isinstance(e, Var):
            if e.name not in bound:
                out.add(e.name)
        elif isinstance(e, Op):
            stack.extend((a, bound) for a in e.args)
        elif isinstance(e, Mu):
            stack.append((e.body, bound | {e.var}))
        elif not isinstance(e, (Zero, Leaf, Prefix)):
            raise TypeError(f"not an expression: {e!r}")
    return out


def is_guarded(v, e):
    """Every free occurrence of v in e sits under an action prefix."""
    return v not in unguarded_vars(e)


# ---------------------------------------------------------------------------
# substitution

def substitute(e, bindings):
    """Simultaneous capture-avoiding substitution of expressions for free
    variables.  Bound variables are alpha-renamed into the reserved ``%``
    namespace when they would capture."""
    bindings = {v: f for v, f in bindings.items() if f != Var(v)}
    if free_vars(e).isdisjoint(bindings):
        return e
    avoid = set(all_names(e))
    for f in bindings.values():
        avoid |= all_names(f)
    return _subst(e, bindings, avoid)


def _subst(e, bnd, avoid):
    if free_vars(e).isdisjoint(bnd):
        return e
    if isinstance(e, Var):
        return bnd.get(e.name, e)
    if isinstance(e, Zero):
        return e
    if isinstance(e, (Prefix, Op)):
        kids = children(e)
        new = []
        for c in kids:  # a loop, not a comprehension: one frame per level
            new.append(_subst(c, bnd, avoid))
        if all(k is c for k, c in zip(new, kids)):
            return e
        return rebuild(e, new)
    if isinstance(e, Mu):
        fv = free_vars(e.body)
        live = {v: f for v, f in bnd.items() if v != e.var and v in fv}
        if not live:
            return e
        u, body = e.var, e.body
        if any(u in free_vars(f) for f in live.values()):
            w = fresh_name(avoid)
            avoid.add(w)
            body = _subst(body, {u: Var(w)}, avoid)
            u = w
        return Mu(u, _subst(body, live, avoid))
    raise TypeError(f"not an expression: {e!r}")


def guarded_subst_exp(e, g, v):
    """Guarded syntactic substitution e[g//v]: unguarded occurrences of v
    become 0, guarded ones (under a prefix) become g."""
    avoid = set(all_names(e)) | set(all_names(g))

    def go(e):
        if isinstance(e, Var):
            return ZERO if e.name == v else e
        if isinstance(e, Zero):
            return e
        if isinstance(e, Prefix):
            return Prefix(e.action, substitute(e.body, {v: g}))
        if isinstance(e, Op):
            return Op(e.param, tuple(go(a) for a in e.args))
        if isinstance(e, Mu):
            if e.var == v or v not in free_vars(e.body):
                return e
            u, body = e.var, e.body
            if u in free_vars(g):
                w = fresh_name(avoid)
                avoid.add(w)
                body = _subst(body, {u: Var(w)}, set(avoid))
                u = w
            return Mu(u, go(body))
        raise TypeError(f"not an expression: {e!r}")

    return go(e)


# ---------------------------------------------------------------------------
# tokenizer (shared with the star fragment)

_IDENT, _NUM = r"[A-Za-z_][A-Za-z0-9_']*", r"\d+"
_TOKEN = re.compile(rf"\s*(?:({_IDENT})|({_NUM})|([+.()\[\]/;^*=])|(\S))")
_KINDS = (None, "ident", "num", None)  # by group of _TOKEN; punctuation is its own kind
GUARD_ATOM = re.compile(f"{_IDENT}|{_NUM}")  # what a guard ``[...]`` reads as one atom


def tokenize(text):
    toks = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex  # the one alternative that matched
        val = m.group(group)
        if group == 4:
            raise ParseError(f"unexpected character {val!r}", m.start(4))
        toks.append((_KINDS[group] or val, val, m.start(group)))
    toks.append(("eof", "", len(text)))
    return toks


class TokenStream:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def at(self, kind):
        return self.peek()[0] == kind


def parse_param(ts, theory):
    """Parse the contents of ``[...]`` after a choice or star."""
    ts.expect("[")
    if "gplus" in theory.binary_families:
        atoms = []
        while ts.at("ident") or ts.at("num"):
            atoms.append(ts.next()[1])
        ts.expect("]")
        guard = frozenset(atoms)
        theory.check_param(guard)
        return guard
    # probability
    t = ts.expect("num")
    num = int(t[1])
    den = 1
    if ts.at("/"):
        ts.next()
        den = int(ts.expect("num")[1])
        if den == 0:
            raise ParseError("zero denominator", t[2])
    prob = Fraction(num, den)
    ts.expect("]")
    theory.check_param(prob)
    return prob


class NameUse:
    """Tracks identifiers used as actions vs variables in one input."""

    def __init__(self, actions=None):
        self.declared = frozenset(actions) if actions else None
        self.actions = set(actions) if actions else set()
        self.variables = set()

    def see_action(self, name, pos):
        if name in self.variables:
            raise ParseError(f"{name!r} used both as action and variable", pos)
        if self.declared is not None and name not in self.declared:
            raise ParseError(f"undeclared action {name!r}", pos)
        self.actions.add(name)

    def see_variable(self, name, pos):
        if name in self.actions:
            raise ParseError(f"{name!r} used both as action and variable", pos)
        self.variables.add(name)


def parse_exp(text, theory, actions=None, names=None):
    ts = TokenStream(text)
    use = names if names is not None else NameUse(actions)
    e = _parse_sum(ts, theory, use)
    t = ts.peek()
    if t[0] != "eof":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return e


def _parse_sum(ts, theory, use):
    e = _parse_item(ts, theory, use)
    while ts.at("+"):
        ts.next()
        if ts.at("["):
            param = parse_param(ts, theory)
        else:
            param = None
            theory.check_param(None)
        f = _parse_item(ts, theory, use)
        e = Op(param, (e, f))
    return e


def _parse_item(ts, theory, use):
    t = ts.next()
    kind, val, pos = t
    if kind == "num" and val == "0":
        return ZERO
    if kind == "(":
        e = _parse_sum(ts, theory, use)
        ts.expect(")")
        return e
    if kind == "ident":
        if val == "mu":
            v = ts.expect("ident")[1]
            use.see_variable(v, pos)
            ts.expect(".")
            return Mu(v, _parse_sum(ts, theory, use))
        if ts.at("."):
            ts.next()
            use.see_action(val, pos)
            return Prefix(val, _parse_item(ts, theory, use))
        use.see_variable(val, pos)
        return Var(val)
    raise ParseError(f"unexpected token {val!r}", pos)


# ---------------------------------------------------------------------------
# printer

def render_param(param):
    if param is None:
        return ""
    if isinstance(param, frozenset):
        return "[" + " ".join(sorted(param)) + "]"
    return f"[{param.numerator}]" if param.denominator == 1 else f"[{param}]"


def unparse(e):
    if not isinstance(e, Exp):
        raise TypeError(f"not an expression: {e!r}")
    return cached_text(e)


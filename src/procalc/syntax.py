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

No walk over a term recurses on its depth.  The parser is one loop over the
tokens with an explicit stack of open sums and pending prefixes; the star
fragment's parser is a loop of the same kind over the same tokens, and both
read choice parameters with ``parse_param``.  Terms are
hash-consed DAGs.  ``post_order`` lists the nodes under a root that a caller
still has to visit, children first, each once; the one-step semantics, the
star fragment's walks, guardedness and the bound names are loops over it.
Substitution rewrites each (node, bindings) pair once per ``substitute``
call, with an explicit stack (``_rewrite``); its memo lives for that call
only.  The printer builds each node's text once, with its own stack.
"""

from __future__ import annotations

import gc
import itertools
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
    ``1 == True == Fraction(1)``; a ``Fraction`` parameter is keyed on its
    numerator and denominator (``_param_key``), whose ints hash far faster
    than a ``Fraction`` does.  The table is a plain dict, and
    ``_sweep`` drops the nodes that only the table holds, so a term dies
    soon after its last user.

    Subclasses list their fields in ``_fields`` (and ``__slots__``), with
    ``param`` or ``gen`` first when they have one (``_typed_param``); their
    child nodes in ``_kids``; their printing precedence in ``_prec``; and
    their printed text in ``_render``, which may read the cached ``_text``
    of every child.  The generic constructor below fills the fields in a
    loop; the hot classes ``Var``, ``Prefix``, ``Op``, ``Mu`` and ``Leaf``
    have their own, which take the fields by name and also fill ``_free``,
    the free variables.  All of them enter a new node by ``_intern``.
    """

    __slots__ = ("_text",)
    _fields = ()
    _typed_param = False

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _bind(cls, args, kwargs)
        if cls._typed_param:
            key = (cls, _param_key(args[0]), *args[1:], type(args[0]))
        else:
            key = (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                _set(node, name, value)
            _set(node, "_text", None)
            _intern(key, node)
        return node

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


def _param_key(param):
    """A choice parameter as it enters a table key: a ``Fraction`` as its
    (numerator, denominator) pair, which hashes as plain ints."""
    return (param.numerator, param.denominator) if type(param) is Fraction else param


def _intern(key, node):
    """Enter a new node in the table, sweeping it when it has grown."""
    _TABLE[key] = node
    if len(_TABLE) > _limit:
        _sweep()


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


def _bind(cls, args, kwargs, defaults=()):
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
    values = list(args)
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
    return tuple(values)


class Record:
    """A value that is not a term node: fields ``_fields`` in constructor order, and
    a class attribute named like a field as its default.  Like a dataclass, it compares
    and prints by field; only a ``Frozen`` one hashes, and it refuses assignment."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs, vars(type(self)))
        vars(self).update(zip(self._fields, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    __hash__ = None
    __repr__ = Interned.__repr__


class Frozen(Record):
    __setattr__ = Interned.__setattr__
    __delattr__ = Interned.__delattr__

    def __hash__(self):
        return hash(tuple(vars(self).values()))


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


_EXIT = object()  # on post_order's stack: the node below has had its children listed


def post_order(roots, pending=lambda node: True):
    """The nodes under ``roots`` for which ``pending(node)`` holds, each once
    and after its children, found with an explicit stack.  Only the children
    of a pending node are entered, so a caller that keeps a memo skips what
    it has done by leaving it out of ``pending``."""
    order, seen = [], set()
    stack = list(roots)[::-1]
    while stack:
        node = stack.pop()
        if node is _EXIT:
            order.append(stack.pop())
        elif node not in seen and pending(node):
            seen.add(node)
            stack += (node, _EXIT, *node._kids()[::-1])
    return order


# ---------------------------------------------------------------------------
# abstract syntax

_SUM, _ITEM = 0, 1


class Exp(Interned):
    __slots__ = ("_free",)
    _prec = _ITEM

    def sort_key(self):
        return ("exp", unparse(self))


class Zero(Exp):
    __slots__ = _fields = ()
    _free = _EMPTY

    def _render(self):
        return "0"


class Var(Exp):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "name", name)
            _set(node, "_text", None)
            _set(node, "_free", frozenset((name,)))
            _intern(key, node)
        return node

    def _render(self):
        return self.name


class Op(Exp):
    """Binary choice; param is None, a frozenset guard, or a Fraction."""
    __slots__ = _fields = ("param", "args")
    _typed_param = True
    _prec = _SUM

    def __new__(cls, param, args):
        tp = type(param)
        key = (cls, (param.numerator, param.denominator) if tp is Fraction else param, args, tp)
        node = _TABLE.get(key)
        if node is None:
            l, r = args  # a child's set is shared when the other's is empty
            node = object.__new__(cls)
            _set(node, "param", param)
            _set(node, "args", args)
            _set(node, "_text", None)
            f, g = l._free, r._free
            _set(node, "_free", f | g if f and g else f or g)
            _intern(key, node)
        return node

    def _kids(self):
        return self.args

    def _render(self):
        # a mu on the left of a sum must be bracketed: it binds rightward
        left, right = self.args
        l = bracket(left, _ITEM) if isinstance(left, Mu) else left._text
        return f"{l} +{render_param(self.param)} {bracket(right, _ITEM)}"


class Prefix(Exp):
    __slots__ = _fields = ("action", "body")

    def __new__(cls, action, body):
        key = (cls, action, body)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "action", action)
            _set(node, "body", body)
            _set(node, "_text", None)
            _set(node, "_free", body._free)
            _intern(key, node)
        return node

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"{self.action}.{bracket(self.body, _ITEM)}"


class Mu(Exp):
    __slots__ = _fields = ("var", "body")
    _prec = _SUM

    def __new__(cls, var, body):
        key = (cls, var, body)
        node = _TABLE.get(key)
        if node is None:
            free = body._free
            node = object.__new__(cls)
            _set(node, "var", var)
            _set(node, "body", body)
            _set(node, "_text", None)
            _set(node, "_free", free - {var} if var in free else free)
            _intern(key, node)
        return node

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"mu {self.var}. {self.body._text}"


class Leaf(Exp):
    """A generator of a theory's normal forms standing as a term, in the
    term reading of a normal form: an action step or termination."""
    __slots__ = _fields = ("gen",)
    _free = _EMPTY

    def __new__(cls, gen):
        key = (cls, gen, type(gen))
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            _set(node, "gen", gen)
            _set(node, "_text", None)
            _intern(key, node)
        return node

    def _render(self):
        return self.gen.text()


def leaf_term(g):
    """The term of the generator ``g`` in a term reading: an output is its
    variable, any other generator a ``Leaf``."""
    return g if type(g) is Var else Leaf(g)


ZERO = Zero()


def children(e):
    return e._kids()


# ---------------------------------------------------------------------------
# variables

def free_vars(e):
    return e._free


def bound_vars(*es):
    """The names bound by a ``mu`` anywhere under the expressions ``es``."""
    return {n.var for n in post_order(es) if type(n) is Mu}


def all_names(*es):
    return bound_vars(*es).union(*(e._free for e in es))


def fresh_name(avoid):
    return next(_fresh_names(avoid))


def _fresh_names(avoid):
    """The names ``%0``, ``%1``, ... that are not in ``avoid``, in order."""
    return (w for w in map("%{}".format, itertools.count()) if w not in avoid)


def unguarded_vars(e):
    """The free variables of e with an occurrence not under an action prefix,
    from one set per node of the DAG above the prefixes."""
    sets = {}
    for n in post_order((e,), lambda n: type(n) is not Prefix):
        cls = type(n)
        if cls is Var:
            sets[n] = frozenset((n.name,))
        elif cls is Op:
            sets[n] = sets.get(n.args[0], _EMPTY) | sets.get(n.args[1], _EMPTY)
        elif cls is Mu:
            sets[n] = sets.get(n.body, _EMPTY) - {n.var}
        elif cls is not Zero and cls is not Leaf:
            raise TypeError(f"not an expression: {n!r}")
    return sets.get(e, _EMPTY)


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
    return _subst(e, bindings)


def _subst(e, bindings):
    """``substitute`` on the DAG under e, by ``_rewrite``.  A context is the
    index of one set of bindings; equal sets share an index, so a node is
    rewritten once per set that reaches it, however often the set is
    rebuilt under a ``mu``.  A binder that would capture is renamed to a
    fresh name, chosen in the order of a left-to-right walk of the tree;
    the renaming joins the bindings of its body."""
    table = [bindings]
    index = {frozenset(bindings.items()): 0}
    fresh = None  # the fresh binder names, set up at the first renaming

    def enter(node, ctx):
        nonlocal fresh
        bnd = table[ctx]
        if node._free.isdisjoint(bnd):
            return node
        cls = type(node)
        if cls is Var:
            return bnd[node.name]
        if cls is Prefix or cls is Op:
            return None
        if cls is not Mu:
            raise TypeError(f"not an expression: {node!r}")
        u, body = node.var, node.body
        fv = body._free
        live = {v: f for v, f in bnd.items() if v != u and v in fv}
        if not live:
            return node
        if any(u in f._free for f in live.values()):
            if fresh is None:
                fresh = _fresh_names(all_names(e, *bindings.values()))
            u = next(fresh)
            live[node.var] = Var(u)
        key = frozenset(live.items())
        sub = index.get(key)
        if sub is None:
            sub = index[key] = len(table)
            table.append(live)
        return u, body, sub

    return _rewrite(e, enter)


def guarded_subst_exp(e, g, v):
    """Guarded syntactic substitution e[g//v]: unguarded occurrences of v
    become 0, guarded ones (under a prefix) become g."""
    fresh = None  # the fresh binder names, set up at the first renaming
    under = {v: g}

    def enter(node, ctx):
        nonlocal fresh
        cls = type(node)
        if cls is Var:
            return ZERO if node.name == v else node
        if cls is Zero:
            return node
        if cls is Prefix:
            return Prefix(node.action, substitute(node.body, under))
        if cls is Op:
            return None
        if cls is not Mu:
            raise TypeError(f"not an expression: {node!r}")
        u, body = node.var, node.body
        if u == v or v not in body._free:
            return node
        if u in g._free:
            if fresh is None:
                fresh = _fresh_names(all_names(e, g))
            w = next(fresh)
            body = substitute(body, {u: Var(w)})
            u = w
        return u, body, ctx

    return _rewrite(e, enter)


_ENTER, _KIDS = object(), object()  # the first and the second visit of a node on _rewrite's stack


def _rewrite(root, enter):
    """Rewrite the DAG under ``root`` bottom-up with an explicit stack, once
    per (node, context) pair; the walk starts in context 0.

    ``enter(node, ctx)`` decides each pair on its first visit.  It returns
    the result itself; or None, to rebuild a ``Prefix`` or ``Op`` from its
    children rewritten in the same context; or ``(var, body, ctx')``, to
    build ``Mu(var, ·)`` over ``body`` rewritten in ``ctx'``.  Children are
    entered left to right, as a recursive walk would."""
    done = {}
    stack = [(root, 0, _ENTER)]
    push, pop = stack.append, stack.pop
    while stack:
        node, ctx, plan = pop()
        if plan is _ENTER:
            if (node, ctx) in done:
                continue
            plan = enter(node, ctx)
            if plan is None:
                push((node, ctx, _KIDS))
                if type(node) is Prefix:
                    push((node.body, ctx, _ENTER))
                else:
                    l, r = node.args
                    push((r, ctx, _ENTER))
                    push((l, ctx, _ENTER))
            elif type(plan) is tuple:
                push((node, ctx, plan))
                push((plan[1], plan[2], _ENTER))
            else:
                done[node, ctx] = plan
        elif plan is _KIDS:
            if type(node) is Prefix:
                body = done[node.body, ctx]
                done[node, ctx] = node if body is node.body else Prefix(node.action, body)
            else:
                l, r = node.args
                nl, nr = done[l, ctx], done[r, ctx]
                done[node, ctx] = node if nl is l and nr is r else Op(node.param, (nl, nr))
        else:
            var, body, sub = plan
            done[node, ctx] = Mu(var, done[body, sub])
    return done[root, 0]


# ---------------------------------------------------------------------------
# tokenizer and parameters, shared with the star fragment: both parsers are
# loops over ``tokenize``'s list

_IDENT, _NUM = r"[A-Za-z_][A-Za-z0-9_']*", r"\d+"
_TOKEN = re.compile(rf"\s*(?:({_IDENT})|({_NUM})|([+.()\[\]/;^*=])|(\S))")
_KINDS = (None, "ident", "num", None)  # by group of _TOKEN; punctuation is its own kind
GUARD_ATOM = re.compile(f"{_IDENT}|{_NUM}")  # what a guard ``[...]`` reads as one atom


def is_name(text):
    """Whether ``text`` prints as one name: an identifier but ``mu``, or ``%k``."""
    if text.isidentifier() and text.isascii():  # the common case, without a regex
        return text != "mu"
    return re.fullmatch(rf"{_IDENT}|%\d+", text) is not None


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


def expect_token(toks, i, kind):
    """Token ``i``, which must be of ``kind``."""
    t = toks[i]
    if t[0] != kind:
        raise ParseError(f"expected {kind!r}, found {t[1]!r}", t[2])
    return t


def parse_param(toks, i, theory):
    """Parse the ``[...]`` that starts at token ``i``, after a choice or a
    star; returns the parameter and the index of the token after ``]``."""
    expect_token(toks, i, "[")
    i += 1
    if "gplus" in theory.binary_families:
        j = i
        while toks[j][0] in ("ident", "num"):
            j += 1
        expect_token(toks, j, "]")
        guard = frozenset(t[1] for t in toks[i:j])
        theory.check_param(guard)
        return guard, j + 1
    # probability
    t = expect_token(toks, i, "num")
    num = int(t[1])
    den = 1
    i += 1
    if toks[i][0] == "/":
        den = int(expect_token(toks, i + 1, "num")[1])
        if den == 0:
            raise ParseError("zero denominator", t[2])
        i += 2
    prob = Fraction(num, den)
    expect_token(toks, i, "]")
    theory.check_param(prob)
    return prob, i + 1


def choice_param(toks, i, theory):
    """``parse_param`` for the optional ``[...]`` after a ``+``: a plain
    ``+`` has the parameter None."""
    if toks[i][0] == "[":
        return parse_param(toks, i, theory)
    theory.check_param(None)
    return None, i


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


_PAREN = object()  # the close of a bracket's sum frame in parse_exp; a mu body's is its var


def parse_exp(text, theory, actions=None, names=None):
    """Parse a term in one loop over its tokens, with an explicit stack of
    frames: a list ``[left, param, close]`` per open sum (the whole input
    at the bottom, a bracket, or a ``mu`` body, whose ``close`` is its
    variable) and an action name per pending prefix.  A complete item closes the prefixes
    above it and joins its sum; a sum ends at the first token that is not
    ``+`` and completes the item that opened it."""
    toks = tokenize(text)
    use = names if names is not None else NameUse(actions)
    stack = [[None, None, None]]
    i = 0  # an error is raised as soon as the eof token is consumed
    while True:
        kind, val, pos = toks[i]
        i += 1
        if kind == "ident":
            if val == "mu":
                var = expect_token(toks, i, "ident")[1]
                use.see_variable(var, pos)
                expect_token(toks, i + 1, ".")
                i += 2
                stack.append([None, None, var])
                continue
            if toks[i][0] == ".":
                i += 1
                use.see_action(val, pos)
                stack.append(val)
                continue
            use.see_variable(val, pos)
            e = Var(val)
        elif kind == "(":
            stack.append([None, None, _PAREN])
            continue
        elif kind == "num" and val == "0":
            e = ZERO
        else:
            raise ParseError(f"unexpected token {val!r}", pos)
        while True:  # e is a complete item
            top = stack[-1]
            if type(top) is str:
                stack.pop()
                e = Prefix(top, e)
                continue
            if top[0] is not None:
                e = Op(top[1], (top[0], e))
            if toks[i][0] == "+":
                param, i = choice_param(toks, i + 1, theory)
                top[0], top[1] = e, param
                break
            stack.pop()
            close = top[2]
            if not stack:
                t = toks[i]
                if t[0] != "eof":
                    raise ParseError(f"trailing input {t[1]!r}", t[2])
                return e
            if close is _PAREN:
                expect_token(toks, i, ")")
                i += 1
            else:
                e = Mu(close, e)


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


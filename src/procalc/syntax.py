"""Process terms: abstract syntax, parser, printer, substitution.

Surface grammar (theory decides how choice parameters read):

    term   := sum
    sum    := item ('+' ('[' param ']')? item)*        # left-associative
    item   := 'mu' NAME '.' sum                         # extends maximally right
            | NAME '.' item                             # action prefix
            | '0' | NAME | '(' sum ')'
    NAME   := IDENT | '%' DIGITS                        # but mu; %k is a fresh name

Guards are space-separated atom lists (``+[a1 a2]``, ``[]`` is the empty
guard); probabilities are integers or fractions (``+[1/2]``).  A fresh
name prints as ``%k`` and parses back, like any other name, so freshness
rests on each ``fresh_name`` / ``_fresh_names`` call avoiding every name
of the terms it works on: ``_subst`` avoids all names of the term and of
the values put in, ``semantics.equations`` the states, outputs and actions
of its coalgebra, and ``star.translate`` all names of the loop body.

No walk over a term recurses on its depth.  The tokenizer is one
``findall`` that returns the tokens as strings, then ``""`` for the end;
one search before it finds the first character that no token can start or
continue.  A token's kind is read from its first character, and its offset
is computed, by reading the tokens again, only when a parse error is
raised.  The parser is one loop over the tokens with an explicit stack of
open sums and pending runs of prefixes: a run ``a1.a2. … an.`` is one
frame, which ``_prefix_run`` interns innermost first once the item below
it is complete.  The star fragment's parser is a loop of the same kind over
the same tokens, and both read choice parameters with ``parse_param``,
each distinct bracket of an input once.
Star expressions are terms too: their ``0`` and choice are ``ZERO`` and
``Op``, and ``star.py`` adds the other nodes as ``Exp`` subclasses, so
``unparse`` prints both grammars.  So are the transitions of the one-step
semantics, the generators of its normal forms: an output is its ``Var``,
an action step is the prefix ``a.t`` itself, and termination is ``TICK``,
so a normal form's term reading is written with its own generators.
Terms are hash-consed DAGs.  ``post_order`` lists the nodes under a root
that a caller still has to visit, children first, each once; the one-step
semantics, the star fragment's walks, guardedness, the bound names, the
printer (which builds each node's text once) and the zeroing step of
guarded substitution are loops over it.  Substitution is one loop,
``_subst``: it rewrites each (node, bindings) pair once per ``substitute``
call, with an explicit stack and one memo per set of bindings, keyed by
node, that lives for that call only; a binder whose body keeps every
binding, and which no value has free, passes its set on as it is, so a
chain of such binders builds no set.  A run of prefixes that must change
is walked down in one loop and rebuilt by ``_prefix_run``.  Guarded
substitution turns the unguarded occurrences of its variable into ``0``
and then calls ``substitute``.
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
        self.message, self.pos = message, pos


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
    ``param`` field is keyed on its type as well, because
    ``1 == True == Fraction(1)``; a ``Fraction`` parameter is keyed on its
    numerator and denominator (``_param_key``), whose ints hash far faster
    than a ``Fraction`` does.  The table is a plain dict, and
    ``_sweep`` drops the nodes that only the table holds, so a term dies
    soon after its last user.

    Subclasses list their fields in ``_fields`` (and ``__slots__``), with
    ``param`` first when they have one (``_typed_param``); their
    child nodes in ``_kids``; their printing precedence in ``_prec``; and
    their printed text in ``_render``, which may read the cached ``_text``
    of every child.  The generic constructor below fills the fields in a
    loop; the hot classes ``Var``, ``Prefix``, ``Op`` and ``Mu`` have
    their own, which take the fields by name, set the slots through their
    member descriptors and also fill ``_free``, the free variables;
    ``Prefix``'s is ``_prefix_run`` over one action.
    All of them enter a new node by ``_intern``.  They are written out by
    hand on purpose: one shared helper for their miss path measured slower
    on every benchmark workload (ROADMAP item 2).
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
    """The printed text of an interned node, built once per node: the nodes
    under it that have no text yet are printed children first, and keep
    their text too."""
    if node._text is None:
        for n in post_order((node,), lambda n: n._text is None):
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

_SUM, _SEQ, _ITEM, _ATOM = 0, 1, 2, 3  # _SEQ is the star fragment's ``;``


class Exp(Interned):
    __slots__ = ("_free",)
    _prec = _ITEM

    def sort_key(self):
        return ("exp", unparse(self))


class Zero(Exp):
    __slots__ = _fields = ()
    _free = _EMPTY
    _prec = _ATOM  # bare under a prefix, a ``;`` and a ``^`` alike

    def _render(self):
        return "0"


class Var(Exp):
    __slots__ = _fields = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            _set_name(node, name)
            _set_text(node, None)
            _set_free(node, frozenset((name,)))
            _intern(key, node)
        return node

    def _render(self):
        return self.name


class Op(Exp):
    """Binary choice; param is None, a frozenset guard, or a Fraction."""
    __slots__ = _fields = ("param", "args")
    _prec = _SUM

    def __new__(cls, param, args):
        tp = type(param)
        key = (cls, (param.numerator, param.denominator) if tp is Fraction else param, args, tp)
        node = _TABLE.get(key)
        if node is None:
            l, r = args  # a child's set is shared when the other's is empty
            node = object.__new__(cls)
            _set_param(node, param)
            _set_args(node, args)
            _set_text(node, None)
            f, g = l._free, r._free
            _set_free(node, f | g if f and g else f or g)
            _intern(key, node)
        return node

    def _kids(self):
        return self.args

    def _render(self):
        # a mu on the left of a sum must be bracketed: it binds rightward
        left, right = self.args
        l = bracket(left, _ITEM) if isinstance(left, Mu) else left._text
        return f"{l} +{render_param(self.param)} {bracket(right, _SEQ)}"


class Prefix(Exp):
    __slots__ = _fields = ("action", "body")

    def __new__(cls, action, body):
        return _prefix_run((action,), body)

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"{self.action}.{bracket(self.body, _ITEM)}"


def _prefix_run(actions, body):
    """The run ``actions[0].actions[1]. … .body``, interned innermost first
    in one loop.  Every node of the run shares ``body``'s free-variable set,
    and each new one enters the table by ``_intern``; the node built last
    holds the ones below it, so a sweep in the middle drops none of them."""
    free = body._free
    for action in reversed(actions):
        key = (Prefix, action, body)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(Prefix)
            _set_action(node, action)
            _set_body(node, body)
            _set_text(node, None)
            _set_free(node, free)
            _intern(key, node)
        body = node
    return body


class Mu(Exp):
    __slots__ = _fields = ("var", "body")
    _prec = _SUM

    def __new__(cls, var, body):
        key = (cls, var, body)
        node = _TABLE.get(key)
        if node is None:
            free = body._free
            node = object.__new__(cls)
            _set_var(node, var)
            _set_mu_body(node, body)
            _set_text(node, None)
            _set_free(node, free - {var} if var in free else free)
            _intern(key, node)
        return node

    def _kids(self):
        return (self.body,)

    def _render(self):
        return f"mu {self.var}. {self.body._text}"


# the slots of the hot nodes, which their constructors above set through
# the member descriptors: faster than object.__setattr__ by name
_set_text, _set_free = Interned._text.__set__, Exp._free.__set__
_set_name, _set_param, _set_args = Var.name.__set__, Op.param.__set__, Op.args.__set__
_set_action, _set_body = Prefix.action.__set__, Prefix.body.__set__
_set_var, _set_mu_body = Mu.var.__set__, Mu.body.__set__


# ---------------------------------------------------------------------------
# transitions: the generators of a one-step normal form (an output is its
# ``Var``, a step its prefix), and their sort order

def _prefix_key(g):
    return ("k", "act", g.action, ("k",) + g.body.sort_key())


def _tuple_key(g):
    return ("t", tuple(map(generator_key, g)))


def _frozenset_key(g):
    return ("f", tuple(sorted(map(generator_key, g))))


# the value types and the step generator, looked up by exact type (a bool
# is not keyed as an int)
_KEYS = {
    Prefix: _prefix_key,
    bool: lambda g: ("b", g),
    int: lambda g: ("i", g),
    Fraction: lambda g: ("q", g),
    str: lambda g: ("s", g),
    tuple: _tuple_key,
    frozenset: _frozenset_key,
}


def generator_key(g):
    """A sort key for any generator: ``None``, a prefix (by its action,
    then by its body as a state), another node with a ``sort_key``, or a
    value built from bools, ints, fractions, strings, tuples and frozensets.
    A prefix and the exact value types are one dict lookup."""
    key = _KEYS.get(type(g))
    if key is not None:
        return key(g)
    if g is None:
        return ("0",)
    if hasattr(g, "sort_key"):
        return ("k",) + tuple(g.sort_key())
    return ("r", repr(g))


def sorted_gens(gens):
    return sorted(gens, key=generator_key)


class Tick(Exp):
    """Successful termination, the star fragment's transition: a term that
    steps to its own unit and prints ``1``."""
    __slots__ = _fields = ()
    _free = _EMPTY

    def sort_key(self):
        return ("tick",)

    def _render(self):
        return "1"


ZERO = Zero()
TICK = Tick()


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


_ABOVE_GUARDS = frozenset((Var, Op, Mu))  # the nodes with free variables outside any action


def unguarded_vars(e):
    """The free variables of e with an occurrence not under an action
    prefix."""
    return unguarded_sets((e,)).get(e, _EMPTY)


def unguarded_sets(roots):
    """``unguarded_vars`` of each node under ``roots`` that is above the
    prefixes and has free variables, keyed by node: one set per node of
    the DAG, from one walk, so roots that share nodes share their sets."""
    sets = {}
    for n in post_order(roots, lambda n: type(n) in _ABOVE_GUARDS and n._free):
        cls = type(n)
        if cls is Var:
            sets[n] = frozenset((n.name,))
        elif cls is Op:
            sets[n] = sets.get(n.args[0], _EMPTY) | sets.get(n.args[1], _EMPTY)
        else:
            sets[n] = sets.get(n.body, _EMPTY) - {n.var}
    return sets


def is_guarded(v, e):
    """Every free occurrence of v in e sits under an action prefix."""
    return v not in unguarded_vars(e)


# ---------------------------------------------------------------------------
# substitution

def substitute(e, bindings):
    """Simultaneous capture-avoiding substitution of expressions for free
    variables.  A bound variable that would capture is alpha-renamed to a
    fresh ``%k`` that no name of ``e`` or of the values takes."""
    bindings = {v: f for v, f in bindings.items() if type(f) is not Var or f.name != v}
    if free_vars(e).isdisjoint(bindings):
        return e
    return _subst(e, bindings)


_KIDS = object()  # on _subst's stack: the children of the Op below are done


def _subst(e, bindings):
    """``substitute`` on the DAG under e, bottom-up with an explicit stack.

    A context is the index of one set of bindings; equal sets share an
    index, and each has one memo, keyed by node, so a node is rewritten once
    per set that reaches it, however often the set is rebuilt under a
    ``mu``.  A ``mu`` whose variable is not bound, whose body has every
    bound variable free, and whose variable no value has free, passes its
    own context to its body, without rebuilding the set: that is the set
    the body would get.  A node whose free variables miss its bindings is kept, and any
    other always changes.  A binder that would capture is renamed
    to a fresh name, chosen in the order of a left-to-right walk of the
    tree; the renaming joins the bindings of its body.  A ``Prefix`` takes
    along the run of prefixes below it, which share its free variables: the
    run is walked down in one loop, the node below it is rewritten, and
    ``_prefix_run`` builds the run again over that."""
    table, memos = [bindings], [{}]
    index = {frozenset(bindings.items()): 0}
    fresh = None  # the fresh binder names, set up at the first renaming
    stack = [(e, 0, None)]
    pop = stack.pop
    while stack:
        node, ctx, plan = pop()
        memo = memos[ctx]
        if plan is None:  # the first visit
            if node in memo:
                continue
            bnd = table[ctx]
            if node._free.isdisjoint(bnd):
                memo[node] = node
                continue
            cls = type(node)
            if cls is Var:
                memo[node] = bnd[node.name]
            elif cls is Prefix:  # a run's plan is its actions
                run, actions = [node], [node.action]
                below = node.body
                while type(below) is Prefix and below not in memo:
                    run.append(below)
                    actions.append(below.action)
                    below = below.body
                stack += ((run, ctx, actions), (below, ctx, None))
            elif cls is Op:
                l, r = node.args
                stack += ((node, ctx, _KIDS), (r, ctx, None), (l, ctx, None))
            else:  # a Mu
                u, body = node.var, node.body
                fv = body._free
                if u not in bnd and bnd.keys() <= fv and not any(u in f._free for f in bnd.values()):
                    sub = ctx  # the body's bindings are these: none is dropped or captured
                else:
                    live = {v: f for v, f in bnd.items() if v != u and v in fv}
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
                        memos.append({})
                stack += ((node, ctx, (u, sub)), (body, sub, None))
        elif plan is _KIDS:
            l, r = node.args
            memo[node] = Op(node.param, (memo[l], memo[r]))
        elif type(plan) is list:  # node is the run, top first
            new = _prefix_run(plan, memo[node[-1].body])
            for old in node:
                memo[old] = new
                new = new.body
        else:
            u, sub = plan
            memo[node] = Mu(u, memos[sub][node.body])
    return memos[0][e]


def guarded_subst_exp(e, g, v):
    """Guarded syntactic substitution e[g//v]: unguarded occurrences of v
    become 0, guarded ones (under a prefix) become g.
    One pass over the DAG above the actions turns the first into 0;
    ``substitute`` then puts g for the rest."""
    zeroed = {}
    for n in post_order((e,), lambda n: type(n) in _ABOVE_GUARDS and v in n._free):
        cls = type(n)
        if cls is Var:
            zeroed[n] = ZERO
        elif cls is Op:
            l, r = n.args
            zeroed[n] = Op(n.param, (zeroed.get(l, l), zeroed.get(r, r)))
        else:
            zeroed[n] = Mu(n.var, zeroed.get(n.body, n.body))
    return substitute(zeroed.get(e, e), {v: g})


# ---------------------------------------------------------------------------
# tokenizer and parameters, shared with the star fragment: both parsers are
# loops over ``tokenize``'s list, run by ``parse_tokens``

_IDENT, _NUM = r"[A-Za-z_][A-Za-z0-9_']*", r"\d+"
_NAME = rf"{_IDENT}|%{_NUM}"  # a fresh name prints as %k
_TOKEN = re.compile(rf"{_NAME}|{_NUM}|[+.()\[\]/;^*=]")
# the first character that no token can start or continue: neither a token
# character nor a space, or a % with no digit after it (_BAD), or a quote
# with no identifier start before it in its run of identifier characters
# (_BAD_QUOTE, which ends there)
_BAD = re.compile(r"[^A-Za-z0-9_'+.()\[\]/;^*=\s\d%]|%(?!\d)")
_BAD_QUOTE = re.compile(r"(?<![A-Za-z0-9_'])[0-9]*'")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_%")
GUARD_ATOM = re.compile(f"{_IDENT}|{_NUM}")  # what a guard ``[...]`` reads as one atom


def is_name(text):
    """Whether ``text`` prints as one name: an identifier but ``mu``, or ``%k``."""
    if text.isidentifier() and text.isascii():  # the common case, without a regex
        return text != "mu"
    return re.fullmatch(_NAME, text) is not None


def tokenize(text):
    """The tokens of ``text`` as strings, then ``""`` for its end.  A
    token's kind is read from its first character (``token_kind``); its
    offset is found again only for an error (``token_pos``)."""
    bad = _BAD.search(text)
    pos = len(text) if bad is None else bad.start()
    if "'" in text:  # a bad quote before pos
        quote = _BAD_QUOTE.search(text, 0, pos)
        if quote is not None:
            pos = quote.end() - 1
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    toks = _TOKEN.findall(text)
    toks.append("")
    return toks


def token_kind(tok):
    """``'ident'``, ``'num'``, ``'eof'`` for the end, or the punctuation itself."""
    if not tok:
        return "eof"
    if tok[0] in _NAME_START:
        return "ident"
    return "num" if tok[0].isdecimal() else tok


def token_pos(text, i):
    """The offset of token ``i`` in ``text``, found by reading the tokens
    again; the end's is the length of ``text``."""
    m = next(itertools.islice(_TOKEN.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def parse_tokens(text, parser, *args):
    """``parser(tokenize(text), *args)``.  The parser raises a parse error
    at a token's index, which is placed here at that token's offset."""
    toks = tokenize(text)
    try:
        return parser(toks, *args)
    except ParseError as err:
        pos = None if err.pos is None else token_pos(text, err.pos)
        raise ParseError(err.message, pos) from None


def expect_token(toks, i, kind):
    """Token ``i``, which must be of ``kind``."""
    tok = toks[i]
    if token_kind(tok) != kind:
        raise ParseError(f"expected {kind!r}, found {tok!r}", i)
    return tok


def parse_param(toks, i, theory):
    """Parse the ``[...]`` that starts at token ``i``, after a choice or a
    star; returns the parameter and the index of the token after ``]``."""
    expect_token(toks, i, "[")
    i += 1
    if "gplus" in theory.binary_families:
        j = i
        while token_kind(toks[j]) in ("ident", "num"):
            j += 1
        expect_token(toks, j, "]")
        guard = frozenset(toks[i:j])
        theory.check_param(guard)
        return guard, j + 1
    # probability
    num = int(expect_token(toks, i, "num"))
    den = 1
    if toks[i + 1] == "/":
        den = int(expect_token(toks, i + 2, "num"))
        if den == 0:
            raise ParseError("zero denominator", i)
        i += 2
    prob = Fraction(num, den)
    expect_token(toks, i + 1, "]")
    theory.check_param(prob)
    return prob, i + 2


def choice_param(toks, i, theory, read):
    """``parse_param`` for the optional ``[...]`` after a ``+``: a plain
    ``+`` has the parameter None.  ``read`` maps the tokens of each bracket
    read before, up to its first ``]``, to its parameter, so that a parser
    reads and checks each distinct bracket of its input once.  A bracket
    that fails never enters it, and fails in ``parse_param`` each time."""
    if toks[i] != "[":
        theory.check_param(None)
        return None, i
    try:
        j = toks.index("]", i) + 1
    except ValueError:  # no ']': parse_param says where the bracket fails
        return parse_param(toks, i, theory)
    key = tuple(toks[i:j])
    if key not in read:
        read[key] = parse_param(toks, i, theory)[0]
    return read[key], j


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
    frames: a tuple ``(left, param, close)`` per open sum (the whole input
    at the bottom, a bracket, or a ``mu`` body, whose ``close`` is its
    variable) and a list of action names per pending run of prefixes.  A
    run ``a1.a2. … an.`` is read in one inner loop as one frame.  A
    complete item closes the run above it (``_prefix_run``) and joins its
    sum; a sum ends at the first token that is not ``+`` and completes the
    item that opened it."""
    use = names if names is not None else NameUse(actions)
    return parse_tokens(text, _parse_exp_tokens, theory, use)


def _parse_exp_tokens(toks, theory, use):
    stack = [(None, None, None)]
    read = {}  # the brackets read, for choice_param
    i = 0  # an error is raised as soon as the eof token is consumed
    while True:
        tok = toks[i]
        i += 1
        if tok == "(":
            stack.append((None, None, _PAREN))
            continue
        if tok == "0":
            e = ZERO
        elif tok[:1] not in _NAME_START:
            raise ParseError(f"unexpected token {tok!r}", i - 1)
        elif tok == "mu":
            var = expect_token(toks, i, "ident")
            use.see_variable(var, i - 1)
            expect_token(toks, i + 1, ".")
            i += 2
            stack.append((None, None, var))
            continue
        elif toks[i] == ".":  # a run of prefixes, up to the item it guards
            j = i + 1
            while True:
                t = toks[j]
                if t[:1] not in _NAME_START or t == "mu" or toks[j + 1] != ".":
                    break
                j += 2
            for k in range(i - 1, j, 2):
                use.see_action(toks[k], k)
            stack.append(toks[i - 1:j:2])
            i = j
            continue
        else:
            use.see_variable(tok, i - 1)
            e = Var(tok)
        while True:  # e is a complete item
            top = stack.pop()
            if type(top) is list:  # never two runs in a row
                e = _prefix_run(top, e)
                top = stack.pop()
            left, param, close = top
            if left is not None:
                e = Op(param, (left, e))
            if toks[i] == "+":
                param, i = choice_param(toks, i + 1, theory, read)
                stack.append((e, param, close))
                break
            if not stack:
                if toks[i]:
                    raise ParseError(f"trailing input {toks[i]!r}", i)
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


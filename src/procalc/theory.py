"""Branching theories and their free-algebra normal forms.

Five built-in theories parametrise the branching type of a process:

* ``sl`` -- semilattices with bottom (finite sets),
* ``cm`` -- commutative monoids (finite multisets),
* ``gs`` -- guarded semilattices over a fixed atom set (if-then-else tables),
* ``ca`` -- pointed convex algebras (subprobability distributions),
* ``cs`` -- pointed convex semilattices (finitely generated convex sets
  of subdistributions, kept as minimal generator sets).

All numeric data is exact.  A ``cm`` multiset, a ``ca`` subdistribution
and each point of a ``cs`` set are ``(D, frozenset((g, n)))``: positive
integer counts over one denominator, in lowest terms, so the backends do
integer arithmetic only.  ``fractions.Fraction`` appears where masses cross
the interface: choice parameters, ``weight``, ``edges``, and the simplex of
``in_lower_hull``.  Normal forms are hashable values with structural
equality deciding equality of free-algebra elements.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .syntax import GUARD_ATOM, ZERO, Frozen, Op, Var, generator_key, sorted_gens


class TheoryError(ValueError):
    """Ill-formed term, invalid parameter, or backend mismatch."""


# ---------------------------------------------------------------------------
# axiom schemas (shared by the proof checker, the skew-associativity
# classifier, and the soundness tests): terms over the metavariables x, y, z
# whose choice parameters are symbolic, such as ("gsym", "b") or
# ("pneg", ("psym", "p"))

class Axiom(Frozen):
    _fields = ("name", "lhs", "rhs", "side")
    side = None  # "pq<1" for CA4, whose ``pca4`` eval_param refuses for pq = 1


def param_symbols(expr):
    """Free parameter symbols of a symbolic guard/probability expression."""
    if expr is None:
        return set()
    tag = expr[0]
    if tag in ("gsym", "psym"):
        return {expr[1]}
    if tag in ("gfull", "pconst"):
        return set()
    out = set()
    for sub in expr[1:]:
        out |= param_symbols(sub)
    return out


def eval_param(expr, env, atoms=None):
    """Evaluate a symbolic parameter expression under an assignment."""
    tag = expr[0]
    if tag == "gsym" or tag == "psym":
        return env[expr[1]]
    if tag == "gfull":
        return frozenset(atoms)
    if tag == "gneg":
        return frozenset(atoms) - eval_param(expr[1], env, atoms)
    if tag == "gand":
        return eval_param(expr[1], env, atoms) & eval_param(expr[2], env, atoms)
    if tag == "pconst":
        return expr[1]
    if tag == "pneg":
        return 1 - eval_param(expr[1], env)
    if tag == "pmul":
        return eval_param(expr[1], env) * eval_param(expr[2], env)
    if tag == "pca4":
        p = eval_param(expr[1], env)
        q = eval_param(expr[2], env)
        if p * q == 1:
            raise TheoryError("re-association parameter undefined for pq = 1")
        return q * (1 - p) / (1 - p * q)
    raise TheoryError(f"unknown parameter expression {expr!r}")


_X, _Y, _Z = Var("x"), Var("y"), Var("z")


def _op(param, l, r):
    return Op(param, (l, r))


def _plus(l, r):
    return Op(None, (l, r))


_B = ("gsym", "b")
_C = ("gsym", "c")
_P = ("psym", "p")
_Q = ("psym", "q")

SL_AXIOMS = (
    Axiom("SL1", _plus(_X, ZERO), _X),
    Axiom("SL2", _plus(_X, _X), _X),
    Axiom("SL3", _plus(_X, _Y), _plus(_Y, _X)),
    Axiom("SL4", _plus(_X, _plus(_Y, _Z)), _plus(_plus(_X, _Y), _Z)),
)

CM_AXIOMS = (
    Axiom("CM1", _plus(_X, ZERO), _X),
    Axiom("CM2", _plus(_X, _Y), _plus(_Y, _X)),
    Axiom("CM3", _plus(_X, _plus(_Y, _Z)), _plus(_plus(_X, _Y), _Z)),
)

GS_AXIOMS = (
    Axiom("GS1", _op(_B, _X, _X), _X),
    Axiom("GS2", _op(("gfull",), _X, _Y), _X),
    Axiom("GS3", _op(_B, _X, _Y), _op(("gneg", _B), _Y, _X)),
    Axiom(
        "GS4",
        _op(_C, _op(_B, _X, _Y), _Z),
        _op(("gand", _B, _C), _X, _op(_C, _Y, _Z)),
    ),
)

CA_AXIOMS = (
    Axiom("CA1", _op(_P, _X, _X), _X),
    Axiom("CA2", _op(("pconst", Fraction(1)), _X, _Y), _X),
    Axiom("CA3", _op(_P, _X, _Y), _op(("pneg", _P), _Y, _X)),
    Axiom(
        "CA4",
        _op(_Q, _op(_P, _X, _Y), _Z),
        _op(("pmul", _P, _Q), _X, _op(("pca4", _P, _Q), _Y, _Z)),
        side="pq<1",
    ),
)

CS_AXIOMS = SL_AXIOMS + CA_AXIOMS + (
    Axiom(
        "D",
        _op(_P, _plus(_X, _Y), _Z),
        _plus(_op(_P, _X, _Z), _op(_P, _Y, _Z)),
    ),
)


# ---------------------------------------------------------------------------
# exact linear feasibility (used by the convex-set backend)

def feasible(rows, rhs):
    """Decide whether ``A x = b`` has a solution with ``x >= 0``.

    Phase-1 simplex with Bland's rule over exact rationals; ``rows`` is the
    list of rows of A, ``rhs`` the right-hand side b.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    tab = []
    b = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        bi = Fraction(rhs[i])
        if bi < 0:
            row = [-v for v in row]
            bi = -bi
        # append artificial columns (identity)
        row += [Fraction(int(j == i)) for j in range(m)]
        tab.append(row)
        b.append(bi)
    basis = [n + i for i in range(m)]
    total = n + m

    def reduced_costs():
        # minimise the sum of artificials: c_j = 1 for artificials else 0
        rc = []
        for j in range(total):
            c = Fraction(1 if j >= n else 0)
            for i in range(m):
                if basis[i] >= n:
                    c -= tab[i][j]
            rc.append(c)
        return rc

    while True:
        rc = reduced_costs()
        enter = next((j for j in range(total) if rc[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (b[i] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break  # unbounded cannot happen in phase 1, guard anyway
        _, _, piv = min(ratios)
        pv = tab[piv][enter]
        tab[piv] = [v / pv for v in tab[piv]]
        b[piv] /= pv
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[piv])]
                b[i] -= f * b[piv]
        basis[piv] = enter
    value = sum(b[i] for i in range(m) if basis[i] >= n)
    return value == 0


# a subdistribution (``ca`` normal form, ``cs`` point) or a multiset (``cm``
# normal form) is stored as ``(D, frozenset((g, n)))``: positive integer counts
# n over one denominator D, in lowest terms (no count is 0, and D and the
# counts have gcd 1; a multiset's D is 1).  So equal masses make equal values,
# and sums and products of masses are integer arithmetic.

ZERO_SUBDIST = (1, frozenset())


def _lowest(d, out):
    """The point of the counts ``out`` over ``d``, in lowest terms."""
    k = math.gcd(d, *out.values()) if d != 1 else 1
    if k != 1:
        return d // k, frozenset((g, n // k) for g, n in out.items())
    return d, frozenset(out.items())


def _mixed(parts, d):
    """The point ``w1/d·u1 + w2/d·u2 + ...`` of the (point ``ui``, count
    ``wi``) pairs ``parts``.

    Trusted: the points are backend normal forms, whose masses total at
    most 1, under counts ``wi`` that total at most ``d`` (choice weights
    that passed ``check_param``, or the counts of a point).  So every count
    is positive, the total stays at most 1, and nothing is validated
    again."""
    scale = math.lcm(*[u[0] for u, _ in parts])
    out = {}
    for (e, pairs), w in parts:
        if not w:
            continue  # the side of a choice +[0] or +[1] that has no weight
        k = w * (scale // e)
        for g, n in pairs:
            if g in out:
                out[g] += k * n
            else:
                out[g] = k * n
    return _lowest(d * scale, out)


def _mixtures(parts, d):
    """The mixtures ``w1/d·u1 + w2/d·u2 + ...`` (``_mixed``) of one point
    ``ui`` from each (set, count ``wi``) pair in ``parts``.  A mixture takes
    the deadlock point 0 from a set only when it is the set's one point:
    taking 0 from a set that has another point u gives a mixture below the
    one that takes u, so the down-closed hull is kept, and k units mix to
    one point, not 2**k."""
    choices = [[(u, w) for u in (us - {ZERO_SUBDIST} or us)] for us, w in parts]
    return {_mixed(choice, d) for choice in itertools.product(*choices)}


def _masses(u):
    """The point ``u`` as a dict from generator to ``Fraction`` mass."""
    d, pairs = u
    return {g: Fraction(n, d) for g, n in pairs}


def in_lower_hull(point, gens):
    """Membership of ``point`` in the down-closed convex hull of ``gens``
    together with the all-deadlock subdistribution.

    Exact feasibility of: exists lambda >= 0 with sum(lambda) <= 1 and
    sum(lambda_i * gen_i) >= point coordinate-wise, with the masses as
    ``Fraction`` rows.
    """
    point = _masses(point)
    gens = [_masses(g) for g in gens]
    coords = sorted_gens(set(point) | set().union(*map(set, gens)) if gens else set(point))
    k = len(gens)
    m = len(coords)
    # columns: lambda_1..k, slack per coordinate, slack for mass
    rows = []
    rhs = []
    for ci, x in enumerate(coords):
        row = [g.get(x, Fraction(0)) for g in gens]
        row += [Fraction(-int(j == ci)) for j in range(m)]
        row.append(Fraction(0))
        rows.append(row)
        rhs.append(point.get(x, Fraction(0)))
    rows.append([Fraction(1)] * k + [Fraction(0)] * m + [Fraction(1)])
    rhs.append(Fraction(1))
    return feasible(rows, rhs)


def _redundant(g, others, mass):
    """``in_lower_hull(g, others)``, decided without an LP where possible.

    ``mass`` maps every point to its dict of counts, scaled to one common
    denominator.  Only g's positive coordinates constrain a
    weighting.  If some candidate reaches g on all of them, g is dominated.
    Otherwise let M be the largest mass the candidates put on such a
    coordinate x: the weights sum to at most 1, so M < g[x] leaves g
    outside the hull, and M = g[x] forces every feasible weighting onto the
    candidates that reach M.  Narrowing repeats until it removes nothing;
    the simplex decides only what is left, on the original points.
    """
    need = mass[g].items()
    if any(all(mass[o].get(x, 0) >= m for x, m in need) for o in others):
        return True
    cands = others
    while True:
        narrowed = cands
        for x, m in need:
            top = max((mass[o].get(x, 0) for o in narrowed), default=0)
            if top < m:
                return False
            if top == m:
                narrowed = [o for o in narrowed if mass[o].get(x, 0) == m]
        if len(narrowed) == len(cands):
            return in_lower_hull(g, cands)
        cands = narrowed


def canonical_convex_set(points):
    """Minimal generator set of a down-closed convex set of subdistributions.

    Always contains the all-deadlock subdistribution; every other kept
    generator lies outside the down-closed hull of the rest.

    The points are walked in set order, since no order changes the result.
    Removing a point that lies in the down-closed hull of the others keeps
    the hull, and a point found outside the hull of the others stays
    outside as they shrink, so the walk ends at an irredundant generating
    set.  Two irredundant generating sets of one down-closed convex set are
    equal (unique bases: Bonchi, Sokolova and Vignudelli, CALCO 2021): a
    point g of one lies below a convex combination of the other's points,
    each of those below a convex combination of the first set's, and as g
    is outside the hull of the rest of its set, only g itself can carry
    the whole weight, so g is in the other set too.  Points in lowest terms
    are equal exactly when their masses are, so the set of points is
    canonical too.
    """
    pts = set(points)
    pts.discard(ZERO_SUBDIST)
    scale = math.lcm(*{d for d, _ in pts})
    mass = {p: {x: n * (scale // p[0]) for x, n in p[1]} for p in pts}
    keep = set(pts)
    for g in pts:
        keep.discard(g)
        if not _redundant(g, list(keep), mass):
            keep.add(g)
    keep.add(ZERO_SUBDIST)
    return frozenset(keep)


# ---------------------------------------------------------------------------
# theory backends

def param_family(param):
    """The choice family a parameter belongs to: ``plus`` (None), ``gplus``
    (a guard, or a symbolic one: a tuple tagged ``g...``) or ``pplus`` (a
    probability, or a symbolic one: a tuple tagged ``p...``)."""
    if param is None:
        return "plus"
    if isinstance(param, frozenset):
        return "gplus"
    if isinstance(param, Fraction):
        return "pplus"
    if isinstance(param, tuple) and param[0][:1] in ("g", "p"):
        return param[0][0] + "plus"
    raise TheoryError(f"bad choice parameter {param!r}")


def exact_fraction(value):
    """``Fraction(value)``, refusing a bool, and text with a decimal exponent
    before ``10 ** e`` is built."""
    if isinstance(value, bool):
        raise TypeError(f"probability {value!r} is a bool")
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"probability {value!r} has a decimal exponent")
    return Fraction(value)


_FAMILY_WORDS = {"plus": "unparametrised", "gplus": "guarded", "pplus": "probabilistic"}


class Theory:
    """A branching theory together with its normal-form backend."""

    id: str
    axioms: tuple
    binary_families: frozenset  # subset of {"plus", "gplus", "pplus"}
    atoms: tuple = ()

    # -- normal-form interface -------------------------------------------
    def bottom(self):
        raise NotImplementedError

    def unit(self, g):
        raise NotImplementedError

    def op_apply(self, param, args):
        raise NotImplementedError

    def nf_map(self, nf, f):
        raise NotImplementedError

    def bind(self, nf, f):
        """Each generator ``g`` of ``nf`` replaced by the normal form ``f(g)``,
        flattened into one normal form: the Kleisli extension of ``f``."""
        raise NotImplementedError

    def generators(self, nf):
        raise NotImplementedError

    def term_of_nf(self, nf):
        """The canonical term reading of ``nf``: an expression built from
        ``ZERO``, ``Op`` and its generators, each of which is a term."""
        raise NotImplementedError

    def weight(self, nf, g):
        """How much of ``nf`` is the generator ``g``: a bool (``sl``), a
        count (``cm``), an atom set (``gs``), a ``Fraction`` mass (``ca``),
        or None when no single weight says it (``cs``)."""
        raise NotImplementedError

    def edges(self, nf):
        """The weighted generators of ``nf`` as ``(g, weight)`` pairs, in
        generator order."""
        return [(g, self.weight(nf, g)) for g in sorted_gens(self.generators(nf))]

    # -- shared helpers ---------------------------------------------------
    def check_param(self, param):
        family = param_family(param)
        if family not in self.binary_families:
            raise TheoryError(f"theory {self.id} has no {_FAMILY_WORDS[family]} choice")
        if family == "gplus" and not param <= self.atom_set:
            raise TheoryError(f"guard {sorted(param)} not within declared atoms")
        if family == "pplus" and not 0 <= param.numerator <= param.denominator:
            raise TheoryError(f"probability {param} outside [0, 1]")

    def __repr__(self):
        return f"<theory {self.id}>"

    def __eq__(self, other):
        return isinstance(other, Theory) and self.id == other.id and self.atoms == other.atoms

    def __hash__(self):
        return hash((self.id, self.atoms))


def _sum(terms):
    """``t1 + t2 + ... + tn``, associated to the left; ``0`` when empty."""
    if not terms:
        return ZERO
    t = terms[0]
    for u in terms[1:]:
        t = Op(None, (t, u))
    return t


class Semilattice(Theory):
    id = "sl"
    axioms = SL_AXIOMS
    binary_families = frozenset({"plus"})

    def bottom(self):
        return frozenset()

    def unit(self, g):
        return frozenset({g})

    def op_apply(self, param, args):
        self.check_param(param)
        return args[0] | args[1]

    def nf_map(self, nf, f):
        return frozenset(map(f, nf))

    def bind(self, nf, f):
        return frozenset().union(*map(f, nf))

    def generators(self, nf):
        return set(nf)

    def weight(self, nf, g):
        return g in nf

    def term_of_nf(self, nf):
        return _sum(sorted_gens(nf))


class _WeightedSums(Theory):
    """Counts over one denominator, ``(D, frozenset((g, n)))`` in lowest
    terms: multisets (``cm``, D = 1) and subdistributions (``ca``), whose
    unit, pushforward and Kleisli extension are the same weighted sums, as
    are their choices (``_mixed``).  None of them is validated, as
    ``_mixed`` is not: sums and products of positive counts stay positive,
    and summing or scaling masses by masses keeps a total of at most 1."""

    def bottom(self):
        return ZERO_SUBDIST

    @staticmethod
    def unit(g):
        return 1, frozenset({(g, 1)})

    @staticmethod
    def nf_map(nf, f):
        """The pushforward along ``f`` (``cs`` maps its points with it too):
        the counts of generators with one image are summed, which only
        then can leave a common factor."""
        d, pairs = nf
        out = {}
        for g, n in pairs:
            h = f(g)
            if h in out:
                out[h] += n
            else:
                out[h] = n
        if len(out) < len(pairs):
            return _lowest(d, out)
        return d, frozenset(out.items())

    def bind(self, nf, f):
        d, pairs = nf
        return _mixed([(f(g), n) for g, n in pairs], d)

    def generators(self, nf):
        return {g for g, _ in nf[1]}

    def weight(self, nf, g):
        d, pairs = nf
        return self._weight(dict(pairs).get(g, 0), d)

    def edges(self, nf):
        d, pairs = nf
        key = _pair_key({})
        return [(g, self._weight(n, d)) for g, n in sorted(pairs, key=key)]


class CommutativeMonoid(_WeightedSums):
    id = "cm"
    axioms = CM_AXIOMS
    binary_families = frozenset({"plus"})

    @staticmethod
    def _weight(n, d):
        return n  # a count; d is 1

    def op_apply(self, param, args):
        self.check_param(param)
        return _mixed([(u, 1) for u in args], 1)

    def term_of_nf(self, nf):
        return _sum([g for g, n in sorted(nf[1], key=_pair_key({})) for _ in range(n)])


class GuardedSemilattice(Theory):
    """If-then-else tables over a fixed, ordered atom set.

    A normal form is a tuple aligned with the atom order whose entries are
    either a generator or None (the deadlock point).
    """

    id = "gs"
    axioms = GS_AXIOMS
    binary_families = frozenset({"gplus"})

    def __init__(self, atoms):
        if not atoms:
            raise TheoryError("theory gs requires --atoms")
        atoms = tuple(atoms)
        for atom in atoms:
            if not GUARD_ATOM.fullmatch(atom):
                raise TheoryError(f"bad atom {atom!r}: an atom is an identifier or a number")
        if len(set(atoms)) != len(atoms):
            raise TheoryError("duplicate atoms")
        self.atoms, self.atom_set = atoms, frozenset(atoms)

    def bottom(self):
        return (None,) * len(self.atoms)

    def unit(self, g):
        return (g,) * len(self.atoms)

    def op_apply(self, param, args):
        self.check_param(param)
        l, r = args
        return tuple(
            l[i] if atom in param else r[i] for i, atom in enumerate(self.atoms)
        )

    def nf_map(self, nf, f):
        return tuple(None if e is None else f(e) for e in nf)

    def bind(self, nf, f):
        image = {e: f(e) for e in dict.fromkeys(nf) if e is not None}  # f once per generator
        return tuple(None if e is None else image[e][i] for i, e in enumerate(nf))

    def generators(self, nf):
        return {e for e in nf if e is not None}

    def weight(self, nf, g):
        return frozenset(atom for atom, e in zip(self.atoms, nf) if e == g)

    def term_of_nf(self, nf):
        # group atoms by value, classes ordered by first occurrence; the
        # last class stands alone, each other one guards a choice
        classes = {}
        for atom, value in zip(self.atoms, nf):
            classes.setdefault(value, []).append(atom)
        t = None
        for value, guard in reversed(classes.items()):
            u = ZERO if value is None else value
            t = u if t is None else Op(frozenset(guard), (u, t))
        return t


def _pair_key(keys):
    """The sort key of a (generator, count) pair: the generator's
    ``generator_key``, computed once per generator into the memo ``keys``.
    The generators of one normal form are distinct, so it orders its pairs
    as ``generator_key`` orders the generators."""
    def key(pair):
        g = pair[0]
        k = keys.get(g)
        if k is None:
            k = keys[g] = generator_key(g)
        return k
    return key


def _ca_reading(d, pairs):
    """The ``ca`` term of a subdistribution's (generator, count) pairs over
    the denominator ``d``, in the order given, built from the right: each
    generator ``+[p]`` what follows it, where p is its count over its count
    plus the counts that follow, deadlock included; the last generator
    stands alone when no mass follows."""
    tail = d - sum(n for _, n in pairs)
    t = ZERO
    for g, n in reversed(pairs):
        t = Op(Fraction(n, n + tail), (g, t)) if tail else g
        tail += n
    return t


def _ranked(nf):
    """The points of the ``cs`` normal form ``nf`` in reading order, as
    ``(d, pairs)`` with the pairs sorted by generator.  Each point is sorted
    once: its pairs' keys with their masses, all counted over one
    denominator, are its place among the points (as ``generator_key`` ranks
    frozensets of (generator, mass) pairs)."""
    key = _pair_key({})
    scale = math.lcm(*[d for d, _ in nf])
    ranked = []
    for d, pairs in nf:
        pairs = sorted(pairs, key=key)
        k = scale // d
        ranked.append(([(key(p), k * p[1]) for p in pairs], d, pairs))
    ranked.sort(key=lambda r: r[0])
    return [(d, pairs) for _, d, pairs in ranked]


class ConvexAlgebra(_WeightedSums):
    """Subprobability distributions with exact rational masses, counted
    over one denominator; missing mass is deadlock."""

    id = "ca"
    axioms = CA_AXIOMS
    binary_families = frozenset({"pplus"})
    _weight = Fraction  # the mass n / d

    def op_apply(self, param, args):
        """``l +[a/b] r`` is ``a/b·l + (b−a)/b·r``: counts times a and b − a,
        denominators times b, then one reduction."""
        self.check_param(param)
        a, b = param.numerator, param.denominator
        return _mixed(((args[0], a), (args[1], b - a)), b)

    def term_of_nf(self, nf):
        d, pairs = nf
        return _ca_reading(d, sorted(pairs, key=_pair_key({})))


class ConvexSemilattice(Theory):
    """Finitely generated down-closed convex sets of subdistributions, kept
    as minimal generator sets that always include the all-deadlock point.
    A set is a frozenset of points, each a ``ca`` normal form."""

    id = "cs"
    axioms = CS_AXIOMS
    binary_families = frozenset({"plus", "pplus"})

    def bottom(self):
        return frozenset({ZERO_SUBDIST})

    def unit(self, g):
        return frozenset({ZERO_SUBDIST, _WeightedSums.unit(g)})

    def op_apply(self, param, args):
        """``l + r`` is the union of the two sets' points, and ``l +[p] r``
        the set of their mixtures ``p·a + (1−p)·b`` (``_mixtures``, which
        has the rule for the deadlock point 0), canonicalised.

        When no generator occurs on both sides, the result is canonical as
        it is, and ``canonical_convex_set`` is skipped; 0 is added back.
        Union: a point g ≠ 0 of ``l`` has all its mass on generators of
        ``l``, where the points of ``r`` have none.  A weighting of the
        other points that reaches g still reaches it with the weight on
        ``r`` dropped, so g would lie in the hull of the rest of ``l``,
        which ``l`` being canonical rules out; likewise for ``r``.
        Mixture (for p ∈ {0, 1} the points are those of one side): let
        ``p·a + (1−p)·b`` lie below a weighting λ of the other mixtures,
        and let μ(a') be the weight λ gives the mixtures made from a'.  On
        a's generators this says ``a ≤ Σ μ(a')·a'`` with ``Σ μ ≤ 1``.  If
        a ≠ 0 and μ(a) < 1, the rest of the weight divided by ``1 − μ(a)``
        would put a in the hull of the rest of ``l``.  So μ(a) = 1, and
        likewise for b on b's generators: λ would be all on the mixture of
        a and b, which is not among the others.
        """
        self.check_param(param)
        l, r = args
        apart = self.generators(l).isdisjoint(self.generators(r))
        if param is None:
            return l | r if apart else canonical_convex_set(l | r)
        a, b = param.numerator, param.denominator
        points = _mixtures(((l, a), (r, b - a)), b)
        if not apart:
            return canonical_convex_set(points)
        points.add(ZERO_SUBDIST)
        return frozenset(points)

    def nf_map(self, nf, f):
        """Each point pushed forward along ``f`` (``_WeightedSums.nf_map``),
        canonicalised; ``f`` is called once per generator.

        When ``f`` is one-to-one on the generators, the result is canonical
        as it is, and ``canonical_convex_set`` is skipped: the pushforward
        then only renames the generators, keeping every mass, so it maps
        distinct points to distinct points, and a point lies below a
        weighting of others exactly when its image lies below the same
        weighting of their images."""
        image = {g: f(g) for g in self.generators(nf)}
        points = {_WeightedSums.nf_map(sub, image.__getitem__) for sub in nf}
        if len(set(image.values())) == len(image):
            return frozenset(points)
        return canonical_convex_set(points)

    def bind(self, nf, f):
        image = {g: f(g) for g in self.generators(nf)}
        points = set()
        for d, pairs in nf:
            points |= _mixtures([(image[g], n) for g, n in pairs], d)
        return canonical_convex_set(points)

    def generators(self, nf):
        return {g for _, pairs in nf for g, _ in pairs}

    def weight(self, nf, g):
        return None

    def edges(self, nf):
        # the (generator, mass) pairs in reading order, each listed once
        return list(dict.fromkeys((g, Fraction(n, d)) for d, ps in _ranked(nf) for g, n in ps))

    def term_of_nf(self, nf):
        return _sum([_ca_reading(d, pairs) for d, pairs in _ranked(nf)])


# ---------------------------------------------------------------------------
# registry and classifier

THEORIES = {
    cls.id: cls
    for cls in (Semilattice, CommutativeMonoid, GuardedSemilattice,
                ConvexAlgebra, ConvexSemilattice)
}
THEORY_NAMES = tuple(THEORIES)


def make_theory(name, atoms=None):
    name = str(name).lower()
    cls = THEORIES.get(name)
    if cls is None:
        raise TheoryError(f"unknown theory {name!r}")
    return cls(atoms) if cls is GuardedSemilattice else cls()


def theory_from_json(d):
    """The theory a coalgebra or proof JSON object names, with its
    ``atoms`` field (optional except for ``gs``) checked to be a list of
    strings."""
    atoms = d.get("atoms")
    if atoms is not None and not (
        isinstance(atoms, list) and all(isinstance(a, str) for a in atoms)
    ):
        raise TheoryError("'atoms' must be a list of strings")
    if not atoms and str(d["theory"]).lower() == "gs":
        raise TheoryError("theory gs needs a nonempty 'atoms' field")
    return make_theory(d["theory"], atoms)


MAX_JSON_DEPTH = 1000


def _containers(values):
    return [v for v in values if isinstance(v, (dict, list))]


def _json_int(text):
    """A JSON integer; one too long for ``int`` is ``inf`` or ``-inf``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


@functools.cache
def _decoder():
    """One decoder for every file, made on first use, so that only the
    commands that read JSON import ``json``: ``json.loads`` with a keyword
    builds a new decoder per call."""
    import json
    return json.JSONDecoder(parse_int=_json_int)


def read_json(text, what):
    """Decode a coalgebra or proof file.  Objects and arrays nested more
    than `MAX_JSON_DEPTH` deep raise `TheoryError`, with the same message
    on every Python version: where the decoder counts its levels against
    the recursion limit (3.10, 3.11) it may give up first, elsewhere a
    level-by-level walk finds the depth.  An integer too long for ``int``
    reads as an infinite float, which no field accepts.  A leading
    byte-order mark is refused with ``json.loads``'s message, which the
    decoder itself does not give."""
    if text.startswith("\ufeff"):
        from json import JSONDecodeError
        raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        data = _decoder().decode(text)
    except RecursionError:
        raise TheoryError(f"{what} JSON is nested too deeply") from None
    if text.count("[") + text.count("{") <= MAX_JSON_DEPTH:
        return data  # too few brackets to nest any deeper
    level, depth = _containers([data]), 0
    while level:
        depth += 1
        if depth > MAX_JSON_DEPTH:
            raise TheoryError(f"{what} JSON is nested too deeply")
        level = _containers(v for c in level for v in (c.values() if isinstance(c, dict) else c))
    return data


def _skew_shape(lhs, rhs):
    """Return the operation-family pair covered by an axiom of the shape
    sigma1(x, tau1(y, z)) = tau2(sigma2(x, y), z), if it has it."""
    if not (isinstance(lhs, Op) and isinstance(rhs, Op)):
        return None
    (x, inner_l), (inner_r, z) = lhs.args, rhs.args
    if not (isinstance(inner_l, Op) and isinstance(inner_r, Op)):
        return None
    left, right = (x, *inner_l.args), (*inner_r.args, z)
    if not all(isinstance(v, Var) for v in left):
        return None
    if len(set(left)) != 3 or right != left:
        return None
    return (param_family(lhs.param), param_family(inner_l.param))


def is_skew_associative(theory):
    """Syntactic scan: every nested pair of binary choices must re-associate
    via some axiom of the theory."""
    covered = set()
    for ax in theory.axioms:
        for l, r in ((ax.lhs, ax.rhs), (ax.rhs, ax.lhs)):
            shape = _skew_shape(l, r)
            if shape is not None:
                covered.add(shape)
    fams = theory.binary_families
    return all((f1, f2) in covered for f1 in fams for f2 in fams)

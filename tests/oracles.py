"""Independent oracles used only by the test suite.

Each reimplements a fact by a different algorithm than the package:
convex membership by basic-solution enumeration with Gaussian elimination,
convex-set canonicalisation by one simplex per candidate point, walked
in generator order,
the ``ca`` / ``cs`` pushforward, choices and flattening in ``Fraction``
masses with every mass total checked and every ``cs`` result
canonicalised, the ``ca`` and ``cs`` backends with ``Fraction`` masses
that the integer-count backends replaced, the ``cm`` backend
by ``collections.Counter`` over the expanded multiset, ``Theory.bind`` as
a pushforward followed by a flattening of the normal form of normal forms,
the coalgebra reader by building each structure term and stepping it,
the ``ca`` / ``cs`` term readings and the ``cs`` edges by sorting with
``sorted_gens`` and one fraction division per generator,
generator sort keys by a chain of ``isinstance`` tests,
the syntactic U(e) over-approximation of the reachable state set,
the one-step map by one walk per term that unfolds every binder,
reachable coalgebras by stepping every state with no memo shared between
states, the union of two such coalgebras with every state named,
bisimilarity by greatest-fixpoint refinement of a relation and by Moore
refinement that recomputes every signature in every round, guardedness by
plain recursion, equation systems by recursive elimination that
back-substitutes every unknown, alpha-equivalence by a walk with binder
environments, the printers by plain recursion with no per-node text
cache, the tokenizer by one regex match per token, both parsers by
recursive descent over a token cursor, substitution by a recursive walk
of the tree, guarded substitution by a walk with a binder-renaming rule
of its own, axiom instances by instantiating a schema's right side, and
the star fragment's translation, direct one-step map and derivatives by
plain recursion.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import procalc as pc
from procalc import semantics
from masses import count_form, count_point, fraction_point
from procalc.syntax import (_IDENT, _NUM, ZERO, NameUse, Op, ParseError, all_names, fresh_name,
                            post_order, render_param)
from procalc.theory import (CA_AXIOMS, CS_AXIOMS, ZERO_SUBDIST, Theory, TheoryError,
                            canonical_convex_set, eval_param, feasible, generator_key,
                            in_lower_hull, sorted_gens, theory_from_json)


class Gen(pc.Exp):
    """A generator of any kind (a string, a tuple, a normal form) standing
    as a term, for the theory-law tests, whose normal forms are over such
    generators: it carries its own one-step rule, as a star node does, to
    the generator's unit, and sorts as its generator does.  It is keyed on
    the generator's type as well, so ``1``, ``True`` and ``Fraction(1)``
    are three nodes."""

    __slots__ = _fields = ("gen",)
    _typed_param = True
    _free = frozenset()

    def sort_key(self):
        return generator_key(self.gen)

    def _render(self):
        return repr(self.gen)

    def _step(self, theory):
        return theory.unit(self.gen)


def gen_term(g):
    """``g`` itself when it is a term (an output, a step or termination),
    else ``Gen(g)``: ``nf_map(nf, gen_term)`` is a normal form over terms,
    whatever ``nf``'s generators, so ``term_of_nf`` reads it."""
    return g if isinstance(g, pc.Exp) else Gen(g)


def step_generator_key(g):
    """The sort key that a step ``a.t`` had when it was a node of its own
    kind: its action, then its state ``t`` keyed by its printed text, as
    every term is.  Oracle for ``generator_key`` on prefix generators."""
    return ("k", "act", g.action, ("k", "exp", pc.unparse(g.body)))


def _gauss_solve(rows, rhs):
    """Solve a square rational system exactly; None if singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def convex_member_bruteforce(point, gens):
    """Membership of a subdistribution in the down-closed convex hull of
    ``gens`` plus the all-deadlock point, by enumerating basic feasible
    solutions of the equality system with explicit slacks."""
    point = dict(fraction_point(point))
    gens = [dict(fraction_point(g)) for g in gens]
    coords = sorted_gens(set(point).union(*[set(g) for g in gens]) if gens else set(point))
    k, m = len(gens), len(coords)
    # columns: lambda_1..k, one slack per coordinate, one mass slack
    cols = []
    for j in range(k):
        cols.append([gens[j].get(x, Fraction(0)) for x in coords] + [Fraction(1)])
    for ci in range(m):
        cols.append([Fraction(-int(i == ci)) for i in range(m)] + [Fraction(0)])
    cols.append([Fraction(0)] * m + [Fraction(1)])
    rhs = [point.get(x, Fraction(0)) for x in coords] + [Fraction(1)]
    nrows = m + 1
    for basis in itertools.combinations(range(len(cols)), nrows):
        rows = [[cols[j][i] for j in basis] for i in range(nrows)]
        sol = _gauss_solve(rows, rhs)
        if sol is not None and all(v >= 0 for v in sol):
            return True
    return False


def canonical_convex_set_lp(points):
    """Minimal generator set of a down-closed convex set of subdistributions,
    asking the simplex about every candidate point; oracle for the filtered
    ``canonical_convex_set``."""
    pts = set(points)
    pts.add(ZERO_SUBDIST)
    keep = sorted_gens(pts)
    for g in list(keep):
        if g == ZERO_SUBDIST:
            continue
        others = [o for o in keep if o != g and o != ZERO_SUBDIST]
        if in_lower_hull(g, others):
            keep.remove(g)
    return frozenset(keep)


def generator_key_by_isinstance(g):
    """The sort key of a generator by a chain of ``isinstance`` tests; oracle
    for the type-dispatching ``generator_key``."""
    if g is None:
        return ("0",)
    if isinstance(g, pc.Prefix):
        return step_generator_key(g)
    if hasattr(g, "sort_key"):
        return ("k",) + tuple(g.sort_key())
    if isinstance(g, bool):
        return ("b", g)
    if isinstance(g, int):
        return ("i", g)
    if isinstance(g, Fraction):
        return ("q", g)
    if isinstance(g, str):
        return ("s", g)
    if isinstance(g, tuple):
        return ("t", tuple(generator_key_by_isinstance(x) for x in g))
    if isinstance(g, frozenset):
        return ("f", tuple(sorted(generator_key_by_isinstance(x) for x in g)))
    return ("r", repr(g))


def _subdist(d):
    """The subdistribution of the mass dict ``d``, with its masses checked
    for sign and total and its zero masses dropped."""
    total = Fraction(0)
    for g, mass in d.items():
        if mass < 0:
            raise TheoryError("negative mass")
        total += mass
    if total > 1:
        raise TheoryError("total mass exceeds 1")
    return frozenset((g, m) for g, m in d.items() if m != 0)


def _merge_scaled(parts):
    """Combine [(weight, subdist)] into one mass dict."""
    out = {}
    for w, sub in parts:
        if w == 0:
            continue
        for g, m in sub:
            out[g] = out.get(g, Fraction(0)) + w * m
    return {g: m for g, m in out.items() if m != 0}


def _mix_validating(parts):
    """The point of the (weight, package point) pairs ``parts``, mixed in
    ``Fraction`` form and checked."""
    return count_point(_subdist(_merge_scaled([(w, fraction_point(u)) for w, u in parts])))


def ca_op_apply_validating(param, args):
    """``ConvexAlgebra.op_apply`` with the merged masses checked; oracle
    for the trusted combination."""
    return _mix_validating([(param, args[0]), (1 - param, args[1])])


def ca_nf_flatten_validating(nf):
    """``ConvexAlgebra.nf_flatten`` with the merged masses checked."""
    return _mix_validating([(m, inner) for inner, m in fraction_point(nf)])


def cs_op_apply_validating(param, args):
    """``ConvexSemilattice.op_apply`` that canonicalises every result: the
    union of both sides for ``param`` None, else every pairwise combination,
    deadlock included, checked and walked in generator order (the
    canonicalisation has its own oracle, ``canonical_convex_set_lp``)."""
    l, r = args
    if param is None:
        return canonical_convex_set(l | r)
    return canonical_convex_set({
        _mix_validating([(param, a), (1 - param, b)])
        for a in sorted_gens(l) for b in sorted_gens(r)
    })


def cs_nf_flatten_validating(nf):
    """``ConvexSemilattice.nf_flatten`` with every combination checked and
    walked in generator order."""
    points = set()
    for theta in map(fraction_point, nf):
        inner_sets = sorted_gens([u for u, _ in theta])
        masses = dict(theta)
        for choice in itertools.product(*[sorted_gens(u) for u in inner_sets]):
            points.add(_mix_validating(
                [(masses[u], sub) for u, sub in zip(inner_sets, choice)]))
    return canonical_convex_set(points)


def nf_flatten(theory, nf):
    """Monad multiplication: the normal form of normal forms ``nf``
    flattened into one.  ``nf_flatten(theory, theory.nf_map(nf, f))`` is
    the reference for ``theory.bind(nf, f)``; ``ca`` and ``cs`` mix in
    ``Fraction`` form, and ``cs`` takes every product of points, deadlock
    included, and canonicalises it."""
    if theory.id == "sl":
        out = frozenset()
        for inner in nf:
            out |= inner
        return out
    if theory.id == "cm":
        out = {}
        for inner, n in nf[1]:
            for g, k in inner[1]:
                out[g] = out.get(g, 0) + n * k
        return 1, frozenset(out.items())
    if theory.id == "gs":
        return tuple(None if inner is None else inner[i] for i, inner in enumerate(nf))
    if theory.id == "ca":
        return count_point(_f_mixed([_f_scaled(m, fraction_point(inner))
                                     for inner, m in fraction_point(nf)]))
    # each point of each inner set is scaled once, by its mass in theta
    points = set()
    for theta in map(fraction_point, nf):
        choices = [[_f_scaled(m, fraction_point(sub)) for sub in u] for u, m in theta]
        points.update(map(_f_mixed, itertools.product(*choices)))
    return count_form(theory, fraction_canonical_convex_set(points))


def ca_nf_map_validating(nf, f):
    """The pushforward of a subdistribution along ``f``, with its masses
    checked for sign and total; oracle for the trusted
    ``ConvexAlgebra.nf_map``."""
    out = {}
    for g, m in fraction_point(nf):
        h = f(g)
        out[h] = out.get(h, Fraction(0)) + m
    return count_point(_subdist(out))


def cs_nf_map_validating(nf, f):
    """``ConvexSemilattice.nf_map`` on top of the validating ``ca``
    pushforward, canonicalising every image."""
    return canonical_convex_set({ca_nf_map_validating(sub, f) for sub in nf})


def _multiset(counter):
    """The ``cm`` normal form of a ``Counter``: its positive counts."""
    return 1, frozenset((g, n) for g, n in counter.items() if n > 0)


def cm_counter(nf):
    """The multiset of the ``cm`` normal form ``nf`` as a ``Counter``."""
    return Counter(dict(nf[1]))


def cm_op_apply_counter(args):
    """The sum of the multisets ``args``, any number of them; oracle for
    ``CommutativeMonoid.op_apply``."""
    return _multiset(sum(map(cm_counter, args), Counter()))


def cm_nf_map_counter(nf, f):
    """``f`` applied to every element of the expanded multiset; oracle for
    the shared pushforward on ``cm``."""
    return _multiset(Counter(map(f, cm_counter(nf).elements())))


def cm_bind_counter(nf, f):
    """The sum of ``f(g)`` over every element ``g`` of the expanded
    multiset; oracle for the shared ``bind`` on ``cm``."""
    return _multiset(sum((cm_counter(f(g)) for g in cm_counter(nf).elements()), Counter()))


def _ca_reading_sorted(sub):
    items = sorted_gens(sub)
    tail = 1 - sum(m for _, m in items)
    t = ZERO
    for g, mass in reversed(items):
        t = Op(mass / (mass + tail), (g, t)) if tail else g
        tail += mass
    return t


def ca_term_of_nf_sorted(nf):
    """The ``ca`` reading of a subdistribution, sorted by ``sorted_gens``
    in ``Fraction`` form with one ``Fraction`` division per generator;
    oracle for ``ConvexAlgebra.term_of_nf``."""
    return _ca_reading_sorted(fraction_point(nf))


def cs_term_of_nf_sorted(nf):
    """The ``cs`` reading: the ``ca`` readings of the points, ranked by
    ``sorted_gens`` in ``Fraction`` form, summed from the left; oracle for
    ``ConvexSemilattice.term_of_nf``."""
    readings = [_ca_reading_sorted(sub) for sub in sorted_gens(map(fraction_point, nf))]
    t = readings[0] if readings else ZERO
    for u in readings[1:]:
        t = Op(None, (t, u))
    return t


def cs_edges_sorted(nf):
    """The ``cs`` edges: the points as frozensets of (generator, ``Fraction``
    mass) pairs ranked by ``sorted_gens``, each one's pairs sorted by
    ``sorted_gens``, every pair listed once; oracle for
    ``ConvexSemilattice.edges``, which reads the ranking of its term reading."""
    points = sorted_gens(map(fraction_point, nf))
    return list(dict.fromkeys(p for sub in points for p in sorted_gens(sub)))


# ---------------------------------------------------------------------------
# the Fraction-mass ca and cs backends that the integer backends replaced,
# kept as the reference of the differential test.  Their normal forms are
# the Fraction forms of tests/masses.py: a subdistribution is a frozenset of
# (generator, positive mass) pairs.

FRACTION_ZERO = frozenset()
_ONE = Fraction(1)


def _f_scaled(w, sub):
    """The masses of the subdistribution ``sub`` times the weight ``w``."""
    return {g: w * m for g, m in sub} if w else {}


def _f_mixed(parts):
    """The sum of the scaled subdistributions ``parts``, as a subdistribution."""
    out = {}
    for part in parts:
        for g, m in part.items():
            if g in out:
                out[g] += m
            else:
                out[g] = m
    return frozenset(out.items())


def _f_mixtures(parts):
    """The mixtures of one point from each (set, weight) pair in ``parts``,
    taking the deadlock point from a set only when it is the set's one
    point."""
    choices = [[_f_scaled(w, u) for u in (us - {FRACTION_ZERO} or us)] for us, w in parts]
    return set(map(_f_mixed, itertools.product(*choices)))


def fraction_in_lower_hull(point, gens):
    """Membership of the subdistribution ``point`` in the down-closed convex
    hull of ``gens`` and the deadlock point, by the package's simplex on
    ``Fraction`` rows."""
    point = dict(point)
    gens = [dict(g) for g in gens]
    coords = sorted_gens(set(point) | set().union(*map(set, gens)) if gens else set(point))
    k = len(gens)
    m = len(coords)
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


def _f_redundant(g, others, mass):
    """``fraction_in_lower_hull(g, others)``, decided by dominance and
    narrowing where possible; ``mass`` holds every point's masses scaled
    to integers by one common factor."""
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
            return fraction_in_lower_hull(g, cands)
        cands = narrowed


def fraction_canonical_convex_set(points):
    """Minimal generator set, deadlock included, of the down-closed convex
    set of the ``Fraction``-form subdistributions ``points``."""
    pts = set(points)
    pts.discard(FRACTION_ZERO)
    scale = math.lcm(*{m.denominator for p in pts for _, m in p})
    mass = {p: {x: m.numerator * (scale // m.denominator) for x, m in p if m} for p in pts}
    keep = set(pts)
    for g in pts:
        keep.discard(g)
        if not _f_redundant(g, list(keep), mass):
            keep.add(g)
    keep.add(FRACTION_ZERO)
    return frozenset(keep)


def _f_pair_key(keys):
    def key(pair):
        g = pair[0]
        k = keys.get(g)
        if k is None:
            k = keys[g] = generator_key(g)
        return k, pair[1]
    return key


def _f_ca_reading(pairs):
    scale = math.lcm(*[m.denominator for _, m in pairs])
    counts = [m.numerator * (scale // m.denominator) for _, m in pairs]
    tail = scale - sum(counts)
    t = ZERO
    for (g, _), n in zip(reversed(pairs), reversed(counts)):
        t = Op(Fraction(n, n + tail), (g, t)) if tail else g
        tail += n
    return t


class FractionConvexAlgebra(Theory):
    """Subprobability distributions with ``Fraction`` masses."""

    id = "ca"
    axioms = CA_AXIOMS
    binary_families = frozenset({"pplus"})

    def bottom(self):
        return FRACTION_ZERO

    def unit(self, g):
        return frozenset({(g, _ONE)})

    def op_apply(self, param, args):
        self.check_param(param)
        return _f_mixed((_f_scaled(param, args[0]), _f_scaled(1 - param, args[1])))

    @staticmethod
    def nf_map(nf, f):
        out = {}
        for g, w in nf:
            h = f(g)
            if h in out:
                out[h] += w
            else:
                out[h] = w
        return frozenset(out.items())

    def bind(self, nf, f):
        out = {}
        for g, w in nf:
            for h, k in f(g):
                if h in out:
                    out[h] += w * k
                else:
                    out[h] = w * k
        return frozenset(out.items())

    def generators(self, nf):
        return {g for g, _ in nf}

    def weight(self, nf, g):
        return dict(nf).get(g, Fraction(0))

    def term_of_nf(self, nf):
        return _f_ca_reading(sorted(nf, key=_f_pair_key({})))


class FractionConvexSemilattice(Theory):
    """Down-closed convex sets of ``Fraction``-form subdistributions, kept
    as minimal generator sets with the deadlock point."""

    id = "cs"
    axioms = CS_AXIOMS
    binary_families = frozenset({"plus", "pplus"})

    def bottom(self):
        return frozenset({FRACTION_ZERO})

    def unit(self, g):
        return frozenset({FRACTION_ZERO, frozenset({(g, _ONE)})})

    def op_apply(self, param, args):
        self.check_param(param)
        l, r = args
        apart = self.generators(l).isdisjoint(self.generators(r))
        if param is None:
            return l | r if apart else fraction_canonical_convex_set(l | r)
        points = _f_mixtures(((l, param), (r, 1 - param)))
        if not apart:
            return fraction_canonical_convex_set(points)
        points.add(FRACTION_ZERO)
        return frozenset(points)

    def nf_map(self, nf, f):
        image = {g: f(g) for g in self.generators(nf)}
        points = {FractionConvexAlgebra.nf_map(sub, image.__getitem__) for sub in nf}
        if len(set(image.values())) == len(image):
            return frozenset(points)
        return fraction_canonical_convex_set(points)

    def bind(self, nf, f):
        image = {g: f(g) for g in self.generators(nf)}
        points = set()
        for theta in nf:
            points |= _f_mixtures([(image[g], m) for g, m in theta])
        return fraction_canonical_convex_set(points)

    def generators(self, nf):
        return {g for sub in nf for g, _ in sub}

    def weight(self, nf, g):
        return None

    def edges(self, nf):
        return list(dict.fromkeys(p for sub in sorted_gens(nf) for p in sorted_gens(sub)))

    def term_of_nf(self, nf):
        key = _f_pair_key({})
        ranked = []
        for sub in nf:
            pairs = sorted(sub, key=key)
            ranked.append((tuple(map(key, pairs)), pairs))
        ranked.sort(key=lambda r: r[0])
        readings = [_f_ca_reading(pairs) for _, pairs in ranked]
        t = readings[0] if readings else ZERO
        for u in readings[1:]:
            t = Op(None, (t, u))
        return t


def instantiate_schema(schema, menv, penv, theory):
    """An axiom side with its metavariables and parameter symbols replaced
    by ``menv`` and ``penv``, each parameter checked by the theory.  The
    proof checker matches both sides of a schema instead."""
    if isinstance(schema, pc.Var):
        return menv[schema.name]
    if isinstance(schema, pc.Zero):
        return schema
    param = None
    if schema.param is not None:
        param = eval_param(schema.param, penv, theory.atoms)
        theory.check_param(param)
    return Op(param, tuple(instantiate_schema(s, menv, penv, theory) for s in schema.args))


def axiom_side_ok(ax, env):
    """An axiom's side condition under the parameter assignment ``env``."""
    if ax.side is None:
        return True
    if ax.side == "pq<1":
        return env["p"] * env["q"] != 1
    raise TheoryError(f"unknown side condition {ax.side!r}")


def u_set(e):
    """Syntactic over-approximation of the reachable expressions."""
    if isinstance(e, (pc.Var, pc.Zero)):
        return {e}
    if isinstance(e, pc.Prefix):
        return {e} | u_set(e.body)
    if isinstance(e, pc.Op):
        out = {e}
        for a in e.args:
            out |= u_set(a)
        return out
    if isinstance(e, pc.Mu):
        return {e} | {
            pc.guarded_subst_exp(f, e, e.var) for f in u_set(e.body)
        }
    raise TypeError(e)


def reachable_unmemoised(e, theory, stepper=pc.step, cap=None, name="s"):
    """Breadth-first reachable coalgebra that steps every state afresh,
    sharing no memo between states, and pushes every normal form forward;
    oracle for the memoised ``reachable``.  The states are ``name`` followed by 0, 1, ...;
    past ``cap`` states it raises ``StateCapExceeded`` as ``reachable`` does.
    No id is renamed, not even one that is also an output or an action."""
    index = {e: 0}
    order = [e]
    raw = []
    for x in order:
        nf = stepper(x, theory)
        raw.append(nf)
        for g in sorted_gens(theory.generators(nf)):
            if isinstance(g, pc.Prefix) and g.body not in index:
                if cap is not None and len(order) >= cap:
                    raise pc.StateCapExceeded(f"more than {cap} reachable states")
                index[g.body] = len(order)
                order.append(g.body)

    def rename(t):
        if isinstance(t, pc.Prefix):
            return pc.Prefix(t.action, pc.Var(f"{name}{index[t.body]}"))
        return t

    states = tuple(f"{name}{j}" for j in range(len(order)))
    return coalgebra(theory, states, {s: theory.nf_map(nf, rename) for s, nf in zip(states, raw)})


def coalgebra(theory, states, structure):
    """The coalgebra whose states are ``states`` and whose normal forms
    are ``structure``, a dict from each state: the equation system of their
    term readings, its ids never renamed."""
    return pc.EqSystem(theory, tuple(states),
                       tuple(theory.term_of_nf(structure[s]) for s in states))


def normal_forms(c):
    """Each state's normal form, its equation stepped."""
    return {s: pc.step(e, c.theory) for s, e in zip(c.variables, c.exprs)}


def reachable_union(e1, e2, theory, cap=10000, stepper=pc.step):
    """``disjoint_union(reachable(e1), reachable(e2))``, with states
    ``as0``, ``as1``, ..., ``bs0``, ``bs1``, ..., each named once, built
    from two ``reachable_unmemoised`` coalgebras; with
    ``check_states(..., "as0", "bs0")``, the oracle for ``equivalent``,
    which refines the explored terms without naming them and never pushes
    a prefix state forward."""
    c1, c2 = (reachable_unmemoised(e, theory, stepper, cap, name)
              for e, name in ((e1, "as"), (e2, "bs")))
    return pc.EqSystem(theory, c1.variables + c2.variables, c1.exprs + c2.exprs)


def step_walk(e, theory, memo=None):
    """The one-step map as one ``post_order`` walk over every choice and
    recursion node under ``e`` that ``memo`` lacks, each ``mu`` unfolded by
    ``gsubst_bm`` whether or not its variable occurs; oracle for ``step``,
    which evaluates a node with stepped children at once and steps a
    vacuous ``mu`` as its body."""
    if memo is None:
        memo = {}

    def pending(n):
        return isinstance(n, (pc.Op, pc.Mu)) and n not in memo

    for n in post_order((e,), pending) if pending(e) else ():
        if isinstance(n, pc.Op):
            memo[n] = theory.op_apply(n.param, [semantics._stepped(a, theory, memo)
                                                for a in n.args])
        else:
            memo[n] = pc.gsubst_bm(semantics._stepped(n.body, theory, memo), n, n.var, theory)
    return semantics._stepped(e, theory, memo)


def lstep_walk(s, theory, memo=None):
    """The direct one-step map of a star expression as one ``post_order``
    walk over every node under ``s`` that ``memo`` lacks, ``0`` included,
    with a rule per node type; oracle for ``step``, which evaluates a node
    with stepped children at once and reads each star node's rule from its
    class."""
    if memo is None:
        memo = {}

    def then(nf, after, on_tick):
        def leaf(t):
            if isinstance(t, pc.Tick):
                return on_tick
            return theory.unit(pc.Prefix(t.action, pc.SSeq(t.body, after)))

        return theory.bind(nf, leaf)

    for n in post_order((s,), lambda n: n not in memo):
        if n is ZERO:
            memo[n] = theory.bottom()
        elif isinstance(n, pc.SOne):
            memo[n] = theory.unit(pc.TICK)
        elif isinstance(n, pc.SAct):
            memo[n] = theory.unit(pc.Prefix(n.action, pc.SONE))
        elif isinstance(n, Op):
            memo[n] = theory.op_apply(n.param, [memo[a] for a in n.args])
        elif isinstance(n, pc.SSeq):
            memo[n] = then(memo[n.left], n.right, memo[n.right])
        elif isinstance(n, pc.SStar):
            looped = then(memo[n.body], n, theory.bottom())
            memo[n] = theory.op_apply(n.param, [looped, theory.unit(pc.TICK)])
        else:
            raise TypeError(f"not a star expression: {n!r}")
    return memo[s]


def naive_bisim_relation(c):
    """Greatest fixpoint of relation refinement; oracle for the partition
    refiner."""
    states, nfs = c.variables, normal_forms(c)
    rel = {(x, y) for x in states for y in states}

    def sig(s):
        cls = {t: frozenset(u for u in states if (t, u) in rel) for t in states}

        def f(g):
            return (g.action, cls[g.body.name]) if isinstance(g, pc.Prefix) else g

        return c.theory.nf_map(nfs[s], f)

    while True:
        sigs = {s: sig(s) for s in states}
        new = {(x, y) for (x, y) in rel if sigs[x] == sigs[y]}
        if new == rel:
            return rel
        rel = new


def _moore_signature(theory, nf, block):
    def f(t):
        return (t.action, block[t.body.name]) if isinstance(t, pc.Prefix) else t

    return theory.nf_map(nf, f)


def _signature_term(theory, sig):
    """The reading of a signature, each pair ``(a, b)`` as the prefix
    ``a.b`` on the ``Var`` named by the block id ``b``, an int, which sorts
    numerically."""
    return theory.term_of_nf(
        theory.nf_map(sig, lambda g: pc.Prefix(g[0], pc.Var(g[1])) if type(g) is tuple else g))


def moore_partition(c, history=False):
    """Coarsest stable partition by Moore refinement, every state's
    signature rebuilt in every round; oracle for ``bisim_partition``.
    Returns dict state -> block id (dense ints, numbered by first occurrence
    in state order), and with ``history`` also the partition of every round."""
    nfs = normal_forms(c)
    block = {s: 0 for s in c.variables}
    trace = [dict(block)]
    while True:
        sigs = {s: _moore_signature(c.theory, nf, block) for s, nf in nfs.items()}
        fresh = {}
        new = {}
        for s in c.variables:
            key = (block[s], sigs[s])
            if key not in fresh:
                fresh[key] = len(fresh)
            new[s] = fresh[key]
        if new == block:
            return (block, trace) if history else block
        block = new
        trace.append(dict(block))


def moore_check_states(c, s1, s2):
    """Bisimilarity of two states with a certificate, from the whole Moore
    trace; oracle for ``check_states``."""
    block, trace = moore_partition(c, history=True)
    if block[s1] == block[s2]:
        classes = {}
        for s in c.variables:
            classes.setdefault(block[s], []).append(s)
        detail = "; ".join(
            "{" + " ".join(classes[b]) + "}" for b in sorted(classes)
        )
        return pc.Certificate(True, len(trace) - 1, f"stable partition: {detail}")
    split = next(i for i, t in enumerate(trace) if t[s1] != t[s2])
    prev = trace[split - 1]
    nfs = normal_forms(c)
    sig1 = _signature_term(c.theory, _moore_signature(c.theory, nfs[s1], prev))
    sig2 = _signature_term(c.theory, _moore_signature(c.theory, nfs[s2], prev))
    detail = (
        f"split at refinement round {split}: "
        f"{s1} has signature {pc.render_sterm(sig1)}, "
        f"{s2} has signature {pc.render_sterm(sig2)}"
    )
    return pc.Certificate(False, split, detail)


def is_guarded_recursive(v, e):
    """Every free occurrence of v in e sits under an action prefix, by plain
    recursion; oracle for ``syntax.unguarded_vars``."""
    if isinstance(e, pc.Var):
        return e.name != v
    if isinstance(e, (pc.Zero, pc.Prefix)):
        return True
    if isinstance(e, pc.Mu):
        return True if e.var == v else is_guarded_recursive(v, e.body)
    if isinstance(e, pc.Op):
        return all(is_guarded_recursive(v, a) for a in e.args)
    raise TypeError(f"not an expression: {e!r}")


def solve_eager(system, order=None):
    """Milner elimination by recursion, back-substituting every unknown:
    the last unknown in ``order`` (default: last to first) is closed with a
    mu-binder, substituted away, the smaller system solved, and its
    solution substituted into the closed equation.  Oracle for
    ``solver.solve``; it checks neither guardedness nor the order."""
    if order is None:
        order = tuple(reversed(range(len(system.variables))))
    return _solve_eager(list(zip(system.variables, system.exprs)), list(order))


def _solve_eager(eqs, order):
    if len(eqs) == 1:
        x, e = eqs[0]
        return {x: pc.Mu(x, e)}
    j = order[0]
    x_n, e_n = eqs[j]
    f_n = pc.Mu(x_n, e_n)
    rest = [
        (x, pc.substitute(e, {x_n: f_n})) for i, (x, e) in enumerate(eqs) if i != j
    ]
    shifted = [i if i < j else i - 1 for i in order[1:]]
    phi = _solve_eager(rest, shifted)
    g_n = pc.substitute(f_n, phi)
    return {**phi, x_n: g_n}


def alpha_eq(e, f):
    """Equality up to renaming of bound variables; the test suite's check
    that substitution renamed a binder correctly."""
    return _alpha(e, f, {}, {}, [0])


def _alpha(e, f, env_e, env_f, ctr):
    if type(e) is not type(f):
        return False
    if isinstance(e, pc.Var):
        return env_e.get(e.name, e.name) == env_f.get(f.name, f.name)
    if isinstance(e, pc.Zero):
        return True
    if isinstance(e, pc.Prefix):
        return e.action == f.action and _alpha(e.body, f.body, env_e, env_f, ctr)
    if isinstance(e, pc.Op):
        return e.param == f.param and all(
            _alpha(a, b, env_e, env_f, ctr) for a, b in zip(e.args, f.args)
        )
    if isinstance(e, pc.Mu):
        mark = ctr[0]
        ctr[0] += 1
        return _alpha(
            e.body, f.body, {**env_e, e.var: mark}, {**env_f, f.var: mark}, ctr
        )
    raise TypeError(f"not an expression: {e!r}")


_SUM, _ITEM = 0, 1


def unparse_uncached(e, level=_SUM):
    """Surface text of a process term, recomputed from scratch."""
    if isinstance(e, pc.Zero):
        return "0"
    if isinstance(e, pc.Var):
        return e.name
    if isinstance(e, pc.Prefix):
        return f"{e.action}.{unparse_uncached(e.body, _ITEM)}"
    if isinstance(e, pc.Mu):
        s = f"mu {e.var}. {unparse_uncached(e.body, _SUM)}"
        return f"({s})" if level > _SUM else s
    if isinstance(e, pc.Op):
        # a mu on the left of a sum must be bracketed: it binds rightward
        l = unparse_uncached(e.args[0], _ITEM if isinstance(e.args[0], pc.Mu) else _SUM)
        r = unparse_uncached(e.args[1], _ITEM)
        s = f"{l} +{render_param(e.param)} {r}"
        return f"({s})" if level > _SUM else s
    raise TypeError(e)


_CHOICE, _SEQ, _POST = 0, 1, 2


def unparse_sexp_uncached(e, level=_CHOICE):
    """Surface text of a star expression, recomputed from scratch."""
    if e is ZERO:
        return "0"
    if isinstance(e, pc.SOne):
        return "1"
    if isinstance(e, pc.SAct):
        return e.action
    if isinstance(e, Op):
        s = (f"{unparse_sexp_uncached(e.args[0], _CHOICE)} +{render_param(e.param)} "
             f"{unparse_sexp_uncached(e.args[1], _SEQ)}")
        return f"({s})" if level > _CHOICE else s
    if isinstance(e, pc.SSeq):
        s = f"{unparse_sexp_uncached(e.left, _SEQ)} ; {unparse_sexp_uncached(e.right, _POST)}"
        return f"({s})" if level > _SEQ else s
    if isinstance(e, pc.SStar):
        suffix = "^*" if e.param is None else f"^{render_param(e.param)}"
        return f"{unparse_sexp_uncached(e.body, _POST)}{suffix}"
    raise TypeError(e)


_GROUPED_TOKEN = re.compile(rf"\s*(?:({_IDENT}|%{_NUM})|({_NUM})|([+.()\[\]/;^*=])|(\S))")


def tokenize_by_match(text):
    """The tokens of ``text`` as (kind, text, offset) triples, the last of
    kind ``eof``, one match of a grouped regex per token, the first group
    being a name (an identifier or ``%k``) and the fourth any other
    character; oracle for ``syntax.tokenize``."""
    toks = []
    pos = 0
    while pos < len(text):
        m = _GROUPED_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        ident, num, punct, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", m.start(4))
        if ident:
            toks.append(("ident", ident, m.start(1)))
        elif num:
            toks.append(("num", num, m.start(2)))
        else:
            toks.append((punct, punct, m.start(3)))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class TokenStream:
    """A cursor over ``tokenize_by_match``'s list, for the recursive-descent
    parsers."""

    def __init__(self, text):
        self.toks = tokenize_by_match(text)
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
    """The contents of ``[...]`` after a choice or star, read from the
    cursor ``ts``; oracle for ``syntax.parse_param``."""
    ts.expect("[")
    if "gplus" in theory.binary_families:
        atoms = []
        while ts.at("ident") or ts.at("num"):
            atoms.append(ts.next()[1])
        ts.expect("]")
        guard = frozenset(atoms)
        theory.check_param(guard)
        return guard
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


def parse_exp_recursive(text, theory, actions=None, names=None):
    """Recursive descent over the grammar in ``syntax``'s docstring; oracle
    for ``syntax.parse_exp``.  It recurses once per prefix and bracket."""
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
        e = pc.Op(param, (e, f))
    return e


def _parse_item(ts, theory, use):
    kind, val, pos = ts.next()
    if kind == "num" and val == "0":
        return pc.ZERO
    if kind == "(":
        e = _parse_sum(ts, theory, use)
        ts.expect(")")
        return e
    if kind == "ident":
        if val == "mu":
            v = ts.expect("ident")[1]
            use.see_variable(v, pos)
            ts.expect(".")
            return pc.Mu(v, _parse_sum(ts, theory, use))
        if ts.at("."):
            ts.next()
            use.see_action(val, pos)
            return pc.Prefix(val, _parse_item(ts, theory, use))
        use.see_variable(val, pos)
        return pc.Var(val)
    if kind == "num" and val == "1":
        raise ParseError("termination transitions have no syntax", pos)
    raise ParseError(f"unexpected token {val!r}", pos)


def parse_sexp_recursive(text, theory, gkat=False, actions=None):
    """Recursive descent over the star grammar (choice, then sequence, then
    postfix ``^``, then atoms); oracle for ``star.parse_sexp``.  It recurses
    four times per bracket."""
    ts = TokenStream(text)
    use = NameUse(actions)
    e = _parse_schoice(ts, theory, use, gkat)
    t = ts.peek()
    if t[0] != "eof":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return e


def _parse_schoice(ts, theory, use, gkat):
    e = _parse_sseq(ts, theory, use, gkat)
    while ts.at("+"):
        ts.next()
        if ts.at("["):
            param = parse_param(ts, theory)
        else:
            param = None
            theory.check_param(None)
        e = pc.Op(param, (e, _parse_sseq(ts, theory, use, gkat)))
    return e


def _parse_sseq(ts, theory, use, gkat):
    e = _parse_spost(ts, theory, use, gkat)
    while ts.at(";"):
        ts.next()
        e = pc.SSeq(e, _parse_spost(ts, theory, use, gkat))
    return e


def _parse_spost(ts, theory, use, gkat):
    e = _parse_satom(ts, theory, use, gkat)
    while ts.at("^"):
        ts.next()
        if ts.at("*"):
            ts.next()
            param = None
            theory.check_param(None)
        else:
            param = parse_param(ts, theory)
        e = pc.SStar(param, e)
    return e


def _parse_satom(ts, theory, use, gkat):
    kind, val, pos = ts.next()
    if kind == "num" and val == "0":
        return pc.ZERO
    if kind == "num" and val == "1":
        return pc.SONE
    if kind == "(":
        e = _parse_schoice(ts, theory, use, gkat)
        ts.expect(")")
        return e
    if kind == "ident":
        if gkat and val == "test":
            guard = parse_param(ts, theory)
            if not isinstance(guard, frozenset):
                raise ParseError("test expects a guard", pos)
            return pc.Op(guard, (pc.SONE, pc.ZERO))
        use.see_action(val, pos)
        return pc.SAct(val)
    raise ParseError(f"unexpected token {val!r}", pos)


def substitute_recursive(e, bindings):
    """Capture-avoiding substitution by a recursive walk of the tree, with
    no memo: a subterm is visited once per occurrence, and each binder it
    renames takes a fresh name of its own.  Oracle for
    ``syntax.substitute``."""
    bindings = {v: f for v, f in bindings.items() if f != pc.Var(v)}
    if pc.free_vars(e).isdisjoint(bindings):
        return e
    avoid = set(all_names(e))
    for f in bindings.values():
        avoid |= all_names(f)
    return _subst(e, bindings, avoid)


def _subst(e, bnd, avoid):
    if pc.free_vars(e).isdisjoint(bnd):
        return e
    if isinstance(e, pc.Var):
        return bnd.get(e.name, e)
    if isinstance(e, pc.Prefix):
        return pc.Prefix(e.action, _subst(e.body, bnd, avoid))
    if isinstance(e, pc.Op):
        return pc.Op(e.param, tuple(_subst(a, bnd, avoid) for a in e.args))
    if isinstance(e, pc.Mu):
        fv = pc.free_vars(e.body)
        live = {v: f for v, f in bnd.items() if v != e.var and v in fv}
        if not live:
            return e
        u, body = e.var, e.body
        if any(u in pc.free_vars(f) for f in live.values()):
            w = fresh_name(avoid)
            avoid.add(w)
            body = _subst(body, {u: pc.Var(w)}, avoid)
            u = w
        return pc.Mu(u, _subst(body, live, avoid))
    raise TypeError(f"not an expression: {e!r}")


def guarded_subst_renaming(e, g, v):
    """Guarded substitution e[g//v] by a recursive walk above the prefixes
    with a renaming rule of its own: a binder u with u free in g is renamed
    whenever v is free in its body, even where every occurrence of v there
    is unguarded, and the body of each prefix goes to ``substitute``, which
    counts its fresh names afresh.  A node is rewritten once (a memo keyed
    by node), as the DAG walk it replaces did.  Oracle for
    ``syntax.guarded_subst_exp``, which zeroes the unguarded occurrences
    first and makes one ``substitute`` call."""
    avoid = all_names(e, g)
    fresh = (w for w in map("%{}".format, itertools.count()) if w not in avoid)
    memo = {}

    def walk(n):
        if n in memo:
            return memo[n]
        if isinstance(n, pc.Var):
            out = ZERO if n.name == v else n
        elif isinstance(n, pc.Zero):
            out = n
        elif isinstance(n, pc.Prefix):
            out = pc.Prefix(n.action, pc.substitute(n.body, {v: g}))
        elif isinstance(n, Op):
            out = Op(n.param, tuple(walk(a) for a in n.args))
        elif isinstance(n, pc.Mu):
            u, body = n.var, n.body
            if u == v or v not in pc.free_vars(body):
                out = n
            else:
                if u in pc.free_vars(g):
                    u = next(fresh)
                    body = pc.substitute(body, {n.var: pc.Var(u)})
                out = pc.Mu(u, walk(body))
        else:
            raise TypeError(f"not an expression: {n!r}")
        memo[n] = out
        return out

    return walk(e)


def translate_recursive(s):
    """Translation of a star expression by plain recursion; oracle for
    ``star.translate``."""
    if s is ZERO:
        return pc.ZERO
    if isinstance(s, pc.SOne):
        return pc.Var(pc.UNIT_VAR)
    if isinstance(s, pc.SAct):
        return pc.Prefix(s.action, pc.Var(pc.UNIT_VAR))
    if isinstance(s, Op):
        return pc.Op(s.param, tuple(translate_recursive(a) for a in s.args))
    if isinstance(s, pc.SSeq):
        return pc.substitute(translate_recursive(s.left),
                             {pc.UNIT_VAR: translate_recursive(s.right)})
    body = translate_recursive(s.body)
    v = fresh_name(all_names(body))
    return pc.Mu(v, pc.Op(s.param, (pc.substitute(body, {pc.UNIT_VAR: pc.Var(v)}),
                                    pc.Var(pc.UNIT_VAR))))


def lstep_recursive(s, theory):
    """The direct one-step map by plain recursion, with no memo; a
    sequence's right side is stepped only when its left side ticks.
    Oracle for ``step`` on star expressions."""
    if s is ZERO:
        return theory.bottom()
    if isinstance(s, pc.SOne):
        return theory.unit(pc.TICK)
    if isinstance(s, pc.SAct):
        return theory.unit(pc.Prefix(s.action, pc.SONE))
    if isinstance(s, Op):
        return theory.op_apply(s.param, [lstep_recursive(a, theory) for a in s.args])
    if isinstance(s, pc.SSeq):
        def leaf(t):
            if isinstance(t, pc.Tick):
                return lstep_recursive(s.right, theory)
            return theory.unit(pc.Prefix(t.action, pc.SSeq(t.body, s.right)))

        return nf_flatten(theory, theory.nf_map(lstep_recursive(s.left, theory), leaf))

    def loop(t):
        if isinstance(t, pc.Tick):
            return theory.bottom()
        return theory.unit(pc.Prefix(t.action, pc.SSeq(t.body, s)))

    looped = nf_flatten(theory, theory.nf_map(lstep_recursive(s.body, theory), loop))
    return theory.op_apply(s.param, [looped, theory.unit(pc.TICK)])


def deriv_sl(s, theory):
    """The ``sl`` syntactic derivative by plain recursion, a sequence's
    right side derived only when its left side ticks; with ``deriv_gs``,
    the oracle for ``star.partial_derivative``."""
    if s is ZERO or isinstance(s, pc.SOne):
        return pc.ZERO
    if isinstance(s, pc.SAct):
        return s
    if isinstance(s, Op):
        if s.param is not None:
            raise pc.TheoryError("guarded choice in an sl expression")
        return pc.Op(None, tuple(deriv_sl(a, theory) for a in s.args))
    if isinstance(s, pc.SSeq):
        de_f = pc.SSeq(deriv_sl(s.left, theory), s.right)
        if pc.output_guard(s.left, theory):
            return pc.Op(None, (de_f, deriv_sl(s.right, theory)))
        return de_f
    if isinstance(s, pc.SStar):
        return pc.SSeq(deriv_sl(s.body, theory), s)
    raise TypeError(f"not a star expression: {s!r}")


def deriv_gs(s, theory):
    """The ``gs`` syntactic derivative by plain recursion."""
    if s is ZERO or isinstance(s, pc.SOne):
        return pc.ZERO
    if isinstance(s, pc.SAct):
        return s
    if isinstance(s, Op):
        if not isinstance(s.param, frozenset):
            raise pc.TheoryError("unguarded choice in a gs expression")
        return pc.Op(s.param, tuple(deriv_gs(a, theory) for a in s.args))
    if isinstance(s, pc.SSeq):
        b = pc.output_guard(s.left, theory)
        return pc.Op(b, (deriv_gs(s.right, theory), pc.SSeq(deriv_gs(s.left, theory), s.right)))
    if isinstance(s, pc.SStar):
        b = pc.output_guard(s.body, theory)
        return pc.Op(b, (pc.ZERO, pc.SSeq(deriv_gs(s.body, theory), s)))
    raise TypeError(f"not a star expression: {s!r}")


def sterm_from_json(d, states):
    """The structure term a JSON node describes, with its step targets
    checked against ``states``, built bottom-up from an explicit stack;
    with ``coalgebra_from_dict_by_step``, the oracle for the reader that
    evaluates each node as it reads it."""
    todo, built = [d], []
    while todo:
        d = todo.pop()
        if type(d) is tuple:  # (param, arity): its arguments are on top of `built`
            param, arity = d
            if arity != 2:
                raise TheoryError("choice operations are binary")
            right = built.pop()
            built[-1] = Op(param, (built[-1], right))
        elif not isinstance(d, dict):
            raise TheoryError(f"bad structure term {d!r}")
        elif "const" in d:
            built.append(ZERO)
        elif "out" in d:
            if not isinstance(d["out"], str):
                raise TheoryError(f"an output must be a string, not {d['out']!r}")
            built.append(pc.Var(d["out"]))
        elif "tick" in d:
            built.append(pc.TICK)
        elif "act" in d:
            if not isinstance(d["act"], str):
                raise TheoryError(f"an action must be a string, not {d['act']!r}")
            if "to" not in d:
                raise TheoryError(f"action {d['act']!r} has no target")
            if not isinstance(d["to"], str):
                raise TheoryError(
                    f"the target of action {d['act']!r} must be a string, not {d['to']!r}")
            if d["to"] not in states:
                raise TheoryError(f"unknown target state {d['to']!r}")
            built.append(pc.Prefix(d["act"], pc.Var(d["to"])))
        elif "op" in d:
            if "guard" in d:
                if not isinstance(d["guard"], list) or not all(
                        isinstance(a, str) for a in d["guard"]):
                    raise TheoryError(f"bad guard {d['guard']!r}")
                param = frozenset(d["guard"])
            elif "prob" in d:
                try:
                    param = Fraction(d["prob"])
                except (TypeError, ValueError, ZeroDivisionError):
                    raise TheoryError(f"bad probability {d['prob']!r}") from None
            else:
                param = None
            if not isinstance(d.get("args"), list):
                raise TheoryError(f"choice node {d!r} has no argument list")
            todo.append((param, len(d["args"])))
            todo += d["args"][::-1]
        else:
            raise TheoryError(f"bad structure term {d!r}")
    return built[0]


def coalgebra_from_dict_by_step(d):
    """A well-formed coalgebra file's coalgebra, each structure entry built
    as a term by ``sterm_from_json`` and then stepped; a bad entry raises
    `TheoryError` naming its state.  Oracle for
    ``semantics.coalgebra_from_dict`` on a file whose ids are not outputs
    or actions."""
    theory = theory_from_json(d)
    states = tuple(d["states"])
    structure = {}
    for s in states:
        try:
            structure[s] = pc.step(sterm_from_json(d["structure"][s], set(states)), theory)
        except TheoryError as err:
            raise TheoryError(f"state {s!r}: {err}") from None
    return coalgebra(theory, states, structure)

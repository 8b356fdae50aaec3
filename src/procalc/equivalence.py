"""Behavioural equivalence by partition refinement.

States are bisimilar exactly when they receive the same block in the coarsest
stable partition.  A state's signature under a partition is its normal form
with each step ``a.t`` read as the pair of ``a`` and the block of ``t``;
refinement splits blocks by signature until stable.

Refinement runs Moore's rounds: round N splits every block of partition
P(N-1) by signature under P(N-1).  By induction, two states share a block of
P(N) exactly when their behaviours agree to depth N, that is, when no modal
formula of depth N tells them apart; so the round at which two states first
split, which ``check_states`` reports, is the least depth of such a formula.

States are positions 0, 1, ... and refinement never names them.  One
table lists each position's state, normal form and successors, and one
index maps each state a step goes to onto its position.  ``equivalent``
refines the two explorations of its terms as they are, the second's
positions after the first's, with steps whose states are terms.  A term
that both explorations reach is read at its first position.  That is
exact: its two positions hold one term, with one normal form and
successors that are the same terms, so no round separates them.  ``check_states`` and
``bisim_partition`` refine the exploration of a finite coalgebra, an
equation system, from all its states, indexed by the ``Var`` of each
state id, which steps as its equation: the term reading of a normal form
steps back to it.
Names exist only for the certificate: ``as0``, ``as1``, ..., ``bs0``, ...
for the positions of two explored terms, the state ids for a coalgebra.

An explored prefix state ``a.t`` comes with no normal form (``_explore``
keeps None in its place).  Its normal form is the unit of ``a.t``, and the
pushforward of a unit is the unit of the image, so its signature is
``unit((a, block[t]))``, built from the action and the position of ``t``,
once per (action, block) pair in a refinement; only a certificate that
prints it reads the unit of ``a.t``.

The rounds are computed incrementally.  Blocks carry internal ids, and a
state that leaves its block always gets a fresh id.  A signature changes only
when a successor moves, so after round 1 only the predecessors of the states
that moved are recomputed, and each recomputed signature differs from its
block's old one because it names a fresh id.  So the members of a block that
were not recomputed stay, and the recomputed ones leave it, grouped by
signature; when every member was recomputed, the largest group stays.  States
alone in their block are never recomputed.  The dense numbering, by first
occurrence in position order, is made only for output.
"""

from __future__ import annotations

from .semantics import _explore, _retarget, step
from .syntax import Prefix, Record, Var, unparse


def _signature_text(theory, table, s, block):
    """The signature of position ``s`` under ``block`` printed as a term,
    each pair as the step ``a.block[t]``; ``table`` as for `_rounds`.  A
    block is named by the ``Var`` whose name is its id, an int, so that the
    reading orders the blocks numerically."""
    order, index, nfs, _ = table
    nf = nfs[s]
    if nf is None:  # a prefix, whose normal form is its unit
        nf = theory.unit(order[s])
    return unparse(theory.term_of_nf(_retarget(theory, nf, lambda t: Var(block[index[t]]))))


def _rounds(theory, table, block):
    """Moore refinement of ``block``, a list of zeros with one entry per
    position, which becomes the internal block ids.  ``table`` is
    ``(order, index, nfs, succ)``: position ``s`` is the state
    ``order[s]``, ``nfs[s]`` is its normal form, whose step ``a.t`` goes
    to the state at position ``index[t]``, and ``succ[s]`` lists the
    positions its steps go to.  A normal form of None stands for the unit
    of the prefix ``order[s]``.  One round per iteration: yields the
    positions that leave their block, mapped to their new ids, then applies
    the move to ``block`` in place.  Stops when a round moves nothing."""
    order, index, nfs, succ = table

    def read(g):
        return (g.action, block[index[g.body]]) if type(g) is Prefix else g

    unit, nf_map = theory.unit, theory.nf_map
    units = {}  # (a, block id) -> its unit, a prefix state's signature
    pred = [[] for _ in block]
    for s, targets in enumerate(succ):
        for t in targets:
            pred[t].append(s)
    size = [len(block)]
    dirty = range(len(block))
    while True:
        recomputed = {}  # block id -> signature -> members
        for s in dirty:
            nf = nfs[s]
            if nf is None:  # the prefix a.t: nf_map(unit(a.t), read) is unit(read(a.t))
                pair = (order[s].action, block[succ[s][0]])
                sig = units.get(pair)
                if sig is None:
                    sig = units[pair] = unit(pair)
            else:
                sig = nf_map(nf, read)
            by_sig = recomputed.get(block[s])
            if by_sig is None:
                recomputed[block[s]] = {sig: [s]}
            elif sig in by_sig:
                by_sig[sig].append(s)
            else:
                by_sig[sig] = [s]
        moved = {}
        for b, by_sig in recomputed.items():
            parts = list(by_sig.values())
            if sum(map(len, parts)) == size[b]:
                # no member kept the old signature: the largest part keeps the id
                if len(parts) == 1:
                    continue
                parts.remove(max(parts, key=len))
            for part in parts:
                size[b] -= len(part)
                fresh = len(size)
                size.append(len(part))
                for s in part:
                    moved[s] = fresh
        if not moved:
            return
        yield moved
        for s, b in moved.items():
            block[s] = b
        # the order of dirty only picks internal ids; _dense renumbers for output
        dirty = {p for s in moved for p in pred[s] if size[block[p]] > 1}


def _dense(block):
    """Block ids renumbered 0, 1, ... by first occurrence in position order."""
    ids = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def _coalgebra_table(c):
    """A coalgebra's positions as a table for `_rounds`: its exploration
    from the ``Var`` of each state id, which steps as its equation."""
    equations = dict(zip(map(Var, c.variables), c.exprs))
    return _explore(list(equations), c.theory, float("inf"),
                    lambda x, theory, memo: step(equations[x], theory, memo))


def bisim_partition(c):
    """Coarsest stable partition; returns dict state -> block id (dense ints,
    numbered by first occurrence in state order)."""
    block = [0] * len(c.variables)
    for _ in _rounds(c.theory, _coalgebra_table(c), block):
        pass
    return dict(zip(c.variables, _dense(block)))


class Certificate(Record):
    _fields = ("equivalent", "rounds", "detail")


def _certificate(theory, table, s1, s2, name):
    """Bisimilarity of positions ``s1`` and ``s2``, with a certificate in
    which position ``i`` is called ``name(i)``; ``table`` as for
    `_rounds`."""
    block = [0] * len(table[2])
    rounds = 0
    for moved in _rounds(theory, table, block):
        rounds += 1
        if moved.get(s1, block[s1]) != moved.get(s2, block[s2]):
            prev = _dense(block)
            detail = (
                f"split at refinement round {rounds}: "
                f"{name(s1)} has signature {_signature_text(theory, table, s1, prev)}, "
                f"{name(s2)} has signature {_signature_text(theory, table, s2, prev)}"
            )
            return Certificate(False, rounds, detail)
    classes = {}
    for s, b in enumerate(_dense(block)):
        classes.setdefault(b, []).append(name(s))
    detail = "; ".join("{" + " ".join(members) + "}" for members in classes.values())
    return Certificate(True, rounds, f"stable partition: {detail}")


def check_states(c, s1, s2):
    """Bisimilarity of two states of one coalgebra, with a certificate."""
    table = _coalgebra_table(c)
    index = table[1]
    return _certificate(c.theory, table, index[Var(s1)], index[Var(s2)], c.variables.__getitem__)


def equivalent(e, f, theory, cap=10000):
    """Bisimilarity of two terms of either grammar, each explored by `step`
    up to ``cap`` states, with a certificate that calls the states of ``e``
    ``as0``, ``as1``, ... and those of ``f`` ``bs0``, ... in breadth-first
    order."""
    order1, index1, nfs1, succ1 = _explore((e,), theory, cap, step)
    order2, index2, nfs2, succ2 = _explore((f,), theory, cap, step)
    n1 = len(nfs1)

    def name(s):
        return f"as{s}" if s < n1 else f"bs{s - n1}"

    index = {t: n1 + j for t, j in index2.items()}
    index.update(index1)  # a term both reach is read at its first position
    table = (order1 + order2, index, nfs1 + nfs2,
             succ1 + [[n1 + t for t in targets] for targets in succ2])
    return _certificate(theory, table, 0, n1, name)

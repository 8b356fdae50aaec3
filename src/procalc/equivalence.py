"""Behavioural equivalence by partition refinement.

States are bisimilar exactly when they receive the same block in the coarsest
stable partition.  A state's signature under a partition is its normal form
with step targets replaced by their block ids; refinement splits blocks by
signature until stable.

Refinement runs Moore's rounds: round N splits every block of partition
P(N-1) by signature under P(N-1).  By induction, two states share a block of
P(N) exactly when their behaviours agree to depth N, that is, when no modal
formula of depth N tells them apart; so the round at which two states first
split, which ``check_states`` reports, is the least depth of such a formula.

The rounds are computed incrementally.  Blocks carry internal ids, and a
state that leaves its block always gets a fresh id.  A signature changes only
when a successor moves, so after round 1 only the predecessors of the states
that moved are recomputed, and each recomputed signature differs from its
block's old one because it names a fresh id.  So the members of a block that
were not recomputed stay, and the recomputed ones leave it, grouped by
signature; when every member was recomputed, the largest group stays.  States
alone in their block are never recomputed.  The dense numbering, by first
occurrence in state order, is made only for output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Step, reachable_union
from .syntax import unparse


def _signature(c, s, block):
    """The normal form of ``s`` with each step ``a.t`` read as the pair
    ``(a, block[t])``."""
    def f(t):
        return (t.action, block[t.target]) if isinstance(t, Step) else t

    return c.theory.nf_map(c.structure[s], f)


def _signature_text(c, s, block):
    """The signature of ``s`` printed as a term, each pair as the step
    ``a.block[t]``."""
    def f(t):
        return Step(t.action, block[t.target]) if isinstance(t, Step) else t

    return unparse(c.theory.term_of_nf(c.theory.nf_map(c.structure[s], f)))


def _rounds(c, block):
    """Moore refinement of ``block`` (state -> internal block id), one round
    per iteration: yields the states that leave their block, mapped to their
    new ids, then applies the move to ``block`` in place.  Stops when a round
    moves nothing."""
    index = {s: i for i, s in enumerate(c.states)}
    pred = {s: set() for s in c.states}
    for s in c.states:
        for g in c.theory.generators(c.structure[s]):
            if isinstance(g, Step):
                pred[g.target].add(s)
    size = {}
    for b in block.values():
        size[b] = size.get(b, 0) + 1
    dirty = c.states
    while True:
        recomputed = {}  # block id -> signature -> members
        for s in dirty:
            sig = _signature(c, s, block)
            recomputed.setdefault(block[s], {}).setdefault(sig, []).append(s)
        moved = {}
        for b, by_sig in recomputed.items():
            parts = list(by_sig.values())
            if sum(map(len, parts)) == size[b]:
                # no member kept the old signature: the largest part keeps the id
                parts.remove(max(parts, key=len))
            for part in parts:
                fresh = len(size)
                size[fresh] = len(part)
                size[b] -= len(part)
                moved.update(dict.fromkeys(part, fresh))
        if not moved:
            return
        yield moved
        block.update(moved)
        touched = {p for s in moved for p in pred[s] if size[block[p]] > 1}
        dirty = sorted(touched, key=index.__getitem__)


def _dense(c, block):
    """Block ids renumbered 0, 1, ... by first occurrence in state order."""
    ids = {}
    return {s: ids.setdefault(block[s], len(ids)) for s in c.states}


def bisim_partition(c):
    """Coarsest stable partition; returns dict state -> block id (dense ints,
    numbered by first occurrence in state order)."""
    block = dict.fromkeys(c.states, 0)
    for _ in _rounds(c, block):
        pass
    return _dense(c, block)


@dataclass
class Certificate:
    equivalent: bool
    rounds: int
    detail: str


def check_states(c, s1, s2):
    """Bisimilarity of two states of one coalgebra, with a certificate."""
    block = dict.fromkeys(c.states, 0)
    rounds = 0
    for moved in _rounds(c, block):
        rounds += 1
        if moved.get(s1, block[s1]) != moved.get(s2, block[s2]):
            prev = _dense(c, block)
            detail = (
                f"split at refinement round {rounds}: "
                f"{s1} has signature {_signature_text(c, s1, prev)}, "
                f"{s2} has signature {_signature_text(c, s2, prev)}"
            )
            return Certificate(False, rounds, detail)
    classes = {}
    for s, b in _dense(c, block).items():
        classes.setdefault(b, []).append(s)
    detail = "; ".join("{" + " ".join(members) + "}" for members in classes.values())
    return Certificate(True, rounds, f"stable partition: {detail}")


def equivalent(e, f, theory, cap=10000):
    """Bisimilarity of two process terms."""
    c = reachable_union(e, f, theory, cap)
    return check_states(c, "as0", "bs0")

"""Behavioural equivalence by partition refinement.

States are bisimilar exactly when they receive the same block in the coarsest
stable partition.  A state's signature under a partition is its normal form
with step targets replaced by their block ids; refinement splits blocks by
signature until stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import Coalgebra, Step, disjoint_union, reachable
from .theory import sorted_gens


def _signature(c, s, block):
    def f(t):
        return Step(t.action, block[t.target]) if isinstance(t, Step) else t

    return c.theory.nf_map(c.structure[s], f)


def bisim_partition(c, history=False):
    """Coarsest stable partition; returns dict state -> block id (dense ints,
    numbered by first occurrence in state order)."""
    block = {s: 0 for s in c.states}
    trace = [dict(block)]
    while True:
        sigs = {s: _signature(c, s, block) for s in c.states}
        fresh = {}
        new = {}
        for s in c.states:
            key = (block[s], sigs[s])
            if key not in fresh:
                fresh[key] = len(fresh)
            new[s] = fresh[key]
        if new == block:
            return (block, trace) if history else block
        block = new
        trace.append(dict(block))


@dataclass
class Certificate:
    equivalent: bool
    rounds: int
    detail: str


def check_states(c, s1, s2):
    """Bisimilarity of two states of one coalgebra, with a certificate."""
    block, trace = bisim_partition(c, history=True)
    if block[s1] == block[s2]:
        classes = {}
        for s in c.states:
            classes.setdefault(block[s], []).append(s)
        detail = "; ".join(
            "{" + " ".join(classes[b]) + "}" for b in sorted(classes)
        )
        return Certificate(True, len(trace) - 1, f"stable partition: {detail}")
    split = next(i for i, t in enumerate(trace) if t[s1] != t[s2])
    prev = trace[split - 1]
    from .semantics import render_sterm

    sig1 = c.theory.term_of_nf(_signature(c, s1, prev))
    sig2 = c.theory.term_of_nf(_signature(c, s2, prev))
    detail = (
        f"split at refinement round {split}: "
        f"{s1} has signature {render_sterm(sig1)}, "
        f"{s2} has signature {render_sterm(sig2)}"
    )
    return Certificate(False, split, detail)


def equivalent(e, f, theory, cap=10000):
    """Bisimilarity of two process terms."""
    c = disjoint_union(reachable(e, theory, cap), reachable(f, theory, cap))
    return check_states(c, "as0", "bs0")


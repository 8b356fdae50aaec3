"""The golden CLI corpus: every recorded invocation gives the same stdout,
stderr and exit code, byte for byte.  ``tests/make_golden.py`` records it."""

import json
import random

from make_golden import differences, load


def _check(corpus, perturb=None):
    bad = differences(corpus, perturb)
    shown = "\n".join(
        f"{json.dumps(case['argv'])}\n  want {json.dumps({k: case[k] for k in got})}"
        f"\n  got  {json.dumps(got)}"
        for case, got in bad[:5]
    )
    assert not bad, f"{len(bad)} of {len(corpus)} invocations differ:\n{shown}"


def test_golden_cli_corpus():
    corpus = load()
    assert len(corpus) >= 400
    _check(corpus)


def test_golden_cli_corpus_in_shuffled_order():
    # one process replays every case after different predecessors, so state
    # kept across invocations (such as the parser) would show as a difference
    corpus = load()
    random.Random(20261018).shuffle(corpus)
    _check(corpus)


def test_golden_cli_corpus_with_allocation_perturbed():
    # term nodes hash by identity; ballast kept alive before each case moves
    # them to other addresses, and so reorders every set of nodes
    _check(load(), perturb=20261018)

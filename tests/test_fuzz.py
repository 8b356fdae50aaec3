"""The standing fuzz of input files: mutants of the golden corpus's
coalgebra files and of ``tests/proofs/*.json``, run through ``cli.main()``,
exit with a verdict or an input error, never with an internal error."""

import copy
import functools
import glob
import json
import operator
import os
import sys

import pytest

from procalc import cli

from make_golden import load

PROOF_DIR = os.path.join(os.path.dirname(__file__), "proofs")

# one value of each JSON type, and a few that are in place somewhere in a file
VALUES = (None, True, False, 0, -1, 2, 1.5, "", "s0", "a", "+", "1/2", "x = y",
          [], ["s0"], [1, 2], {}, {"act": "a", "to": "s0"}, {"op": "+", "args": []})


def _coalgebra_seeds():
    """The golden corpus's ``solve`` files that are JSON objects."""
    seeds = []
    for case in load():
        if case["argv"][0] == "solve" and case["file"].lstrip().startswith("{"):
            try:
                seeds.append(json.loads(case["file"]))
            except ValueError:
                continue
    return seeds


def _proof_seeds():
    seeds = []
    for path in sorted(glob.glob(os.path.join(PROOF_DIR, "*.json"))):
        with open(path) as fh:
            seeds.append(json.load(fh))
    return seeds


def test_mutated_input_files_exit_with_a_verdict_or_an_input_error(tmp_path, monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seeds = [("solve", d) for d in _coalgebra_seeds()] + [("prove", d) for d in _proof_seeds()]
    assert len(seeds) > 60

    def positions(value, path=()):
        """The path of every key and item inside ``value``."""
        items = value.items() if isinstance(value, dict) else \
            enumerate(value) if isinstance(value, list) else ()
        for k, v in items:
            yield path + (k,)
            yield from positions(v, path + (k,))

    @st.composite
    def mutants(draw):
        """A seed with one to three changes, each at any depth: a key or
        item deleted, or a value swapped for one of another JSON type."""
        command, data = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(1, 3))):
            paths = list(positions(data))
            if not paths:
                break
            *path, k = draw(st.sampled_from(paths))
            data = copy.deepcopy(data)
            parent = functools.reduce(operator.getitem, path, data)
            if draw(st.booleans()):
                del parent[k]
            else:
                parent[k] = draw(st.sampled_from(
                    [v for v in VALUES if type(v) is not type(parent[k])]))
        return command, data

    path = tmp_path / "input.json"
    codes = {}

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutants())
    def check(mutant):
        command, data = mutant
        path.write_text(json.dumps(data))
        monkeypatch.setattr(sys, "argv", ["procalc", command, str(path)])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        err = capsys.readouterr().err
        assert stop.value.code in (0, 1, 10, 11) and "internal error" not in err, (data, err)
        codes[command, stop.value.code] = codes.get((command, stop.value.code), 0) + 1

    check()
    assert {("solve", 0), ("solve", 1), ("prove", 1), ("prove", 11)} <= set(codes), codes

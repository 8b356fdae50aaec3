"""End-to-end CLI tests: exit codes, golden text output, JSON validity."""

import json
import os
import subprocess
import sys
import time

import pytest

from procalc import cli

PROOF_DIR = os.path.join(os.path.dirname(__file__), "proofs")


def run(*argv, stdin=None):
    """Run this checkout's CLI as ``python -m procalc``, with ``src/`` first
    on the child's import path, so that no install is needed and no
    installed copy can shadow the code under test."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "procalc", *argv],
        capture_output=True, text=True, input=stdin, env=env,
    )


# ---------------------------------------------------------------------------
# golden step outputs for the worked examples

def test_step_golden_gs():
    r = run("step", "--theory", "gs", "--atoms", "x1,x2",
            "mu w. (a1.(v +[x1] a2.w) +[x1] u)")
    assert r.returncode == 0
    assert r.stdout == (
        "a1.(v +[x1] a2.(mu w. a1.(v +[x1] a2.w) +[x1] u)) +[x1] u\n"
    )


def test_deep_terms_through_the_cli():
    # the parser and substitution walk with explicit stacks, so depth is no error
    chain = "a." * 5000 + "0"
    r = run("step", chain)
    assert (r.returncode, r.stdout, r.stderr) == (0, chain + "\n", "")

    def cyc(n, var):
        return "".join(f"mu {var}{i}. a.({var}{(7 * i) % max(i, 1)} + b." for i in range(n)) + "0" + ")" * n

    r = run("equiv", cyc(500, "x"), cyc(500, "y"))
    assert r.returncode == 0 and r.stdout.startswith("equivalent: "), r.stderr


def test_step_reads_a_term_from_stdin():
    r = run("step", "-", stdin="a.b.0 + c.0\n")
    assert (r.returncode, r.stdout, r.stderr) == (0, "a.b.0 + c.0\n", "")
    r = run("star", "step", "-", stdin="a ; b")
    assert (r.returncode, r.stdout, r.stderr) == (0, "a.(1 ; b)\n", "")
    # an error's offset is in the text read from stdin
    r = run("lts", "-", stdin="a.0 @")
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "error: unexpected character '@' (at 4)\n")


def test_equiv_reads_either_term_from_stdin():
    r = run("equiv", "-", "mu y. a.a.y", stdin="mu x. a.x")
    assert (r.returncode, r.stdout) == (0, "equivalent: stable partition: {as0 bs0 bs1}\n")
    r = run("equiv", "--theory", "cm", "a.0", "-", stdin="a.0 + a.0")
    assert r.returncode == 10 and r.stdout.startswith("not equivalent: ")
    # 132,001 bytes: longer than Linux lets one argv string be
    chain = "a." * 66000 + "0"
    r = run("equiv", "--cap", "70000", "-", "a.0", stdin=chain)
    assert (r.returncode, r.stderr) == (10, "")
    assert r.stdout.startswith("not equivalent: split at refinement round 2: ")


def test_two_terms_from_stdin_exit_1():
    for argv in (("equiv", "-", "-"), ("star", "equiv", "-", "-"), ("equiv", "--", "-", "-")):
        r = run(*argv, stdin="a.0")
        assert (r.returncode, r.stdout, r.stderr) == (
            1, "", "error: at most one TERM can be '-' (read from stdin)\n"), argv


def _main_err(monkeypatch, capsys, *argv):
    """Run ``cli.main()`` in this process with ``argv``: (exit code, stdout,
    stderr)."""
    monkeypatch.setattr(sys, "argv", ["procalc", *argv])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    out, err = capsys.readouterr()
    return stop.value.code, out, err


def _main(monkeypatch, capsys, *argv):
    """Run ``cli.main()`` in this process with ``argv``: (exit code, stdout)."""
    return _main_err(monkeypatch, capsys, *argv)[:2]


def test_wide_and_nested_terms_through_cli_main(monkeypatch, capsys):
    # step, lts and equiv walk the term bottom-up with an explicit stack
    summands = [f"a{i}.0" for i in range(5000)]
    total, ordered = " + ".join(summands), sorted(summands)
    assert _main(monkeypatch, capsys, "step", total) == (0, " + ".join(ordered) + "\n")
    lts = "s0 = " + " + ".join(s[:-1] + "s1" for s in ordered) + "\ns1 = 0\n"
    assert _main(monkeypatch, capsys, "lts", total) == (0, lts)
    code, out = _main(monkeypatch, capsys, "equiv", total, " + ".join(reversed(summands)))
    assert code == 0 and out.startswith("equivalent: ")
    mus = "".join(f"mu x{i}. " for i in range(1000)) + "a.(x0 + b.x999)"
    lts = "s0 = a.s1\ns1 = a.s1 + b.s2\ns2 = a.s1\n"
    assert _main(monkeypatch, capsys, "lts", mus) == (0, lts)


def test_long_star_expressions_through_cli_main(monkeypatch, capsys):
    chain = " ; ".join(["a"] * 3000)
    assert _main(monkeypatch, capsys, "star", "step", chain) == (0, "a.(1" + " ; a" * 2999 + ")\n")
    lts = "".join(f"s{k} = a.s{k + 1}\n" for k in range(3000)) + "s3000 = 1\n"
    assert _main(monkeypatch, capsys, "star", "lts", chain) == (0, lts)
    # one step memo serves every output guard the derivative reads
    chain = " ; ".join(["a"] * 2000)
    start = time.perf_counter()
    assert _main(monkeypatch, capsys, "star", "deriv", chain) == (
        0, f"derivative: {chain}\noutputs: no\n")
    assert time.perf_counter() - start < 2
    # guardedness reads the translation as a DAG, which as a tree has 2**40 leaves
    body = ";".join(["(1 + 1)"] * 40)
    start = time.perf_counter()
    assert _main(monkeypatch, capsys, "star", "estar", "E5", "--exp", f"e={body}") == (
        10, "E5 side condition fails: loop body is not guarded\n")
    assert time.perf_counter() - start < 1


def test_nested_star_brackets_through_cli_main(monkeypatch, capsys):
    # the star parser keeps no Python frame per bracket
    n = 3000
    right = "a ; (" * n + "a ; b" + ")" * n
    flat = "a ; " * (n + 1) + "b"
    left = "a + b"
    for _ in range(n - 1):
        left = f"({left}) ; c"
    left = f"({left})^*"
    assert _main(monkeypatch, capsys, "star", "step", right) == (
        0, f"a.(1 ; {right[4:]})\n")
    assert _main(monkeypatch, capsys, "star", "lts", right) == \
        _main(monkeypatch, capsys, "star", "lts", flat)
    code, out = _main(monkeypatch, capsys, "star", "equiv", right, flat)
    assert code == 0 and out.startswith("equivalent: ")
    assert _main(monkeypatch, capsys, "star", "deriv", right) == (
        0, f"derivative: {right}\noutputs: no\n")
    for argv in (("step", left), ("lts", left), ("deriv", left),
                 ("equiv", left, "((a + b)" + " ; c" * (n - 1) + ")^*")):
        assert _main_err(monkeypatch, capsys, "star", *argv)[::2] == (0, ""), argv[0]


def test_both_grammars_check_names_across_equiv_terms(monkeypatch, capsys):
    # the shared path parses each term with its own grammar's name checks
    argv = ("star", "equiv", "--actions", "a,b", "a ; b", "a ; c")
    assert _main_err(monkeypatch, capsys, *argv) == (1, "", "error: undeclared action 'c' (at 4)\n")
    assert _main_err(monkeypatch, capsys, "equiv", "a.0", "a") == (
        1, "", "error: 'a' used both as action and variable (at 0)\n")


def test_zero_denominator_in_estar_parameters_exits_1(monkeypatch, capsys):
    for argv in (("E5", "--sigma", "1/0"), ("E4", "--sigma", "1/2", "--tau", "1/0")):
        assert _main_err(monkeypatch, capsys, "star", "estar", "--theory", "ca", "--exp", "e=a",
                         *argv) == (1, "", "error: zero denominator\n")


def test_decimal_exponent_in_estar_parameters_exits_1(monkeypatch, capsys):
    # Fraction("1e-4000000") would build 10 ** 4000000 exactly, which took seconds
    estar = ("star", "estar", "E5", "--theory", "ca", "--exp", "e=a")
    for text in ("1e-4000000", "1E3", "5e-1"):
        start = time.perf_counter()
        assert _main_err(monkeypatch, capsys, *estar, "--sigma", text) == (
            1, "", f"error: probability {text!r} has a decimal exponent\n")
        assert time.perf_counter() - start < 1
    assert _main_err(monkeypatch, capsys, *estar, "--sigma", "1/2", "--tau", "2e1")[0] == 1
    for text in ("1", "1/2", "0.5"):
        assert _main(monkeypatch, capsys, *estar, "--sigma", text) == (0, "E5 instance holds\n")


def test_deeply_nested_json_exits_1_through_cli_main(tmp_path, monkeypatch, capsys):
    # 3,000 op levels are 6,000 JSON levels, beyond MAX_JSON_DEPTH on every Python version
    n = 3000
    term = '{"op": "+", "args": [' * n + '{"act": "a", "to": "s0"}' \
        + ', {"act": "b", "to": "s0"}]}' * n
    coalgebra = tmp_path / "deep.json"
    coalgebra.write_text('{"theory": "sl", "states": ["s0"], "structure": {"s0": ' + term + "}}")
    proof = tmp_path / "deep-proof.json"
    proof.write_text('{"theory": "sl", "goal": ["0", "0"], "steps": ' + "[" * n + "]" * n + "}")
    assert _main_err(monkeypatch, capsys, "solve", str(coalgebra), "--state", "s0") == (
        1, "", "error: coalgebra JSON is nested too deeply\n")
    assert _main_err(monkeypatch, capsys, "prove", str(proof)) == (
        1, "", "error: proof JSON is nested too deeply\n")


def test_json_writer_refuses_too_deep_terms_through_cli_main(tmp_path, monkeypatch, capsys):
    # the structure term of an n-way sum nests 2n - 1 JSON levels, past
    # MAX_JSON_DEPTH at n = 600; the writer keeps no Python frame per level
    wide = " + ".join(f"a{i}.0" for i in range(600))
    assert _main_err(monkeypatch, capsys, "lts", "--format", "json", wide) == (
        1, "", "error: state 's0': coalgebra JSON would be nested too deeply\n")
    assert _main_err(monkeypatch, capsys, "step", "--format", "json", wide) == (
        1, "", "error: normal form JSON would be nested too deeply\n")
    # 499 summands nest 999 levels, within the limit but past the 3.11 encoder's stack
    wide = " + ".join(f"a{i}.0" for i in range(499))
    for command in ("lts", "step"):
        code, _, err = _main_err(monkeypatch, capsys, command, "--format", "json", wide)
        assert code in (0, 1) and "internal error" not in err
    summands = [f"a{i}.0" for i in range(400)]
    code, out = _main(monkeypatch, capsys, "lts", "--format", "json", " + ".join(summands))
    assert code == 0
    f = tmp_path / "wide.json"
    f.write_text(out)
    assert _main(monkeypatch, capsys, "solve", str(f), "--state", "s0") == (
        0, "mu s0. " + " + ".join(s[:-1] + "(mu s1. 0)" for s in sorted(summands)) + "\n")


def test_probability_above_one_exits_1_through_cli_main(tmp_path, monkeypatch, capsys):
    # the trusted convex combinations rely on check_param having seen every weight
    assert _main_err(monkeypatch, capsys, "step", "--theory", "ca", "u +[3/2] v") == (
        1, "", "error: probability 3/2 outside [0, 1]\n")
    assert _main_err(monkeypatch, capsys, "step", "--theory", "cs", "(u + v) +[3/2] w") == (
        1, "", "error: probability 3/2 outside [0, 1]\n")
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"theory": "ca", "states": ["s0"], "structure": {"s0": {
        "op": "+", "prob": "3/2", "args": [{"act": "a", "to": "s0"}, {"out": "u"}]}}}))
    assert _main_err(monkeypatch, capsys, "solve", str(f), "--state", "s0") == (
        1, "", "error: state 's0': probability 3/2 outside [0, 1]\n")


def test_step_golden_ca():
    r = run("step", "--theory", "ca", "mu v. (a1.u +[1/2] (a2.v +[1/3] w))")
    assert r.returncode == 0
    assert r.stdout == (
        "a1.u +[1/2] (a2.(mu v. a1.u +[1/2] (a2.v +[1/3] w)) +[1/3] w)\n"
    )


def test_step_golden_cs():
    r = run("step", "--theory", "cs", "mu v. ((a1.v +[1/3] a2.w) + a2.v)")
    assert r.returncode == 0
    assert r.stdout == (
        "0 + (a1.(mu v. a1.v +[1/3] a2.w + a2.v) +[1/3] a2.w)"
        " + a2.(mu v. a1.v +[1/3] a2.w + a2.v)\n"
    )


def test_lts_golden_ca():
    r = run("lts", "--theory", "ca", "mu v. (a1.u +[1/2] (a2.v +[1/3] w))")
    assert r.returncode == 0
    assert r.stdout == "s0 = a1.s1 +[1/2] (a2.s0 +[1/3] w)\ns1 = u\n"


# ---------------------------------------------------------------------------
# exit codes

def test_equiv_exit_codes():
    assert run("equiv", "mu v. v", "0").returncode == 0
    assert run("equiv", "mu v. a.v", "a.(mu v. a.v)").returncode == 0
    r = run("equiv", "a.0", "b.0")
    assert r.returncode == 10
    assert r.stdout.startswith("not equivalent")


# ``mu x. a^4.(u OP a.x)`` against its period-doubled unfolding, and against
# the same cycle with last output v: refinement needs all five rounds
LONG_OPS = {"sl": "+", "cm": "+", "gs": "+[x1]", "ca": "+[1/2]", "cs": "+[1/3]"}
LONG_PARTITION = (
    "equivalent: stable partition: {as0 bs0 bs5}; {as1 bs1 bs6}; "
    "{as2 bs2 bs7}; {as3 bs3 bs8}; {as4 bs4 bs9}\n"
)


def _long_equiv(theory, right):
    atoms = ["--atoms", "x1,x2"] if theory == "gs" else []
    op = LONG_OPS[theory]
    return run("equiv", "--theory", theory, *atoms,
               f"mu x. a.a.a.a.(u {op} a.x)", right.replace("OP", op))


@pytest.mark.parametrize("theory", sorted(LONG_OPS))
def test_equiv_golden_long_cycle_partition(theory):
    r = _long_equiv(theory, "mu y. a.a.a.a.(u OP a.a.a.a.a.(u OP a.y))")
    assert r.returncode == 0
    assert r.stdout == LONG_PARTITION


@pytest.mark.parametrize("theory", sorted(LONG_OPS))
def test_equiv_golden_long_cycle_split_round(theory):
    r = _long_equiv(theory, "mu y. a.a.a.a.(v OP a.y)")
    assert r.returncode == 10
    zero = "0 + " if theory == "cs" else ""
    assert r.stdout == (
        "not equivalent: split at refinement round 5: "
        f"as0 has signature {zero}a.1, bs0 has signature {zero}a.5\n"
    )


def test_prove_exit_codes(tmp_path):
    r = run("prove", os.path.join(PROOF_DIR, "sl_r3.json"))
    assert r.returncode == 0 and r.stdout == "accepted\n"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "theory": "sl",
        "goal": ["u + v", "u"],
        "steps": [{"rule": "axiom", "lhs": "u + v", "rhs": "u", "name": "SL1"}],
    }))
    r = run("prove", str(bad))
    assert r.returncode == 11
    assert r.stdout.startswith("rejected at step 1")


def test_prove_accepts_an_unfolding_that_renames_no_binder(tmp_path):
    # r1 on mu v. (mu u. (v + a.u)) + b.u: v is unguarded under mu u, so
    # the unfolding keeps the binder u
    lhs, rhs = "mu v. (mu u. (v + a.u)) + b.u", "(mu u. (0 + a.u)) + b.u"
    proof = tmp_path / "r1.json"
    proof.write_text(json.dumps({"theory": "sl", "goal": [lhs, rhs],
                                 "steps": [{"rule": "r1", "lhs": lhs, "rhs": rhs}]}))
    r = run("prove", str(proof))
    assert (r.returncode, r.stdout, r.stderr) == (0, "accepted\n", "")


def test_parse_error_exit_code():
    r = run("step", "a. + v")
    assert r.returncode == 1 and r.stderr.startswith("error:")
    r = run("step", "--theory", "ca", "u +[3/2] v")
    assert r.returncode == 1
    r = run("prove", "/nonexistent/file.json")
    assert r.returncode == 1


def test_state_cap_exit_code():
    r = run("lts", "--cap", "1", "a.b.0")
    assert r.returncode == 2 and r.stderr.startswith("error:")


def test_a_key_error_inside_a_command_is_an_internal_error(monkeypatch, capsys):
    # no input reaches a KeyError, so one is a fault and must not print as
    # bad input (exit 1)
    def fault(*args):
        raise KeyError("s9")

    monkeypatch.setattr(cli.semantics, "reachable", fault)
    assert _main_err(monkeypatch, capsys, "lts", "a.0") == (2, "", "internal error: 's9'\n")


def test_an_internal_error_with_no_message_is_named_by_its_type(monkeypatch, capsys):
    # a MemoryError has no message, and printed as "internal error: "
    def fault(*args):
        raise MemoryError()

    monkeypatch.setattr(cli.semantics, "reachable", fault)
    assert _main_err(monkeypatch, capsys, "lts", "a.0") == (2, "", "internal error: MemoryError\n")


# ---------------------------------------------------------------------------
# machine formats

def test_lts_json_is_valid_and_round_trips():
    import procalc as pc

    r = run("lts", "--format", "json", "--theory", "ca",
            "mu v. (a1.u +[1/2] (a2.v +[1/3] w))")
    assert r.returncode == 0
    c = pc.coalgebra_from_json(r.stdout)
    assert c.states == ("s0", "s1")


def test_lts_dot():
    r = run("lts", "--format", "dot", "a.0")
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")
    assert '"s0" -> "s1" [label="a"]' in r.stdout


def _dot(*lines):
    return "\n".join(["digraph lts {", *lines, "}"]) + "\n"


def test_lts_dot_golden_sl():
    r = run("lts", "--format", "dot", "mu v. (a.v + b.u)")
    assert r.returncode == 0
    assert r.stdout == _dot(
        '  "s0" [shape=circle];',
        '  "s1" [shape=circle];',
        '  "var_u" [shape=none, label="u"];',
        '  "s0" -> "s0" [label="a"];',
        '  "s0" -> "s1" [label="b"];',
        '  "s1" -> "var_u" [label="u", arrowhead="normalnormal"];',
    )


def test_lts_dot_golden_cm():
    r = run("lts", "--theory", "cm", "--format", "dot", "mu x. a.x + b.c.x + u")
    assert r.returncode == 0
    assert r.stdout == _dot(
        '  "s0" [shape=circle];',
        '  "s1" [shape=circle];',
        '  "var_u" [shape=none, label="u"];',
        '  "s0" -> "s0" [label="a"];',
        '  "s0" -> "s1" [label="b"];',
        '  "s0" -> "var_u" [label="u", arrowhead="normalnormal"];',
        '  "s1" -> "s0" [label="c"];',
    )


def test_lts_dot_golden_gs_lists_guard_atoms_in_declared_order():
    r = run("lts", "--theory", "gs", "--atoms", "x2,x1,x3", "--format", "dot",
            "mu v. (a.v +[x1 x2] (b.u +[x3] 0))")
    assert r.returncode == 0
    assert r.stdout == _dot(
        '  "s0" [shape=circle];',
        '  "s1" [shape=circle];',
        '  "var_u" [shape=none, label="u"];',
        '  "s0" -> "s0" [label="{x2 x1}|a"];',
        '  "s0" -> "s1" [label="{x3}|b"];',
        '  "s1" -> "var_u" [label="{x2 x1 x3}|u", arrowhead="normalnormal"];',
    )


def test_lts_dot_golden_cs_lists_each_weighted_edge_once():
    r = run("lts", "--theory", "cs", "--format", "dot",
            "(a.0 +[1/2] b.0) + (a.0 +[1/2] c.u)")
    assert r.returncode == 0
    assert r.stdout == _dot(
        '  "s0" [shape=circle];',
        '  "s1" [shape=circle];',
        '  "s2" [shape=circle];',
        '  "var_u" [shape=none, label="u"];',
        '  "s0" -> "s1" [label="1/2|a"];',
        '  "s0" -> "s1" [label="1/2|b"];',
        '  "s0" -> "s2" [label="1/2|c"];',
        '  "s2" -> "var_u" [label="1|u", arrowhead="normalnormal"];',
    )


def test_star_lts_dot_golden_tick_edges():
    r = run("star", "lts", "--theory", "ca", "--format", "dot", "(1 +[1/3] a)^[1/2]")
    assert r.returncode == 0
    assert r.stdout == _dot(
        '  "s0" [shape=circle];',
        '  "s1" [shape=circle];',
        '  "tick" [shape=none, label="ok"];',
        '  "s0" -> "s1" [label="1/3|a"];',
        '  "s0" -> "tick" [label="1/2|tick", arrowhead="normalnormal"];',
        '  "s1" -> "s1" [label="1/3|a"];',
        '  "s1" -> "tick" [label="1/2|tick", arrowhead="normalnormal"];',
    )


def test_lts_dot_cm_shows_multiplicities():
    twice = run("lts", "--theory", "cm", "--format", "dot", "mu v. (a.v + a.v + w)")
    once = run("lts", "--theory", "cm", "--format", "dot", "mu v. (a.v + w)")
    assert twice.returncode == once.returncode == 0
    assert twice.stdout != once.stdout
    assert '  "s0" -> "s0" [label="2|a"];' in twice.stdout
    assert '  "s0" -> "s0" [label="a"];' in once.stdout
    assert run("equiv", "--theory", "cm", "mu v. (a.v + a.v + w)",
               "mu v. (a.v + w)").returncode == 10


# one term with outputs per theory: its lts text, the JSON of its step and
# the DOT edges of its lts (every DOT graph has states s0, s1 and outputs u, v)
OUTPUTS = {
    "sl": ("mu x. (a.x + u) + b.v", "s0 = a.s0 + b.s1 + u\ns1 = v\n",
           '{"op": "+", "args": [{"op": "+", "args": [{"act": "a", "to": "mu x. a.x + u + b.v"}, '
           '{"act": "b", "to": "v"}]}, {"out": "u"}]}',
           ('"s0" -> "s0" [label="a"]', '"s0" -> "s1" [label="b"]',
            '"s0" -> "var_u" [label="u", arrowhead="normalnormal"]',
            '"s1" -> "var_v" [label="v", arrowhead="normalnormal"]')),
    "cm": ("mu x. (a.x + u) + (u + b.v)", "s0 = a.s0 + b.s1 + u + u\ns1 = v\n",
           '{"op": "+", "args": [{"op": "+", "args": [{"op": "+", "args": [{"act": "a", '
           '"to": "mu x. a.x + u + (u + b.v)"}, {"act": "b", "to": "v"}]}, {"out": "u"}]}, '
           '{"out": "u"}]}',
           ('"s0" -> "s0" [label="a"]', '"s0" -> "s1" [label="b"]',
            '"s0" -> "var_u" [label="2|u", arrowhead="normalnormal"]',
            '"s1" -> "var_v" [label="v", arrowhead="normalnormal"]')),
    "gs": ("mu x. (a.x +[x1] u) +[x2] b.v", "s0 = b.s1 +[x1] u\ns1 = v\n",
           '{"op": "+", "guard": ["x1"], "args": [{"act": "b", "to": "v"}, {"out": "u"}]}',
           ('"s0" -> "s1" [label="{x1}|b"]',
            '"s0" -> "var_u" [label="{x2}|u", arrowhead="normalnormal"]',
            '"s1" -> "var_v" [label="{x1 x2}|v", arrowhead="normalnormal"]')),
    "ca": ("mu x. (a.x +[1/3] u) +[1/2] b.v", "s0 = a.s0 +[1/6] (b.s1 +[3/5] u)\ns1 = v\n",
           '{"op": "+", "prob": "1/6", "args": [{"act": "a", '
           '"to": "mu x. a.x +[1/3] u +[1/2] b.v"}, '
           '{"op": "+", "prob": "3/5", "args": [{"act": "b", "to": "v"}, {"out": "u"}]}]}',
           ('"s0" -> "s0" [label="1/6|a"]', '"s0" -> "s1" [label="1/2|b"]',
            '"s0" -> "var_u" [label="1/3|u", arrowhead="normalnormal"]',
            '"s1" -> "var_v" [label="1|v", arrowhead="normalnormal"]')),
    "cs": ("mu x. (a.x +[1/3] u) + b.(v +[1/2] u)", "s0 = 0 + (a.s0 +[1/3] u) + b.s1\n"
           "s1 = 0 + (u +[1/2] v)\n",
           '{"op": "+", "args": [{"op": "+", "args": [{"const": "0"}, {"op": "+", "prob": "1/3", '
           '"args": [{"act": "a", "to": "mu x. a.x +[1/3] u + b.(v +[1/2] u)"}, {"out": "u"}]}]}, '
           '{"act": "b", "to": "v +[1/2] u"}]}',
           ('"s0" -> "s0" [label="1/3|a"]',
            '"s0" -> "var_u" [label="2/3|u", arrowhead="normalnormal"]',
            '"s0" -> "s1" [label="1|b"]',
            '"s1" -> "var_u" [label="1/2|u", arrowhead="normalnormal"]',
            '"s1" -> "var_v" [label="1/2|v", arrowhead="normalnormal"]')),
}


@pytest.mark.parametrize("theory", sorted(OUTPUTS))
def test_outputs_print_as_their_variables(theory, monkeypatch, capsys):
    term, text, step_json, edges = OUTPUTS[theory]
    common = ("--theory", theory, "--atoms", "x1,x2")
    assert _main(monkeypatch, capsys, "lts", *common, term) == (0, text)
    assert _main(monkeypatch, capsys, "step", "--format", "json", *common, term) == (
        0, step_json + "\n")
    assert _main(monkeypatch, capsys, "lts", "--format", "dot", *common, term) == (0, _dot(
        '  "s0" [shape=circle];', '  "s1" [shape=circle];',
        '  "var_u" [shape=none, label="u"];', '  "var_v" [shape=none, label="v"];',
        *(f"  {e};" for e in edges)))


def test_lts_json_writes_outputs_and_reads_them_back(tmp_path, monkeypatch, capsys):
    code, out = _main(monkeypatch, capsys, "lts", "--format", "json", "--theory", "ca",
                      OUTPUTS["ca"][0])
    act = {"act": "a", "to": "s0"}
    rest = {"op": "+", "prob": "3/5", "args": [{"act": "b", "to": "s1"}, {"out": "u"}]}
    assert (code, out) == (0, json.dumps({
        "theory": "ca", "states": ["s0", "s1"],
        "structure": {"s0": {"op": "+", "prob": "1/6", "args": [act, rest]},
                      "s1": {"out": "v"}}}, indent=2) + "\n")
    f = tmp_path / "c.json"
    f.write_text(out)
    assert _main(monkeypatch, capsys, "solve", str(f)) == (
        0, "s0 = mu s0. a.s0 +[1/6] (b.(mu s1. v) +[3/5] u)\ns1 = mu s1. v\n")


def test_step_json():
    r = run("step", "--format", "json", "--theory", "ca", "a.0 +[1/2] u")
    d = json.loads(r.stdout)
    assert d == {
        "op": "+",
        "prob": "1/2",
        "args": [{"act": "a", "to": "0"}, {"out": "u"}],
    }


# ---------------------------------------------------------------------------
# solve / skew / star subcommands

def test_solve_system_file(tmp_path):
    f = tmp_path / "sys.txt"
    f.write_text("x = a.y\ny = b.x\n")
    r = run("solve", str(f))
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "x = mu x. a.(mu y. b.x)"
    r = run("solve", str(f), "--state", "x")
    assert r.stdout == "mu x. a.(mu y. b.x)\n"


def test_solve_coalgebra_json(tmp_path):
    src = run("lts", "--format", "json", "--theory", "ca",
              "mu v. (a1.u +[1/2] (a2.v +[1/3] w))").stdout
    f = tmp_path / "c.json"
    f.write_text(src)
    r = run("solve", str(f), "--theory", "ca", "--state", "s0")
    assert r.returncode == 0 and r.stdout.strip()


def _malformed_coalgebra(tmp_path, edit):
    d = {
        "theory": "ca",
        "states": ["s0", "s1"],
        "structure": {
            "s0": {"op": "+", "prob": "1/2",
                   "args": [{"act": "a", "to": "s1"}, {"out": "u"}]},
            "s1": {"const": 0},
        },
    }
    edit(d)
    f = tmp_path / "c.json"
    f.write_text(json.dumps(d))
    return run("solve", str(f), "--theory", "ca")


def test_coalgebra_missing_structure_entry_names_the_state(tmp_path):
    r = _malformed_coalgebra(tmp_path, lambda d: d["structure"].pop("s1"))
    assert r.returncode == 1
    assert r.stderr == "error: state 's1' has no structure entry\n"


def test_coalgebra_bad_probability_names_the_state(tmp_path):
    for prob in ("abc", "1/0"):
        r = _malformed_coalgebra(
            tmp_path, lambda d: d["structure"]["s0"].update(prob=prob))
        assert r.returncode == 1
        assert r.stderr == f"error: state 's0': bad probability '{prob}'\n"


def test_hostile_probability_in_coalgebra_exits_1_through_cli_main(tmp_path, monkeypatch,
                                                                   capsys):
    # non-finite JSON numbers and decimal exponents are refused as they are
    f = tmp_path / "c.json"
    # read, before any 10 ** exponent is built; a bool is no probability, and
    # an integer too long for int reads as an infinite float
    huge = "1" + "0" * 5000
    for prob, shown in (("1e400", "inf"), ("Infinity", "inf"), ("-Infinity", "-inf"),
                        ('"1e-30000000"', "'1e-30000000'"), ('"1e-100000"', "'1e-100000'"),
                        ("true", "True"), (huge, "inf"), ("-" + huge, "-inf")):
        f.write_text('{"theory": "ca", "states": ["s0"], "structure": {"s0": {"op": "+", '
                     f'"prob": {prob}, "args": [{{"act": "a", "to": "s0"}}, {{"const": 0}}]}}}}}}')
        start = time.perf_counter()
        assert _main_err(monkeypatch, capsys, "solve", str(f), "--theory", "ca") == (
            1, "", f"error: state 's0': bad probability {shown}\n")
        assert time.perf_counter() - start < 1


def test_files_that_start_with_a_byte_order_mark_exit_1_through_cli_main(tmp_path, monkeypatch,
                                                                       capsys):
    # read_json's one decoder does not check for a BOM itself; the message
    # is json.loads's, and solve takes the file for JSON, not for a system
    message = "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
    f = tmp_path / "c.json"
    f.write_text("\ufeff" + json.dumps({"theory": "sl", "states": ["s0"],
                                        "structure": {"s0": {"act": "a", "to": "s0"}}}),
                 encoding="utf-8")
    assert _main_err(monkeypatch, capsys, "solve", str(f)) == (1, "", message)
    with open(os.path.join(PROOF_DIR, "sl_trans.json")) as fh:
        (tmp_path / "p.json").write_text("\ufeff" + fh.read(), encoding="utf-8")
    assert _main_err(monkeypatch, capsys, "prove", str(tmp_path / "p.json")) == (1, "", message)


def test_names_that_would_print_as_other_syntax_exit_1_through_cli_main(tmp_path, monkeypatch,
                                                                        capsys):
    # each would print as text that reads as other syntax: "s 0 = mu s 0. a.s 0",
    # "mu s0. .s0", "a b" and "mu mu. a.mu"
    names = "a name is an identifier other than mu, or %k"
    f = tmp_path / "c.json"
    for states, s0, message in (
            (["s 0"], {"act": "a", "to": "s 0"}, f"state 's 0': bad state id 's 0': {names}"),
            (["s0"], {"act": "", "to": "s0"}, f"state 's0': bad action '': {names}"),
            (["s0"], {"out": "a b"}, f"state 's0': bad output 'a b': {names}"),
            (["mu"], {"act": "a", "to": "mu"}, f"state 'mu': bad state id 'mu': {names}")):
        f.write_text(json.dumps({"theory": "sl", "states": states,
                                 "structure": {states[0]: s0}}))
        start = time.perf_counter()
        assert _main_err(monkeypatch, capsys, "solve", str(f)) == (1, "", f"error: {message}\n")
        assert time.perf_counter() - start < 1


def test_coalgebra_atoms_must_be_a_list_of_strings(tmp_path):
    for atoms in (5, "x1", ["x1", 2]):
        def edit(d):
            d.update(theory="gs", atoms=atoms)
            d["structure"]["s0"] = {"op": "+", "guard": ["x1"],
                                    "args": [{"act": "a", "to": "s1"}, {"out": "u"}]}
        r = _malformed_coalgebra(tmp_path, edit)
        assert r.returncode == 1
        assert r.stderr == "error: 'atoms' must be a list of strings\n"


def test_coalgebra_states_must_be_a_list_of_strings(tmp_path):
    for states in ("s0", ["s0", 1], 5):
        r = _malformed_coalgebra(tmp_path, lambda d: d.update(states=states))
        assert r.returncode == 1
        assert r.stderr == "error: 'states' must be a list of strings\n"


def test_coalgebra_states_must_be_distinct(tmp_path):
    r = _malformed_coalgebra(tmp_path, lambda d: d.update(states=["s0", "s1", "s0"]))
    assert r.returncode == 1
    assert r.stderr == "error: 'states' lists 's0' twice\n"


@pytest.mark.parametrize("argv", [
    ("lts", "mu x. x"), ("equiv", "0", "mu x. x"), ("star", "lts", "0"),
])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_must_be_positive(argv, cap):
    r = run(*argv, "--cap", cap)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: --cap must be a positive integer\n"
    assert run(*argv, "--cap", "1").returncode == 0


def test_coalgebra_structure_must_be_an_object(tmp_path):
    r = _malformed_coalgebra(tmp_path, lambda d: d.update(structure="s0"))
    assert r.returncode == 1
    assert r.stderr == "error: 'structure' must be an object\n"


def _malformed_proof(tmp_path, edit, name="sl_trans.json"):
    with open(os.path.join(PROOF_DIR, name)) as fh:
        d = json.load(fh)
    edit(d)
    f = tmp_path / "p.json"
    f.write_text(json.dumps(d))
    r = run("prove", str(f))
    assert r.returncode == 1
    return r.stderr


def test_proof_without_theory_names_the_field(tmp_path):
    f = tmp_path / "p.json"
    f.write_text("{}")
    r = run("prove", str(f))
    assert r.returncode == 1
    assert r.stderr == "error: proof has no 'theory' field\n"


def test_proof_without_steps_names_the_field(tmp_path):
    err = _malformed_proof(tmp_path, lambda d: d.pop("steps"))
    assert err == "error: proof has no 'steps' field\n"


def test_proof_step_without_lhs_names_the_step(tmp_path):
    def edit(d):
        assert d["steps"][2]["rule"] == "trans"
        d["steps"][2].pop("lhs")
    assert _malformed_proof(tmp_path, edit) == "error: step 3: no 'lhs' field\n"


def test_proof_bad_position_names_the_step(tmp_path):
    for at in (["x"], 5):
        err = _malformed_proof(tmp_path, lambda d: d["steps"][0].update(at=at))
        assert err == "error: step 1: 'at' must be a list of integers\n"


def test_proof_line_numbers_through_cli_main(tmp_path, monkeypatch, capsys):
    # a bool cites no line, as the text "1" does not; an integer too long
    # for int reads as inf, out of range as a reference and no position
    huge = "1" + "0" * 5000
    f = tmp_path / "p.json"

    def prove(field, value):
        step = {"rule": "sym", "lhs": "u", "rhs": "u", field: "@"}
        f.write_text(json.dumps({"theory": "sl", "goal": ["u", "u"], "steps": [
            {"rule": "refl", "lhs": "u", "rhs": "u"}, step]}).replace('"@"', value))
        start = time.perf_counter()
        result = _main_err(monkeypatch, capsys, "prove", str(f))
        assert time.perf_counter() - start < 1
        return result

    assert prove("ref", "1") == (0, "accepted\n", "")
    for ref, shown in (("true", "True"), ('"1"', "1"), (huge, "inf"), ("-" + huge, "-inf")):
        assert prove("ref", ref) == (
            11, f"rejected at step 2: reference to line {shown} is out of range\n", "")
    assert prove("refs", "[true]") == (
        11, "rejected at step 2: reference to line True is out of range\n", "")
    assert prove("at", f"[{huge}]") == (
        1, "", "error: step 2: 'at' must be a list of integers\n")


def test_proof_atoms_must_be_a_list_of_strings(tmp_path):
    for atoms in (5, "x1", ["x1", 2]):
        err = _malformed_proof(tmp_path, lambda d: d.update(atoms=atoms), "gs_gs1.json")
        assert err == "error: 'atoms' must be a list of strings\n"


def test_proof_bad_goal_names_the_field(tmp_path):
    err = _malformed_proof(tmp_path, lambda d: d.update(goal="0"))
    assert err == "error: 'goal' must be a list of two terms\n"


def test_proof_bad_bindings_name_the_step(tmp_path):
    err = _malformed_proof(tmp_path, lambda d: d["steps"][1].update(bindings=["x"]))
    assert err == "error: step 2: 'bindings' must map variables to terms\n"


def test_unguarded_system_exit_code(tmp_path):
    f = tmp_path / "sys.txt"
    f.write_text("x = x + a.0\n")
    assert run("solve", str(f)).returncode == 1


@pytest.mark.parametrize("text, message", [
    ("x = a.x\nx = b.x\n", "duplicate unknown 'x'"),
    ("x = a.x\ny = mu x. a.x\n", "unknown 'x' is bound in the equation for 'y'"),
    ("x = a.y\ny = b.(x +\n", "equation for 'y': unexpected token '' (at 7)"),
    ("x = a.y\ny = b.x + y\n", "unknown 'y' is unguarded in the equation for 'y'"),
], ids=["duplicate", "bound", "parse-error", "unguarded"])
def test_malformed_system_names_the_unknown_or_equation(tmp_path, text, message):
    f = tmp_path / "sys.txt"
    f.write_text(text)
    r = run("solve", str(f))
    assert r.returncode == 1
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize("atoms, bad", [("x 1,y", "x 1"), (",", ""), ("x1,+", "+")])
def test_gs_atoms_must_be_readable_in_a_guard(atoms, bad):
    r = run("step", "--theory", "gs", "--atoms", atoms, "a.0")
    assert r.returncode == 1
    assert r.stderr == f"error: bad atom {bad!r}: an atom is an identifier or a number\n"


def test_gs_coalgebra_without_atoms_names_the_field(tmp_path):
    r = _malformed_coalgebra(tmp_path, lambda d: d.update(theory="gs"))
    assert r.returncode == 1
    assert r.stderr == "error: theory gs needs a nonempty 'atoms' field\n"


def test_gs_proof_without_atoms_names_the_field(tmp_path):
    err = _malformed_proof(tmp_path, lambda d: d.pop("atoms"), "gs_gs1.json")
    assert err == "error: theory gs needs a nonempty 'atoms' field\n"


def test_skew():
    for name, expected in [("sl", "skew-associative"), ("cs", "not skew-associative")]:
        r = run("skew", "--theory", name)
        assert r.returncode == 0 and r.stdout == expected + "\n"


def test_star_equiv_ca_counterexample():
    r = run("star", "equiv", "--theory", "ca",
            "(1 +[1/3] a)^[1/2]",
            "(1 +[1/3] a) ; (1 +[1/3] a)^[1/2] +[1/2] 1")
    assert r.returncode == 10
    assert "(termination mass 1/2 vs 7/12)" in r.stdout


def test_star_estar():
    r = run("star", "estar", "E5", "--exp", "e=a")
    assert r.returncode == 0 and r.stdout == "E5 instance holds\n"
    r = run("star", "estar", "E5", "--theory", "ca", "--sigma", "1/2",
            "--exp", "e=1 +[1/3] a")
    assert r.returncode == 10 and "side condition fails" in r.stdout


def test_star_deriv_gkat():
    r = run("star", "deriv", "--theory", "gs", "--atoms", "x1,x2",
            "--gkat", "test[x1] ; a")
    assert r.returncode == 0
    assert r.stdout == (
        "derivative: a +[x1] (0 +[x1] 0) ; a\noutputs: {}\n"
    )


def test_star_step_golden():
    r = run("star", "step", "--theory", "ca", "(1 +[1/3] a)^[1/2]")
    assert r.returncode == 0
    assert "1/2" in r.stdout and "1/3" in r.stdout


# ---------------------------------------------------------------------------
# one parser per process: successive invocations share no state

def _run_in_process(capsys, *argv):
    """Run one invocation through ``cli.run`` in this process; return the
    exit code (or the error text) and stdout."""
    from procalc import cli, syntax, theory

    try:
        code = cli.run(list(argv))
    except (syntax.ParseError, theory.TheoryError) as err:
        code = f"error: {err}"
    return code, capsys.readouterr().out


def test_successive_runs_do_not_share_exp_lists(capsys):
    assert _run_in_process(capsys, "star", "estar", "E5", "--exp", "e=a") == \
        (0, "E5 instance holds\n")
    assert _run_in_process(capsys, "star", "estar", "E5") == \
        ("error: E5 needs expression 'e'", "")
    assert _run_in_process(capsys, "star", "estar", "E5", "--exp", "e=b") == \
        (0, "E5 instance holds\n")


def test_successive_runs_do_not_share_atoms(capsys):
    assert _run_in_process(capsys, "skew", "--theory", "gs", "--atoms", "x1") == \
        (0, "skew-associative\n")
    assert _run_in_process(capsys, "skew", "--theory", "gs") == \
        ("error: theory gs requires --atoms", "")

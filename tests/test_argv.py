"""The command line: ``cli.read_argv`` reads argv from the command table by
exact lookup and gives argparse's namespace, or None; ``cli.run`` then
falls back to argparse, which prints every help text, usage line and error,
and parses the unusual command lines the reader leaves to it."""

import contextlib
import io
import sys

import pytest

from procalc import cli

from make_golden import load, replay

# the one golden argv with a value that starts with "-"
UNREAD_GOLDEN = [["lts", "--cap", "-5", "mu x. x"]]


def parsed(argv):
    """``vars()`` of argparse's namespace for ``argv``; where argparse
    exits instead, its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()


def read(argv):
    """``read_argv(argv)``, checked against argparse where it reads."""
    got = cli.read_argv(argv)
    if got is not None:
        assert vars(got) == parsed(argv), argv
    return got


def main(monkeypatch, capsys, argv):
    """``cli.main()`` in this process: (exit code, stdout, stderr)."""
    monkeypatch.setattr(sys, "argv", ["procalc", *argv])
    with pytest.raises(SystemExit) as stop:
        cli.main()
    return (stop.value.code, *capsys.readouterr())


def test_reader_agrees_with_argparse_on_the_golden_corpus():
    unread = [case["argv"] for case in load() if read(case["argv"]) is None]
    assert unread == UNREAD_GOLDEN


def test_reader_agrees_with_argparse_on_random_command_lines():
    # argv over the table's vocabulary: a command path, then options and
    # positionals of that command in any order, mostly well formed, with at
    # times a bad value, one positional too many or too few, or a word the
    # reader leaves to argparse
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bad = ["xx", "ten", "1.5", "-5", "-x", "-", "--", "--theory", "E9"]
    terms = ["a.0", "a.0 + b.0", "x=a.x", "1/2", "step", ""]
    noise = ["-a.0", "--the", "--form", "--ca", "--g", "--st", "--e", "--theory=cs", "--cap=5",
             "--format=json", "--", "-", "-h", "--help", "--bogus", "--exp", "star", "nope"]

    def values(kw):
        good = [str(v) for v in kw.get("choices", ())] or (["5", "0", "+3", " 7", "1_000"]
                                                          if "type" in kw else terms)
        return st.sampled_from(good * 3 + bad)

    @st.composite
    def argvs(draw):
        path = draw(st.sampled_from([(), *cli.COMMANDS]))
        arguments = (cli.COMMANDS[path][1] if path else None) or ()
        options = [(name, kw) for name, kw in arguments if name.startswith("-")]
        positionals = [kw for name, kw in arguments if not name.startswith("-")]
        chunks = []
        for name, kw in draw(st.lists(st.sampled_from(options), max_size=4)) if options else ():
            chunks.append([name] if kw.get("action") == "store_true" else [name, draw(values(kw))])
        count = len(positionals) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        for kw in (positionals + [{}])[:max(count, 0)]:
            chunks.append([draw(values(kw))])
        chunks += [[word] for word in draw(st.lists(st.sampled_from(noise), max_size=1))]
        return [*path, *(word for chunk in draw(st.permutations(chunks)) for word in chunk)]

    seen = {True: 0, False: 0}

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argvs())
    def check(argv):
        seen[read(argv) is None] += 1

    check()
    assert seen[False] >= 200 and seen[True] >= 200, seen


@pytest.mark.parametrize("argv", [
    ["step", "-"], ["equiv", "-", "a.0"], ["equiv", "-", "-"], ["step", "--actions", "-", "a.0"],
    ["solve", "f", "--state", "-"], ["star", "estar", "E1", "--exp", "-", "--atoms", "-"],
])
def test_a_dash_word_is_read_as_a_value_like_argparse(argv):
    assert read(argv) is not None


def test_list_defaults_are_fresh_on_every_call():
    once = cli.read_argv(["star", "estar", "E1", "--exp", "e=a", "--exp", "f=b"])
    assert once.exp == ["e=a", "f=b"]
    first, second = (cli.read_argv(["star", "estar", "E1"]) for _ in range(2))
    assert first.exp == second.exp == [] and first.exp is not second.exp


BAD = [
    [], ["nope"], ["step"], ["step", "a.0", "b.0"], ["equiv", "a.0"], ["skew", "a.0"],
    ["star"], ["star", "nope", "a"], ["star", "estar", "E9"], ["star", "estar"],
    ["step", "--theory", "xx", "a.0"], ["step", "--format", "xml", "a.0"],
    ["step", "--cap", "ten", "a.0"], ["step", "--cap", "1.5", "a.0"], ["step", "--cap"],
    ["step", "--format=xml", "a.0"], ["step", "--bogus", "a.0"], ["solve", "--state"],
    ["step", "--theory", "--gkat", "a.0"], ["--theory", "cs", "step", "a.0"],
    ["star", "--theory", "cs", "step", "a"],
    ["step", "a.0", "--actions"], ["solve", "f", "--state"], ["star", "estar", "E1", "--exp"],
    ["star", "estar", "E1", "--sigma"], ["star", "estar", "E1", "--tau"],
    ["star", "estar", "E1", "--atoms"], ["step", "-", "--theory"],
]


@pytest.mark.parametrize("argv", BAD, ids=lambda argv: " ".join(argv) or "(none)")
def test_bad_command_lines_print_what_argparse_prints(argv, monkeypatch, capsys):
    assert cli.read_argv(argv) is None
    code, out, err = parsed(argv)
    assert code == 2 and out == "" and err.startswith("usage: procalc")
    assert main(monkeypatch, capsys, argv) == (2, "", err)


@pytest.mark.parametrize("argv", [["-h"], ["step", "-h"], ["star", "--help"], ["star", "estar", "-h"],
                                  ["solve", "f", "--he"]])
def test_help_is_argparse_help(argv, monkeypatch, capsys):
    code, out, err = parsed(argv)
    assert (code, err) == (0, "") and out.startswith("usage: procalc")
    assert main(monkeypatch, capsys, argv) == (0, out, "")


@pytest.mark.parametrize("argv, plain", [
    (["step", "--the", "cs", "a.0 +[1/2] b.0"], ["step", "--theory", "cs", "a.0 +[1/2] b.0"]),
    (["step", "--theory=ca", "a.0 +[1/3] b.0"], ["step", "--theory", "ca", "a.0 +[1/3] b.0"]),
    (["step", "--", "a.0 + b.0"], ["step", "a.0 + b.0"]),
    (["lts", "--cap=1", "a.b.0"], ["lts", "--cap", "1", "a.b.0"]),
    (["star", "estar", "E5", "--exp=e=a", "--th", "ca"],
     ["star", "estar", "E5", "--exp", "e=a", "--theory", "ca"]),
])
def test_unusual_command_lines_fall_back_to_argparse(argv, plain, monkeypatch, capsys):
    assert cli.read_argv(argv) is None and read(plain) is not None
    assert main(monkeypatch, capsys, argv) == main(monkeypatch, capsys, plain)


def test_golden_cases_replay_without_building_the_parser(monkeypatch):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for case in load():
        if case["argv"] not in UNREAD_GOLDEN:
            assert replay(case) == {k: case[k] for k in ("stdout", "stderr", "code")}, case["argv"]


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()

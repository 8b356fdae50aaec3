"""The scale ladder: each CLI command on inputs built for a size n.

A row of ``ROWS`` builds one ``procalc`` command line for n and checks its
exit code and output, through ``cli.main()`` in this process; no run may end
in an internal error.  Under pytest a row runs at its tier-1 size n and at
8n, after a warm-up, and its cost may grow at most 16x, as a linear cost
does and a quadratic one does not: the smaller ``tracemalloc`` peak of two
runs or, where only time grows, the best wall time of three.  A row known to
grow faster names its ROADMAP item, and its growth is a strict xfail, which
the fix must flip.  As a script, it runs each row at its CI size within its
wall-time bound:

    PYTHONPATH=src python tests/test_ladder.py
"""

import contextlib
import gc
import io
import json
import math
import os
import sys
import tempfile
import time
import tracemalloc
from collections import namedtuple
from unittest import mock

import pytest

from procalc import cli

# build(n) gives the argument list; n and ci are the tier-1 and CI sizes; seconds bounds the
# CI run; code is the exit code, or a tuple of codes; check(n, stdout, stderr) -> bool
Row = namedtuple("Row", "name build n ci seconds code check grows item",
                 defaults=(0, lambda n, out, err: not err, "memory", None))
ITEM10 = "ROADMAP item 10: printing caches the text of every node, O(n^2) for a chain"
ITEM12 = "ROADMAP item 12: a run of n choices builds n normal forms of growing size"
ITEM12_JSON = "ROADMAP item 12, stage 2: a sum nests in JSON, two more spaces of indent a level"
GROWTH = 8  # the larger size is GROWTH * n; its cost may be at most GROWTH ** 2 / 4 times n's
LEFT = "after_a_or_b"  # a long action: the text each level caches outweighs its other costs


class File(str):
    """An argument that ``invoke`` writes to a file, passing its path."""


class Stdin(str):
    """A TERM argument that ``invoke`` passes as ``-`` and writes to stdin."""


def out_is(text):
    return lambda n, out, err: (out, err) == (text(n), "")


def starts(text):
    return lambda n, out, err: out.startswith(text(n)) and not err


def err_is(text):
    return lambda n, out, err: (out, err) == ("", f"error: {text(n)}\n")


def total(n, op="+", summand="a{}.0", order=list):
    return f" {op} ".join(order(summand.format(i) for i in range(n)))


def seq(n):
    return " ; ".join(["a"] * n)


def right(n):
    return "a ; (" * n + "a ; b" + ")" * n


def masses(k, leaf):  # leaf(0) +[1/k] (leaf(1) +[1/(k - 1)] (...)): mass 1/k each
    return "".join(f"{leaf(i)} +[1/{k - i}] (" for i in range(k - 1)) + leaf(k - 1) + ")" * (k - 1)


def mix(k):  # perfbench/gen.py's mix(k), whose step has k * k + 1 points
    left = " + ".join(f"(a{i}.0 +[1/{i + 2}] b{i}.0)" for i in range(k))
    return f"({left}) +[1/2] ({total(k, summand='c{}.0')})"


def cyc(n, back):  # n nested binders; binder i recurs to x_back(i)
    return "".join(f"mu x{i}. a.(x{back(i)} + b." for i in range(n)) + "0" + ")" * n


def coalgebra(n, last, theory="sl", last_id=None):  # n states, the last one's structure last
    ids = [f"s{i}" for i in range(n - 1)] + [last_id or f"s{n - 1}"]
    structure = {a: {"act": "a", "to": b} for a, b in zip(ids, ids[1:])} | {ids[-1]: "LAST"}
    text = json.dumps({"theory": theory, "states": ids, "structure": structure})
    return File(text.replace('"LAST"', last))


def prob(n, p):  # n states, the last a ca choice with probability p
    return coalgebra(n, f'{{"op": "+", "prob": {p}, "args": [{{"act": "a", "to": "s0"}}, '
                        '{"const": 0}]}', "ca")


ROWS = [
    # process terms
    *(Row(f"step prefix chain over {body}", lambda n, body=body: ["step", "a." * n + body],
          200, 5000, 10, 0, out_is(lambda n, body=body: "a." * n + body + "\n"), item=ITEM10)
      for body in ("0", "(b.0 + c.0)")),
    Row("step sl sum", lambda n: ["step", total(n)], 50, 5000, 20, 0,
        out_is(lambda n: total(n, order=sorted) + "\n"), item=ITEM12),
    Row("lts sl sum", lambda n: ["lts", total(n)], 50, 5000, 20, 0, out_is(
        lambda n: f"s0 = {total(n, summand='a{}.s1', order=sorted)}\ns1 = 0\n"), item=ITEM12),
    Row("equiv sl sum and its reverse", lambda n: [
        "equiv", total(n), " + ".join(reversed(total(n).split(" + ")))], 50, 5000, 20, 0,
        starts(lambda n: "equivalent: "), item=ITEM12),
    Row("step cm sum", lambda n: ["step", "--theory", "cm", total(n)], 30, 2000, 10, 0,
        lambda n, out, err: f"a{n - 1}.0" in out, item=ITEM12),
    Row("step ca sum", lambda n: ["step", "--theory", "ca", total(n, "+[1/2]")], 25, 1200, 5,
        0, lambda n, out, err: f"a{n - 1}.0" in out, item=ITEM12),
    # no point of mix(k)'s step has a " + " in it, so its points are the summands
    Row("step cs mix(k), n = k * k", lambda n: ["step", "--theory", "cs", mix(math.isqrt(n))],
        49, 3600, 5, 0, lambda n, out, err: out.count(" + ") == math.isqrt(n) ** 2, item=ITEM10),
    Row("step cs unfolding of a k-way mixture, n = k * k", lambda n: [
        "step", "--theory", "cs", "mu x. " + masses(math.isqrt(n), "a{}.x".format)], 100, 10000,
        5, 0, lambda n, out, err: f"a{math.isqrt(n) - 1}.(mu x. " in out),
    Row("lts nested mus", lambda n: [
        "lts", "".join(f"mu x{i}. " for i in range(n)) + f"a.(x0 + b.x{n - 1})"], 125, 10000,
        10, 0, out_is(lambda n: "s0 = a.s1\ns1 = a.s1 + b.s2\ns2 = a.s1\n")),
    Row("equiv prefix cycle from stdin", lambda n: [
        "equiv", "--cap", str(3 * n), Stdin("mu x. " + "a." * n + "x"), "mu x. a.x"], 200,
        100000, 20, 0, starts(lambda n: "equivalent: ")),
    Row("equiv long cycle and its doubling", lambda n: [
        "equiv", "--cap", str(4 * n + 10), "mu x. " + "a." * n + "(u + a.x)",
        "mu x. " + "a." * n + "(u + a." + "a." * n + "(u + a.x))"], 80, 20000, 10, 0,
        lambda n, out, err: out.startswith("equivalent: stable partition: ")
        and out.count("{") == n + 1),
    Row("equiv cyc(n), x0, from stdin", lambda n: [
        "equiv", "--cap", str(15 * n), Stdin(cyc(n, lambda i: 0)), "mu y. a.(y + b.y)"], 40,
        20000, 20, 10, starts(lambda n: f"not equivalent: split at refinement round {2 * n + 1}")),
    Row("equiv cyc(n), renamed", lambda n, back=lambda i: 7 * i % max(i, 1): [
        "equiv", "--cap", str(15 * n), cyc(n, back), cyc(n, back).replace("x", "y")], 16, 5000,
        20, 0, starts(lambda n: "equivalent: ")),
    # s_i = a.s_i+1 + b.s_3i+1 mod n: no growth bound, as its answer's text is exponential
    Row("solve ring(n)", lambda n: ["solve", File(json.dumps({"theory": "sl", "states": [
        f"s{i}" for i in range(n)], "structure": {f"s{i}": {"op": "+", "args": [
            {"act": "a", "to": f"s{(i + 1) % n}"}, {"act": "b", "to": f"s{(3 * i + 1) % n}"}]}
            for i in range(n)}})), "--state", "s0"], 11, 14, 10, 0,
        lambda n, out, err: len(out.encode()) == {11: 16787, 14: 26647101}[n], grows=None),
    Row("solve chain(n): s_i = a.s_i+1 + b.s0", lambda n: ["solve", File("\n".join(
        [f"s{i} = a.s{i + 1} + b.s0" for i in range(n - 1)] + [f"s{n - 1} = a.0"])),
        "--state", "s0"], 50, 4000, 5, 0, out_is(lambda n: "mu s0. " + "".join(
            f"a.(mu s{i}. " for i in range(1, n)) + "a.0" + ") + b.s0" * (n - 1) + "\n"),
        item=ITEM10),
    # star expressions
    Row("star step a ; a ; ...", lambda n: ["star", "step", seq(n)], 150, 3000, 10, 0,
        out_is(lambda n: "a.(1" + " ; a" * (n - 1) + ")\n"), item=ITEM10),
    Row("star lts a ; a ; ...", lambda n: ["star", "lts", seq(n)], 80, 3000, 10, 0, out_is(
        lambda n: "".join(f"s{k} = a.s{k + 1}\n" for k in range(n)) + f"s{n} = 1\n")),
    Row("star deriv a ; a ; ...", lambda n: ["star", "deriv", seq(n)], 100, 2000, 2, 0,
        out_is(lambda n: f"derivative: {seq(n)}\noutputs: no\n"), item=ITEM10),
    Row("star estar E5 a ; a ; ...", lambda n: ["star", "estar", "E5", "--exp", f"e={seq(n)}"],
        125, 4000, 2, 0, out_is(lambda n: "E5 instance holds\n"), grows="time"),
    Row("star estar E5 (1 + 1) ; (1 + 1) ; ...", lambda n: [
        "star", "estar", "E5", "--exp", "e=" + ";".join(["(1 + 1)"] * n)], 250, 4000, 1, 10,
        out_is(lambda n: "E5 side condition fails: loop body is not guarded\n"), grows="time"),
    Row("star step cs k-way mixture ; b", lambda n: [
        "star", "step", "--theory", "cs", f"({masses(n, 'a{}'.format)}) ; b"], 20, 400, 5, 0,
        lambda n, out, err: f"a{n - 1}.(1 ; b)" in out, item=ITEM10),
    Row("star step nested brackets", lambda n: ["star", "step", "(" * n + "a" + ")" * n], 375,
        30000, 10, 0, out_is(lambda n: "a.1\n")),
    Row("star step a ; (a ; (...))", lambda n: ["star", "step", right(n)], 100, 3000, 10, 0,
        out_is(lambda n: f"a.(1 ; {right(n)[4:]})\n"), item=ITEM10),
    Row("star lts a ; (a ; (...))", lambda n: ["star", "lts", right(n)], 80, 3000, 10, 0,
        out_is(lambda n: "".join(f"s{k} = a.s{k + 1}\n" for k in range(n + 1))
               + f"s{n + 1} = b.s{n + 2}\ns{n + 2} = 1\n")),
    Row("star equiv a ; (a ; (...)) and a ; a ; ...", lambda n: [
        "star", "equiv", right(n), "a ; " * (n + 1) + "b"], 60, 3000, 10, 0,
        starts(lambda n: "equivalent: ")),
    Row("star deriv a ; (a ; (...))", lambda n: ["star", "deriv", right(n)], 100, 3000, 10, 0,
        out_is(lambda n: f"derivative: {right(n)}\noutputs: no\n"), item=ITEM10),
    *(Row(f"star {command} ((a + b) ; {LEFT} ; ...)^*", lambda n, command=command: [
        "star", command, "(" * n + "a + b" + f") ; {LEFT}" * (n - 1) + ")^*",
        *[f"((a + b){f' ; {LEFT}' * (n - 1)})^*"][:command == "equiv"]], 60, 3000, 10,
        item=ITEM10) for command in ("step", "lts", "deriv", "equiv")),
    # JSON, deep or hostile
    Row("solve deep coalgebra JSON", lambda n: ["solve", coalgebra(
        1, '{"op": "+", "args": [' * n + '{"act": "a", "to": "s0"}'
        + ', {"act": "b", "to": "s0"}]}' * n), "--state", "s0"], 3000, 30000, 5, 1,
        err_is(lambda n: "coalgebra JSON is nested too deeply")),
    Row("prove deep proof JSON", lambda n: ["prove", File(
        '{"theory": "sl", "goal": ["0", "0"], "steps": ' + "[" * n + "]" * n + "}")],
        3000, 30000, 5, 1, err_is(lambda n: "proof JSON is nested too deeply")),
    # one repeated cm summand: a deep sum whose step is linear.  At the depth
    # limit (499 summands nest 999 levels) the 3.11 encoder may run out of stack
    *(Row(f"{command} --format json cm sum, {case}", lambda n, command=command: [
        command, "--format", "json", "--theory", "cm", total(n, summand="a.0")], n, ci, 10, code,
        lambda n, out, err, said=f"error: {what} JSON would be nested too deeply\n", code=code:
        (out, err) == ("", said) or code != 1 and out and not err,
        item=ITEM12_JSON if (command, ci) == ("lts", 499) else None)
      for command, what in (("lts", "state 's0': coalgebra"), ("step", "normal form"))
      for case, n, ci, code in (("too deep", 501, 6000, 1), ("at the limit", 40, 499, (0, 1)))),
    Row("solve lts JSON of an sl sum", lambda n: ["solve", File(invoke(
        ["lts", "--format", "json", total(n)])[1]), "--state", "s0"], 30, 400, 5, 0,
        out_is(lambda n: f"mu s0. {total(n, summand='a{}.(mu s1. 0)', order=sorted)}\n"),
        item=ITEM12_JSON),
    Row("solve non-finite probability, n states", lambda n: ["solve", prob(n, "1e400")], 100,
        10000, 10, 1, err_is(lambda n: f"state 's{n - 1}': bad probability inf")),
    Row("solve boolean probability, n states", lambda n: ["solve", prob(n, "true")], 100,
        10000, 10, 1, err_is(lambda n: f"state 's{n - 1}': bad probability True")),
    Row("solve probability 1e-n", lambda n: ["solve", prob(1, f'"1e-{n}"')], 3750000,
        30000000, 10, 1, err_is(lambda n: f"state 's0': bad probability '1e-{n}'")),
    Row("solve probability of n + 1 digits", lambda n: ["solve", prob(1, "1" + "0" * n)], 5000,
        50000, 10, 1, err_is(lambda n: "state 's0': bad probability inf")),
    Row("solve spaced state id, n states", lambda n: ["solve", coalgebra(
        n, '{"const": 0}', last_id=f"s {n - 1}")], 100, 10000, 10, 1, err_is(
        lambda n: f"state 's {n - 1}': bad state id 's {n - 1}': a name is an identifier "
                  "other than mu, or %k")),
    Row("prove reference to line true after n steps", lambda n: ["prove", File(
        '{"theory": "sl", "goal": ["u", "u"], "steps": ['
        + '{"rule": "refl", "lhs": "u", "rhs": "u"}, ' * n
        + '{"rule": "sym", "ref": true, "lhs": "u", "rhs": "u"}]}')], 100, 10000, 10, 11,
        out_is(lambda n: f"rejected at step {n + 1}: reference to line True is out of range\n")),
]


def invoke(argv, trace=False):
    """One ``procalc`` run through ``cli.main()``: (exit code, stdout, stderr, cost), the
    cost being the ``tracemalloc`` peak in bytes if ``trace``, else the wall time in s."""
    out, err, stdin = io.StringIO(), io.StringIO(), ""
    with tempfile.TemporaryDirectory() as tmp:
        for i, arg in enumerate(argv):
            if type(arg) is Stdin:
                argv[i], stdin = "-", arg
            elif type(arg) is File:
                argv[i] = os.path.join(tmp, f"arg{i}")
                with open(argv[i], "w") as fh:
                    fh.write(arg)
        with mock.patch.object(sys, "argv", ["procalc", *argv]), \
                mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            gc.collect()  # it sweeps the term table: each run starts alike, reusing no nodes
            if trace:
                tracemalloc.start()
            start = time.perf_counter()
            with pytest.raises(SystemExit) as stop:
                cli.main()
            cost = tracemalloc.get_traced_memory()[1] if trace else time.perf_counter() - start
            tracemalloc.stop()
    return stop.value.code, out.getvalue(), err.getvalue(), cost


def run(row, n, trace=False):
    """Run ``row`` at size n; return its cost, or raise AssertionError."""
    code, out, err, cost = invoke(row.build(n), trace)
    codes = row.code if isinstance(row.code, tuple) else (row.code,)
    assert code in codes and "internal error" not in err and row.check(n, out, err), \
        f"{row.name} at n = {n}: exit {code}, stdout {out[:80]!r}, stderr {err[:200]!r}"
    return cost


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row(row, request):
    gc.freeze()  # the collection before each run then walks only what the row makes
    try:
        run(row, row.n)  # a warm-up, and the one run of a row with no growth bound
        if row.grows is None:
            return
        trace = row.grows == "memory"
        small, large = (min(run(row, n, trace) for _ in range(2 if trace else 3))
                        for n in (row.n, GROWTH * row.n))
    finally:
        gc.unfreeze()
    assert trace or large <= row.seconds
    if row.item:  # the output is checked; only the growth is known to fail
        request.applymarker(pytest.mark.xfail(strict=True, reason=row.item))
    assert large <= GROWTH ** 2 / 4 * small, f"{row.grows} {small:.3g} -> {large:.3g}"


def main():
    """Run every row at its CI size; list each, and exit 1 if any fails."""
    failed = 0
    for row in ROWS:
        try:
            seconds = run(row, row.ci)
            problem = f": over its bound of {row.seconds} s" if seconds > row.seconds else ""
        except AssertionError as err:
            seconds, problem = float("nan"), f": {err}"
        failed += bool(problem)
        print(f"{'FAIL' if problem else 'ok':4s} {seconds:7.2f} s  {row.name} (n = {row.ci})"
              f"{problem}", flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass at CI size")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

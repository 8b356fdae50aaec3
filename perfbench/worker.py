"""One benchmark run inside a fresh interpreter.

    python3 perfbench/worker.py --setup-only --theories sl,gs
    python3 perfbench/worker.py --ops OPS.json --seconds S [--after AFTER.json]
    python3 perfbench/worker.py --ops OPS.json --trace SPANS.json

Run from the repository root; procalc is imported from ./src, not from an
installed package.  The worker reports on stdout, one JSON object a line:
``{"ready": true}`` with ``--setup-only``, once procalc is imported and the
theories are built; otherwise ``{"op": id, "exit": ...,
"dt": ..., "stdout": ...}`` per op, where untraced ops also carry their
start ``t`` in the loop, ``ref``, the time of the reference job measured
around the op, and ``rss_mb``, the peak memory so far; and a final
``{"end": {...}}``.  Lines are flushed as they are written, so a run that
is killed still reports every op it finished.

Untraced, ops run through ``procalc.cli.main()`` with ``sys.argv`` set, one
after another from a single client (a closed loop), until ``--seconds``
have passed; the ops in ``--after`` run once the loop is done.  Between two
ops the worker times ``reference()``, a fixed job that calls no procalc
code, so that each op's latency can be read against the machine's speed at
that moment.  With ``--trace``, every op in ``--ops`` runs through
``tracing.traced_op`` and the spans are written to SPANS.json at the end.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import gen

# the reference job runs this many times per probe
REF_REPEAT = 2


def emit(chan, record):
    chan.write(json.dumps(record) + "\n")
    chan.flush()


def setup(theories):
    sys.path.insert(0, os.path.abspath("src"))
    import procalc
    from procalc import cli

    for name in theories:
        procalc.make_theory(name, list(gen.ATOMS) if name == "gs" else None)
    return cli


def run_cli(cli, argv):
    """One CLI invocation in this process: (exit code, seconds, stdout)."""
    sys.argv = ["procalc", *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            cli.main()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def reference():
    """A fixed pure-Python job of about 3 ms that does the kinds of work
    procalc does (hashing tuples, dict updates, building and sorting
    strings, Fraction arithmetic, recursion) without calling procalc."""
    counts = {}
    for i in range(3000):
        key = ("n", i % 97, str(i))
        counts[key] = counts.get(key, 0) + 1
    names = sorted((f"{v}.{k[2]}" for k, v in counts.items()), reverse=True)
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 3)

    def depth(n):
        return 0 if n == 0 else 1 + depth(n - 1)

    return len(names) + depth(200) + acc.numerator % 7


def probe():
    """Seconds per run of ``reference()``, timed with the collector off so
    that procalc's heap does not slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REF_REPEAT):
            reference()
        return (time.perf_counter() - start) / REF_REPEAT
    finally:
        gc.enable()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--theories", default="sl")
    ap.add_argument("--ops")
    ap.add_argument("--after")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace")
    args = ap.parse_args()
    chan = sys.stdout

    if args.setup_only:
        setup(args.theories.split(","))
        emit(chan, {"ready": True})
        return
    with open(args.ops) as fh:
        ops = json.load(fh)
    cli = setup(gen.theories_of(ops))

    if args.trace:
        import tracing

        tr = tracing.Tracer()
        for op in ops:
            code, stdout, seconds = tracing.traced_op(tr, op)
            emit(chan, {"op": op["id"], "exit": code, "dt": seconds, "stdout": stdout})
        with open(args.trace, "w") as fh:
            json.dump(tr.spans, fh)
        emit(chan, {"end": {"layers": tracing.layer_metrics(tr)}})
        return

    start = time.perf_counter()
    ref = probe()
    for op in ops:
        t = time.perf_counter() - start
        if t >= args.seconds:
            break
        code, seconds, stdout = run_cli(cli, op["argv"])
        ref_after = probe()
        emit(chan, {"op": op["id"], "exit": code, "t": t, "dt": seconds,
                    "ref": (ref + ref_after) / 2, "stdout": stdout, "rss_mb": peak_rss_mb()})
        ref = ref_after
    if args.after:
        with open(args.after) as fh:
            after = json.load(fh)
        for op in after:
            code, seconds, stdout = run_cli(cli, op["argv"])
            emit(chan, {"after": op["id"], "exit": code, "dt": seconds, "stdout": stdout})
    emit(chan, {"end": {}})


if __name__ == "__main__":
    main()

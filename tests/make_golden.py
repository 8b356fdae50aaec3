"""Generator of the golden CLI corpus, ``tests/golden/cli.json``.

Every case is one ``procalc`` invocation: an argument list and, for
``solve`` and ``prove``, the contents of the file it reads (``{file}`` in
the arguments stands for that file's path).  The script runs each case
through ``procalc.cli.main()`` in-process and records stdout, stderr and
the exit code; ``tests/test_golden.py`` replays the corpus and compares
all three byte for byte.  Terms come from a fixed seed and are built as
text, so the case list does not depend on procalc itself.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py           # rewrite the corpus
    PYTHONPATH=src python tests/make_golden.py --check   # replay, list differences
    PYTHONPATH=src python tests/make_golden.py --check --perturb 7

``--perturb SEED`` keeps a seeded random number of extra term nodes and
other objects alive before each case.  Term nodes hash by identity, so
their addresses decide the iteration order of sets of nodes, which
``PYTHONHASHSEED`` does not vary; output must not depend on it.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "golden", "cli.json")
PROOF_DIR = os.path.join(HERE, "proofs")

ATOMS = ("x1", "x2")
THEORY_ARGS = {
    "sl": ["--theory", "sl"],
    "cm": ["--theory", "cm"],
    "gs": ["--theory", "gs", "--atoms", "x1,x2"],
    "ca": ["--theory", "ca"],
    "cs": ["--theory", "cs"],
}
OPS = {
    "sl": ["+"],
    "cm": ["+"],
    "gs": ["+[x1]", "+[x2]", "+[x1 x2]", "+[]"],
    "ca": ["+[1/2]", "+[1/3]", "+[2/3]", "+[0]", "+[1]"],
    "cs": ["+", "+", "+[1/2]", "+[1/3]", "+[1]"],
}
STARS = {
    "sl": ["^*"],
    "cm": ["^*"],
    "gs": ["^[x1]", "^[x2]", "^[]"],
    "ca": ["^[1/2]", "^[1/3]"],
    "cs": ["^*", "^[1/2]"],
}
ACTIONS = ("a", "b", "c")
OUTPUTS = ("u", "v", "w")


# ---------------------------------------------------------------------------
# seeded term text

def rand_term(rng, theory, depth, bound=()):
    kinds = ["zero", "var", "var"] if depth <= 0 else [
        "zero", "var", "prefix", "prefix", "op", "op", "mu"]
    kind = rng.choice(kinds)
    if kind == "zero":
        return "0"
    if kind == "var":
        return rng.choice(OUTPUTS + tuple(bound))
    if kind == "prefix":
        return f"{rng.choice(ACTIONS)}.{rand_term(rng, theory, depth - 1, bound)}"
    if kind == "op":
        l = rand_term(rng, theory, depth - 1, bound)
        r = rand_term(rng, theory, depth - 1, bound)
        return f"({l} {rng.choice(OPS[theory])} {r})"
    x = rng.choice(("x", "y", "z"))
    return f"(mu {x}. {rand_term(rng, theory, depth - 1, bound + (x,))})"


def rand_star(rng, theory, depth):
    kinds = ["zero", "one", "act", "act"] if depth <= 0 else [
        "zero", "one", "act", "choice", "choice", "seq", "seq", "star"]
    kind = rng.choice(kinds)
    if kind == "zero":
        return "0"
    if kind == "one":
        return "1"
    if kind == "act":
        return rng.choice(ACTIONS)
    if kind == "choice":
        l, r = rand_star(rng, theory, depth - 1), rand_star(rng, theory, depth - 1)
        return f"({l} {rng.choice(OPS[theory])} {r})"
    if kind == "seq":
        l, r = rand_star(rng, theory, depth - 1), rand_star(rng, theory, depth - 1)
        return f"({l} ; {r})"
    body = f"{rng.choice(ACTIONS)} ; {rand_star(rng, theory, depth - 1)}"
    return f"({body}){rng.choice(STARS[theory])}"


def long_cycle(k, op, laps=1):
    """``mu x. a^k.(u OP a.x)``, unfolded ``laps`` times."""
    body, close = "", ""
    for _ in range(laps):
        body += "a." * k + f"(u {op} a."
        close += ")"
    return f"mu x. {body}x{close}"


# ---------------------------------------------------------------------------
# the cases

def cases():
    rng = random.Random(20261018)
    out = []

    def add(*argv, file=None):
        case = {"argv": list(argv)}
        if file is not None:
            case["file"] = file
        out.append(case)

    # README examples
    add("step", "--theory", "ca", "mu v. (a1.u +[1/2] (a2.v +[1/3] w))")
    add("lts", "--theory", "ca", "mu v. (a1.u +[1/2] (a2.v +[1/3] w))")
    add("equiv", "mu v. a.v", "a.(mu v. a.v)")
    add("solve", "{file}", "--state", "x", file="x = a.y\ny = b.x\n")
    add("prove", "{file}", file=_read(os.path.join(PROOF_DIR, "sl_r3.json")))
    add("star", "equiv", "--theory", "ca", "(1 +[1/3] a)^[1/2]",
        "(1 +[1/3] a) ; (1 +[1/3] a)^[1/2] +[1/2] 1")
    add("star", "estar", "E5", "--exp", "e=a")
    add("star", "deriv", "--theory", "gs", "--atoms", "x1,x2", "--gkat", "test[x1] ; a")
    add("skew", "--theory", "cs")
    add("step", "a.0")

    # step targets that print bracketed, and ones that do not
    for t in ("x.a.(b.0 + c.0)", "x.(a.0 + b.0) + y.mu z. a.z", "a.b.c.0",
              "a.(mu x. b.x) + b.(u + v)", "a.0 + b.u"):
        add("step", t)
        add("step", "--format", "json", t)
        add("lts", t)
    add("step", "--theory", "ca", "x.(a.0 +[1/2] b.0) +[1/3] y.c.0")
    add("step", "--theory", "gs", "--atoms", "x1,x2", "x.(a.0 +[x1] b.0) +[x2] y.0")
    add("star", "step", "a ; (b + c)")
    add("star", "step", "a ; b^*")

    # step / lts in every format, every theory
    for theory in OPS:
        ta = THEORY_ARGS[theory]
        for _ in range(5):
            t = rand_term(rng, theory, 4)
            add("step", *ta, t)
            add("step", *ta, "--format", "json", t)
            add("lts", *ta, t)
            add("lts", *ta, "--format", "json", t)
            add("lts", *ta, "--format", "dot", t)

    # equiv: random pairs, idempotent pairs, long cycles
    for theory in OPS:
        ta = THEORY_ARGS[theory]
        op = OPS[theory][0]
        for _ in range(5):
            add("equiv", *ta, rand_term(rng, theory, 3), rand_term(rng, theory, 3))
        for _ in range(3):
            t = rand_term(rng, theory, 3)
            add("equiv", *ta, t, f"({t}) {op} ({t})")
        add("equiv", *ta, long_cycle(3, op), long_cycle(3, op, laps=2))
        add("equiv", *ta, long_cycle(3, op), long_cycle(3, op).replace("(u", "(v"))
        add("skew", *ta)

    # solve: systems, exported coalgebras, state selection
    systems = {
        "sl": "x = a.y + u\ny = b.x + c.y\n",
        "cm": "# a comment\nx = a.x + a.y\n\ny = b.0 + v\n",
        "gs": "x = a.y +[x1] u\ny = b.x +[x2] c.y\n",
        "ca": "x = a.y +[1/2] u\ny = b.x +[1/3] c.y\n",
        "cs": "x = (a.y +[1/2] u) + b.x\ny = c.y\n",
    }
    for theory, text in systems.items():
        ta = THEORY_ARGS[theory]
        add("solve", *ta, "{file}", file=text)
        add("solve", *ta, "{file}", "--state", "y", file=text)
        add("solve", *ta, "{file}", "--state", "nope", file=text)
    for theory in OPS:
        ta = THEORY_ARGS[theory]
        for _ in range(3):
            t = rand_term(rng, theory, 4)
            exported = run(["lts", *ta, "--format", "json", t], None)["stdout"]
            add("solve", *ta, "{file}", file=exported)
            add("solve", *ta, "{file}", "--state", "s0", file=exported)
    # a coalgebra file whose state ids s0 and s1 are also outputs
    clash = json.dumps({"theory": "sl", "states": ["s0", "s1", "s2", "s3"], "structure": {
        "s0": {"op": "+", "args": [{"act": "a", "to": "s1"}, {"act": "b", "to": "s2"}]},
        "s1": {"out": "s0"},
        "s2": {"op": "+", "args": [{"act": "a", "to": "s3"}, {"out": "s1"}]},
        "s3": {"const": "0"}}}, indent=2) + "\n"
    add("solve", "{file}", file=clash)
    add("solve", "{file}", "--state", "s1", file=clash)

    # prove: every bundled proof
    for name in sorted(os.listdir(PROOF_DIR)):
        add("prove", "{file}", file=_read(os.path.join(PROOF_DIR, name)))

    # the star fragment
    for theory in OPS:
        ta = THEORY_ARGS[theory]
        for _ in range(3):
            s = rand_star(rng, theory, 3)
            add("star", "step", *ta, s)
            add("star", "step", *ta, "--format", "json", s)
            add("star", "lts", *ta, s)
            add("star", "lts", *ta, "--format", "dot", s)
            add("star", "deriv", *ta, s)
        for _ in range(2):
            add("star", "equiv", *ta, rand_star(rng, theory, 3), rand_star(rng, theory, 3))
        sigma = STARS[theory][0][2:-1] or "*"
        tau = OPS[theory][0][2:-1] or "*"
        add("star", "estar", "E1", *ta, "--exp", "e=a ; b")
        add("star", "estar", "E2", *ta, "--exp", "e=a")
        add("star", "estar", "E3", *ta, "--exp", "e1=a", "--exp", "e2=b", "--exp", "e3=c")
        add("star", "estar", "E4", *ta, "--exp", "e=a", "--sigma", sigma, "--tau", tau)
        add("star", "estar", "E5", *ta, "--exp", "e=a ; b", "--sigma", sigma)
        add("star", "estar", "E5", *ta, "--exp", "e=1", "--sigma", sigma)
        add("star", "estar", "E6", *ta, "--exp", "g=(a)" + STARS[theory][0] + " ; c",
            "--exp", "e=a", "--exp", "f=c", "--sigma", sigma)
    add("star", "deriv", "--theory", "gs", "--atoms", "x1,x2", "--gkat",
        "(test[x1] ; a)^[x2] ; b")
    add("star", "equiv", "--theory", "gs", "--atoms", "x1,x2", "--gkat",
        "test[x1] ; a +[x1] b", "a +[x1] b")
    add("star", "lts", "--theory", "ca", "--format", "json", "(1 +[1/3] a)^[1/2]")
    add("star", "estar", "E6", "--exp", "g=a", "--exp", "e=a")

    # errors in terms, parameters, flags
    add("step", "a. + v")
    add("step", "--theory", "ca", "u +[3/2] v")
    add("step", "--theory", "sl", "u +[1/2] v")
    add("step", "--theory", "gs", "--atoms", "x1,x2", "u +[x3] v")
    add("step", "--theory", "gs", "u +[x1] v")
    add("step", "--theory", "ca", "u +[1/0] v")
    add("step", "a.x + x")
    add("step", "--actions", "a,b", "a.c.0")
    add("step", "(a.0")
    add("step", "a.0 $")
    add("lts", "--cap", "1", "a.b.0")
    add("lts", "--cap", "-5", "mu x. x")
    add("equiv", "--cap", "0", "a.0", "a.0")
    add("star", "lts", "--cap", "0", "a")
    add("star", "step", "--theory", "ca", "a^*")
    add("star", "deriv", "--theory", "ca", "a")
    add("star", "estar", "E3", "--exp", "e1=a")
    add("star", "estar", "E1", "--exp", "a")

    # gs atoms that guard syntax cannot read back
    add("step", "--theory", "gs", "--atoms", ",", "a.0")
    add("step", "--theory", "gs", "--atoms", "x1,x1", "a.0")
    add("lts", "--theory", "gs", "--atoms", "x 1,y", "--format", "json", "a.0 +[y] b.0")
    add("step", "--theory", "gs", "--atoms", "x1,+", "a.0 +[x1] b.0")
    add("solve", "{file}", file=json.dumps(
        {"theory": "gs", "states": ["s0"], "structure": {"s0": {"out": "u"}}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "gs", "atoms": [], "states": ["s0"], "structure": {"s0": {"out": "u"}}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "gs", "atoms": ["x1", ""], "states": ["s0"],
         "structure": {"s0": {"out": "u"}}}))
    add("prove", "{file}", file=json.dumps(
        {"theory": "gs", "goal": ["u", "u"], "steps": [{"rule": "refl", "lhs": "u", "rhs": "u"}]}))

    # malformed equation systems
    add("solve", "{file}", file="x = a.x\nx = b.x\n")
    add("solve", "{file}", file="x = a.x\ny = mu x. a.x\n")
    add("solve", "{file}", file="x = a.y\ny = b.(x +\n")
    add("solve", "{file}", file="x = a.y\ny = b.x + y\n")
    add("solve", "{file}", file="x = y\ny = a.x\n")
    add("solve", "{file}", file="x = a.x\nnonsense\n")
    add("solve", "{file}", file="1x = a.0\n")
    add("solve", "{file}", file="# comment\n")
    empty = json.dumps({"theory": "sl", "states": [], "structure": {}})
    add("solve", "{file}", file=empty)
    add("solve", "{file}", "--state", "q", file=empty)

    # malformed structure JSON
    def coalgebra(s0, theory="ca", **extra):
        return json.dumps({"theory": theory, **extra, "states": ["s0", "s1"],
                           "structure": {"s0": s0, "s1": {"const": "0"}}})

    act = {"act": "a", "to": "s1"}
    for s0 in (
        {"op": "+", "prob": "1/2", "args": [act]},
        {"op": "+", "prob": "1/2", "args": [act, act, act]},
        {"op": "+", "prob": "1/2"},
        {"op": "+", "prob": "x/2", "args": [act, act]},
        {"op": "+", "prob": "3/2", "args": [act, act]},
        {"op": "+", "args": [act, act]},
        {"act": "a"},
        {"bogus": 1},
        "s1",
        {"act": "a", "to": "s9"},
        {"op": "+", "prob": "1/2", "args": [act, {"act": "b", "to": "s7"}]},
    ):
        add("solve", "--theory", "ca", "{file}", file=coalgebra(s0))
    add("solve", "{file}", file=coalgebra(
        {"op": "+", "guard": "x1", "args": [act, act]}, "gs", atoms=list(ATOMS)))
    add("solve", "{file}", file=json.dumps({"theory": "sl", "states": ["s0"]}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "sl", "states": ["s0", "s1"], "structure": {"s0": {"const": "0"}}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "star", "states": [], "structure": {}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "sl", "atoms": 5, "states": [], "structure": {}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "sl", "states": ["s0"], "structure": {"s0": {"tick": True}}}))
    add("solve", "{file}", file=json.dumps(
        {"theory": "sl", "states": ["s0", "s0"], "structure": {"s0": {"const": "0"}}}))

    # malformed proofs
    add("prove", "{file}", file=json.dumps({"goal": ["u", "u"], "steps": []}))
    add("prove", "{file}", file=json.dumps({"theory": "sl", "goal": ["u", "u"], "steps": []}))
    add("prove", "{file}", file=json.dumps(
        {"theory": "sl", "goal": ["u", "u"], "steps": [{"rule": "refl", "rhs": "u"}]}))
    add("prove", "{file}", file=json.dumps(
        {"theory": "sl", "goal": ["u", "u + 0"],
         "steps": [{"rule": "axiom", "name": "SL9", "lhs": "u", "rhs": "u + 0"}]}))

    # paths that no case above reaches: a cs sum that shares generators and
    # leaves a point whose dominance takes one exact simplex, and a binder
    # renamed to %0 in the binding context of an inner mu
    add("step", "--theory", "cs", "(a.0 +[1/2] b.0) + a.0 + b.0")
    add("step", "mu x. (mu y. a.(x + y)) + y")
    add("lts", "mu x. (mu y. a.(x + y)) + y")
    # a certificate whose signatures step one action into blocks 1 to 12,
    # which must print in numeric order
    add("equiv", " + ".join(f"a.u{i}" for i in range(12)),
        " + ".join(f"a.u{i}" for i in range(11)))
    # lts text renames a state id that is also an output to %k, as solve
    # does, so solve reads the text back; %k names parse
    add("lts", "a.s0 + b.(s1 + a.0)")
    text = run(["lts", "a.s0 + b.(s1 + a.0)"], None)["stdout"]
    add("solve", "{file}", file=text)
    add("solve", "{file}", "--state", "%0", file=text)
    add("step", "mu %1. a.%1")
    # lts JSON and DOT name the states of a clash term as lts text does, and
    # solve takes both a coalgebra file's own ids and the unknowns it reads
    add("lts", "--format", "json", "a.s0 + b.(s1 + a.0)")
    add("lts", "--format", "dot", "a.s0 + b.(s1 + a.0)")
    own = json.dumps({"theory": "sl", "states": ["u"], "structure": {"u": {
        "op": "+", "args": [{"out": "u"}, {"act": "a", "to": "u"}]}}})
    for state in ("u", "%0", "%1"):
        add("solve", "{file}", "--state", state, file=own)
    return out


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# running a case

def run(argv, file):
    """Run one invocation through ``cli.main()``; return its stdout, stderr
    and exit code."""
    from procalc import cli

    with tempfile.TemporaryDirectory() as tmp:
        if file is not None:
            path = os.path.join(tmp, "input")
            with open(path, "w") as fh:
                fh.write(file)
            argv = [path if a == "{file}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        saved = sys.argv
        sys.argv = ["procalc", *argv]
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main()
                    code = 0
                except SystemExit as stop:
                    code = stop.code
        finally:
            sys.argv = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def replay(case):
    return run(case["argv"], case.get("file"))


def ballast(rng):
    """A seeded random number of extra term nodes, of each shape, and plain
    objects of a few sizes; the caller keeps them alive while a case runs."""
    from procalc.syntax import ZERO, Mu, Op, Prefix, Var

    shapes = (Var, lambda v: Prefix(v, ZERO), lambda v: Mu(v, ZERO),
              lambda v: Op(None, (Var(v), ZERO)), lambda v: [v] * rng.randrange(8),
              lambda v: object())
    return [rng.choice(shapes)(f"ballast{rng.randrange(10**4)}")
            for _ in range(rng.randrange(200))]


def load():
    with open(CORPUS) as fh:
        return json.load(fh)


def differences(corpus, perturb=None):
    """The cases whose replay differs from the recording, with what came out.
    With a ``perturb`` seed, each case runs with fresh ``ballast`` alive."""
    rng = None if perturb is None else random.Random(perturb)
    bad = []
    for case in corpus:
        held = ballast(rng) if rng is not None else None  # alive while the case runs
        got = replay(case)
        if any(got[k] != case[k] for k in ("stdout", "stderr", "code")):
            bad.append((case, got))
    return bad


def main():
    parser = argparse.ArgumentParser(description="Record or replay the golden CLI corpus.")
    parser.add_argument("--check", action="store_true",
                        help="replay the corpus and list the differences")
    parser.add_argument("--perturb", type=int, metavar="SEED",
                        help="with --check, keep seeded ballast alive before each case")
    args = parser.parse_args()
    if args.perturb is not None and not args.check:
        parser.error("--perturb needs --check")
    if args.check:
        bad = differences(load(), args.perturb)
        for case, got in bad:
            print(json.dumps(case["argv"]), "->", json.dumps(got))
        print(f"{len(bad)} differences")
        return 1 if bad else 0
    corpus = [{**case, **replay(case)} for case in cases()]
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"{len(corpus)} cases written to {os.path.relpath(CORPUS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

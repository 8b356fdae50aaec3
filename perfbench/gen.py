"""Seeded input generators for the benchmark workloads.

Every op is a dict that is plain JSON:

    {"id": 3, "round": 0, "kind": "solve", "argv": ["solve", ..., "in/ringqwer.json"],
     "expect": {...}, "files": {"in/ringqwer.json": {...}}}

``argv`` is what the CLI receives, ``expect`` is the answer fixed by
construction (read by ``check.py``), and ``files`` maps each input file the
op reads to the JSON to write there before the run.  procalc sees only
``argv`` and the files; the seed stays here.

Ops come in rounds.  A round runs every combination of theory, expected
verdict and size once, in seeded order, with fresh names.  Every run
therefore does the same mix of work whatever the seed, which keeps the
spread between runs small; the seed decides the order, the names, and the
few choices that do not change an op's cost much (which level of a
``cyc`` term is renamed, which proofs run).
"""

from __future__ import annotations

import itertools
import os
import random
import string

THEORIES = ("sl", "cm", "gs", "ca")
ATOMS = ("x1", "x2")
# the choice operator of each theory, as written in a term, and as a
# coalgebra-JSON node parameter
OPS = {"sl": "+", "cm": "+", "gs": "+[x1]", "ca": "+[1/2]"}
JSON_PARAM = {"sl": {}, "cm": {}, "gs": {"guard": ["x1"]}, "ca": {"prob": "1/2"}}

PROOF_DIR = os.path.join("tests", "proofs")

# sizes of one round; chosen so that a run holds well over 100 ops
# (see perfbench/README.md)
CYC_N = (6, 8, 10, 12, 14)
LONG_K = (40, 55, 70, 85, 100)
RING_N = (5, 6, 7, 7, 8)
# the ROADMAP ring(n) has m = 3, c = 1; elimination cost swings up to 100x
# with (m, c) at one n, which no run length here can average out
RING_MC = (3, 1)
MIX_K = (2, 2, 3, 3, 4, 4)
DEEP_PREFIXES = (1000, 5000)


def theory_argv(theory):
    return ["--theory", theory] + (["--atoms", ",".join(ATOMS)] if theory == "gs" else [])


def tag(rng):
    """A fresh identifier suffix, so that no two ops share a term (the
    program caches terms across calls in one process)."""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(4, 7)))


# ---------------------------------------------------------------------------
# term families

def cyc(n, op, act_a, act_b, var, renamed_level=None, act_c=None):
    """The ROADMAP ``cyc(n)`` family: n nested binders, each level doing
    ``a`` then choosing between the outermost binder and the next level.
    With ``renamed_level`` set, that level does ``act_c`` instead of ``a``.
    (The ROADMAP back-reference ``(7*i) % max(i,1)`` is always 0.)"""
    parts = []
    for i in range(n):
        act = act_c if i == renamed_level else act_a
        parts.append(f"mu {var}{i}. {act}.({var}0 {op} {act_b}.")
    return "".join(parts) + "0" + ")" * n


def long_cycle(k, op, act, out, laps=1, last_out=None):
    """``mu x. a^k.(u OP a.x)``; ``laps=2`` unrolls the loop once more
    (bisimilar); ``last_out`` replaces the output of the last lap."""
    body = "x"
    for lap in reversed(range(laps)):
        o = last_out if (last_out and lap == laps - 1) else out
        body = f"{act}." * k + f"({o} {op} {act}.{body})"
    return f"mu x. {body}"


def ring(n, m, c, theory, act_a, act_b):
    """Coalgebra JSON of ``s_i = a.s_{i+1 mod n} OP b.s_{(m*i+c) mod n}``;
    every state is bisimilar to ``mu x. a.x OP b.x``."""
    structure = {}
    for i in range(n):
        node = {"op": "+", **JSON_PARAM[theory], "args": [
            {"act": act_a, "to": f"s{(i + 1) % n}"},
            {"act": act_b, "to": f"s{(m * i + c) % n}"},
        ]}
        structure[f"s{i}"] = node
    d = {"theory": theory}
    if theory == "gs":
        d["atoms"] = list(ATOMS)
    d["states"] = [f"s{i}" for i in range(n)]
    d["structure"] = structure
    return d


def spec(theory, a, b):
    """What every ring state is bisimilar to, for ``check.bisimilar_to_spec``."""
    d = {"theory": theory, "term": f"mu x. {a}.x {OPS[theory]} {b}.x"}
    if theory == "gs":
        d["atoms"] = list(ATOMS)
    return d


def mix(k, t):
    """The ROADMAP ``mix(k)`` term of theory cs, with actions tagged ``t``;
    its one-step normal form has k*k + 1 generators."""
    left = " + ".join(f"(a{i}{t}.0 +[1/{i + 2}] b{i}{t}.0)" for i in range(k))
    right = " + ".join(f"c{i}{t}.0" for i in range(k))
    return f"({left}) +[1/2] ({right})"


def cs_pair(rule, rng, t):
    """Two cs terms whose verdict follows from one axiom.  Returns
    (term1, term2, equivalent)."""
    e = f"(a{t}.0 +[1/{rng.randint(2, 5)}] b{t}.c{t}.0)"
    f = f"(c{t}.0 + d{t}.a{t}.0)"
    if rule == "idem":
        return f"{e} + {e}", e, True
    if rule == "pidem":
        p = f"{rng.randint(1, 4)}/5"
        return f"{e} +[{p}] {e}", e, True
    if rule == "comm":
        return f"{e} + {f}", f"{f} + {e}", True
    # halving the mass of e is visible after one step
    return f"{e} +[1/2] 0", e, False


STAR_ITER = {"sl": "^*", "cm": "^*", "gs": "^[x1]", "ca": "^[1/2]"}


def star_pair(theory, t):
    """``s ; 1`` against ``s`` (axiom E1), for a small looping s."""
    s = f"(a{t} {OPS[theory]} b{t} ; c{t}){STAR_ITER[theory]} ; a{t}"
    return f"({s}) ; 1", s


# ---------------------------------------------------------------------------
# workloads

def _equiv(theory, e1, e2, eq):
    return {"kind": "equiv", "argv": ["equiv", *theory_argv(theory), e1, e2],
            "expect": {"exit": 0 if eq else 10}}


def _recursion_round(rng, tag_, base):
    ops = []
    for theory, eq, n in itertools.product(THEORIES, (True, False), CYC_N):
        t = tag_()
        a, b = f"a{t}", f"b{t}"
        e1 = cyc(n, OPS[theory], a, b, f"x{t}")
        e2 = cyc(n, OPS[theory], a, b, f"y{t}") if eq \
            else cyc(n, OPS[theory], a, b, f"y{t}", rng.randrange(n), f"c{t}")
        ops.append(_equiv(theory, e1, e2, eq))
    proofs = sorted(f for f in os.listdir(PROOF_DIR) if f.endswith(".json")) \
        if os.path.isdir(PROOF_DIR) else []
    for name in rng.sample(proofs, min(2, len(proofs))):
        ops.append({"kind": "prove", "argv": ["prove", os.path.join(PROOF_DIR, name)],
                    "expect": {"exit": 0, "stdout": "accepted"}})
    for theory in rng.sample(THEORIES, 2):
        s1, s2 = star_pair(theory, tag_())
        ops.append({"kind": "star_equiv",
                    "argv": ["star", "equiv", *theory_argv(theory), s1, s2],
                    "expect": {"exit": 0}})
    return ops


def _refine_round(rng, tag_, base):
    ops = []
    for theory, eq, k in itertools.product(THEORIES, (True, False), LONG_K):
        t = tag_()
        a, u = f"a{t}", f"u{t}"
        e1 = long_cycle(k, OPS[theory], a, u)
        e2 = long_cycle(k, OPS[theory], a, u, laps=2) if eq \
            else long_cycle(k, OPS[theory], a, u, last_out=f"v{t}")
        ops.append(_equiv(theory, e1, e2, eq))
    return ops


def _synthesis_round(rng, tag_, base):
    ops = []
    for theory, n in itertools.product(THEORIES, RING_N):
        t = tag_()
        a, b = f"a{t}", f"b{t}"
        path = f"{base}/ring{t}.json"
        ops.append({"kind": "solve",
                    "argv": ["solve", *theory_argv(theory), path, "--state", "s0"],
                    "files": {path: ring(n, *RING_MC, theory, a, b)},
                    "expect": {"exit": 0, "spec": spec(theory, a, b)}})
    return ops


def _convex_round(rng, tag_, base):
    ops = []
    for k in MIX_K:
        ops.append({"kind": "step", "argv": ["step", "--theory", "cs", mix(k, tag_())],
                    "expect": {"exit": 0, "gens": k * k + 1}})
    for rule in ("idem", "pidem", "comm", "mass"):
        e1, e2, eq = cs_pair(rule, rng, tag_())
        ops.append(_equiv("cs", e1, e2, eq))
    return ops


ROUNDS = {"recursion": _recursion_round, "refine": _refine_round,
          "synthesis": _synthesis_round, "convex": _convex_round}
WORKLOADS = tuple(ROUNDS)


def make_ops(workload, seed, count, base="in"):
    """The first ``count`` ops of a workload for a seed, in whole rounds;
    input files go under the directory ``base``."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    used = set()

    def fresh_tag():
        while True:
            t = tag(rng)
            if t not in used:
                used.add(t)
                return t

    ops = []
    rounds = 0
    while len(ops) < count:
        block = ROUNDS[workload](rng, fresh_tag, base)
        rng.shuffle(block)
        for op in block:
            op["round"] = rounds
        ops.extend(block)
        rounds += 1
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def deep_ops(seed, count=2):
    """``step`` on a long prefix chain; its output is the input term."""
    rng = random.Random(f"deep:{seed}")
    ops = []
    for i in range(count):
        term = f"a{tag(rng)}." * rng.randint(*DEEP_PREFIXES) + "0"
        ops.append({"id": i, "kind": "step", "argv": ["step", term],
                    "expect": {"exit": 0, "stdout": term}})
    return ops


def theories_of(ops):
    names = set()
    for op in ops:
        argv = op["argv"]
        names.add(argv[argv.index("--theory") + 1] if "--theory" in argv else "sl")
    return sorted(names)

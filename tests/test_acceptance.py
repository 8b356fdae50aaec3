"""Acceptance gate: eleven end-to-end criteria, one printed line each.

Each test prints ``acceptance N: PASS/FAIL - summary`` (visible with -s or
in captured output on failure) and asserts the criterion exactly.
"""

import copy
import glob
import json
import os
import random
import time
from fractions import Fraction

import pytest

import procalc as pc
from procalc.equivalence import check_states, equivalent
from procalc.semantics import disjoint_union
from procalc.star import (SSeq, SStar, SONE,
                          check_estar_instance, output_guard,
                          parse_sexp, partial_derivative,
                          star_reachable, translate)
from procalc.syntax import Op
from procalc.theory import ZERO_SUBDIST

from gen import (ALL_THEORIES, rand_coalgebra, rand_guard, rand_sexp,
                 seed_for, theory)
from masses import count_point, fraction_point
from oracles import naive_bisim_relation
from test_star import unit_identified

F = Fraction


def report(n, ok, summary):
    print(f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"acceptance criterion {n} failed: {summary}"


def sub(*pairs):
    return count_point(frozenset((g, F(m)) for g, m in pairs))


# ---------------------------------------------------------------------------

def test_acceptance_1_golden_derivations():
    t0 = time.monotonic()
    gs = theory("gs")
    e_gs = pc.parse_exp("mu w. (a1.(v +[x1] a2.w) +[x1] u)", gs)
    f_gs = pc.parse_exp(
        "v +[x1] a2.(mu w. (a1.(v +[x1] a2.w) +[x1] u))", gs
    )
    ok_gs = pc.step(e_gs, gs) == (pc.Prefix("a1", f_gs), pc.Var("u"))

    ca = theory("ca")
    e_ca = pc.parse_exp("mu v. (a1.u +[1/2] (a2.v +[1/3] w))", ca)
    ok_ca = pc.step(e_ca, ca) == sub(
        (pc.Prefix("a1", pc.Var("u")), F(1, 2)),
        (pc.Prefix("a2", e_ca), F(1, 6)),
        (pc.Var("w"), F(1, 3)),
    )

    cs = theory("cs")
    e_cs = pc.parse_exp("mu v. ((a1.v +[1/3] a2.w) + a2.v)", cs)
    ok_cs = pc.step(e_cs, cs) == frozenset(
        {
            ZERO_SUBDIST,
            sub((pc.Prefix("a1", e_cs), F(1, 3)),
                (pc.Prefix("a2", pc.Var("w")), F(2, 3))),
            sub((pc.Prefix("a2", e_cs), F(1))),
        }
    )
    elapsed = time.monotonic() - t0
    ok = ok_gs and ok_ca and ok_cs and elapsed < 1.0
    report(1, ok, f"golden derivations gs/ca/cs exact in {elapsed:.3f}s")


def test_acceptance_2_basic_equivalences():
    t0 = time.monotonic()
    sl = theory("sl")
    ok1 = pc.equivalent(pc.parse_exp("mu v. v", sl), pc.ZERO, sl).equivalent
    ok2 = pc.equivalent(
        pc.parse_exp("mu v. a.v", sl), pc.parse_exp("a.(mu v. a.v)", sl), sl
    ).equivalent
    elapsed = time.monotonic() - t0
    ok = ok1 and ok2 and elapsed < 1.0
    report(2, ok, f"mu v.v ~ 0 and guarded unrolling in {elapsed:.3f}s")


def test_acceptance_3_unguarded_r1_counterexample():
    ca = theory("ca")
    e = pc.parse_exp("u +[1/2] v", ca)
    m = pc.Mu("v", e)
    unrolled = pc.substitute(e, {"v": m})

    def mass_to_u(x):
        return sum((p for g, p in fraction_point(pc.step(x, ca)) if g == pc.Var("u")), F(0))

    m1, m2 = mass_to_u(m), mass_to_u(unrolled)
    inequiv = not pc.equivalent(m, unrolled, ca).equivalent
    ok = m1 == F(1, 2) and m2 == F(3, 4) and inequiv
    report(3, ok, f"output mass to u {m1} vs {m2}, equivalent={not inequiv}")


def test_acceptance_4_star_ca_counterexample():
    ca = theory("ca")
    e = parse_sexp("1 +[1/3] a", ca)
    star = SStar(F(1, 2), e)
    unrolled = Op(F(1, 2), (SSeq(e, star), SONE))
    m1, m2 = pc.tick_mass(star, ca), pc.tick_mass(unrolled, ca)
    inequiv = not equivalent(star, unrolled, ca).equivalent
    ok = m1 == F(1, 2) and m2 == F(7, 12) and inequiv
    report(4, ok, f"tick mass {m1} vs {m2}, equivalent={not inequiv}")


def test_acceptance_5_example_51():
    gs = theory("gs")
    e = pc.parse_exp("mu w. (a1.(v +[x1] a2.w) +[x1] u)", gs)
    c = pc.reachable(e, gs)
    system = pc.associated_system(c)
    # up to state naming: rename unknowns positionally to y1, y2
    names = {x: f"y{i + 1}" for i, x in enumerate(system.variables)}
    renamed = [
        pc.substitute(rhs, {x: pc.Var(n) for x, n in names.items()})
        for rhs in system.exprs
    ]
    b = frozenset({"x1"})
    want = [
        pc.Op(b, (pc.Prefix("a1", pc.Var("y2")), pc.Var("u"))),
        pc.Op(b, (pc.Var("v"), pc.Prefix("a2", pc.Var("y1")))),
    ]
    shape_ok = renamed == want

    phi = pc.solve(system)
    checked, msg = pc.check_solution(system, phi)
    first = pc.equivalent(phi[system.variables[0]], e, gs).equivalent
    ok = shape_ok and checked and first
    report(5, ok, f"associated system shape={shape_ok}, "
                  f"solution checks={checked} ({msg}), phi(x1)~e={first}")


def test_acceptance_6_synthesis_round_trip():
    t0 = time.monotonic()
    failures = 0
    total = 0
    for th in ALL_THEORIES:
        rng = random.Random(seed_for(th.id, 20260801))
        for _ in range(200):
            c = rand_coalgebra(th, rng, max_states=5)
            system = pc.associated_system(c)
            phi = pc.solve(system)
            for s, x in zip(c.states, system.variables):
                total += 1
                c2 = pc.reachable(phi[x], th)
                u = disjoint_union(c, c2)
                if not check_states(u, f"a{s}", "bs0").equivalent:
                    failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 60.0
    report(6, ok, f"{total} states synthesized, {failures} failures, "
                  f"{elapsed:.1f}s (< 60s)")


def test_acceptance_7_partition_vs_naive():
    disagreements = 0
    for th in ALL_THEORIES:
        rng = random.Random(seed_for(th.id, 7000))
        for _ in range(500):
            c = rand_coalgebra(th, rng, max_states=4)
            block = pc.bisim_partition(c)
            rel = naive_bisim_relation(c)
            for x in c.states:
                for y in c.states:
                    if ((x, y) in rel) != (block[x] == block[y]):
                        disagreements += 1
    report(7, disagreements == 0,
           f"500 coalgebras per theory, {disagreements} disagreements")


def test_acceptance_8_appendix_f():
    sl, gs = theory("sl"), theory("gs")
    bad = 0
    rng = random.Random(88001)
    for _ in range(100):
        e = rand_sexp(sl, rng, depth=3)
        star = SStar(None, e)
        if not equivalent(star, Op(None, (SSeq(e, star), SONE)), sl).equivalent:
            bad += 1
        d = partial_derivative(e, sl)
        rhs = Op(None, (d, SONE)) if output_guard(e, sl) else d
        if not equivalent(e, rhs, sl).equivalent:
            bad += 1
    rng = random.Random(88002)
    for _ in range(100):
        e = rand_sexp(gs, rng, depth=3)
        b = rand_guard(rng)
        star = SStar(b, e)
        if not equivalent(star, Op(b, (SSeq(e, star), SONE)), gs).equivalent:
            bad += 1
        d = partial_derivative(e, gs)
        out = output_guard(e, gs)
        if not equivalent(e, Op(out, (SONE, d)), gs).equivalent:
            bad += 1
    report(8, bad == 0,
           f"unguarded unrolling + derivative characterisations, {bad} failures")


def test_acceptance_9_skew_classifier():
    got = {th.id: pc.is_skew_associative(th) for th in ALL_THEORIES}
    want = {"sl": True, "gs": True, "ca": True, "cm": True, "cs": False}
    report(9, got == want, f"classifier results {got}")


def test_acceptance_10_coherence():
    bad = 0
    for th in ALL_THEORIES:
        rng = random.Random(seed_for(th.id, 10100))
        for _ in range(200):
            s = rand_sexp(th, rng, depth=3)
            c1 = star_reachable(s, th)
            c2 = unit_identified(pc.reachable(translate(s), th))
            u = disjoint_union(c1, c2)
            if not check_states(u, "as0", "bs0").equivalent:
                bad += 1
    report(10, bad == 0, f"200 star expressions per theory, {bad} mismatches")


# ---------------------------------------------------------------------------
# criterion 11: proof corpus + mutation robustness

PROOF_DIR = os.path.join(os.path.dirname(__file__), "proofs")
PROOF_FILES = sorted(glob.glob(os.path.join(PROOF_DIR, "*.json")))

IDENT_POOL = ["u", "v", "w", "a", "b", "a1", "a2", "0", "1"]
FRACTION_POOL = ["1/2", "1/3", "2/3", "1/4", "3/4", "1"]
RULE_POOL = ["refl", "sym", "trans", "subst", "axiom", "cong", "r1", "r2", "r3"]
AXIOM_POOL = ["SL1", "SL2", "SL3", "SL4", "CM1", "CM2", "CM3",
              "GS1", "GS2", "GS3", "GS4", "CA1", "CA2", "CA3", "CA4", "D"]


def _mutate_text(text, rng):
    words = [w for w in IDENT_POOL if w in text]
    if words and rng.random() < 0.7:
        old = rng.choice(words)
        new = rng.choice([w for w in IDENT_POOL if w != old])
        return text.replace(old, new, 1)
    fracs = [f for f in FRACTION_POOL if f in text]
    if fracs:
        old = rng.choice(fracs)
        new = rng.choice([f for f in FRACTION_POOL if f != old])
        return text.replace(old, new, 1)
    return text + " + 0"


def _mutate(data, rng):
    data = copy.deepcopy(data)
    steps = data["steps"]
    kind = rng.randrange(7)
    if kind == 0:  # goal edit
        i = rng.randrange(2)
        data["goal"][i] = _mutate_text(data["goal"][i], rng)
    elif kind == 1 and steps:  # rule swap
        s = rng.choice(steps)
        s["rule"] = rng.choice([r for r in RULE_POOL if r != s["rule"]])
    elif kind == 2 and steps:  # axiom name swap
        s = rng.choice(steps)
        s["name"] = rng.choice(AXIOM_POOL)
    elif kind == 3 and steps:  # reference perturbation
        s = rng.choice(steps)
        s["ref"] = rng.randint(1, len(steps) + 1)
        s.pop("refs", None)
    elif kind == 4 and steps:  # position perturbation
        s = rng.choice(steps)
        at = list(s.get("at", []))
        if at and rng.random() < 0.5:
            at.pop()
        else:
            at.append(rng.randrange(2))
        s["at"] = at
    elif kind == 5 and steps:  # term edit in a step
        s = rng.choice(steps)
        side = rng.choice(["lhs", "rhs"])
        s[side] = _mutate_text(s[side], rng)
    else:  # swap sides of a step
        if steps:
            s = rng.choice(steps)
            s["lhs"], s["rhs"] = s["rhs"], s["lhs"]
    return data


def test_acceptance_11_proof_corpus_and_mutations():
    corpus = []
    for path in PROOF_FILES:
        with open(path) as f:
            corpus.append(json.load(f))
    ok_size = len(corpus) >= 30

    rejected = []
    unsound = []
    for data, path in zip(corpus, PROOF_FILES):
        p = pc.parse_proof(data)
        v = pc.check_proof(p)
        if not v.accepted:
            rejected.append((os.path.basename(path), v.reason))
            continue
        if not pc.equivalent(p.goal[0], p.goal[1], p.theory).equivalent:
            unsound.append(os.path.basename(path))

    rng = random.Random(11110)
    accepted_inequivalent = 0
    for _ in range(1000):
        data = _mutate(rng.choice(corpus), rng)
        try:
            p = pc.parse_proof(data)
        except (pc.ParseError, pc.TheoryError, KeyError, ValueError):
            continue  # unparseable mutants count as rejected
        try:
            v = pc.check_proof(p)
        except (pc.TheoryError, ValueError):
            continue
        if v.accepted:
            if not pc.equivalent(p.goal[0], p.goal[1], p.theory).equivalent:
                accepted_inequivalent += 1

    ok = ok_size and not rejected and not unsound and accepted_inequivalent == 0
    report(11, ok,
           f"{len(corpus)} proofs accepted (rejected={rejected}, "
           f"unsound={unsound}), 1000 mutations, "
           f"{accepted_inequivalent} accepted-but-inequivalent")

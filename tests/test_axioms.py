"""Proof checker: bundled corpus, rule coverage, targeted rejections."""

import glob
import json
import os
import random

import pytest

import procalc as pc
from procalc.axioms import ProofStep, Proof, _match, axiom_instance, check_proof
from procalc.syntax import ZERO, Mu, Op, Prefix, Var
from procalc.theory import TheoryError

from gen import ALL_THEORIES, rand_exp, rand_param, seed_for
from oracles import axiom_side_ok, instantiate_schema

PROOF_DIR = os.path.join(os.path.dirname(__file__), "proofs")
PROOF_FILES = sorted(glob.glob(os.path.join(PROOF_DIR, "*.json")))


def load(path):
    with open(path) as f:
        return pc.load_proof(f.read())


def test_corpus_is_large_enough():
    assert len(PROOF_FILES) >= 30


@pytest.mark.parametrize(
    "path", PROOF_FILES, ids=[os.path.basename(p) for p in PROOF_FILES]
)
def test_corpus_proof_accepted_and_sound(path):
    p = load(path)
    verdict = check_proof(p)
    assert verdict.accepted, (verdict.reason, verdict.step)
    assert pc.equivalent(p.goal[0], p.goal[1], p.theory).equivalent


def test_corpus_covers_all_rules_and_axioms():
    rules = set()
    axioms = set()
    theories = set()
    for path in PROOF_FILES:
        with open(path) as f:
            data = json.load(f)
        theories.add(data["theory"])
        for s in data["steps"]:
            rules.add(s["rule"])
            if s["rule"] == "axiom":
                axioms.add(s["name"])
    assert theories == {"sl", "cm", "gs", "ca", "cs"}
    assert {"refl", "sym", "trans", "subst", "axiom", "cong", "r1", "r2", "r3"} <= rules
    assert {
        "SL1", "SL2", "SL3", "SL4",
        "CM1", "CM2", "CM3",
        "GS1", "GS2", "GS3", "GS4",
        "CA1", "CA2", "CA3", "CA4",
        "D",
    } <= axioms


# ---------------------------------------------------------------------------
# targeted rejections

def mk(theory_name, goal, steps):
    th = pc.make_theory(theory_name, ("x1", "x2") if theory_name == "gs" else None)

    def term(t):
        return pc.parse_exp(t, th)

    return Proof(th, (term(goal[0]), term(goal[1])), steps(term))


def test_reject_empty_proof():
    p = mk("sl", ("0", "0"), lambda t: [])
    v = check_proof(p)
    assert not v and v.reason == "empty proof"


def test_reject_last_line_not_goal():
    p = mk("sl", ("u + 0", "0"), lambda t: [
        ProofStep("axiom", t("u + 0"), t("u"), name="SL1"),
    ])
    v = check_proof(p)
    assert not v and "goal" in v.reason


def test_reject_wrong_axiom_instance():
    p = mk("sl", ("u + v", "u"), lambda t: [
        ProofStep("axiom", t("u + v"), t("u"), name="SL1"),
    ])
    v = check_proof(p)
    assert not v and "SL1" in v.reason and v.step == 1


def test_reject_unknown_axiom():
    p = mk("sl", ("u + 0", "u"), lambda t: [
        ProofStep("axiom", t("u + 0"), t("u"), name="CA1"),
    ])
    assert not check_proof(p)


def test_reject_forward_reference():
    p = mk("sl", ("u", "u + 0"), lambda t: [
        ProofStep("sym", t("u"), t("u + 0"), refs=(2,)),
        ProofStep("axiom", t("u + 0"), t("u"), name="SL1"),
    ])
    v = check_proof(p)
    assert not v and v.step == 1


def test_reject_unguarded_r3():
    # without the guardedness side condition r3 would prove u ~ mu v.(u + v)
    p = mk("sl", ("u", "mu v. (u + v)"), lambda t: [
        ProofStep("axiom", t("u + u"), t("u"), name="SL2"),
        ProofStep("sym", t("u"), t("u + u"), refs=(1,)),
        ProofStep("r3", t("u"), t("mu v. (u + v)"),
                  refs=(2,), var="v", body=t("u + v")),
    ])
    v = check_proof(p)
    assert not v and "guarded" in v.reason and v.step == 3


def test_reject_r2_capture():
    # renaming the binder to a variable free in the body is not allowed
    p = mk("sl", ("mu v. a.(v + w)", "mu w. a.(w + w)"), lambda t: [
        ProofStep("r2", t("mu v. a.(v + w)"), t("mu w. a.(w + w)")),
    ])
    assert not check_proof(p)


def test_reject_bad_position():
    p = mk("sl", ("a.(u + 0)", "a.u"), lambda t: [
        ProofStep("axiom", t("a.(u + 0)"), t("a.u"), name="SL1", at=(5,)),
    ])
    assert not check_proof(p)


def test_reject_context_mismatch_in_cong():
    p = mk("sl", ("a.(u + 0)", "b.u"), lambda t: [
        ProofStep("axiom", t("u + 0"), t("u"), name="SL1"),
        ProofStep("cong", t("a.(u + 0)"), t("b.u"), refs=(2 - 1,), at=(0,)),
    ])
    assert not check_proof(p)


def test_reject_unknown_rule():
    p = mk("sl", ("u", "u"), lambda t: [
        ProofStep("believe_me", t("u"), t("u")),
    ])
    v = check_proof(p)
    assert not v and "believe_me" in v.reason


def test_reject_bad_subst():
    p = mk("sl", ("a.0 + a.0", "b.0"), lambda t: [
        ProofStep("axiom", t("v + v"), t("v"), name="SL2"),
        ProofStep("subst", t("a.0 + a.0"), t("b.0"),
                  refs=(1,), bindings={"v": t("a.0")}),
    ])
    assert not check_proof(p)


def test_reject_ca4_side_condition():
    # p = q = 1 makes the re-association parameter undefined
    p = mk("ca", ("(u +[1] v) +[1] w", "u +[1] (v +[1] w)"), lambda t: [
        ProofStep("axiom", t("(u +[1] v) +[1] w"), t("u +[1] (v +[1] w)"),
                  name="CA4"),
    ])
    assert not check_proof(p)


@pytest.mark.parametrize("inner", ["0", "1/2", "1"])
def test_reject_ca4_with_pq_one_in_either_orientation(inner):
    # pca4 is undefined for p = q = 1, so no inner parameter on the
    # re-associated side makes an instance, whichever side comes first
    lhs, rhs = "(u +[1] v) +[1] w", f"u +[1] (v +[{inner}] w)"
    for a, b in ((lhs, rhs), (rhs, lhs)):
        v = check_proof(mk("ca", (a, b), lambda t: [ProofStep("axiom", t(a), t(b), name="CA4")]))
        assert not v and v.reason == "not an instance of CA4" and v.step == 1


def _instance_by_instantiating(ax, lhs, rhs, theory):
    """The checker's former rule: match the schema's left side, check the
    side condition, and compare the instantiated right side."""
    for a, b in ((lhs, rhs), (rhs, lhs)):
        menv, penv = {}, {}
        if not _match(ax.lhs, a, menv, penv, theory):
            continue
        try:
            if axiom_side_ok(ax, penv) and instantiate_schema(ax.rhs, menv, penv, theory) == b:
                return True
        except TheoryError:
            continue
    return False


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_axiom_instance_agrees_with_instantiating_oracle(th):
    # pairs of an Op term with an instance of an axiom at it, with another
    # axiom's instance, with such an instance under another top parameter,
    # and with a random term
    rng = random.Random(seed_for(th.id, 0xA41))
    instances = 0
    for _ in range(400):
        e = Op(rand_param(th, rng), (rand_exp(th, rng, depth=2), rand_exp(th, rng, depth=2)))
        others = [rand_exp(th, rng, depth=3)]
        for ax in th.axioms:
            menv, penv = {}, {}
            if _match(ax.lhs, e, menv, penv, th) and axiom_side_ok(ax, penv):
                try:
                    inst = instantiate_schema(ax.rhs, menv, penv, th)
                except TheoryError:
                    continue
                others.append(inst)
                if type(inst) is Op:
                    others.append(Op(rand_param(th, rng), inst.args))
        for ax in th.axioms:
            for other in others:
                old = _instance_by_instantiating(ax, e, other, th)
                assert axiom_instance(ax, e, other, th) == old, (ax.name, e, other)
                assert axiom_instance(ax, other, e, th) == old
                instances += old
    assert instances >= 100


def test_r1_keeps_a_binder_whose_body_holds_v_only_unguarded():
    # v becomes 0 under mu u, so the unfolding's free u is not captured there
    # and u needs no renaming; the line with mu %0 is alpha-equivalent
    lhs, rhs = "mu v. (mu u. (v + a.u)) + b.u", "(mu u. (0 + a.u)) + b.u"
    assert check_proof(mk("sl", (lhs, rhs), lambda t: [ProofStep("r1", t(lhs), t(rhs))]))
    p = mk("sl", (lhs, rhs), lambda t: [ProofStep("r1", t(lhs), t(rhs))])
    renamed = Op(None, (Mu("%0", Op(None, (ZERO, Prefix("a", Var("%0"))))), Prefix("b", Var("u"))))
    v = check_proof(Proof(p.theory, (p.goal[0], renamed), [ProofStep("r1", p.goal[0], renamed)]))
    assert not v and v.reason == "not a fixpoint unfolding"


def test_verdict_reports_first_bad_line():
    p = mk("sl", ("u + 0", "u"), lambda t: [
        ProofStep("refl", t("u"), t("v")),
        ProofStep("axiom", t("u + 0"), t("u"), name="SL1"),
    ])
    v = check_proof(p)
    assert not v and v.step == 1 and "refl" in v.reason

"""Bisimilarity: partition refinement, certificates, cross-check oracle."""

import random
from fractions import Fraction

import pytest

import procalc as pc

from gen import ALL_THEORIES, rand_coalgebra, rand_guarded_exp, seed_for, theory
from oracles import naive_bisim_relation

F = Fraction


def equiv(a, b, name, **kw):
    th = theory(name)
    return pc.equivalent(pc.parse_exp(a, th), pc.parse_exp(b, th), th, **kw)


# ---------------------------------------------------------------------------
# pinned examples

def test_mu_vv_is_zero():
    assert equiv("mu v. v", "0", "sl").equivalent


def test_guarded_unrolling():
    assert equiv("mu v. a.v", "a.(mu v. a.v)", "sl").equivalent


def test_distinct_actions_not_equivalent():
    cert = equiv("a.0", "b.0", "sl")
    assert not cert.equivalent
    assert "signature" in cert.detail


def test_gs_skew_commutativity():
    assert equiv("u +[x1] w", "w +[x2] u", "gs").equivalent
    assert not equiv("u +[x1] w", "w +[x1] u", "gs").equivalent


def test_unguarded_recursion_counterexample():
    # mu v.(u +[1/2] v) reaches u with mass 1/2, its unguarded unrolling
    # with mass 3/4, so R1 fails without the guardedness side condition
    th = theory("ca")
    e = pc.parse_exp("u +[1/2] v", th)
    m = pc.Mu("v", e)
    unrolled = pc.substitute(e, {"v": m})

    def out_mass(x, var):
        return sum(
            (p for g, p in pc.step(x, th) if g == pc.Out(var)), F(0)
        )

    assert out_mass(m, "u") == F(1, 2)
    assert out_mass(unrolled, "u") == F(3, 4)
    assert not pc.equivalent(m, unrolled, th).equivalent


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_fixpoint_stability(th):
    # mu v.e ~ e[mu v.e/v] whenever v is guarded in e
    rng = random.Random(seed_for(th.id, 65521))
    done = 0
    while done < 40:
        body = rand_guarded_exp(th, rng, depth=3)
        if not pc.is_guarded("u", body):
            continue
        done += 1
        m = pc.Mu("u", body)
        assert pc.equivalent(m, pc.substitute(body, {"u": m}), th).equivalent


# ---------------------------------------------------------------------------
# relation laws

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_equivalence_relation_laws(th):
    rng = random.Random(seed_for(th.id, 32749))
    for _ in range(100):
        e1 = rand_guarded_exp(th, rng, depth=2)
        e2 = rand_guarded_exp(th, rng, depth=2)
        e3 = rand_guarded_exp(th, rng, depth=2)
        assert pc.equivalent(e1, e1, th).equivalent
        r12 = pc.equivalent(e1, e2, th).equivalent
        assert r12 == pc.equivalent(e2, e1, th).equivalent
        if r12 and pc.equivalent(e2, e3, th).equivalent:
            assert pc.equivalent(e1, e3, th).equivalent


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_congruence_spot_checks(th):
    from gen import rand_param

    rng = random.Random(seed_for(th.id, 28657))
    found = 0
    for _ in range(300):
        e1 = rand_guarded_exp(th, rng, depth=2)
        e2 = rand_guarded_exp(th, rng, depth=2)
        if not pc.equivalent(e1, e2, th).equivalent:
            continue
        found += 1
        assert pc.equivalent(
            pc.Prefix("a1", e1), pc.Prefix("a1", e2), th
        ).equivalent
        p = rand_param(th, rng)
        f = rand_guarded_exp(th, rng, depth=1)
        assert pc.equivalent(
            pc.Op(p, (e1, f)), pc.Op(p, (e2, f)), th
        ).equivalent
        if found >= 15:
            break
    assert found >= 5


# ---------------------------------------------------------------------------
# oracle agreement

@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_partition_agrees_with_naive_relation(th):
    rng = random.Random(seed_for(th.id, 16127))
    for _ in range(60):
        c = rand_coalgebra(th, rng, max_states=4)
        block = pc.bisim_partition(c)
        rel = naive_bisim_relation(c)
        for x in c.states:
            for y in c.states:
                assert ((x, y) in rel) == (block[x] == block[y])


def test_certificate_contents():
    cert = equiv("mu v. a.v", "a.(mu v. a.v)", "sl")
    assert cert.equivalent and cert.detail.startswith("stable partition")
    cert = equiv("a.a.0", "a.0", "sl")
    assert not cert.equivalent and "round" in cert.detail

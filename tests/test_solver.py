"""Equation systems: the systems finite coalgebras are, Milner elimination."""

import functools
import json
import random
from fractions import Fraction

import pytest

import procalc as pc
from procalc import cli, solver
from procalc.solver import UnguardedSystem

from gen import (ACTIONS, ALL_THEORIES, rand_clash_text, rand_coalgebra, rand_exp,
                 rand_guarded_exp, rand_param, seed_for, theory)
from make_golden import THEORY_ARGS, run as run_cli
from oracles import coalgebra, solve_eager

F = Fraction

GS_E = "mu w. (a1.(v +[x1] a2.w) +[x1] u)"
CA_E = "mu v. (a1.u +[1/2] (a2.v +[1/3] w))"


# ---------------------------------------------------------------------------
# associated systems: a finite coalgebra is its equation system

def test_associated_system_reads_leaves_back_as_syntax():
    """Deadlock becomes 0, an output its variable, and a step a prefix on
    the unknown of its target state.  The term reading lists steps before
    outputs, so the choice of s3 comes back with its arguments swapped."""
    text = json.dumps({"theory": "ca", "states": ["s0", "s1", "s2", "s3"], "structure": {
        "s0": {"const": "0"},
        "s1": {"out": "v"},
        "s2": {"act": "a", "to": "s1"},
        "s3": {"op": "+", "prob": "1/2", "args": [{"out": "v"}, {"act": "a", "to": "s0"}]}}})
    assert pc.coalgebra_from_json(text).exprs == (
        pc.ZERO,
        pc.Var("v"),
        pc.Prefix("a", pc.Var("s1")),
        pc.Op(F(1, 2), (pc.Prefix("a", pc.Var("s0")), pc.Var("v"))),
    )


def test_associated_system_gs_example():
    th = theory("gs")
    sys = pc.reachable(pc.parse_exp(GS_E, th), th)
    assert sys.variables == ("s0", "s1")
    assert sys.render() == "s0 = a1.s1 +[x1] u\ns1 = v +[x1] a2.s0"


def test_associated_system_ca_example():
    th = theory("ca")
    sys = pc.reachable(pc.parse_exp(CA_E, th), th)
    assert sys.render() == "s0 = a1.s1 +[1/2] (a2.s0 +[1/3] w)\ns1 = u"


def test_associated_system_renames_clashing_states():
    # the loader renames a file's state id that is also an output, and
    # reachable its own; the answer's binder is the unknown
    text = json.dumps({"theory": "sl", "states": ["u"], "structure": {"u": {
        "op": "+", "args": [{"out": "u"}, {"act": "a", "to": "u"}]}}})
    sys = pc.coalgebra_from_json(text)
    assert sys.variables == ("%0",)
    assert set(pc.free_vars(sys.exprs[0])) == {"u", "%0"}
    th = theory("sl")
    c = pc.reachable(pc.parse_exp("mu x. a.x + s0", th), th)
    assert c.render() == "%0 = a.%0 + s0"
    assert pc.unparse(pc.synthesize(c, "%0")) == "mu %0. a.%0 + s0"


def test_renamed_state_avoids_outputs_and_states():
    # u = u + %0 + a.u: renaming u to %0 would capture the output %0
    text = json.dumps({"theory": "sl", "states": ["u"], "structure": {"u": {
        "op": "+", "args": [{"out": "u"}, {"op": "+", "args": [
            {"out": "%0"}, {"act": "a", "to": "u"}]}]}}})
    assert run_cli(["solve", "{file}"], text) == {
        "stdout": "%1 = mu %1. a.%1 + %0 + u\n", "stderr": "", "code": 0}
    phi = pc.solve(pc.coalgebra_from_json(text))
    assert pc.free_vars(phi["%1"]) == {"u", "%0"}
    text = json.dumps({"theory": "sl", "states": ["%1", "v", "w"], "structure": {
        "%1": {"op": "+", "args": [{"out": "v"}, {"out": "%0"}]},
        "v": {"out": "w"},
        "w": {"act": "a", "to": "v"}}})
    c = pc.coalgebra_from_json(text)
    assert c.render() == "%1 = %0 + v\n%2 = w\n%3 = a.%2"


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_associated_system_passes_the_system_checks(th):
    # the loader and reachable build their readings, of outputs and steps
    # to states, unchecked; the checks of EqSystem would build the same system
    rng = random.Random(seed_for(th.id, 3201))
    for _ in range(40):
        for system in (pc.coalgebra_from_json(pc.coalgebra_to_json(rand_coalgebra(th, rng))),
                       pc.reachable(rand_guarded_exp(th, rng), th)):
            assert system == pc.EqSystem(system.theory, system.variables, system.exprs)


def test_associated_system_checks_a_step_to_a_binder():
    th = theory("sl")
    loop = pc.Mu("s0", pc.Prefix("a", pc.Var("s0")))
    with pytest.raises(pc.TheoryError, match="unknown 's0' is bound in the equation for 's0'"):
        pc.EqSystem(th, ("s0",), (pc.Prefix("b", loop),))


# ---------------------------------------------------------------------------
# solving

def test_solve_single_loop():
    th = theory("sl")
    sys = pc.parse_system("x = a.x", th)
    phi = pc.solve(sys)
    assert phi["x"] == pc.parse_exp("mu x. a.x", th)
    ok, msg = pc.check_solution(sys, phi)
    assert ok, msg


def test_solve_two_state_loop():
    th = theory("sl")
    sys = pc.parse_system("x = a.y\ny = b.x", th)
    phi = pc.solve(sys)
    ok, msg = pc.check_solution(sys, phi)
    assert ok, msg
    assert pc.free_vars(phi["x"]) == frozenset()


def test_example_51_round_trip():
    th = theory("gs")
    e = pc.parse_exp(GS_E, th)
    sys = pc.reachable(e, th)
    phi = pc.solve(sys)
    ok, msg = pc.check_solution(sys, phi)
    assert ok, msg
    assert pc.equivalent(phi["s0"], e, th).equivalent


def test_unguarded_system_rejected():
    th = theory("sl")
    sys = pc.parse_system("x = x + a.0", th)
    with pytest.raises(UnguardedSystem):
        pc.solve(sys)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_solution_law_random_systems(th):
    rng = random.Random(seed_for(th.id, 49157))
    for _ in range(40):
        sys = rand_coalgebra(th, rng, max_states=4)
        phi = pc.solve(sys)
        ok, msg = pc.check_solution(sys, phi)
        assert ok, (msg, sys.render())


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_synthesis_round_trip(th):
    rng = random.Random(seed_for(th.id, 24593))
    for _ in range(25):
        c = rand_coalgebra(th, rng, max_states=4)
        phi = pc.solve(c)
        for s in c.variables:
            c2 = pc.reachable(phi[s], th)
            from procalc.semantics import disjoint_union
            from procalc.equivalence import check_states

            u = disjoint_union(c, c2)
            assert check_states(u, f"a{s}", "bs0").equivalent


def test_uniqueness_across_elimination_orders():
    rng = random.Random(12007)
    for th in ALL_THEORIES:
        for _ in range(8):
            sys = rand_coalgebra(th, rng, max_states=3)
            n = len(sys.variables)
            orders = [tuple(reversed(range(n))), tuple(range(n))]
            sols = [pc.solve(sys, order=o) for o in orders]
            for x in sys.variables:
                assert pc.equivalent(sols[0][x], sols[1][x], th).equivalent


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_expression_system_fixed_point(th):
    # synthesising from the reachable coalgebra of e gives e back,
    # up to bisimilarity
    rng = random.Random(seed_for(th.id, 40961))
    for _ in range(15):
        e = rand_guarded_exp(th, rng, depth=3)
        c = pc.reachable(e, th)
        try:
            f = pc.synthesize(c, c.variables[0])
        except UnguardedSystem:
            continue  # unguarded unknowns arise from ungarded subterms
        assert pc.equivalent(e, f, th).equivalent, pc.unparse(e)


def test_parse_system_render_round_trip():
    th = theory("ca")
    text = "s0 = a1.s1 +[1/2] (a2.s0 +[1/3] w)\ns1 = u"
    sys = pc.parse_system(text, th)
    assert sys.render() == text


# ---------------------------------------------------------------------------
# demand-driven back-substitution against eager elimination

def _rand_text_system(th, rng, n):
    """A random equation system read from text.  Unknowns may stand
    anywhere, also unguarded.  Binders are named like free variables, so
    that elimination must rename some of them."""
    unknowns = tuple(f"q{i}" for i in range(n))
    lines = []
    for q in unknowns:
        steps = [pc.Prefix(rng.choice(ACTIONS), pc.Var(rng.choice(unknowns)))
                 for _ in range(rng.randint(0, 2))]
        parts = [rand_exp(th, rng, depth=3, bound=unknowns), *steps]
        e = functools.reduce(lambda a, b: pc.Op(rand_param(th, rng), (a, b)), parts)
        if rng.random() < 0.5:
            e = pc.Mu("m1", pc.Prefix(rng.choice(ACTIONS), e))
        text = pc.unparse(e).replace("m1", "u").replace("m2", "v").replace("m3", "w")
        lines.append(f"{q} = {text}")
    return pc.parse_system("\n".join(lines), th)


def _loops(th, rng, succ, n):
    """The system s_i = a.s_j OP b.s_k for (j, k) = succ(i), or s_i = a.0
    where succ(i) is None, with random choices OP."""
    exprs = []
    for i in range(n):
        if succ(i) is None:
            exprs.append(pc.Prefix("a", pc.ZERO))
        else:
            j, k = succ(i)
            exprs.append(pc.Op(rand_param(th, rng), (pc.Prefix("a", pc.Var(f"s{j}")),
                                                     pc.Prefix("b", pc.Var(f"s{k}")))))
    return pc.EqSystem(th, tuple(f"s{i}" for i in range(n)), tuple(exprs))


def _chain(th, rng, n):
    return _loops(th, rng, lambda i: (i + 1, 0) if i < n - 1 else None, n)


def _systems(th, rng):
    for _ in range(12):
        yield rand_coalgebra(th, rng, max_states=5)
    found = 0
    while found < 20:
        system = _rand_text_system(th, rng, rng.randint(2, 4))
        try:
            pc.solve(system)
        except UnguardedSystem:
            continue
        found += 1
        yield system
    yield _chain(th, rng, 12)
    yield _loops(th, rng, lambda i: ((i + 1) % 8, (3 * i + 1) % 8), 8)  # ring(8)


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_solve_matches_eager_elimination(th):
    rng = random.Random(seed_for(th.id, 28411))
    renamed = 0
    for system in _systems(th, rng):
        n = len(system.variables)
        orders = [None, tuple(range(n)), *(tuple(rng.sample(range(n), n)) for _ in range(2))]
        for order in orders:
            want = solve_eager(system, order)
            renamed += any("%" in pc.unparse(e) for e in want.values())
            got = pc.solve(system, order)
            assert list(got) == list(system.variables)
            assert all(got[x] is want[x] for x in got), system.render()
            for x in system.variables:
                (y, value), = pc.solve(system, order, wanted=(x,)).items()
                assert y == x and value is want[x], (x, order, system.render())
    assert renamed  # some orders rename a binder


def test_solve_after_renaming_matches_eager_elimination():
    # eliminating forwards, back-substitution renames the binder u in the
    # solutions of y and x.  The fresh name in x's avoids the names in y's,
    # though x's closed equation does not mention y
    th = theory("sl")
    system = pc.parse_system(
        "x = a.(mu u. b.(u + z))\ny = mu u. a.(u + x + z)\nz = u + a.y", th)
    order = (0, 1, 2)
    want = solve_eager(system, order)
    assert pc.unparse(want["x"]).startswith("mu x. a.(mu %2. b.(%2 + (mu z.")
    for x in system.variables:
        assert pc.solve(system, order, wanted=(x,))[x] is want[x]


def _ring(n, m=3, c=1):
    """The coalgebra s_i = a.s_{i+1 mod n} + b.s_{(m*i+c) mod n} in sl."""
    structure = {
        f"s{i}": frozenset({pc.Prefix("a", pc.Var(f"s{(i + 1) % n}")),
                            pc.Prefix("b", pc.Var(f"s{(m * i + c) % n}"))})
        for i in range(n)
    }
    return coalgebra(theory("sl"), structure, structure)


def _substitutions(monkeypatch):
    """Whether each call of the solver's ``substitute`` from now on rewrote
    its term, in call order."""
    calls = []
    real = solver.substitute

    def counted(e, bindings):
        out = real(e, bindings)
        calls.append(out is not e)
        return out

    monkeypatch.setattr(solver, "substitute", counted)
    return calls


def test_solve_one_state_back_substitutes_nothing(monkeypatch):
    # with the default order s0 is eliminated last, so its solution is its
    # closed equation: only the forward pass substitutes, and only into the
    # equations that mention the unknown it closes
    system = _ring(13)
    calls = _substitutions(monkeypatch)
    phi = pc.solve(system, wanted=("s0",))
    assert calls == [True] * 22
    assert len(pc.unparse(phi["s0"])) == 225_534
    calls.clear()
    pc.solve(system)
    assert calls == [True] * (22 + 12)


@pytest.mark.parametrize("n", [50, 300])
def test_solve_chain_substitutes_per_occurrence(monkeypatch, n):
    # each closed s_i is free only in the equation of s_{i-1}, and s0 in every closed equation
    system = _chain(theory("sl"), random.Random(n), n)
    calls = _substitutions(monkeypatch)
    pc.solve(system, wanted=("s0",))
    assert calls == [True] * (n - 1)
    calls.clear()
    pc.solve(system)
    assert calls == [True] * (2 * n - 3)


def test_solve_one_state_of_ring_30():
    # the answer is a DAG whose tree is far too large to substitute into node by node
    system = _ring(30)
    phi = pc.solve(system, wanted=("s0",))
    assert pc.free_vars(phi["s0"]) == frozenset()
    assert pc.solve(system, wanted=("s0",))["s0"] is phi["s0"]


def test_cli_solve_state_on_ring(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ring.json"
    path.write_text(pc.coalgebra_to_json(_ring(13)))
    calls = _substitutions(monkeypatch)
    assert cli.run(["solve", str(path), "--state", "s0"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 225_534 + 1 and out.endswith("\n")
    assert calls == [True] * 22


def test_system_errors_come_before_an_unknown_state():
    got = run_cli(["solve", "{file}", "--state", "nope"], "x = a.y\ny = b.x + y\n")
    assert got["stderr"] == "error: unknown 'y' is unguarded in the equation for 'y'\n"
    system = pc.parse_system("x = a.x", theory("sl"))
    with pytest.raises(pc.TheoryError, match="permute"):
        pc.solve(system, order=(1,), wanted=("x",))


def test_unguarded_error_names_the_first_pair():
    # the first equation with an unguarded unknown, and the first such
    # unknown in the order the system lists them
    system = pc.parse_system("z = a.z\nx = a.x + y + (mu m. m + z)\ny = x", theory("sl"))
    with pytest.raises(UnguardedSystem, match="unknown 'z' is unguarded in the equation for 'x'"):
        pc.solve(system)


def test_empty_system_rejected():
    with pytest.raises(pc.TheoryError, match="at least one unknown"):
        pc.parse_system("# comment\n", theory("sl"))


def test_unknowns_are_the_names_the_term_parser_reads():
    # a quote continues a name, as in ``mu x'. a.x'``; a non-ASCII letter
    # and ``mu`` are no names, and would print text that does not parse
    assert run_cli(["solve", "{file}"], "x' = a.x'\n") == {
        "stdout": "x' = mu x'. a.x'\n", "stderr": "", "code": 0}
    for x in ("é", "mu", "1x", "x-y", "%", "%x"):
        assert run_cli(["solve", "{file}"], f"{x} = a.0\n") == {
            "stdout": "", "stderr": f"error: bad unknown {x!r}\n", "code": 1}


def test_solve_deep_chain():
    # s_i = a.s_{i+1} + b.s0: the solution of s1 nests 199 mu-binders
    n = 200
    lines = [f"s{i} = a.s{i + 1} + b.s0" for i in range(n - 1)] + [f"s{n - 1} = a.0"]
    system = pc.parse_system("\n".join(lines), theory("sl"))
    phi = pc.solve(system)
    unknowns = set(system.variables)
    assert not any(pc.free_vars(e) & unknowns for e in phi.values())
    assert pc.solve(system, wanted=("s1",))["s1"] is phi["s1"]
    assert pc.unparse(phi["s198"]) == "mu s198. a.(mu s199. a.0) + b.(%s)" % pc.unparse(phi["s0"])


# ---------------------------------------------------------------------------
# answers and lts text read back: fresh %k names parse, and lts text names
# the states it renames as solve does

CLASH = "a.s0 + b.(s1 + a.0)"  # s0 and s1 are outputs and state ids


def test_percent_names_read_back_through_step_solve_and_equiv():
    assert run_cli(["step", "mu %1. a.%1"], None) == {
        "stdout": "a.(mu %1. a.%1)\n", "stderr": "", "code": 0}
    assert run_cli(["solve", "{file}"], "%0 = a.%0 + s0\n") == {
        "stdout": "%0 = mu %0. a.%0 + s0\n", "stderr": "", "code": 0}
    # the answer of test_renamed_state_avoids_outputs_and_states, from its
    # equation, and against its own unfolding
    answer = "mu %1. a.%1 + %0 + u"
    assert run_cli(["solve", "{file}"], "%1 = a.%1 + %0 + u\n")["stdout"] == f"%1 = {answer}\n"
    out = run_cli(["equiv", answer, f"a.({answer}) + %0 + u"], None)
    assert out["code"] == 0 and out["stdout"].startswith("equivalent: ")


def test_lts_text_of_a_clash_solves_to_the_term():
    out = run_cli(["lts", CLASH], None)
    assert out == {"stdout": "%0 = a.%1 + b.s2\n%1 = s0\ns2 = a.s3 + s1\ns3 = 0\n",
                   "stderr": "", "code": 0}
    answer = run_cli(["solve", "{file}", "--state", "%0"], out["stdout"])
    assert answer["code"] == 0
    assert answer["stdout"] == "mu %0. a.(mu %1. s0) + b.(mu s2. a.(mu s3. 0) + s1)\n"
    out = run_cli(["equiv", CLASH, answer["stdout"].strip()], None)
    assert out["code"] == 0 and out["stdout"].startswith("equivalent: ")
    # JSON and DOT name the states as the text does, and solve reads the JSON alike
    text = run_cli(["lts", "--format", "json", CLASH], None)["stdout"]
    assert json.loads(text)["states"] == ["%0", "%1", "s2", "s3"]
    assert run_cli(["solve", "{file}", "--state", "%0"], text)["stdout"] == answer["stdout"]
    dot = run_cli(["lts", "--format", "dot", CLASH], None)["stdout"]
    assert '"%0" -> "%1" [label="a"]' in dot and '"%1" -> "var_s0"' in dot
    # a state id that is an action is renamed too
    assert run_cli(["lts", "s0.s1.0"], None)["stdout"] == "%0 = s0.%1\n%1 = s1.s2\ns2 = 0\n"


@pytest.mark.parametrize("th", ALL_THEORIES, ids=lambda t: t.id)
def test_solve_reads_lts_text_back(th):
    # outputs and an action renamed to state ids, so that states clash
    rng = random.Random(seed_for(th.id, 0x1757))
    renamed = 0
    for _ in range(30):
        term = rand_clash_text(th, rng)
        lts = run_cli(["lts", *THEORY_ARGS[th.id], term], None)
        assert lts["code"] == 0, term
        first = lts["stdout"].split(" = ", 1)[0]
        renamed += "%" in lts["stdout"]
        answer = run_cli(["solve", *THEORY_ARGS[th.id], "{file}", "--state", first], lts["stdout"])
        assert answer["code"] == 0, (term, lts["stdout"], answer["stderr"])
        out = run_cli(["equiv", *THEORY_ARGS[th.id], term, answer["stdout"].strip()], None)
        assert out["code"] == 0 and out["stdout"].startswith("equivalent: "), (term, answer)
    assert renamed >= 10


def test_termination_has_one_message_in_text_and_json():
    # star lts prints termination as 1, which no equation system can read
    text = run_cli(["star", "lts", "a ; b"], None)["stdout"]
    assert text == "s0 = a.s1\ns1 = b.s2\ns2 = 1\n"
    assert run_cli(["solve", "{file}"], text)["stderr"] == (
        "error: equation for 's2': termination transitions have no syntax (at 1)\n")
    js = run_cli(["star", "lts", "--format", "json", "a ; b"], None)["stdout"]
    assert run_cli(["solve", "{file}", "--state", "s0"], js)["stderr"] == (
        "error: termination transitions have no syntax\n")
    with pytest.raises(pc.ParseError, match="termination transitions have no syntax"):
        pc.parse_exp("a.0 + 1", theory("sl"))

"""Start-up: ``import procalc`` loads no submodule, each command loads only
the modules it runs, and the record classes that replace dataclasses keep
their behaviour.  The loading checks each run in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procalc as pc
from procalc.theory import SL_AXIOMS, TheoryError

from gen import theory

ROOT = Path(__file__).resolve().parent.parent
OPTIONAL = {"procalc.axioms", "procalc.equivalence", "procalc.solver", "procalc.star"}
LAZY = {"argparse", "gettext", "json"}  # help and errors; JSON files and --format json


def fresh(code):
    """Run ``code`` in a fresh interpreter with ``src`` on the path; return
    the modules it loaded beyond those a bare interpreter has, and its
    output before them.  The modules are listed before the probe imports
    ``json`` to print them."""
    probe = f"{code}\nimport sys\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(text):
        done = subprocess.run([sys.executable, "-c", text], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        *out, modules = done.stdout.splitlines()
        return out, set(json.loads(modules))

    out, loaded = run(probe)
    return out, loaded - run(probe.replace(code, "", 1))[1]


def cli_main(*argv):
    return fresh(f"""import sys
from procalc import cli
sys.argv = ["procalc", *{list(argv)!r}]
try:
    cli.main()
except SystemExit as exc:
    print("exit", exc.code)""")


def test_import_procalc_loads_no_submodule():
    _, loaded = fresh("import procalc")
    assert "procalc" in loaded
    assert not {m for m in loaded if m.startswith("procalc.")}


def test_step_loads_no_other_command_and_no_dataclasses():
    # nor argparse, which only help and errors need, nor json
    out, loaded = cli_main("step", "a.0")
    assert out == ["a.0", "exit 0"]
    assert {"procalc.cli", "procalc.syntax", "procalc.theory", "procalc.semantics"} <= loaded
    assert not (OPTIONAL | LAZY | {"dataclasses"}) & loaded


@pytest.mark.parametrize("argv, uses, shown", [
    (("equiv", "a.0", "a.0"), {"procalc.equivalence"}, "equivalent: "),
    (("prove", "tests/proofs/sl_sl1.json"), {"procalc.axioms", "json"}, "accepted"),
    (("solve", "{tmp}/ring.eqs", "--state", "x"), {"procalc.solver"}, "mu x. a.(mu y. a.x)"),
    (("star", "equiv", "a", "a ; 1"), {"procalc.star", "procalc.equivalence"}, "equivalent: "),
    (("star", "step", "a"), {"procalc.star"}, "a.1"),
    (("lts", "a.0"), set(), "s0 = a.s1"),
    (("lts", "--format", "json", "a.0"), {"json"}, "{"),
    (("solve", "{tmp}/ring.json", "--state", "s0"), {"procalc.solver", "json"}, "mu s0. a.s0"),
])
def test_each_command_loads_its_own_modules(argv, uses, shown, tmp_path):
    (tmp_path / "ring.eqs").write_text("x = a.y\ny = a.x\n")
    (tmp_path / "ring.json").write_text(json.dumps(
        {"theory": "sl", "states": ["s0"], "structure": {"s0": {"act": "a", "to": "s0"}}}))
    out, loaded = cli_main(*(arg.format(tmp=tmp_path) for arg in argv))
    assert out[-1] == "exit 0" and out[0].startswith(shown)
    assert uses <= loaded
    assert not ((OPTIONAL | LAZY) - uses | {"dataclasses"}) & loaded


def test_help_loads_argparse():
    out, loaded = cli_main("step", "-h")
    assert out[0].startswith("usage: procalc step") and out[-1] == "exit 0"
    assert "argparse" in loaded and not OPTIONAL & loaded


def test_exports_resolve_on_first_use():
    out, loaded = fresh("""import importlib, procalc
print(procalc.semantics.step is procalc.step)
print(all(getattr(procalc, name) is getattr(
    importlib.import_module("procalc." + procalc._MODULE_OF[name]), name) for name in procalc.__all__))
namespace = {}
exec("from procalc import *", namespace)
print(all(namespace[name] is getattr(procalc, name) for name in procalc.__all__))
print(set(procalc.__all__) <= set(dir(procalc)) and "solver" in dir(procalc))""")
    assert out == ["True"] * 4
    assert "procalc.cli" not in loaded


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        pc.nope
    with pytest.raises(ImportError):
        exec("from procalc import nope", {})


def test_records_print_and_compare_by_field():
    cert = pc.Certificate(True, 2, "stable partition: {as0 bs0}")
    assert repr(cert) == "Certificate(equivalent=True, rounds=2, detail='stable partition: {as0 bs0}')"
    assert cert == pc.Certificate(equivalent=True, rounds=2, detail="stable partition: {as0 bs0}")
    assert cert != pc.Certificate(True, 3, cert.detail) and cert != (True, 2, cert.detail)
    with pytest.raises(TypeError):
        hash(cert)
    th = theory("sl")
    c = pc.reachable(pc.parse_exp("a.0", th), th)
    assert c == pc.Coalgebra(th, ("s0", "s1"), dict(c.structure))
    assert repr(pc.Tick()) == "Tick()" and pc.Tick() == pc.TICK


def test_record_keyword_defaults():
    v = pc.Verdict(False)
    assert (v.accepted, v.reason, v.step) == (False, "ok", None) and not v and pc.Verdict(True)
    assert pc.Verdict(False, step=3) == pc.Verdict(False, "ok", 3)
    assert repr(pc.Verdict(False, "bad", 2)) == "Verdict(accepted=False, reason='bad', step=2)"
    s = pc.ProofStep("axiom", pc.ZERO, pc.ZERO, name="SL1")
    assert (s.at, s.name, s.refs, s.var, s.body, s.bindings) == ((), "SL1", (), None, None, None)
    assert s == pc.ProofStep(rule="axiom", lhs=pc.ZERO, rhs=pc.ZERO, name="SL1")
    with pytest.raises(TypeError, match="missing argument 'rhs'"):
        pc.ProofStep("refl", pc.ZERO)
    with pytest.raises(TypeError, match="unexpected"):
        pc.Verdict(True, label="x")
    with pytest.raises(TypeError, match="takes 3 arguments"):
        pc.Verdict(True, "ok", None, 4)


def test_frozen_records_refuse_assignment_and_hash_by_field():
    ax = SL_AXIOMS[0]
    assert ax.side is None and ax == type(ax)(ax.name, ax.lhs, ax.rhs)
    assert hash(ax) == hash(type(ax)(ax.name, ax.lhs, ax.rhs, None))
    for record in (ax, pc.TICK):
        with pytest.raises(AttributeError):
            record.name = "x"
        with pytest.raises(AttributeError):
            del record.name
    assert len({pc.TICK, pc.Tick()}) == 1


def test_eq_system_validates_its_unknowns():
    th = theory("sl")
    x = pc.parse_exp("a.x", th)
    assert pc.EqSystem(th, ("x",), (x,)).variables == ("x",)
    for variables, exprs, message in [
        ((), (), "an equation system needs at least one unknown"),
        (("x", "x"), (x, x), "duplicate unknown 'x'"),
        (("x", "y"), (x, pc.parse_exp("mu x. a.x", th)), "unknown 'x' is bound in the equation for 'y'"),
    ]:
        with pytest.raises(TheoryError, match=message):
            pc.EqSystem(th, variables, exprs)
        with pytest.raises(TheoryError, match=message):
            pc.EqSystem(theory=th, variables=variables, exprs=exprs)

"""Tests of the benchmark itself: generators, checker, tracing and the
metric names.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from procalc import cli  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def cli_result(argv):
    out = io.StringIO()
    old = sys.argv
    sys.argv = ["procalc", *argv]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main()
            except SystemExit as exc:
                return exc.code, out.getvalue()
    finally:
        sys.argv = old


def written(ops, tmp_path):
    """Write the ops' input files under tmp_path and point argv there."""
    for op in ops:
        for path, content in op.pop("files", {}).items():
            target = tmp_path / os.path.basename(path)
            target.write_text(json.dumps(content))
            op["argv"] = [str(target) if a == path else a for a in op["argv"]]
    return ops


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload):
    a = gen.make_ops(workload, 7, 40)
    assert a == gen.make_ops(workload, 7, 40)
    assert a != gen.make_ops(workload, 8, 40)
    assert len({json.dumps(op["argv"]) for op in a}) == len(a)
    assert gen.deep_ops(7) == gen.deep_ops(7) != gen.deep_ops(8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_first_round_passes_the_checker(workload, tmp_path):
    ops = written(gen.make_ops(workload, 3, 1), tmp_path)
    for op in ops:
        code, out = cli_result(op["argv"])
        assert check.check(op, code, out) is None, op["argv"]


def test_checker_flags_a_corrupted_verdict():
    op = {"kind": "equiv", "expect": {"exit": 0}}
    assert check.check(op, 0, "equivalent: stable partition: {as0 bs0}\n") is None
    assert check.check(op, 10, "not equivalent: split at round 1\n") is not None
    assert check.check(op, 0, "not equivalent: split at round 1\n") is not None
    op = {"kind": "equiv", "expect": {"exit": 10}}
    assert check.check(op, 10, "equivalent: stable partition: {as0 bs0}\n") is not None


@pytest.mark.parametrize("theory", gen.THEORIES)
def test_checker_flags_a_corrupted_solve_output(theory, tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(gen.ring(6, 3, 1, theory, "ax", "bx")))
    op = {"kind": "solve", "expect": {"exit": 0, "spec": gen.spec(theory, "ax", "bx")}}
    code, out = cli_result(["solve", *gen.theory_argv(theory), str(path), "--state", "s0"])
    assert check.check(op, code, out) is None
    assert check.check(op, code, out.replace("bx", "ax", 1)) is not None
    assert check.check(op, code, out.replace("ax.", "ax.ax.", 1)) is not None
    assert check.check(op, code, out[:-5]) is not None
    assert check.check(op, 1, out) is not None


def test_spec_check_handles_unfolding_and_unguarded_recursion():
    sl, cm, gs, ca = (gen.spec(th, "a", "b") for th in gen.THEORIES)
    assert check.bisimilar_to_spec("mu x. a.x + b.(mu y. a.y + b.x)", sl) is None
    assert check.bisimilar_to_spec("mu x. (x + a.x) + b.x", sl) is None
    assert check.bisimilar_to_spec("mu x. a.x + b.x + a.x", sl) is None
    assert check.bisimilar_to_spec("mu x. a.x + b.0", sl) is not None
    assert check.bisimilar_to_spec("mu x. a.x + b.x + a.x", cm) is not None
    assert check.bisimilar_to_spec("mu x. a.x +[x1] b.x", gs) is None
    assert check.bisimilar_to_spec("mu x. a.x +[x2] b.x", gs) is not None
    assert check.bisimilar_to_spec("mu x. a.x +[1/2] b.x", ca) is None
    assert check.bisimilar_to_spec("mu x. a.x +[1/3] b.x", ca) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mix_generator_count(k):
    code, out = cli_result(["step", "--theory", "cs", gen.mix(k, "q")])
    op = {"kind": "step", "expect": {"exit": 0, "gens": k * k + 1}}
    assert check.check(op, code, out) is None
    op["expect"]["gens"] += 1
    assert check.check(op, code, out) is not None


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_ops_print_what_the_cli_prints(workload, tmp_path):
    ops = written(gen.make_ops(workload, 5, 1), tmp_path)
    tr = tracing.Tracer()
    for op in ops:
        code, out, seconds = tracing.traced_op(tr, op)
        assert (code, out) == cli_result(op["argv"])
        assert seconds > 0
    ops_spans = [s for s in tr.spans if s[3] is None]
    assert len(ops_spans) == len(ops)
    assert all(s[3] is not None for s in tr.spans if not s[0].startswith("op."))
    self_s = tr.self_times()
    total = sum(s[2] - s[1] for s in ops_spans)
    assert sum(self_s.values()) == pytest.approx(total)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    rows = [{"round": 0, "fail": None, "t": 0.0, "dt": 0.1, "ref": 0.01, "rss_mb": 20.0,
             "chars": 10}]
    e2e = run.end_to_end(rows, {0: 1}, 0.1)
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    layers = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    assert layers == {m["name"] for m in bench["per_layer"]}
    result = {"attempted": 1, "failed": 0, "fail_ratio": 0.0, "correct": True, "metrics": e2e}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report("refine", result, bench, trace=False)
    line = json.loads(out.getvalue().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) <= {m["name"] for m in bench["end_to_end"]}


def rows_of(rounds, fail=(), ref=0.01):
    rows, t = [], 0.0
    for k, dts in enumerate(rounds):
        for dt in dts:
            rows.append({"round": k, "fail": "x" if len(rows) in fail else None, "t": t,
                         "dt": dt, "ref": ref, "rss_mb": 20.0 + len(rows), "chars": 5})
            t += dt
    return rows


def test_failed_ops_count_as_infinitely_slow():
    rows = rows_of([[0.1] * 20], fail={3, 7})
    m = run.end_to_end(rows, {0: 20}, 0.1)
    assert m["op_ref.p50"] == pytest.approx(10.0) and m["op_ref.p90"] == float("inf")
    assert m["ops_per_ref"] == pytest.approx(18 / 200)


def test_timings_are_in_reference_units():
    slow_machine = run.end_to_end(rows_of([[0.2, 0.4]], ref=0.02), {0: 2}, 0.1)
    fast_machine = run.end_to_end(rows_of([[0.1, 0.2]], ref=0.01), {0: 2}, 0.1)
    for name in ("op_ref.p50", "op_ref.p90", "ops_per_ref"):
        assert slow_machine[name] == pytest.approx(fast_machine[name])


def test_band_quantile_averages_the_ranks_around_it():
    values = list(range(1, 101))
    assert run.band_quantile(values, 0.9) == pytest.approx(statistics.fmean(range(86, 96)))
    assert run.band_quantile(values, 0.5) == pytest.approx(statistics.fmean(range(46, 56)))
    assert run.band_quantile([7.0], 0.9) == 7.0


def test_timings_pool_complete_rounds_only():
    fast, slow = [0.1, 0.2, 0.3, 0.4], [9.0]
    rows = rows_of([fast, fast, fast, slow])
    m = run.end_to_end(rows, {k: 4 for k in range(4)}, 0.1)
    assert m["op_ref.p90"] == pytest.approx(40.0)
    assert m["ops_per_ref"] == pytest.approx(12 / 300)
    assert m["peak_rss_mb"] == 20.0 + 12


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

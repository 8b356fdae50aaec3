"""Benchmark of procalc's CLI pipeline on seeded workloads.

    python3 perfbench/run.py --workload recursion --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The workloads, their metrics and the bounds
are listed in BENCHMARK.json; perfbench/README.md says why each was chosen.

A run generates its inputs from the seed, times a fresh interpreter's set-up
several times, runs the ops in a fresh worker interpreter with a
wall-clock budget (``worker.py``), checks every result against the answer
fixed by construction (``check.py``), and writes a results file under
``.perfbench-runs/``.  With ``--trace 0`` it reports the end-to-end metrics,
whose timings are in units of a reference job timed between ops;
with ``--trace 1`` it runs the ops untraced for half the time, then the
same ops traced in another fresh worker (``tracing.py``), and reports the
per-layer metrics.  The last line of stdout is the result as one JSON
object.  It exits with 2, printing no result, when procalc's sources are
not in ./src.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = ".perfbench-runs"
# set-up is timed this many times before the timed loop and again after it
SETUP_PROBES = (6, 5)
# peak memory is read after this many ops, so that it does not grow with speed
RSS_AFTER_OPS = 100
# ops generated per run: far more than a run gets through, so a faster
# program never runs out of input
MAX_OPS = 2000
GRACE_S = 30
# a quantile is the mean of the ops ranked within this many quantiles of it
QUANTILE_BAND = 0.05


class BenchError(RuntimeError):
    pass


def spawn(argv):
    return subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def setup_times(theories, count):
    """Times from starting a fresh interpreter to procalc imported and the
    workload's theories built."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = spawn(["--setup-only", "--theories", ",".join(theories)])
        watchdog = threading.Timer(GRACE_S, proc.kill)
        watchdog.start()
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        _, err = proc.communicate()
        watchdog.cancel()
        if proc.returncode != 0 or not line.strip():
            raise BenchError(f"set-up failed: {err.strip()[-400:]}")
    return times


def run_worker(argv, budget):
    """Run a worker to its end or until ``budget`` seconds have passed.
    Returns (records, killed)."""
    proc = spawn(argv)
    try:
        out, err = proc.communicate(timeout=budget)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not killed and (proc.returncode != 0 or "end" not in records[-1]):
        raise BenchError(f"worker failed: {err.strip()[-400:]}")
    return records, killed


def outcomes(ops, records, killed):
    """Per-op outcome dicts for every op the worker started: checked
    results, and the op in flight when the worker was killed."""
    by_id = {op["id"]: op for op in ops}
    done = [r for r in records if "op" in r]
    rows = []
    for r in done:
        reason = check.check(by_id[r["op"]], r["exit"], r["stdout"])
        op = by_id[r["op"]]
        rows.append({"id": op["id"], "kind": op["kind"], "round": op["round"],
                     "exit": r["exit"], "t": r.get("t"), "dt": r["dt"], "ref": r.get("ref"),
                     "rss_mb": r.get("rss_mb"), "chars": len(r["stdout"]), "fail": reason})
    if killed and len(done) < len(ops):
        op = ops[len(done)]
        rows.append({"id": op["id"], "kind": op["kind"], "round": op["round"], "exit": None,
                     "t": math.inf, "dt": math.inf, "ref": None, "rss_mb": None, "chars": 0,
                     "fail": "killed at the wall-clock budget"})
    return rows


def band_quantile(values, q):
    """The ``q`` quantile, taken as the mean of the values ranked within
    ``QUANTILE_BAND`` quantiles of it.  It averages a tenth of the sample
    instead of reading one value, so it moves less from run to run.  A
    failed op inside the band makes it infinite."""
    ordered = sorted(values)
    n = len(ordered)
    # rounded, so that 0.55 * 100 is 55 and not 55.000000000000007
    lo = min(n - 1, max(0, math.floor(round((q - QUANTILE_BAND) * n, 9))))
    hi = max(lo + 1, min(n, math.ceil(round((q + QUANTILE_BAND) * n, 9))))
    return statistics.fmean(ordered[lo:hi])


def complete_ops(rows, round_sizes):
    """The rows of the run's complete rounds; all rows when no round is
    complete.  Every complete round holds the same mix of ops, so the mix
    does not depend on where the run stopped."""
    rounds = {}
    for r in rows:
        rounds.setdefault(r["round"], []).append(r)
    complete = [r for k, rs in sorted(rounds.items()) if len(rs) == round_sizes[k] for r in rs]
    return complete or rows


def timings(rows, cost):
    """p50 and p90 op cost, and successful ops per unit of cost.  A failed
    op counts as infinitely slow."""
    lat = [math.inf if r["fail"] else cost(r) for r in rows]
    ok = sum(1 for r in rows if not r["fail"])
    return band_quantile(lat, 0.5), band_quantile(lat, 0.9), ok / sum(cost(r) for r in rows)


def ref_cost(row):
    """An op's latency in units of the reference job timed around it."""
    return row["dt"] / row["ref"] if row["ref"] else math.inf


def end_to_end(rows, round_sizes, setup_s):
    """End-to-end metrics of one run, over its complete rounds.

    Timings are in units of the reference job (``worker.reference``) timed
    around each op, so that a stretch of the run that the machine ran
    slowly moves them less (perfbench/README.md, Noise).
    """
    done = complete_ops(rows, round_sizes)
    p50, p90, rate = timings(done, ref_cost)
    ok = [r for r in done if not r["fail"]]
    rss = [r["rss_mb"] for r in rows if r["rss_mb"] is not None]
    return {
        "op_ref.p50": p50,
        "op_ref.p90": p90,
        "ops_per_ref": rate,
        "setup_s": setup_s,
        "peak_rss_mb": rss[min(RSS_AFTER_OPS, len(rss)) - 1] if rss else math.inf,
        "out_chars": statistics.mean(r["chars"] for r in ok) if ok else math.inf,
    }


def seconds_metrics(rows, round_sizes):
    """The same timings in plain seconds, for the results file."""
    p50, p90, rate = timings(complete_ops(rows, round_sizes), lambda r: r["dt"])
    refs = [r["ref"] for r in rows if r["ref"]]
    return {"op_s.p50": p50, "op_s.p90": p90, "ops_per_s": rate,
            "ref_s": statistics.median(refs) if refs else None}


def write_inputs(run_dir, ops, name):
    for op in ops:
        for path, content in op.pop("files", {}).items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(content, fh)
    path = os.path.join(run_dir, name)
    with open(path, "w") as fh:
        json.dump(ops, fh)
    return path


def provenance(args):
    rev = None
    if os.path.exists(".git"):  # git would otherwise search the parent directories
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_revision": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def run_workload(workload, args):
    run_dir = os.path.join(RUNS_DIR, f"{workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    os.makedirs(run_dir)
    ops = gen.make_ops(workload, args.seed, MAX_OPS,
                       base=os.path.join(run_dir, "in"))
    ops_path = write_inputs(run_dir, ops, "ops.json")
    result = {"provenance": provenance(args)}
    try:
        if args.trace:
            metrics, rows = traced(run_dir, ops, ops_path, args.seconds)
        else:
            metrics, rows = untraced(run_dir, workload, ops, ops_path, args, result)
    finally:
        shutil.rmtree(os.path.join(run_dir, "in"), ignore_errors=True)
    failed = sum(1 for r in rows if r["fail"])
    result.update({
        "attempted": len(rows), "failed": failed, "fail_ratio": failed / len(rows),
        "correct": all(r["fail"] is None or r["exit"] is None for r in rows),
        "metrics": metrics, "ops": rows,
    })
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result, run_dir


def untraced(run_dir, workload, ops, ops_path, args, result):
    theories = gen.theories_of(ops)
    setup = setup_times(theories, SETUP_PROBES[0])
    argv = ["--ops", ops_path, "--seconds", str(args.seconds)]
    if workload == "recursion":
        argv += ["--after", write_inputs(run_dir, gen.deep_ops(args.seed), "deep.json")]
    records, killed = run_worker(argv, args.seconds + GRACE_S)
    setup += setup_times(theories, SETUP_PROBES[1])
    rows = outcomes(ops, records, killed)
    if not rows:
        raise BenchError("the run finished no op")
    result["setup_probes_s"] = setup
    if workload == "recursion":
        deep = {op["id"]: op for op in gen.deep_ops(args.seed)}
        result["depth_probe"] = [
            {"id": r["after"], "exit": r["exit"],
             "fail": check.check(deep[r["after"]], r["exit"], r["stdout"])}
            for r in records if "after" in r]
    round_sizes = {}
    for op in ops:
        round_sizes[op["round"]] = round_sizes.get(op["round"], 0) + 1
    result["seconds_metrics"] = seconds_metrics(rows, round_sizes)
    return end_to_end(rows, round_sizes, statistics.median(setup)), rows


def traced(run_dir, ops, ops_path, seconds):
    half = seconds / 2
    records, killed = run_worker(["--ops", ops_path, "--seconds", str(half)], half + GRACE_S)
    plain = outcomes(ops, records, killed)
    done = [r for r in plain if r["exit"] is not None]
    if not done:
        raise BenchError("the untraced pass finished no op")
    same = [op for op in ops if op["id"] in {r["id"] for r in done}]
    spans_path = os.path.join(run_dir, "spans.json")
    records, killed = run_worker(["--ops", write_inputs(run_dir, same, "traced_ops.json"),
                                  "--trace", spans_path],
                                 2 * sum(r["dt"] for r in done) + GRACE_S)
    traced_rows = outcomes(same, records, killed)
    if killed:
        raise BenchError("the traced pass ran out of time")
    layers = records[-1]["end"]["layers"]
    layers["trace.overhead_ratio"] = (sum(r["dt"] for r in traced_rows)
                                      / sum(r["dt"] for r in done))
    return layers, plain + traced_rows


def report(workload, result, bench, trace):
    """Print the metrics with units, then the result line."""
    listed = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    missing = {m["name"] for m in listed} ^ set(metrics)
    if missing:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(f"# {workload}: {result['attempted']} ops, {result['failed']} failed "
          f"(fail_ratio {result['fail_ratio']:.4f})")
    for m in listed:
        print(f"{workload:>10}  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    if "seconds_metrics" in result:
        sec = result["seconds_metrics"]
        print(f"# {workload} in plain seconds: p50 {sec['op_s.p50']:.6g} s, "
              f"p90 {sec['op_s.p90']:.6g} s, {sec['ops_per_s']:.6g} ops/s; "
              f"reference job {sec['ref_s']:.6g} s")
    for probe in result.get("depth_probe", []):
        print(f"{workload:>10}  depth probe op {probe['id']}: exit {probe['exit']}, "
              f"{probe['fail'] or 'ok'}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*gen.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed loop length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        if not os.path.isfile(os.path.join("src", "procalc", "__init__.py")):
            raise BenchError("procalc's sources are not in ./src; run from the repository root")
        with open("BENCHMARK.json") as fh:
            bench = json.load(fh)
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result, run_dir = run_workload(workload, args)
            print(f"# results: {run_dir}/result.json")
            report(workload, result, bench, args.trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

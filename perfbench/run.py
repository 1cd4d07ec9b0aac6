"""Coverage-pipeline benchmark: audit → remedy → verify, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload airbnb_deep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

One process sets the workload up several times (Spark session, public
generator, seeded row shuffle, ``cache()``, ``count()``), then runs
passes back to back (closed loop) for ``--seconds`` and checks every
pass. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The line
before it is the machine and session record. See README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
WARMUP_SECONDS = 8.0
T0 = time.perf_counter()
STEPS = ("pass", "pipeline", "scan", "deepdiver", "expand", "hitting_set", "append",
         "verify", "pattern_breaker", "pattern_combiner", "cube")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0,
                   help="shuffles rows across partitions; the data itself is fixed")
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"perfbench [{time.perf_counter() - T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    """Mean of per-pass times.

    Per-pass times are bimodal on a shared host: the same step runs at
    one speed or at up to twice that, in phases of seconds to minutes,
    and the mix of the two changes from run to run. A median jumps from
    one mode to the other as the mix shifts; over ten AirBnB runs,
    DEEPDIVER's mean spread 0.16 and its median 0.27.
    """
    return statistics.fmean(xs) if xs else 0.0


def _central(xs):
    """Mean; for counts, one of the counts (they repeat in every pass)."""
    return statistics.median_low(xs) if all(isinstance(x, int) for x in xs) else mean(xs)


def load(spark, w, seed: int):
    """Generate, shuffle rows by ``seed``, cache and count: the input."""
    import pyspark.sql.functions as F

    from sparkenv import threads

    df = w.make(spark, w.data_seed).repartition(threads(), F.rand(seed)).cache()
    df.count()
    return df


def setup(w, conf, seed: int):
    """SETUP_REPS timed set-ups; the last session and input are kept."""
    import sparkenv

    setup_s, load_s = [], []
    spark = df = None
    for _ in range(SETUP_REPS):
        if spark is not None:
            df.unpersist()
            spark.stop()
        t0 = time.perf_counter()
        spark = sparkenv.start(conf)
        t1 = time.perf_counter()
        df = load(spark, w, seed)
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        load_s.append(t2 - t1)
        log(f"set-up {len(setup_s)}: {t2 - t0:.3f} s (load {t2 - t1:.3f} s)")
    return spark, df, setup_s, load_s


def run_passes(spark, df, w, seconds: float, traced: bool):
    """Closed loop of passes for ``seconds``; returns (tracer, passes).

    Pipeline-only warm-up passes come first, for WARMUP_SECONDS (at
    least one pass), and are left out of every metric: the first run of
    each Spark plan compiles code, and the JVM's JIT keeps speeding the
    Spark steps up over the first seconds of passes. Untraced,
    every timed pass is a full pass. Traced, untraced pipeline-only
    reference passes alternate with instrumented full passes, so the
    trace's overhead is measured inside one process. A pass starts only
    if the passes of its kind so far say it ends within the budget; at
    least one pass of each kind runs. The DuckDB oracle check rides on
    the first full pass; on COMPAS the first traced pass adds the
    Catalyst MUP search, checked against the other three algorithms.
    """
    import pipeline
    from tracer import Tracer, instrument

    tr = Tracer(spark.sparkContext if traced else None)
    kinds = ("ref", "traced") if traced else ("full",)
    passes = []
    first_sig = None
    t_warm = time.perf_counter() + WARMUP_SECONDS
    t_end = None
    timed = 0
    while True:
        i = len(passes)
        kind = "warmup" if t_end is None else kinds[timed % len(kinds)]
        first_full = kind in ("full", "traced") and not any(
            p["kind"] in ("full", "traced") for p in passes)
        rec = {"kind": kind, "errors": []}
        gc.collect()  # each pass starts without the previous pass's garbage
        try:
            with instrument(tr) if kind == "traced" else nullcontext():
                out = pipeline.run_pass(tr, spark, df, w, full=kind in ("full", "traced"),
                                        with_cube=first_full and kind == "traced" and w.cube)
            rec["out"] = out
            rec["errors"] = pipeline.gate(w, out, first_sig)
            first_sig = first_sig or pipeline.signature(out)
            if first_full:
                rec["errors"] += pipeline.oracle_check(df, w)
            # Keep the sizes the per-layer record needs, not the sets.
            for key in ("mups", "m_lam", "combos", "pb", "pc", "cube"):
                out[key] = len(out[key]) if key in out else None
        except Exception:
            rec["errors"].append(traceback.format_exc())
        for e in rec["errors"]:
            log(f"pass {i} ({kind}) FAILED: {e}")
        if "out" in rec:
            sp = rec["out"]["spans"]
            log(f"pass {i} ({kind}): " + " ".join(
                f"{k} {tr.seconds(sp[k]):.4f}" for k in STEPS if k in sp))
        passes.append(rec)
        if t_end is None:
            if time.perf_counter() >= t_warm:
                t_end = time.perf_counter() + seconds  # the budget starts after warm-up
            continue
        timed += 1
        if "out" in rec and "cube" in rec["out"]["spans"]:
            t_end += tr.seconds(rec["out"]["spans"]["cube"])  # outside the budget
        have_all = all(any(p["kind"] == k for p in passes) for k in kinds)
        nxt = kinds[timed % len(kinds)]
        est = median([_loop_seconds(tr, p) for p in passes if p["kind"] == nxt and "out" in p])
        if have_all and time.perf_counter() + est > t_end:
            break
    return tr, passes


def _loop_seconds(tr, p) -> float:
    """A pass's duration without its once-per-process Catalyst search."""
    s = p["out"]["spans"]
    return tr.seconds(s["pass"]) - tr.seconds(s.get("cube"))


def end_to_end(tr, passes, setup_s) -> dict:
    full = [p["out"]["spans"] for p in passes if p["kind"] == "full" and "out" in p]

    def avg(name):
        return mean([tr.seconds(s[name]) for s in full])

    return {
        "setup_s": median(setup_s),
        "pipeline_s": avg("pipeline"),
        "audit_s": avg("audit"),
        "remedy_s": avg("remedy"),
        "mups_deepdiver_s": avg("deepdiver"),
        "mups_pattern_breaker_s": avg("pattern_breaker"),
        "mups_pattern_combiner_s": avg("pattern_combiner"),
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr, passes, w, load_s) -> dict:
    """Per-layer values: means over the traced passes."""
    import math

    rows = [_layers(tr, p["out"]) for p in passes if p["kind"] == "traced" and "out" in p]
    out = {k: _central([r[k] for r in rows if k in r]) for k in rows[0]} if rows else {}
    for k in ("mups_cube_s", "cube.mups_spark_s", "cube.spark_jobs", "cube.spark_stages"):
        out.setdefault(k, 0)  # the cube search runs once, on COMPAS only
    ref = mean([tr.seconds(p["out"]["spans"]["pipeline"])
                  for p in passes if p["kind"] == "ref" and "out" in p])
    traced = mean([r["pipeline_s"] for r in rows])
    out.pop("pipeline_s", None)
    out["trace.overhead_frac"] = traced / ref - 1 if ref else 0.0
    out["synth_data.load_s"] = median(load_s)
    out["pattern_combiner.seed_combos"] = math.prod(w.cards)
    out["failed_frac"] = sum(1 for p in passes if p["errors"]) / len(passes)
    return out


def _layers(tr, out) -> dict:
    s = out["spans"]
    sec, cnt = tr.seconds, tr.count
    dd = s["deepdiver"]
    verify = s["verify"]
    inner = {c["name"]: c for c in tr.children(verify)}
    scan_jobs = tr.spark_jobs([s["scan"]])
    apply_jobs = tr.spark_jobs([s["append"], verify])
    rows_after = inner["from_spark"]["size"]["n"] if "from_spark" in inner else out["n"]
    r = {
        "pipeline_s": sec(s["pipeline"]),
        "coverage.from_spark_s": sec(s["scan"]),
        "coverage.spark_jobs": scan_jobs[0],
        "coverage.spark_stages": scan_jobs[1],
        "coverage.m": out["m"],
        "coverage.cov_calls": cnt(s["pass"], "coverage.cov"),
        "coverage.cov_s": cnt(s["pass"], "coverage.cov", 2),
        "deepdiver.s": sec(dd),
        "deepdiver.cov_calls": cnt(dd, "coverage.cov"),
        "mup_index.dominated_by_any_calls": cnt(dd, "mup_index.dominated_by_any"),
        "mup_index.dominated_by_any_hits": cnt(dd, "mup_index.dominated_by_any", 1),
        "mup_index.dominates_any_calls": cnt(dd, "mup_index.dominates_any"),
        "mup_index.dominates_any_hits": cnt(dd, "mup_index.dominates_any", 1),
        "mup_index.dominance_s": cnt(dd, "mup_index.dominated_by_any", 2)
        + cnt(dd, "mup_index.dominates_any", 2),
        "mup_index.adds": cnt(dd, "mup_index.add"),
        "pattern_breaker.s": sec(s["pattern_breaker"]),
        "pattern_breaker.cov_calls": cnt(s["pattern_breaker"], "coverage.cov"),
        "pattern_combiner.s": sec(s["pattern_combiner"]),
        "expand.s": sec(s["expand"]),
        "expand.mups_in": out["mups"],
        "expand.m_lambda": out["m_lam"],
        "hitting_set.s": sec(s["hitting_set"]),
        "hitting_set.build_index_s": cnt(s["hitting_set"], "hitting_set.build_inverted_indices", 2),
        "hitting_set.rounds": cnt(s["hitting_set"], "hitting_set.hit_count"),
        "hitting_set.hit_count_s": cnt(s["hitting_set"], "hitting_set.hit_count", 2),
        "hitting_set.mask_bits": out["m_lam"],
        "apply.append_s": sec(s["append"]),
        "apply.rows_appended": rows_after - out["n"],
        "apply.verify_s": sec(verify),
        "apply.verify_from_spark_s": sec(inner.get("from_spark")),
        "apply.verify_deepdiver_s": sec(inner.get("deepdiver")),
        "apply.verify_self_s": tr.self_seconds(verify),
        "apply.spark_jobs": apply_jobs[0],
        "apply.spark_stages": apply_jobs[1],
        "apply.verified_level": out["level"],
    }
    if "cube" in s:
        cube_jobs = tr.spark_jobs([s["cube"]])
        r.update({
            "mups_cube_s": sec(s["cube"]),
            "cube.mups_spark_s": sec(s["mups_spark"]),
            "cube.spark_jobs": cube_jobs[0],
            "cube.spark_stages": cube_jobs[1],
        })
    return r


def bench(args, w, tmp: Path):
    import sparkenv

    conf = sparkenv.spark_conf(tmp)
    spark, df, setup_s, load_s = setup(w, conf, args.seed)
    try:
        record = {
            "workload": w.name, "why": w.why, "seed": args.seed,
            "data_seed": w.data_seed, "seconds": args.seconds, "trace": args.trace,
            "setup_reps": SETUP_REPS, **sparkenv.machine_record(spark, conf),
        }
        tr, passes = run_passes(spark, df, w, args.seconds, bool(args.trace))
        # Per-layer values read Spark's job tracker, so before shutdown.
        if args.trace:
            metrics = per_layer(tr, passes, w, load_s)
        else:
            metrics = end_to_end(tr, passes, setup_s)
    finally:
        sparkenv.shutdown(spark)
    failed = sum(1 for p in passes if p["errors"])
    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"{w.name}-seed{args.seed}-trace.json"
        trace_file.write_text(json.dumps(
            {"record": record, "passes": [p["kind"] for p in passes],
             "metrics": metrics, "spans": tr.dump()},
            indent=1))
        log(f"spans written to {trace_file}")
    result = {
        "correct": failed == 0 and len(passes) > 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    return record, result


def _unit(metric: str) -> str:
    for suffix, unit in (("_frac", "fraction"), ("_s", "s"), (".s", "s"), ("_mb", "MB"),
                         ("_level", "level")):
        if metric.endswith(suffix):
            return unit
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; a summary table, then one JSON line."""
    from workloads import workloads

    results = {}
    for name in workloads():
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(f"\n[{name}] correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
        for k, m in results[name]["metrics"].items():
            print(f"  {k:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} not found; the benchmark "
              "runs from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    from workloads import workloads

    ws = workloads()
    if args.workload not in ws:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(ws)}",
              file=sys.stderr)
        return 2
    import sparkenv

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    sparkenv.keep_temp_files_in(tmp)
    try:
        record, result = bench(args, ws[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print("perfbench-record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop connected-components benchmark.

One client submits ``repro.core.connected_components`` jobs back to back on
one workload's graph, checks every job's labels against the union-find
oracle outside the timed section, and prints every metric by name and unit.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload rc-gf64 --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, reports the per-layer metrics derived from the
traced jobs' spans and the tracing overhead, and writes the spans to
``perfbench/out``.  Run it from the root of a source checkout: it imports
``repro`` from ``src/`` and fails when that is missing.  All files it
writes, Spark's scratch space included, stay under ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Session settings of ``jobs/common.get_spark``, with the driver memory
#: pinned so that results do not depend on the caller's environment.  At 2g
#: the JVM's heap growth, and so its peak RSS, varied by a quarter from run
#: to run; at 1g the heap reaches its cap and the spread halves.
DRIVER_MEMORY = "1g"
SHUFFLE_PARTITIONS = "8"
BROADCAST_THRESHOLD = "-1"
#: Input preparation is repeated this often; ``setup_s`` uses the median.
SETUP_REPS = 3
#: CTAS statements writing at most this many rows count as "small".
SMALL_ROWS = 1_000

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "edges_per_s": "1/s",
    "rows_written_per_edge": "rows/edge",
    "peak_rows_per_edge": "rows/edge",
    "verified_ratio": "ratio",
    "rss_peak_mb": "MB",
}
CTAS_LABELS = (
    "setup", "setup_vertices", "reps", "contract", "compose",
    "large_star_min", "large_star", "small_star_min", "small_star",
    "star_labels", "labels",
)
PER_LAYER = {
    "mppdb.statements": "count",
    "mppdb.ctas_s": "s",
    **{f"mppdb.ctas_s.{label}": "s" for label in CTAS_LABELS},
    "mppdb.input_s": "s",
    "mppdb.read_s": "s",
    "mppdb.catalog_s": "s",
    "mppdb.rows_written": "rows",
    "mppdb.peak_live_rows": "rows",
    "mppdb.stmt_small_s_p50": "s",
    "mppdb.ctas_rows_per_s": "rows/s",
    "ff.rep_table_s": "s",
    "ff.prepare_s": "s",
    "core.rounds": "count",
    "core.job_s": "s",
    "core.self_s": "s",
    "baselines.rounds": "count",
    "baselines.job_s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "graphs.generate_s": "s",
    "graphs.to_spark_s": "s",
    "analysis.oracle_s": "s",
    "analysis.verify_s": "s",
    "trace.overhead_s": "s",
}


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def cores() -> int:
    return len(os.sched_getaffinity(0))


def start_spark(scratch: Path):
    """A local SparkSession configured like ``jobs/common.get_spark``."""
    for sub in ("tmp", "local", "warehouse"):
        (scratch / sub).mkdir(parents=True, exist_ok=True)
    tmp = scratch / "tmp"
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "local")
    # Python workers (the gf64 pandas UDF) import repro from the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", BROADCAST_THRESHOLD)
        .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is None:
        return
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _hwm_mb(pid: int | str) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def rss_peak_mb(spark) -> float:
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return _hwm_mb(jvm_pid) + _hwm_mb("self")


def spark_counts(spark, group: str) -> dict:
    """Jobs, stages and tasks Spark ran under one job group."""
    tracker = spark.sparkContext.statusTracker()
    jobs = stages = tasks = 0
    for jid in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        jobs += 1
        for sid in info.stageIds:
            stage = tracker.getStageInfo(sid)
            stages += 1
            tasks += stage.numTasks if stage is not None else 0
    return {"jobs": jobs, "stages": stages, "tasks": tasks}


def verify(labels, truth) -> str | None:
    """``None`` if ``labels`` (v, r) is exactly the oracle's partition.

    ``truth`` links every vertex to its component's minimum (columns v, w),
    so re-running union-find on it per job is cheap.
    """
    from repro.analysis.union_find import assert_valid_labels

    try:
        assert_valid_labels(labels, truth)
    except AssertionError as e:
        return f"labels disagree with the oracle: {e}"
    return None


class Bench:
    """One run: set-up, a warm-up job, then timed jobs that fit in ``seconds``."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, profile="bench"):
        from spans import Tracer

        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.profile = profile
        self.rng = random.Random(seed)
        self.tracer = Tracer()
        self.stats: list = []
        self.jobs: list[dict] = []

    # --- one job ----------------------------------------------------------

    def job(self, spark, edges, truth, job_id: int, traced: bool) -> dict:
        """Run one CC job; the oracle check afterwards is not timed."""
        from repro.core import connected_components
        from spans import instrument

        wl, tracer = self.wl, self.tracer
        seed = self.rng.randrange(2**31)
        group = f"perfbench-{job_id}"
        n_stats = len(self.stats)
        labels, error = None, None
        tracer.job = job_id
        with contextlib.ExitStack() as stack:
            if traced:
                spark.sparkContext.setJobGroup(group, f"{wl.name} job {job_id}")
                stack.enter_context(instrument(tracer, [wl.method] if wl.method else []))
            t0 = time.perf_counter()
            try:
                with tracer.span(f"{wl.layer}.connected_components", traced=traced):
                    labels = connected_components(
                        spark, edges, algorithm=wl.algorithm,
                        method=wl.method or "gfp", seed=seed,
                    )
            except Exception as e:  # a failed job is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                error = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
        tracer.job = None
        rec = {"job": job_id, "seed": seed, "traced": traced, "seconds": seconds}
        if traced:
            rec["spark"] = spark_counts(spark, group)
            spark.sparkContext.setJobGroup("perfbench-idle", "")
        if len(self.stats) > n_stats:
            st = self.stats[-1]
            rec.update(rows_written=st.total_rows_written,
                       peak_live_rows=st.peak_live_rows, rounds=st.rounds)
        if labels is not None:
            with tracer.span("analysis.verify", job=job_id):
                error = verify(labels.toPandas(), truth)
        rec["error"] = error
        return rec

    # --- the run ----------------------------------------------------------

    def run(self) -> dict:
        from repro.analysis.union_find import components_pandas
        from repro.ff import get_method
        from repro.graphs import generators as G
        from spans import collect_engine_stats

        wl, tracer = self.wl, self.tracer
        graph_seed = self.rng.randrange(2**31)
        t_start = time.perf_counter()
        spark = start_spark(OUT / "spark")
        try:
            session_s = time.perf_counter() - t_start
            prep_s, edges = [], None
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                if wl.method:
                    with tracer.span("ff.prepare"):
                        get_method(wl.method).prepare(spark)
                with tracer.span("graphs.generate"):
                    pdf = wl.graph(graph_seed, self.profile)
                with tracer.span("graphs.to_spark"):
                    fresh = G.to_spark(spark, pdf).cache()
                    fresh.count()
                prep_s.append(time.perf_counter() - t0)
                if edges is not None:
                    edges.unpersist()
                edges = fresh
            with tracer.span("analysis.oracle"):
                part = components_pandas(pdf)
            # Each vertex linked to its component's minimum: the oracle's
            # partition as an edge list, cheap to union-find per job.
            truth = part.rename(columns={"c": "w"})
            with collect_engine_stats(self.stats):
                warm = self.job(spark, edges, truth, 0, traced=False)
                setup_s = session_s + _median(prep_s) + warm["seconds"]
                # Start another job only while it should end within
                # ``seconds``.  A traced run puts its first traced job between
                # two untraced ones, so that jobs still getting faster as the
                # JVM warms up do not bias the tracing overhead.
                busy, job_id = 0.0, 0
                while (job_id == 0 or busy + busy / job_id <= self.seconds
                       or (self.trace and job_id < 3)):
                    job_id += 1
                    traced = self.trace and job_id % 2 == 0
                    rec = self.job(spark, edges, truth, job_id, traced)
                    busy += rec["seconds"]
                    self.jobs.append(rec)
            rss = rss_peak_mb(spark)
            version = spark.version
            edges.unpersist()
        finally:
            stop_spark(spark)
        return {
            "edges": len(pdf),
            "vertices": len(part),
            "components": int(part["c"].nunique()),
            "session_s": session_s,
            "prepare_inputs_s": prep_s,
            "warmup": warm,
            "setup_s": setup_s,
            "rss_peak_mb": rss,
            "spark": {
                "version": version,
                "master": f"local[{cores()}]",
                "cores": cores(),
                "driver_memory": DRIVER_MEMORY,
                "shuffle_partitions": SHUFFLE_PARTITIONS,
                "broadcast_threshold": BROADCAST_THRESHOLD,
            },
        }

    # --- metrics ----------------------------------------------------------

    def end_to_end(self, info: dict) -> dict:
        timed = [j for j in self.jobs if not j["traced"]]
        ok = [j for j in timed if j["error"] is None]
        job_s = _median(j["seconds"] for j in timed)
        edges = info["edges"]
        return {
            "setup_s": info["setup_s"],
            "job_s": job_s,
            "edges_per_s": edges / job_s,
            "rows_written_per_edge": _median(j["rows_written"] for j in ok) / edges,
            "peak_rows_per_edge": _median(j["peak_live_rows"] for j in ok) / edges,
            "verified_ratio": len(ok) / len(timed),
            "rss_peak_mb": info["rss_peak_mb"],
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        traced = [j for j in self.jobs if j["traced"]]
        untraced = [j for j in self.jobs if not j["traced"]]
        per_job: list[dict] = []
        for j in traced:
            per_job.append(_job_layers(self.tracer.job_spans(j["job"]), j, self.wl.layer))
        ctas = [s for s in spans if s.name == "mppdb.ctas" and s.job is not None]
        small = [s.seconds for s in ctas if s.attrs.get("rows", 0) <= SMALL_ROWS]
        ctas_s = sum(s.seconds for s in ctas)
        setup = [s for s in spans if s.job is None]
        out = {name: _median(d.get(name, 0.0) for d in per_job) for name in PER_LAYER}
        out.update({
            "mppdb.stmt_small_s_p50": _median(small),
            "mppdb.ctas_rows_per_s": sum(s.attrs["rows"] for s in ctas) / ctas_s if ctas_s else 0.0,
            "ff.prepare_s": _median(s.seconds for s in setup if s.name == "ff.prepare"),
            "graphs.generate_s": _median(s.seconds for s in setup if s.name == "graphs.generate"),
            "graphs.to_spark_s": _median(s.seconds for s in setup if s.name == "graphs.to_spark"),
            "analysis.oracle_s": _median(s.seconds for s in setup if s.name == "analysis.oracle"),
            "analysis.verify_s": _median(s.seconds for s in spans if s.name == "analysis.verify"),
            "trace.overhead_s": _median(j["seconds"] for j in traced)
            - _median(j["seconds"] for j in untraced),
        })
        return out


def _job_layers(spans, rec: dict, layer: str) -> dict:
    """Per-layer figures of one traced job from its spans."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    root = by_name[f"{layer}.connected_components"][0]
    # Self time keeps engine close: it releases the job's storage.
    child_s = sum(
        s.seconds for s in spans
        if s.parent == root.id and s.name.startswith(("mppdb.", "ff."))
        and s.name != "mppdb.close"
    )
    d = {
        "mppdb.statements": sum(
            len(by_name.get(n, ())) for n in ("mppdb.register_input", "mppdb.ctas", "mppdb.row")
        ),
        "mppdb.ctas_s": total("mppdb.ctas"),
        "mppdb.input_s": total("mppdb.register_input"),
        "mppdb.read_s": total("mppdb.row"),
        "mppdb.catalog_s": total("mppdb.drop") + total("mppdb.rename"),
        "mppdb.rows_written": rec.get("rows_written", 0),
        "mppdb.peak_live_rows": rec.get("peak_live_rows", 0),
        "ff.rep_table_s": total("ff.make_rep_table"),
        f"{layer}.rounds": rec.get("rounds", 0),
        f"{layer}.job_s": root.seconds,
        **{f"spark.{k}": v for k, v in rec.get("spark", {}).items()},
    }
    if layer == "core":
        d["core.self_s"] = root.seconds - child_s
    for s in by_name.get("mppdb.ctas", ()):
        key = f"mppdb.ctas_s.{s.attrs.get('label')}"
        d[key] = d.get(key, 0.0) + s.seconds
    return d


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("bench", "test"), default="bench",
                    help="graph sizes; 'test' is the smoke test's")
    args = ap.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                  args.profile)
    info = bench.run()
    e2e = bench.end_to_end(info)
    attempted = len(bench.jobs)
    failed = sum(1 for j in bench.jobs if j["error"] is not None)
    correct = failed == 0 and info["warmup"]["error"] is None
    if args.trace:
        metrics, units = bench.per_layer(), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        bench.tracer.write(OUT / f"{stem}-spans.jsonl")
    artifact = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": args.profile, **info,
        "jobs": bench.jobs, "fail_ratio": failed / attempted,
        "end_to_end": e2e, "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(artifact, indent=1, default=str) + "\n")

    sp = info["spark"]
    print(f"# {args.workload} seed={args.seed} spark={sp['version']} master={sp['master']} "
          f"cores={sp['cores']} driver_memory={sp['driver_memory']} "
          f"shuffle_partitions={sp['shuffle_partitions']} "
          f"broadcast_threshold={sp['broadcast_threshold']} edges={info['edges']}")
    print(f"# jobs={attempted} failed={failed} fail_ratio={failed / attempted:.3f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources at {SRC}; run from a source checkout")
    if not __debug__:
        sys.exit("perfbench: the oracle check needs assertions; run without -O")
    sys.path[:0] = [str(SRC), str(BENCH)]
    sys.exit(main())

#!/usr/bin/env python3
"""Front end of the benchmark: builds perfbench/, runs one workload and
prints its result.

    python3 perfbench/run.py --workload scan-simd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

Run it from anywhere inside a checkout; it builds the library sources
under src/ and the driver under perfbench/src/ with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Every run also leaves a full
record under <build>/results/: the end-to-end record, or for a traced
run the per-layer report naming the end-to-end metric each layer
metric feeds, with the tracing overhead and the unattributed share.

Exit status: 0 for a correct run, 1 when an output check failed, 2 for a
build or usage error, 3 when the run was invalid (the load generator fell
behind its schedule).  No result line is printed unless the run
completed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = 30
# The contract allows 180 s per run; keep a margin for start-up.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

WORKLOADS = [
    ("scan-simd",
     "read-only scan of 1M Table III rows on sharded-cpu-simd (4 shards): "
     "only the simd kernel and shard scatter-gather work; no delta tier, "
     "no persist"),
    ("churn-mutable",
     "mutable-sharded-cpu-simd (200k rows, 4 shards, R=2) under appends, "
     "deletes, upserts and threshold compactions: the full stack, "
     "masked rows inflating shard k"),
    ("fpga-u280",
     "fpga-sim (20-bit, 32 cores) on one host thread with the U280 hbmsim "
     "model: BS-CSR packet streaming only; no shard, delta or persist"),
]

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may get worse.
END_TO_END = [
    ("query_qps", "1/s", "higher", 0.20),
    ("query_p50_ms.low", "ms", "lower", 0.25),
    ("query_p90_ms.low", "ms", "lower", 0.25),
    ("query_p50_ms.high", "ms", "lower", 0.25),
    ("query_p90_ms.high", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("index_bytes_per_nnz", "B/nnz", "lower", 0.05),
    ("recall_at_k", "ratio", "higher", 0.02),
]

_QPS = "query_qps on scan-simd"
_CHURN_P50 = "query_p50_ms.* on churn-mutable"
_CHURN_P90 = "query_p90_ms.* on churn-mutable"
_FPGA_QPS = "query_qps on fpga-u280"
_MODEL = "modelled_qps on fpga-u280 (reported, not gated)"
_COMPACT = "compaction_s on churn-mutable (reported, not gated)"

# (name, unit, better, the end-to-end metric it should move)
PER_LAYER = [
    ("serve.queue_wait_ms.p50", "ms", "lower",
     "query_p50_ms.high, query_p90_ms.high on churn-mutable"),
    ("serve.peak_pending", "count", "lower",
     "query_p50_ms.high, query_p90_ms.high on churn-mutable"),
    ("shard.cell_ms.p50", "ms", "lower", f"{_QPS}; {_CHURN_P50}"),
    ("shard.slowest_cell_ms.p50", "ms", "lower", f"{_QPS}; {_CHURN_P50}"),
    ("shard.shard_k.mean", "count", "lower",
     f"{_CHURN_P50}, {_CHURN_P90}; flat on scan-simd"),
    ("shard.gathered_candidates.mean", "count", "lower",
     f"{_CHURN_P50}, {_CHURN_P90}; flat on scan-simd"),
    ("shard.failovers", "count", "lower",
     "failed (must stay 0) on every workload"),
    ("index.delta_scan_ms.p50", "ms", "lower",
     f"{_CHURN_P50}; zero on scan-simd"),
    ("index.delta_rows.mean", "count", "lower",
     f"{_CHURN_P50}; zero on scan-simd"),
    ("index.masked_rows.mean", "count", "lower",
     f"{_CHURN_P50}; zero on scan-simd"),
    ("index.mutation_us.p50", "us", "lower",
     "mutation cost on churn-mutable (no end-to-end metric)"),
    ("simd.kernel_ms.p50", "ms", "lower", f"{_QPS}; {_CHURN_P50}"),
    ("simd.rescore_ratio", "ratio", "lower", f"{_QPS}; {_CHURN_P50}"),
    ("simd.bytes_per_s", "B/s", "higher", _QPS),
    ("simd.ceiling_fraction", "ratio", "higher", _QPS),
    ("core.packets_per_query", "count", "lower",
     f"{_MODEL}; index_bytes_per_nnz on fpga-u280"),
    ("core.max_core_packets", "count", "lower",
     f"{_MODEL}; index_bytes_per_nnz on fpga-u280"),
    ("core.packet_fill", "ratio", "higher",
     f"{_MODEL}; index_bytes_per_nnz on fpga-u280"),
    ("core.rows_dropped.mean", "count", "lower", "recall_at_k on fpga-u280"),
    ("core.host_us_per_packet", "us", "lower", _FPGA_QPS),
    ("hbmsim.modelled_ms_per_query", "ms", "lower", _MODEL),
    ("hbmsim.gnnz_per_s", "Gnnz/s", "higher", _MODEL),
    ("hbmsim.modelled_qps", "1/s", "higher", _MODEL),
    ("persist.fold_s", "s", "lower",
     f"{_COMPACT}; query_p90_ms.high on churn-mutable"),
    ("persist.build_s", "s", "lower",
     f"{_COMPACT}; query_p90_ms.high on churn-mutable"),
    ("persist.save_s", "s", "lower",
     f"{_COMPACT}; query_p90_ms.high on churn-mutable"),
    ("persist.load_s", "s", "lower",
     f"{_COMPACT}; query_p90_ms.high on churn-mutable"),
    ("persist.snapshot_ms", "ms", "lower", _CHURN_P90),
    ("persist.swap_ms", "ms", "lower", _CHURN_P90),
    ("persist.compaction_s", "s", "lower", _COMPACT),
    ("loadgen.late_ms.p99", "ms", "lower",
     "validity of the open-loop latencies"),
    ("trace.overhead_pct", "%", "lower",
     "the gap between traced and untraced throughput"),
    ("trace.unattributed_share", "ratio", "lower",
     "the open-loop latency no layer span covers"),
]


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The commit when the checkout is a git repository, else a digest
    of the sources the benchmark compiles."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) +
                       list((BENCH_DIR / "src").rglob("*"))):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    if not (ROOT / "src").is_dir() or not (BENCH_DIR / "CMakeLists.txt").is_file():
        fail(f"no src/ next to {BENCH_DIR.name}/: nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def check_metrics(metrics, expected, where):
    problems = []
    names = {name: unit for name, unit, *_ in expected}
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in names.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{where}: {name} unit {entry.get('unit')} != {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
    return problems


def write_trace_report(path, record, revision):
    feeds = {name: feed for name, _, _, feed in PER_LAYER}
    lines = [
        f"# perfbench traced run: {record['workload']} seed {record['seed']}",
        "",
        f"revision {revision}; cpu {record['stamp']['cpu_model']}; "
        f"nproc {record['stamp']['nproc']}; isa {record['stamp']['isa']}; "
        f"seconds {record['seconds']}",
        "",
        f"tracing overhead: {record['layers']['trace.overhead_pct']['value']:.3f} % "
        "of untraced closed-loop throughput",
        f"unattributed share: "
        f"{record['layers']['trace.unattributed_share']['value']:.4f} of "
        "open-loop latency",
        "",
        "| layer metric | value | unit | should move |",
        "|---|---|---|---|",
    ]
    for name, entry in record["layers"].items():
        lines.append(f"| {name} | {entry['value']:.6g} | {entry['unit']} | "
                     f"{feeds.get(name, '')} |")
    lines += ["", "| end-to-end metric, traced (reference only) | value | unit |",
              "|---|---|---|"]
    for name, entry in record["metrics"].items():
        lines.append(f"| {name} | {entry['value']:.6g} | {entry['unit']} |")
    path.write_text("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    record_path = results / f"{kind}-{args.workload}-seed{args.seed}.json"
    work_dir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    record_path.unlink(missing_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(record_path),
               "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(command, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code not in (0, 1) or not record_path.is_file():
        fail(f"{args.workload} exited with status {code}; no result",
             3 if code == 3 else 2)

    record = json.loads(record_path.read_text())
    revision = source_revision()
    record["revision"] = revision
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        reported = record["layers"]
        problems = check_metrics(reported, PER_LAYER, "per-layer")
        write_trace_report(record_path.with_suffix(".md"), record, revision)
    else:
        reported = record["metrics"]
        problems = check_metrics(reported, END_TO_END, "end-to-end")
    if problems:
        fail("; ".join(problems))

    stamp = record["stamp"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"revision={revision} cpu=\"{stamp['cpu_model']}\" "
          f"nproc={stamp['nproc']} isa={stamp['isa']} record={record_path}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    correct = bool(record["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

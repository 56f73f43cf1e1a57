"""hypspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a hypspec checkout; the package is imported from
its `src` directory.  Each run starts fresh interpreters (perfbench/
worker.py): two that only set up, then one that sets up and runs the
seeded task list, one task at a time.  With --trace 0 the last stdout
line carries the end-to-end metrics of BENCHMARK.json; with --trace 1 the
per-layer metrics from a traced run of the same task list.  The lines
before it give the report: task counts, the tail percentile used, the
seed and task-list hash, provenance and the commands behind the numbers.
Exit code 0 means every task passed its correctness gate; 1 means at
least one did not (listed on stderr); 2 means the run could not start.

`--workload resolvent-9-4` runs the (n, p) = (9, 4) resolvent report
alone, under a 2 GiB address-space limit.  It is not in BENCHMARK.json:
at the reference commit it fails with MemoryError after about 40 s (see
perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tasks as T  # noqa: E402  (no hypspec import at module level)

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
PROBE_ADDRESS_SPACE = 2 << 30
# Thread settings pinned for every process the benchmark starts.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def bench_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HYPSPEC_MAX_WORDS", None)  # the word cap is part of the workload
    return env


def start_worker(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (its set-up time, its result)."""
    cmd = [sys.executable, str((HERE / "worker.py").relative_to(ROOT)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    limit = None
    if args.workload in T.PROBES:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(), capture_output=True, text=True,
                          timeout=max(deadline - t0, 1.0), preexec_fn=limit)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["command"] = " ".join(cmd[1:])
    return result["ready"] - t0, result


def ranked(latencies: list[float], failures: list[dict]) -> list[float]:
    """Latencies in rank order; a failed task ranks after every success."""
    bad = {f["index"] for f in failures}
    order = sorted(range(len(latencies)), key=lambda i: (i in bad, latencies[i]))
    return [latencies[i] for i in order]


def tail(values: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten tasks beyond it
    (nearest-rank), and the latency there."""
    n = len(values)
    if n <= 10:
        return 100, values[-1]
    q = max(q for q in range(100) if math.ceil(q * n / 100) <= n - 10)
    return q, values[max(math.ceil(q * n / 100), 1) - 1]


def end_to_end(setups: list[float], passed: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    lat = ranked(passed["latencies"], passed["failures"])
    attempted = len(lat)
    ok = attempted - len(passed["failures"])
    q, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": ok / passed["wall_s"],
        "task_p50_s": lat[math.ceil(0.5 * attempted) - 1],
        "task_tail_s": tail_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": ok / attempted,
    }
    notes = {"tail_percentile": q, "tasks": attempted, "timed_wall_s": passed["wall_s"],
             "setup_samples_s": setups, "fail_frac": 1 - ok / attempted}
    return metrics, notes


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    mem_kb = 0
    try:
        with open("/proc/meminfo") as f:
            mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": mem_kb // 1024,
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if args.workload not in T.WORKLOADS and args.workload not in T.PROBES:
        return fail(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "hypspec" / "__init__.py").is_file():
        return fail(f"no hypspec sources under {ROOT / 'src'}; run from a hypspec checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, "setup", deadline)[0])
        setup, res = start_worker(args, "trace" if args.trace else "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(f"worker failed: {exc}")
    setups.append(setup)

    failures = res["warmup_failures"] + res.get("untraced", {}).get("failures", [])
    for name in ("traced", "census"):
        failures += res.get(name, {}).get("failures", [])
    attempted = sum(len(res[k]["latencies"]) for k in ("untraced", "traced", "census") if k in res)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if "untraced" not in res:  # the warm-up failed
        metrics, notes = {}, {}
    elif args.trace:
        layers = res["layers"]
        layers["trace.overhead_frac"] = res["traced"]["wall_s"] / res["untraced"]["wall_s"] - 1.0
        metrics, notes = {}, {"attributed_frac": layers["attributed_frac"],
                              "untraced_wall_s": res["untraced"]["wall_s"],
                              "traced_wall_s": res["traced"]["wall_s"]}
        for m in spec["per_layer"]:
            if m["name"] not in layers:
                print(f"perfbench: layer metric {m['name']} not recorded", file=sys.stderr)
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        values, notes = end_to_end(setups, res["untraced"], peak)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "task_hash": res["task_hash"], "n_tasks": res["n_tasks"],
        "notes": notes, "versions": res.get("versions"), "provenance": provenance(),
        "commands": {"benchmark": " ".join([Path(sys.executable).name, *sys.argv]),
                     "worker": res["command"],
                     "cli_task": "python -m hypspec <argv>",
                     "cli_traced_task": "python perfbench/clitrace.py <argv>"},
        "failures": failures[:20], "run_s": time.monotonic() - start,
    }
    print(f"perfbench {args.workload} seed={args.seed} tasks={res['n_tasks']} "
          f"hash={res['task_hash']} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"  ({key}: {value})")
    print("perfbench-report " + json.dumps(report))
    for f in failures:
        print(f"perfbench: FAILED task {f['index']} {json.dumps(f['task'])[:200]}: {f['error']}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

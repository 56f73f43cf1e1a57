"""One benchmark process: import hypspec, build the seeded task list, warm
up, then run the tasks one at a time (a closed loop with one client).

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: `setup` stops after the warm-up; `measure` runs the task list
untraced; `trace` runs it untraced, then again with spans, then the
in-process census and the import-time probe.  The result is one JSON
object on the last line of stdout.  run.py starts this process with the
checkout's `src` on PYTHONPATH and the thread settings pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time

import tasks as T
from spans import SPAN_MARKER, Tracer, aggregate, outermost_time


class Context:
    """What a task runner needs besides its task: the tracer, if any."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self.task_span = -1

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    def merge_child_spans(self, stderr: str) -> None:
        for line in stderr.splitlines():
            if line.startswith(SPAN_MARKER):
                self.tracer.merge(json.loads(line[len(SPAN_MARKER):]), self.task_span)


def run_pass(tasks: list[dict], ctx: Context, root_span: str = "task") -> dict:
    """Run tasks one after another; a traced run puts each under a root span."""
    latencies, failures = [], []
    start = time.monotonic()
    for i, task in enumerate(tasks):
        if ctx.tracer is not None:
            ctx.tracer.task = i
            ctx.task_span = ctx.tracer.open(root_span)
        t0 = time.monotonic()
        try:
            T.RUNNERS[task["kind"]](task, ctx)
            error = None
        except T.GateMiss as exc:
            error = f"correctness gate: {exc}"
        except Exception as exc:  # counted as a failed task, reported with its type
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.monotonic() - t0)
        if ctx.tracer is not None:
            ctx.tracer.close(ctx.task_span)
        if error is not None:
            failures.append({"index": i, "task": task, "error": error})
    return {"wall_s": time.monotonic() - start, "latencies": latencies, "failures": failures}


def outermost_cumulative(lines: list[tuple[int, str, int]], prefix: str) -> float:
    """Seconds in the outermost -X importtime entries named prefix or prefix.*."""
    total, stack = 0, []  # stack of (depth, inside a matching entry)
    for depth, name, cumulative in reversed(lines):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = name == prefix or name.startswith(prefix + ".")
        if match and not inside:
            total += cumulative
        stack.append((depth, inside or match))
    return total * 1e-6


def import_times(runs: int = 3) -> dict:
    """Cumulative import times from `-X importtime`, median over fresh interpreters."""
    keys = {"cli.import_s": "hypspec", "cli.import.scipy_special_s": "scipy.special",
            "cli.import.scipy_integrate_s": "scipy.integrate"}
    samples = {k: [] for k in keys}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hypspec.cli"],
                              capture_output=True, text=True, timeout=120, check=True)
        lines = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                lines.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        for key, prefix in keys.items():
            samples[key].append(outermost_cumulative(lines, prefix))
    return {k: statistics.median(v) for k, v in samples.items()}


def layer_metrics(tracer: Tracer) -> dict:
    agg = aggregate(tracer)
    out = {}
    for key, a in agg.items():
        if "calls" in a:
            out[f"{key}.calls"] = a["calls"]
            out[f"{key}.self_s"] = a["self_s"]
    for key, a in agg.items():
        if "durations" in a:
            out[f"{key}.wall_s"] = statistics.fmean(a["durations"])
    points = sum(agg.get(k, {}).get("calls", 0) for k in ("green.green0_eval", "green.green0_derivatives"))
    out["green.points_per_s"] = points / max(outermost_time(tracer, "green."), 1e-12)
    out.update(tracer.counters)
    words = tracer.counters.get("orbits.words", 0)
    out["orbits.words_per_s"] = words / max(agg.get("orbits.enumerate_orbit", {}).get("incl_s", 0), 1e-12)
    # share of the traced task time spent inside layer spans
    tasks = agg.get("task", {"self_s": 0.0, "incl_s": 1.0})
    out["attributed_frac"] = 1.0 - tasks["self_s"] / tasks["incl_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(T.WORKLOADS) + sorted(T.PROBES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    import hypspec  # the package import is part of set-up

    tasks = T.make_tasks(args.workload, args.seed, args.seconds)
    ctx = Context()
    warm = run_pass(T.warmup_tasks(args.workload), ctx)
    ready = time.monotonic()
    result = {
        "ready": ready,
        "n_tasks": len(tasks),
        "task_hash": hashlib.sha256(json.dumps(tasks, sort_keys=True).encode()).hexdigest()[:16],
        "warmup_failures": warm["failures"],
    }
    if args.mode != "setup" and not warm["failures"]:
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__, "hypspec": hypspec.__version__}
        result["untraced"] = run_pass(tasks, ctx)
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            ctx.tracer = tracer
            result["traced"] = run_pass(tasks, ctx)
            result["census"] = run_pass(T.census_tasks(), ctx, "census")
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer)
            result["layers"].update(import_times())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

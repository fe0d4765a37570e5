"""emitterlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stationary_sweeps --seed 1 --seconds 30 --trace 0

Run it from the root of an emitterlab checkout; nothing is built, the
package is imported from ``src/``.  The load is a closed loop with one
request in flight: a fresh worker process (``worker.py``) runs the
workload's passes (``workloads.py``) back to back, each request a call of
``emitterlab.cli.main`` on a generated config file.  Seven more fresh
interpreters measure the set-up time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead, from a run whose passes alternate between
untraced and traced (``spans.py``).  ``--workload all`` runs the three
workloads in turn.  ``--smoke`` runs one small pass (two when traced) and
one set-up probe, to check the harness quickly; its numbers mean nothing.
Time metrics are scaled by the host speed measured around each request;
NOTES.md explains why and how.

Standard output is a human-readable report, a ``detail`` line with the
environment, sample counts and unscaled times, and, as the last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  If the run
cannot be made (no ``src/emitterlab`` here, a worker that crashes or
hangs) it prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402  (perfbench/ is on sys.path as the script directory)
import workloads  # noqa: E402

SETUP_PROBES = 7
# Every run must end within 180 s; keep a margin for start-up and clean-up.
TIME_LIMIT_S = 165.0
WORK_DIR = ROOT / ".perfbench_work"
# One BLAS thread keeps the load within the cores and the timings steady.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
# Time metrics are scaled to the host speed at which worker.speed_kernel
# takes this long (see NOTES.md); the unscaled figures go to the detail line.
REFERENCE_KERNEL_S = 2.4e-3
OVERHEAD = "trace.overhead_s"
ORACLE = "tls.mu_mode_oracle"


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "total_s": "s", "overhead_s": "s", "bytes": "B",
            "converged_share": "fraction"}.get(stat, "count")


def layer_metric_names() -> list:
    return spans.metric_names() + [OVERHEAD]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("time limit reached")
    return left


def worker_command(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_probe(trace: bool, deadline: float) -> tuple:
    """(set-up s, speed-kernel s, traced layer summary or None) of a fresh interpreter."""
    start = time.monotonic_ns()
    proc = subprocess.run(worker_command("--probe", "--trace", str(int(trace))),
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=remaining(deadline))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    setup_s = (int(lines[0].split()[1]) - start) / 1e9
    return setup_s, float(lines[1].split()[1]), json.loads(lines[2]) if trace else None


def run_worker(args, workload: str, work: Path, deadline: float) -> dict:
    result_path = work / "result.json"
    command = worker_command(
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--result", str(result_path),
        *(["--smoke"] if args.smoke else []))
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=remaining(deadline))
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure(args, workload: str) -> tuple:
    """(probes, worker result), made inside a scratch directory of the checkout."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK_DIR / f"{workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        n_probes = 1 if args.smoke else SETUP_PROBES
        probes = [setup_probe(bool(args.trace), deadline) for _ in range(n_probes)]
        return probes, run_worker(args, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def scaled(seconds: float, kernel_s: float, scale: bool) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s if scale else seconds


def pass_wall(p: dict, scale: bool) -> float:
    """Time of one pass: the sum of its request latencies."""
    return sum(scaled(r["latency_s"], r["kernel_s"], scale) for r in p["requests"])


def timings(passes, probes, scale: bool) -> dict:
    """The time metrics, metric -> (value, sample count), from untraced passes."""
    untraced = [p for p in passes if not p["traced"]]
    latencies = [scaled(r["latency_s"], r["kernel_s"], scale) * 1e3
                 for p in untraced for r in p["requests"]]
    setups = [scaled(setup_s, kernel_s, scale) for setup_s, kernel_s, _ in probes]
    return {
        "wall_s": (statistics.median(pass_wall(p, scale) for p in untraced), len(untraced)),
        "request_p50_ms": (statistics.median(latencies), len(latencies)),
        "request_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8],
                           len(latencies)),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def end_to_end(passes, probes, result) -> dict:
    """metric -> (value, sample count)."""
    requests = [r for p in passes for r in p["requests"]]
    ok = sum(1 for r in requests if not r["failure"])
    return {
        **timings(passes, probes, scale=True),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "ok_frac": (ok / len(requests), len(requests)),
    }


def per_layer(passes, probes, result) -> dict:
    """metric -> (value, sample count); per traced pass, the oracle per set-up."""
    n_traced = sum(1 for p in passes if p["traced"])
    out = {name: (value, n_traced) for name, value in result["layers"].items()}
    for stat in ("calls", "self_s", "total_s"):
        name = f"{ORACLE}.{stat}"
        out[name] = (statistics.median(layers["layers"][name] for _, _, layers in probes),
                     len(probes))
    # Pass 2k+1 is pass 2k traced: the overhead is their median difference.
    walls = [pass_wall(p, scale=True) for p in passes]
    diffs = [traced - untraced for untraced, traced in zip(walls[0::2], walls[1::2])]
    out[OVERHEAD] = (statistics.median(diffs), len(diffs))
    return out


def report(args, workload, env, passes, metrics, failures) -> None:
    n_traced = sum(1 for p in passes if p["traced"])
    print(f"perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={len(passes)} (traced {n_traced})")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    width = max(len(name) for name in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<8}  n={n}")
    for (label, message, known), count in Counter(failures).items():
        print(f"  failed {count}x {label}: {message}"
              + (f"  [known defect: {known}]" if known else ""))


def run_one(args, workload: str) -> dict:
    """Measure one workload, print its report and return its result object."""
    probes, result = measure(args, workload)
    passes = result["passes"]
    requests = [r for p in passes for r in p["requests"]]
    failures = [(r["label"], r["failure"], r["known_defect"])
                for r in requests if r["failure"]]
    if args.trace:
        values = per_layer(passes, probes, result)
        units = {name: layer_unit(name) for name in layer_metric_names()}
    else:
        values = end_to_end(passes, probes, result)
        units = END_TO_END_UNITS
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in units.items()}
    env = {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)), **result["env"],
           "load": "closed loop, 1 request in flight"}
    report(args, workload, env, passes, metrics, failures)
    print("detail " + json.dumps({
        "env": env,
        "samples": {name: n for name, (_, _, n) in metrics.items()},
        "unscaled": {name: value for name, (value, _) in
                     timings(passes, probes, scale=False).items()},
        "speed": statistics.median(r["kernel_s"] for r in requests) / REFERENCE_KERNEL_S,
        "absent_layers": result.get("absent", []),
        "known_defect_failures": sum(1 for f in failures if f[2]),
    }))
    return {
        "correct": not any(known == "" for _, _, known in failures),
        "attempted": len(requests),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small pass and one set-up probe, to test the harness")
    args = parser.parse_args()
    if not (ROOT / "src" / "emitterlab" / "cli.py").is_file():
        print(f"error: {ROOT} has no src/emitterlab; run from an emitterlab checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_one(args, name)
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    # --workload all: one line with every workload's metrics as <workload>.<metric>
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

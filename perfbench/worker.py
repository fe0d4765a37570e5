"""One fresh interpreter that runs a workload, or only sets up (a probe).

Started by ``run.py``; not meant to be run by hand.  The package is
imported from ``<checkout>/src``.

Probe mode (``--probe``) imports ``emitterlab.cli``, resolves the mu-mode
oracle and prints ``ready <monotonic_ns>``; with ``--trace 1`` it then
prints the layer summary of that set-up as one JSON line.

Workload mode runs passes of the workload in a closed loop, one request in
flight, until the next pass would end after ``--seconds``, and writes
every request's latency, the speed kernel's time around it and the
output check's verdict to ``--result`` as JSON.  With
``--trace 1`` passes alternate between untraced (even) and traced (odd),
and each traced pass has the same inputs as the untraced one before it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402  (perfbench/ is on sys.path as the script directory)
import workloads  # noqa: E402


def import_package():
    """Import emitterlab from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from emitterlab import cli, tls

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"emitterlab was imported from {cli.__file__}, not from {src}")
    return cli, tls


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype, func.argtypes = ctypes.c_int, []
                return func()
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads if threads is not None
        else os.environ.get("OPENBLAS_NUM_THREADS", "unknown"),
    }


def probe(trace: bool) -> None:
    _cli, tls = import_package()
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    tls.resolve_mu_mode("auto")
    if tracer:
        tracer.uninstall()
    print(f"ready {time.monotonic_ns()}", flush=True)
    print(f"kernel {speed_kernel()!r}")
    if tracer:
        print(json.dumps({"layers": tracer.summary(1), "absent": tracer.absent}))


def speed_kernel() -> float:
    """Seconds for a fixed slice of interpreter-bound work, best of two.

    The work resembles the package's inner loops: Python arithmetic, 4x4
    complex matrix-vector products, and 9x9 solves with small Kronecker
    products.  Its time tracks the speed of the host, which on shared
    machines drifts by tens of percent over seconds to minutes; run.py
    scales every latency by it (see NOTES.md).
    """
    import numpy as np

    m = 0.5 * np.eye(4, dtype=complex)
    a = 2.0 * np.eye(9, dtype=complex) + 0.1
    b = np.ones(9, dtype=complex)
    e = np.eye(3)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        v = np.ones(4, dtype=complex)
        for _ in range(300):
            v = m @ v
        for _ in range(30):
            np.linalg.solve(a, b)
            np.kron(e, e)
        best = min(best, time.perf_counter() - start)
    return best


def execute(cli, request) -> tuple:
    """Run one request; (exit code, latency in s, captured stderr)."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(request.argv())
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback breaks the CLI contract: record it
        code = 1
        err.write(f"uncaught {type(exc).__name__}: {exc}")
    return code, time.perf_counter() - start, err.getvalue()


def verdict(request, code: int, stderr: str) -> str:
    """Empty string when the request succeeded and its output passed its check."""
    if code != 0:
        lines = stderr.strip().splitlines()
        return f"exit {code}: {lines[-1] if lines else ''}"
    try:
        request.check()
    except workloads.CheckFailed as exc:
        return f"check: {exc}"
    except Exception as exc:  # unreadable output counts as a failed check
        return f"check: {type(exc).__name__}: {exc}"
    return ""


def run_workload(args) -> dict:
    cli, tls = import_package()
    tls.resolve_mu_mode("auto")
    tracer = spans.Tracer() if args.trace else None
    work = Path(args.work)
    passes = []
    longest = {False: 0.0, True: 0.0}
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if index >= min_passes and (
            args.smoke or time.perf_counter() - start + longest[traced] > args.seconds
        ):
            break
        # A traced pass repeats the inputs of the untraced pass before it.
        inputs = index // 2 if args.trace else index
        requests = workloads.make_pass(args.workload, args.seed, inputs, work, args.smoke)
        for request in requests:
            request.config_path.write_text(request.config_text(), encoding="utf-8")
        pass_start = time.perf_counter()
        measured = []
        if traced:
            tracer.install()
        try:
            for request in requests:
                before = speed_kernel()
                outcome = execute(cli, request)
                measured.append((outcome, 0.5 * (before + speed_kernel())))
        finally:
            if traced:
                tracer.uninstall()
        longest[traced] = max(longest[traced], time.perf_counter() - pass_start)
        passes.append({
            "traced": traced,
            "requests": [
                {"label": r.label, "latency_s": latency, "kernel_s": kernel,
                 "failure": verdict(r, code, stderr), "known_defect": r.known_defect}
                for r, ((code, latency, stderr), kernel) in zip(requests, measured)
            ],
        })
        index += 1
    result = {
        "env": environment(),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        n_traced = sum(1 for p in passes if p["traced"])
        result["layers"] = tracer.summary(n_traced)
        result["absent"] = tracer.absent
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work")
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.probe:
        probe(bool(args.trace))
        return
    result = run_workload(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()

"""One workload process: set up, then a closed loop of ops with one caller.

Prints ``ready`` once the inputs are written (the parent times set-up up to
that line); with ``--setup-only`` it stops there. Otherwise it runs one
untimed, fully checked warm-up op, then ops back to back for ``--seconds``,
and prints its figures as one JSON line. An op is one in-process call to
``adaptometry.cli.main``; it fails when ``main`` returns non-zero, raises,
or its outputs fail the check. The first op's outputs are checked against
values ``workloads`` recomputes; every later op must write byte-identical
files (``generated_at`` aside). Checks and clean-up run outside the timed region.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
PROBE_EVERY_S = 2.0
SETUP_PROBES = 30
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import adaptometry.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"adaptometry imported from {cli.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        wl = workloads.prepare(args.workload, args.seed, args.work)
        if tracer is not None:
            tracer.uninstall()  # set-up is traced; ops install it again one by one
        print("ready", flush=True)
        if args.setup_only:
            return 0
        probe = None if args.trace else functools.partial(setup_probe, args)
        result = measure(cli, wl, args.seconds, tracer, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(args.work, ignore_errors=True)
    result["diagnostics"].update(environment(args.seed))
    print(json.dumps(result), flush=True)
    return 0


def run_op(cli, wl) -> tuple[float, str | None]:
    """Time one call of ``main``; returns (seconds, failure or None)."""
    shutil.rmtree(wl.out, ignore_errors=True)
    gc.collect()
    stderr = io.StringIO()
    failure = None
    with redirect_stderr(stderr):
        t0 = perf_counter()
        try:
            code = cli.main(list(wl.argv))
        except (Exception, SystemExit) as exc:  # a raising op is a failed op
            code = exc
        elapsed = perf_counter() - t0
    if code != 0:
        failure = f"main returned {code!r}: {stderr.getvalue()[-300:]}"
    return elapsed, failure


def check_op(wl, reference: dict | None) -> tuple[dict | None, list[str]]:
    """Check one op's outputs; returns (reference digests, problems).

    Until an op has passed the recomputed-value check there is no reference,
    and each op gets that check; the first to pass sets the reference. Every
    later op must match its digests.
    """
    digests = workloads.digest_outputs(wl.out)
    if reference is None:
        try:
            problems = wl.check(wl.out)
        except workloads.MALFORMED as exc:
            problems = [f"outputs missing or malformed: {exc!r}"]
        return (None if problems else digests), problems
    if digests != reference:
        return reference, ["outputs differ from the first checked op's"]
    return reference, []


def setup_probe(args) -> float:
    """Set-up time of a fresh set-up-only process: launch until it is ready."""
    work = args.work.with_name(args.work.name + "-probe")
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: exit {proc.returncode}")
    return elapsed


def measure(cli, wl, seconds: float, tracer, setup_probe=None) -> dict:
    """Warm up, then run ops for ``seconds``.

    ``setup_probe``, when given, is timed ``SETUP_PROBES`` times at even
    intervals between the ops, so set-up samples span the whole run.
    """
    attempted = failed = 0
    reasons: list[str] = []
    reference = None

    def checked_op(trace: bool = False) -> float:
        nonlocal attempted, failed, reference
        if trace:
            tracer.op = attempted
            tracer.install()
        elapsed, failure = run_op(cli, wl)
        if trace:
            tracer.uninstall()
        problems = []
        if failure is None:
            reference, problems = check_op(wl, reference)
        attempted += 1
        if failure or problems:
            failed += 1
            reasons.append(failure or "; ".join(problems)[:500])
        return elapsed

    checked_op()  # warm-up: untimed and untraced; its outputs become the reference
    outputs = [p.stat().st_size for p in wl.out.rglob("*") if p.is_file()]

    times: list[float] = []  # untraced ops
    traced: list[float] = []
    traced_ops: list[int] = []
    probes = [host_probe_ms()]
    setup: list[float] = []
    paused = 0.0  # probe time, not counted against ``seconds``
    last_probe = start = perf_counter()
    while (measured := perf_counter() - start - paused) < seconds:
        while setup_probe and len(setup) * seconds / SETUP_PROBES <= measured:
            t0 = perf_counter()
            setup.append(setup_probe())
            paused += perf_counter() - t0
        if tracer is not None and attempted % 2 == 1:
            traced_ops.append(attempted)
            traced.append(checked_op(trace=True))
        else:
            times.append(checked_op())
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            t0 = perf_counter()
            probes.append(host_probe_ms())
            last_probe = perf_counter()
            paused += last_probe - t0
    probes.append(host_probe_ms())
    shutil.rmtree(wl.out, ignore_errors=True)

    diagnostics = {
        "timed_ops": len(times),
        "setup_probes_s": setup,
        "failed_frac": failed / attempted,
        "failures": reasons[:5],
        "tail": tail(times),
        "host.probe_ms": {"median": statistics.median(probes), "min": min(probes),
                          "max": max(probes), "samples": len(probes)},
    }
    if tracer is None:
        metrics = {
            "call_s": statistics.median(times) if times else 0.0,
            "cells_per_s": wl.cells * len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = layer_metrics(tracer.spans, traced_ops)
        metrics["cli.out_bytes"] = sum(outputs)
        metrics["cli.files"] = len(outputs)
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(times)
                                       if traced and times else 0.0)
        diagnostics["traced_ops"] = len(traced)
        diagnostics["spans"] = write_spans(tracer, wl.name)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "diagnostics": diagnostics}


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    for pct in TAIL_LADDER:
        idx = math.ceil(pct / 100.0 * len(ordered)) - 1  # nearest rank
        beyond = len(ordered) - 1 - idx
        if beyond >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_s": ordered[idx], "beyond": beyond,
                    "samples": len(ordered)}
    return None


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: host speed, never used to rescale."""
    t0 = perf_counter()
    acc = 0
    for k in range(300_000):
        acc += k * k
    return (perf_counter() - t0) * 1000.0


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | None:
    """OpenBLAS thread count of the loaded numpy, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def write_spans(tracer, name: str) -> str:
    path = ROOT / ".perfbench" / "traces" / f"{name}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.dump()))
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())

"""Adaptometry benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {tall,wide,synth} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``). The workload runs in a fresh child process (``child.py``) as a
closed loop with one caller. Set-up time
is the wall time from launching a process until it has written its inputs
and reports ready: the child itself, plus set-up-only probes the child
launches between its ops, reported as the median. With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the per-layer
ones. The lines before it name each metric with its unit, the failed
fraction, and diagnostics (timing tail, host-speed probe, versions) that
are not metrics. Exits non-zero without a result when the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def launch(args, work: Path, deadline: float) -> tuple[float, str]:
    """Run one child; returns (seconds until it was ready, its last stdout line)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    t0 = perf_counter()
    # A session of its own, so a kill also reaches the set-up probes it starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - t0
        if line.strip() != "ready":
            raise ChildFailed(f"{args.workload}: child not ready ({line.strip()!r})")
        rest, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args.workload}: child timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{args.workload}: child exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    deadline = perf_counter() + TIMEOUT_S
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, line = launch(args, work, deadline)
        result = json.loads(line)
    except (ChildFailed, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    result["diagnostics"]["setup_launch_s"] = setup_s
    if not args.trace:
        metrics["setup_s"] = statistics.median([setup_s] + result["diagnostics"]["setup_probes_s"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} ops)")
    print("diagnostics " + json.dumps(result["diagnostics"]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

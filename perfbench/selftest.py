"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Corrupts ``report.json`` after real ``tall`` ops and checks that the
   measuring loop counts each corrupted op as failed.
2. Runs one op of every workload and its output check, and requires the
   check's peak allocation to stay below half the op's, so that
   ``peak_rss_mb`` reads the program, not the check.
3. Runs every workload for 1 s, untraced, on seeds 1 and 2: prints every
   end-to-end metric by name with its unit and ``failed_frac``, and requires
   every op to pass the output check.
4. Runs every workload for 1 s, traced, on seed 1: requires every
   per-layer metric and two ``generate_panel`` calls per ``synth`` op.
5. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/``, where it must fail without printing a result.

Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"
SEEDS = (1, 2)
SECONDS = "1"


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def corrupted_report_counts_as_failed() -> None:
    import adaptometry.cli as cli
    import child
    import workloads

    real_run_op = child.run_op

    def value_changed(text: str) -> str:
        return text.replace('"weight": ', '"weight": 1', 1)

    def truncated(text: str) -> str:
        return text[: len(text) // 2]

    # (first corrupted op, corruption): from the warm-up op on, or the first timed op on
    for corrupt_from, corrupt in ((0, truncated), (1, value_changed)):
        wl = workloads.prepare("tall", 1, WORK / "corrupt")
        calls = 0

        def run_op(cli_, wl_):
            nonlocal calls
            elapsed, failure = real_run_op(cli_, wl_)
            if calls >= corrupt_from:
                report = wl_.out / "report.json"
                report.write_text(corrupt(report.read_text()))
            calls += 1
            return elapsed, failure

        child.run_op = run_op
        try:
            result = child.measure(cli, wl, 0.3, None)
        finally:
            child.run_op = real_run_op
            shutil.rmtree(WORK / "corrupt", ignore_errors=True)
        print(f"report.json {corrupt.__name__} from op {corrupt_from} on: "
              f"{result['failed']} of {result['attempted']} ops failed")
        expect(result["attempted"] > 1
               and result["failed"] == result["attempted"] - corrupt_from,
               f"corrupted ops not all counted as failed: {result}")


def check_lighter_than_op() -> None:
    # tracemalloc only compares the two here; it never feeds a metric.
    import adaptometry.cli as cli
    import workloads

    for name in ("tall", "wide", "synth"):
        wl = workloads.prepare(name, 1, WORK / "memory")
        tracemalloc.start()
        try:
            with redirect_stderr(io.StringIO()):
                code = cli.main(list(wl.argv))
            op_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            problems = wl.check(wl.out)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shutil.rmtree(WORK / "memory", ignore_errors=True)
        print(f"{name}: op peak {op_peak / 2**20:.1f} MiB, "
              f"check peak {check_peak / 2**20:.1f} MiB")
        expect(code == 0 and not problems, f"{name}: op failed: {code!r} {problems}")
        expect(check_peak < op_peak / 2, f"{name}: the output check allocates "
               f"{check_peak} bytes at peak, the op {op_peak}")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def short_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for trace, kind, subset in ((0, "end_to_end", SEEDS), (1, "per_layer", SEEDS[:1])):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        for seed in subset:
            for name in names:
                proc = run(["--workload", name, "--seed", str(seed), "--seconds", SECONDS,
                            "--trace", str(trace)])
                expect(proc.returncode == 0, f"{name} seed {seed}: {proc.stderr[-500:]}")
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == declared, f"{name}: metrics {got} != declared {declared}")
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} seed {seed}: failed ops\n{proc.stdout}")
                if trace:
                    calls = result["metrics"]["synthgen.generate_calls"]["value"]
                    expect(name != "synth" or calls == 2,
                           f"synth: {calls} generate_panel calls per op, expected 2")
                    print(f"{name} seed {seed} traced: {len(got)} per-layer metrics")
                else:
                    print("\n".join(line for line in lines
                                    if line.startswith(f"{name} ")))


def bare_directory_fails() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(["--workload", "tall", "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run without src/ exited {proc.returncode}: {proc.stdout[-300:]}")
    print(f"without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    corrupted_report_counts_as_failed()
    check_lighter_than_op()
    short_runs()
    bare_directory_fails()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, running every workload at a tiny size.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that
- each run's last line is a result holding exactly the metrics that
  BENCHMARK.json declares for its mode, each with its declared unit, and no
  failed operation;
- a deliberately corrupted output (``--corrupt``) raises fail_frac above 0,
  so the correctness checks can fail;
- two traced runs of one seed repeat every call count exactly, and the layer
  self times plus the unattributed remainder add up to the traced wall time;
- ``--workload all`` runs every workload from one command;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestError(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 0):
    """Run the benchmark at tiny size; return (exit code, stdout lines)."""
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return out.returncode, out.stdout.splitlines(), out.stderr


def result_of(workload: str, trace: int, *extra: str) -> dict:
    code, lines, err = bench(workload, trace, *extra)
    expect(code == 0, f"{workload} trace={trace} {extra} exited {code}:\n{err[-2000:]}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    return result


def check_metrics(workload: str, result: dict, declared: list[dict]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    expect(set(got) == set(units),
           f"{workload}: metrics differ from BENCHMARK.json: missing "
           f"{sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}")
    for name, entry in got.items():
        expect(set(entry) == {"value", "unit"}, f"{workload}: {name} has keys {sorted(entry)}")
        expect(entry["unit"] == units[name], f"{workload}: {name} in {entry['unit']}, "
                                             f"declared {units[name]}")
        expect(isinstance(entry["value"], (int, float)), f"{workload}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        plain = result_of(workload, 0)
        check_metrics(workload, plain, spec["end_to_end"])
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}")

        traced = result_of(workload, 1)
        check_metrics(workload, traced, spec["per_layer"])
        expect(traced["correct"] and traced["failed"] == 0, f"{workload}: traced run failed")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        attributed = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        total = attributed + metrics["trace.unattributed_s"]
        expect(abs(total - metrics["trace.wall_s"]) <= 1e-9 * max(1.0, total),
               f"{workload}: self times {attributed} + unattributed do not add up to "
               f"{metrics['trace.wall_s']}")

        again = result_of(workload, 1)
        for name, entry in traced["metrics"].items():
            if name.endswith(".calls"):
                expect(again["metrics"][name]["value"] == entry["value"],
                       f"{workload}: {name} {entry['value']} then "
                       f"{again['metrics'][name]['value']}")

        corrupted = result_of(workload, 0, "--corrupt")
        expect(corrupted["failed"] > 0 and not corrupted["correct"],
               f"{workload}: a corrupted output passed its checks: {corrupted}")
        print(f"ok {workload}: {plain['attempted']} operations, "
              f"{corrupted['failed']}/{corrupted['attempted']} failed when corrupted")

    code, lines, err = bench("all", 0)
    expect(code == 0 and set(json.loads(lines[-1])) == set(workloads),
           f"--workload all exited {code}:\n{err[-2000:]}")
    print("ok all: one command runs every workload")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench(workloads[0], 0, cwd=bare)
        expect(code != 0, "the benchmark ran without the program's sources")
        expect(not lines or not lines[-1].startswith("{"),
               "the benchmark printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)

"""rrdof benchmark: one workload per run, end-to-end metrics or a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dof_study,eval_fixture,oracle_check,all} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the run measures, with tracing off, set-up time (a fresh
interpreter importing rrdof and making the inputs, several times), then
repeats the workload's operations for S seconds and reports the median
time of one cycle of them and the process's peak resident memory. Times
are scaled to a fixed reference speed (see reference.py). With
``--trace 1`` it repeats the operations untraced for S seconds, then runs
one cycle of them with every layer wrapped (see layers.py) and reports
per-layer counts and self times.
BLAS and OpenMP run one thread (see THREAD_VARS).
Every operation's output is checked; the last line of standard output is a
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

#: Pinned to one thread before numpy loads. On a 2-vCPU VM the default
#: second OpenBLAS thread made rrdof no faster and made it 2.5x
#: slower whenever anything else ran on a core (NOTES.md, "BLAS threads").
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (after the thread pinning above)
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import PREDICTIONS, TARGETS, Tracer
from reference import Reference, at_reference_speed
from workloads import JOBS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for files the workloads write (the eval report).
WORKDIR = ROOT / ".bench_build" / "rrdof-bench"
#: Fresh interpreters timed for setup_s in one run.
SETUP_PROBES = 16


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_rrdof():
    """Import rrdof from this checkout's src/, never from an installed copy."""
    if not (SRC / "rrdof" / "__init__.py").is_file():
        raise BenchError(f"no rrdof sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rrdof

    if SRC.resolve() not in Path(rrdof.__file__).resolve().parents:
        raise BenchError(f"imported rrdof from {rrdof.__file__}, not from {SRC}")
    return rrdof


def provenance(rrdof) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError) as exc:
        blas = f"unavailable: {exc!r}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rrdof": getattr(rrdof, "__version__", None),
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "jobs": JOBS,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_digest() -> str:
    """Digest of the rrdof sources, which names the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rrdof").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------- measuring


class SetupProbes:
    """Times fresh interpreters that import rrdof and make the workload's
    inputs: seconds from spawn until the interpreter says it is ready.

    `scaled` holds each probe's time at reference speed. Half the probes run
    before the timed operations and half after them; none runs between
    operations, where it would slow the next one.
    """

    def __init__(self, args, ref: Reference):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "1", "--size", args.size, "--setup-probe"]
        self.ref = ref
        self.times: list[float] = []
        self.scaled: list[float] = []
        self._spawn()  # untimed: compiles bytecode and fills the file cache

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, said {line.strip()!r})")
        return elapsed

    def run(self, count: int) -> None:
        before = self.ref.follow(0.0)
        for _ in range(count):
            elapsed = self._spawn()
            after = self.ref.follow(elapsed)
            self.times.append(elapsed)
            self.scaled.append(at_reference_speed(elapsed, before, after))
            before = after


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.reasons.extend(failures[: max(0, 5 - len(self.reasons))])


def run_checked(wl, inputs, i: int, tally: Tally, corrupt: bool):
    """Operation i, timed, then checked outside the timed span.

    Returns (wall seconds, cpu seconds, output). An exception from the
    program or from a check fails every operation of this run.
    """
    ops = wl.ops_per_run(inputs)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = wl.run(inputs, i)
    except Exception as exc:  # the program failed: count it and carry on
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        tally.add(ops, [f"raised {exc!r}"] * ops)
        return wall, cpu, None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    try:
        failures = wl.check(inputs, out, corrupt=corrupt)
    except Exception as exc:  # a malformed output fails its check
        traceback.print_exc(file=sys.stderr)
        failures = [f"check raised {exc!r}"] * ops
    tally.add(ops, failures)
    return wall, cpu, out


def cycle_time(walls: list[float], cycle: int) -> float:
    """Median per case, summed over the cases: one cycle's time."""
    return sum(statistics.median(walls[case::cycle]) for case in range(cycle))


def repeat(wl, inputs, seconds: float, tally: Tally, corrupt: bool, ref: Reference):
    """One untimed warm-up operation, then whole cycles of operations until
    `seconds` pass, each followed by the reference.

    The warm-up takes first-call costs (page faults, lazy imports) out of the
    timed operations; it is still checked. Returns wall seconds, the same at
    reference speed, and cpu seconds, per operation.
    """
    warm, _, _ = run_checked(wl, inputs, 0, tally, corrupt)
    before = ref.follow(warm)
    walls, scaled, cpus = [], [], []
    start = time.perf_counter()
    while not walls or len(walls) % wl.cycle or time.perf_counter() - start < seconds:
        wall, cpu, _ = run_checked(wl, inputs, len(walls), tally, corrupt)
        after = ref.follow(wall)
        walls.append(wall)
        scaled.append(at_reference_speed(wall, before, after))
        cpus.append(cpu)
        before = after
    return walls, scaled, cpus


def spread(values: list[float]) -> str:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return (f"n={len(values)} min={min(values):.4f} p25={q1:.4f} median={q2:.4f} "
            f"p75={q3:.4f} max={max(values):.4f}")


# ------------------------------------------------------------------ reporting


def print_metrics(metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {notes.get(name, '')}".rstrip())


def print_trace_table(tracer, metrics) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"layer self time, share of traced wall {wall:.4f} s:")
    for name in TARGETS:
        if name in tracer.absent:
            print(f"  {name:<32} absent (not found in rrdof)")
            continue
        calls, self_s = metrics[f"{name}.calls"][0], metrics[f"{name}.self_s"][0]
        print(f"  {name:<32} calls={calls:<8} self={self_s:10.4f} s {100 * self_s / wall:6.2f} %")
    rest = metrics["trace.unattributed_s"][0]
    print(f"  {'(unattributed)':<32} {'':<14} self={rest:10.4f} s {100 * rest / wall:6.2f} %")
    print("predicted effect of each layer on the end-to-end metrics:")
    for names, effect in PREDICTIONS:
        shares = []
        for name in names:
            if name in tracer.absent:
                shares.append(f"{name} absent")
            else:
                shares.append(f"{name} {100 * metrics[f'{name}.self_s'][0] / wall:.1f} %")
        print(f"  [{'; '.join(shares)}]\n      -> {effect}")


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, then print each
    one's metrics with units and its failed and attempted operations."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        out = subprocess.run(cmd + ["--corrupt"] * args.corrupt, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True)
        print(out.stdout, end="")
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"bench: {name} exited {out.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("summary:")
    for name, res in results.items():
        metrics = "" if args.trace else "  ".join(
            f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:<14} {metrics}  fail_frac={res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} failed of {res['attempted']} attempted)")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb each output before checking it (self-test "
                             "proof that the checks can fail)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    tiny = args.size == "tiny"

    try:
        rrdof = import_rrdof()
        WORKDIR.mkdir(parents=True, exist_ok=True)
        if args.setup_probe:
            wl.prepare(args.seed, tiny, WORKDIR)
            print("ready", flush=True)
            return 0
        prov = provenance(rrdof)
        ref = Reference()
        probes = None if args.trace else SetupProbes(args, ref)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}: closed loop, 1 client")
    inputs = wl.prepare(args.seed, tiny, WORKDIR)
    tally = Tally()
    try:
        if probes is not None:
            probes.run(SETUP_PROBES // 2)
        walls, scaled, cpus = repeat(wl, inputs, args.seconds, tally, args.corrupt, ref)
        if probes is not None:
            probes.run(SETUP_PROBES - SETUP_PROBES // 2)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    raw_cycle_s = cycle_time(walls, wl.cycle)
    cpu_s = statistics.median(cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if not args.trace:
        # Scaled to reference speed: a shared host slows a VM in phases of
        # seconds to minutes. See NOTES.md, "Noise".
        metrics["wall_s"] = (cycle_time(scaled, wl.cycle), "s")
        notes["wall_s"] = (f"median cycle of {wl.cycle} operation(s) at reference speed, "
                           f"per operation {spread(scaled)}; unscaled {raw_cycle_s:.4f} s")
        metrics["setup_s"] = (statistics.median(probes.scaled), "s")
        notes["setup_s"] = (f"median of fresh interpreters at reference speed, "
                            f"{spread(probes.scaled)}; unscaled median "
                            f"{statistics.median(probes.times):.4f} s")
        print(f"reference computation: {spread(ref.times)}")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        notes["peak_rss_mb"] = "ru_maxrss of this process"
    else:
        # One traced cycle, so that every count repeats exactly for a seed.
        with Tracer() as tracer:
            traced = [run_checked(wl, inputs, i, tally, args.corrupt) for i in range(wl.cycle)]
        traced_wall = sum(wall for wall, _, _ in traced)
        metrics.update(tracer.metrics(traced_wall))
        # Only dof_study compares exact df with Monte-Carlo; 0 elsewhere.
        out = traced[0][2]
        z = wl.max_z_mc(out) if hasattr(wl, "max_z_mc") and out is not None else 0.0
        metrics["simbench.max_z_mc"] = (z, "z")
        metrics["process.cpu_s"] = (cpu_s, "s")
        metrics["process.cpu_per_wall"] = (cpu_s / statistics.median(walls), "ratio")
        metrics["process.tracing_overhead_frac"] = ((traced_wall - raw_cycle_s) / raw_cycle_s,
                                                    "frac")
        metrics["process.wall_s"] = (raw_cycle_s, "s")
        metrics["process.ref_s"] = (statistics.median(ref.times), "s")
        notes["process.cpu_s"] = f"median per untraced operation; {spread(cpus)}"
        notes["process.wall_s"] = f"median untraced cycle, unscaled; per operation {spread(walls)}"
        notes["process.ref_s"] = f"median reference; {spread(ref.times)}"
        print_trace_table(tracer, metrics)

    fail_frac = tally.failed / tally.attempted
    print("end-to-end metrics (tracing off):" if not args.trace else "per-layer metrics:")
    print_metrics(metrics, notes)
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} frac   "
          f"{tally.failed} failed of {tally.attempted} attempted operations")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

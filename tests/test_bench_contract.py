"""The benchmark's traced run must find every function it wraps, and every
workload must run against the library as it is.

`bench/layers.py` wraps each ``<module>.<function>`` of `TARGETS` and reports
``<name>.calls`` and ``<name>.self_s``; a target that no longer resolves is
skipped, so its metrics go missing and the benchmark's self-test rejects the
result. `bench/workloads.py` calls rrdof by name, signature and CLI flag; a
call that no longer fits fails every operation of its workload. These tests
read `bench/` and `BENCHMARK.json` and change neither.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench(name: str) -> dict:
    """The namespace of bench/<name>.py, run from its source (no bytecode
    cache is written under bench/)."""
    path = ROOT / "bench" / f"{name}.py"
    namespace = {"__name__": f"bench_{name}", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


TARGETS = load_bench("layers")["TARGETS"]
WORKLOADS = load_bench("workloads")["WORKLOADS"]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_callable(target):
    module_name, func = target.split(".")
    module = importlib.import_module(f"rrdof.{module_name}")
    assert callable(getattr(module, func, None)), f"rrdof.{target} is gone"


def test_every_target_metric_is_declared():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = [f"{t}.{m}" for t in TARGETS for m in ("calls", "self_s") if f"{t}.{m}" not in declared]
    assert not missing


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_cycle_passes_its_own_check(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.prepare(0, True, tmp_path)
    for i in range(workload.cycle):
        out = workload.run(inputs, i)
        assert workload.check(inputs, out) == [], f"{name} operation {i} failed"

"""The benchmark's traced run must find every function it wraps.

`bench/layers.py` wraps each ``<module>.<function>`` of `TARGETS` and reports
``<name>.calls`` and ``<name>.self_s``; a target that no longer resolves is
skipped, so its metrics go missing and the benchmark's self-test rejects the
result. These tests read `bench/` and `BENCHMARK.json` and change neither.
"""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_layers() -> dict:
    """The namespace of bench/layers.py, run from its source (no bytecode
    cache is written under bench/)."""
    path = ROOT / "bench" / "layers.py"
    namespace = {"__name__": "bench_layers", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


TARGETS = load_layers()["TARGETS"]


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_callable(target):
    module_name, func = target.split(".")
    module = importlib.import_module(f"rrdof.{module_name}")
    assert callable(getattr(module, func, None)), f"rrdof.{target} is gone"


def test_every_target_metric_is_declared():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = [f"{t}.{m}" for t in TARGETS for m in ("calls", "self_s") if f"{t}.{m}" not in declared]
    assert not missing

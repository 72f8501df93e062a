"""Outside-in tracing of rrdof's layers.

The traced run replaces module-global names where rrdof's own code looks
them up (``estimators.gram_factors``, ``selection.exact_df_rrr``,
``dof.thin_svd``, ``simbench.fit_ols``, ...) with wrappers that count calls
and time spans. Nothing under ``src/`` changes, and every name is restored
when the run ends. Spans nest on one stack (the workloads run one thread),
so a span's self time is its duration minus the durations of the spans it
encloses, and the self times of all spans plus the time outside any span add
up to the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: Wrapped functions, as ``<module>.<function>`` of rrdof; each gives the
#: metrics ``<name>.calls`` and ``<name>.self_s``. The layer of a function is
#: its module.
TARGETS = (
    "pipeline.ingest_csv",
    "pipeline.write_report",
    "pipeline.eval_splits",
    "linalg.gram_factors",
    "linalg.build_h",
    "linalg.thin_svd",
    "estimators.fit_ols",
    "estimators.fit_shrunk",
    "estimators.validate_weights",
    "dof.exact_df_rrr",
    "dof.exact_df_shrunk",
    "dof.sv_derivatives",
    "dof.divergence_analytic",
    "dof.divergence_fd",
    # The covariance engine: the only boundary of the covariance-oracle layer
    # on the study path. Expected to be renamed or merged by a later change.
    "dof._cov_df",
    "selection.select_rank",
    # Self time includes the _perturb_path loop, which is deliberately not
    # wrapped.
    "simbench.run_dof_study",
    "simbench.gen_instance",
)

#: Which end-to-end metric each layer metric should move, on which workload.
#: Shares are of traced wall time, from a prototype of this tracing at the
#: commit that introduced the benchmark (2 cores, numpy 2.4.6, OpenBLAS 0.3.31).
PREDICTIONS = (
    (("dof.exact_df_rrr", "selection.select_rank"),
     "wall_s on eval_fixture (59 % + 15 % self); none on dof_study (<1 %). "
     "Single path kernel: df_calls_per_select r_bar-1 -> 1."),
    (("estimators.fit_shrunk", "estimators.validate_weights", "linalg.gram_factors",
      "dof._cov_df"),
     "wall_s and peak_rss_mb on dof_study (44 %, 17 % with repeat_frac ~1, 13.5 %); "
     "no change on eval_fixture (repeat_frac 0, Gram <5 %). Gram reuse."),
    (("linalg.thin_svd", "dof.sv_derivatives"),
     "wall_s on oracle_check (69 %, 26 %); thin_svd also dof_study (13 %). "
     "The kernel and Gram-reuse changes leave oracle_check unchanged."),
    (("pipeline.ingest_csv", "pipeline.write_report"),
     "setup_s/wall_s on eval_fixture only; under 1 % there."),
)

KERNEL_PREFIX = "exact_df"


class Tracer:
    """Counts and self times of wrapped rrdof functions, plus two ratios.

    ``linalg.gram_factors.repeat_frac`` is the share of gram_factors calls on
    a design already factored in this trace, keyed by a hash of X's bytes.
    ``selection.df_calls_per_select`` divides the calls selection makes to
    any ``exact_df*`` name in its namespace by the select_rank calls that use
    exact df. The time spent computing these (hashing X) lies outside every
    span, so it counts as unattributed.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._designs: set[bytes] = set()
        self.gram_repeats = 0
        self.exact_selects = 0
        self.select_kernel_calls = 0

    # ----------------------------------------------------------- wrapping

    def _span(self, name, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(args, kwargs)
                if stack:
                    stack[-1][0] += clock() - h0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _counted_kernel(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.select_kernel_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _see_design(self, args, kwargs):
        x = args[0] if args else kwargs["x"]
        key = hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16)
        key.update(repr(getattr(x, "shape", None)).encode())
        digest = key.digest()
        if digest in self._designs:
            self.gram_repeats += 1
        self._designs.add(digest)

    def _see_select(self, args, kwargs):
        crit = args[1] if len(args) > 1 else kwargs.get("crit")
        if getattr(crit, "df_mode", None) == "exact":
            self.exact_selects += 1

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every listed target wherever an rrdof module holds it.

        A target whose module or function no longer exists is recorded in
        `absent` and skipped, so a refactor that renames it does not stop
        the run.
        """
        hooks = {"linalg.gram_factors": self._see_design,
                 "selection.select_rank": self._see_select}
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "rrdof" or name.startswith("rrdof.")) and m is not None]
        for name in TARGETS:
            module_name, func = name.split(".")
            try:
                home = importlib.import_module(f"rrdof.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._span(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        selection = sys.modules.get("rrdof.selection")
        if selection is not None:
            for attr, value in list(vars(selection).items()):
                if attr.startswith(KERNEL_PREFIX) and callable(value):
                    self._patch(selection, attr, self._counted_kernel(value))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ results

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced run of `wall_s` seconds.

        Absent targets give no metric. ``trace.unattributed_s`` is the traced
        wall time outside every span, so the self times and it add up to
        ``trace.wall_s``.
        """
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            if name in self.absent:
                continue
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        if "linalg.gram_factors" not in self.absent:
            n = self.calls["linalg.gram_factors"]
            out["linalg.gram_factors.repeat_frac"] = (self.gram_repeats / n if n else 0.0, "frac")
        if "selection.select_rank" not in self.absent:
            ratio = self.select_kernel_calls / self.exact_selects if self.exact_selects else 0.0
            out["selection.df_calls_per_select"] = (ratio, "ratio")
        attributed = sum(self.self_s.values())
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - attributed, "s")
        return out


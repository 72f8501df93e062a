"""The benchmark's workloads: inputs made from a seed, one timed operation,
and correctness checks on its output.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned. Operation i runs the workload's
case ``i % cycle``; a workload with one case has ``cycle = 1``. Every call into rrdof goes through
a module attribute looked up at call time (``simbench.run_dof_study``, not a
name bound at import), so the traced run sees it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

#: Replications per dof_study operation (the preset runs 200). Four keeps one
#: operation near 1 s on one core, so a 30 s run holds about twenty of them.
DOF_STUDY_REPS = 4

#: Worker threads of `rrdof eval`; recorded in the provenance block.
JOBS = 1
#: The `rrdof eval` flags of the eval_fixture workload; --splits is the CLI
#: default, written out so that the check knows it.
EVAL_SPLITS = 100
EVAL_ARGS = ("--criterion", "cp", "gcv", "bic", "--df", "exact", "naive",
             "--sigma2", "1", "--jobs", str(JOBS))

#: Oracle tolerances of acceptance criterion 02.
ANALYTIC_TOL = 1e-8
FD_TOL = 1e-4


def _fixture_shape(path: str) -> tuple[int, int]:
    """Rows and columns of a headerless CSV, read without rrdof."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return len(rows), len(rows[0])


# --------------------------------------------------------------------- dof_study


class DofStudy:
    """`run_dof_study` on preset setting2 with fewer replications."""

    name = "dof_study"
    cycle = 1

    def prepare(self, seed: int, tiny: bool, workdir: Path):
        from rrdof import simbench

        if tiny:
            return replace(simbench.PRESETS["setting1_desk"], reps=3, seed=seed), 3
        return replace(simbench.PRESETS["setting2"], reps=DOF_STUDY_REPS, seed=seed), 50

    def ops_per_run(self, inputs) -> int:
        return inputs[0].reps

    def run(self, inputs, i: int):
        from rrdof import simbench

        cfg, n_pert = inputs
        return simbench.run_dof_study(cfg, n_pert=n_pert)

    def check(self, inputs, res, corrupt: bool = False) -> list[str]:
        """One operation per replication: its exact df at every rank is at
        least the naive count, and equals r_x*q exactly at full rank."""
        cfg = inputs[0]
        # X has rows i.i.d. N(0, Sigma) with Sigma positive definite, so its
        # rank is min(n, p) almost surely.
        r_x = min(cfg.n, cfg.p)
        r_bar = min(r_x, cfg.q)
        exact = np.array(res.exact_values, dtype=float)
        if corrupt:
            exact[0, -1] += 1e-6
        if list(res.ranks) != list(range(1, r_bar + 1)) or exact.shape != (cfg.reps, r_bar):
            return [f"ranks {res.ranks[:3]}.. / shape {exact.shape} != 1..{r_bar}"] * cfg.reps
        naive = np.array([(r_x + cfg.q - r) * r for r in res.ranks], dtype=float)
        failures = []
        for t in range(cfg.reps):
            if np.any(exact[t] < naive - 1e-9):
                failures.append(f"rep {t}: exact df below naive at rank "
                                f"{int(np.argmax(exact[t] < naive - 1e-9)) + 1}")
            elif exact[t, -1] != r_x * cfg.q:
                failures.append(f"rep {t}: full-rank df {exact[t, -1]!r} != {r_x * cfg.q}")
        return failures

    @staticmethod
    def max_z_mc(res) -> float:
        """Largest |mean exact - MC| z-score over ranks with a nonzero error.

        Statistical, so reported as a value and never counted as a failure:
        a re-seed can cross any fixed threshold by chance.
        """
        z = 0.0
        for mean, se, mc in zip(res.exact_mean, res.exact_se, res.mc):
            scale = math.hypot(se, mc.std_error or 0.0)
            if scale > 0:
                z = max(z, abs(mean - mc.value) / scale)
        return z


# ------------------------------------------------------------------ eval_fixture


class EvalFixture:
    """`rrdof eval` through `rrdof.cli.main` on the bundled fixture CSVs."""

    name = "eval_fixture"
    cycle = 1

    def prepare(self, seed: int, tiny: bool, workdir: Path):
        from rrdof import pipeline

        x_path, y_path = pipeline.fixture_paths()
        out = workdir / "eval_report.json"
        splits = 3 if tiny else EVAL_SPLITS
        argv = ["--seed", str(seed), "eval", "--x", x_path, "--y", y_path, *EVAL_ARGS,
                "--splits", str(splits), "--output", str(out)]
        n, p = _fixture_shape(x_path)
        q = _fixture_shape(y_path)[1]
        # eval_splits trains on round(n/2) rows; ranks 1..min(n_train, p, q).
        r_bar = min(int(round(n * 0.5)), p, q)
        return argv, out, splits, r_bar

    def ops_per_run(self, inputs) -> int:
        return inputs[2]

    def run(self, inputs, i: int):
        from rrdof import cli

        return cli.main(inputs[0])

    def check(self, inputs, rc, corrupt: bool = False) -> list[str]:
        """One operation per split: the report validates against
        REPORT_SCHEMA, no split failed, and every chosen rank is in [1, r_bar]."""
        from rrdof import pipeline

        _, out, splits, r_bar = inputs
        if rc != 0:
            return [f"rrdof eval exited {rc}"] * splits
        try:
            doc = json.loads(out.read_text(encoding="utf-8"))
        finally:
            out.unlink(missing_ok=True)
        problem = schema_error(doc, pipeline.REPORT_SCHEMA)
        if problem is None and doc["kind"] != "eval":
            problem = f"report kind {doc['kind']!r}"
        if problem is not None:
            return [f"report: {problem}"] * splits
        payload = doc["payload"]
        ranks = payload["per_split"]["ranks"]
        if corrupt:
            ranks[next(iter(ranks))][0] = 0
        failures = [f"split {f.get('split')}: {f.get('error')}" for f in payload["failures"]]
        lengths = {len(rs) for rs in ranks.values()}
        if payload["n_splits"] != splits or len(ranks) != 6 or lengths != {splits}:
            return failures or [f"{len(ranks)} criteria with {lengths} ranks each "
                                f"for {payload['n_splits']} splits"] * splits
        for t in range(splits):
            bad = {name: rs[t] for name, rs in ranks.items() if not 1 <= rs[t] <= r_bar}
            if bad:
                failures.append(f"split {t}: chosen rank outside [1, {r_bar}]: {bad}")
        return failures


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def schema_error(doc, schema: dict, where: str = "$") -> str | None:
    """First violation of a JSON schema by `doc`, or None.

    Covers the keywords REPORT_SCHEMA uses (type, required, properties,
    const); any other keyword is reported as a violation, so a schema that
    outgrows this checker fails loudly instead of passing unchecked.
    """
    for key, rule in schema.items():
        if key == "$schema":
            continue
        if key == "type":
            kinds = [rule] if isinstance(rule, str) else rule
            if not any(_JSON_TYPES[k](doc) for k in kinds):
                return f"{where}: expected {rule}, got {type(doc).__name__}"
        elif key == "const":
            if doc != rule or type(doc) is not type(rule):
                return f"{where}: expected {rule!r}, got {doc!r}"
        elif key == "required":
            missing = [k for k in rule if k not in doc]
            if missing:
                return f"{where}: missing {missing}"
        elif key == "properties":
            for prop, sub in rule.items():
                if isinstance(doc, dict) and prop in doc:
                    problem = schema_error(doc[prop], sub, f"{where}.{prop}")
                    if problem is not None:
                        return problem
        else:
            return f"{where}: schema keyword {key!r} is not checked by the benchmark"
    return None


# ------------------------------------------------------------------ oracle_check


class OracleCheck:
    """Analytic and finite-difference divergence against the closed form."""

    name = "oracle_check"
    cycle = 3  # one operation per rule

    def prepare(self, seed: int, tiny: bool, workdir: Path):
        from rrdof import estimators, pipeline

        x_path, y_path = pipeline.fixture_paths()
        x = pipeline.ingest_csv(x_path)
        y = pipeline.ingest_csv(y_path)
        if tiny:
            x, y = x[:, :8], y[:, :6]
        # The seed picks a random half of the rows, as one eval split does;
        # with 59 rows and 39 columns H stays 39x36.
        rows = np.random.default_rng(seed).permutation(x.shape[0])[: x.shape[0] // 2]
        ls = estimators.fit_ols(x[rows], y[rows])
        d = ls.d
        # lambda sits strictly between d_4 and d_5. At lambda = d_4 exactly the
        # central difference straddles the soft/adaptive kink and disagrees with
        # the closed form by exactly 0.5 (soft) and 1.5 (adaptive): a
        # non-differentiable point, not a defect. At sqrt(d_4 d_5) all three
        # rules agree to within 2e-7 (fd) and 4e-13 (analytic) for seeds 0-2.
        lam = float(np.sqrt(d[3] * d[4]))
        rules = (estimators.hard(3), estimators.soft(lam), estimators.adaptive(lam))
        return ls.hf.h, d, ls.gram.r_x, ls.hf.h.shape[1], rules

    def ops_per_run(self, inputs) -> int:
        return 1

    def run(self, inputs, i: int):
        from rrdof import dof

        h, d, r_x, q, rules = inputs
        rule = rules[i % len(rules)]
        s, s_prime = rule.weights(d)
        exact = dof.exact_df_shrunk(d, r_x, q, s, s_prime).value
        analytic = dof.divergence_analytic(h, rule).value
        fd = dof.divergence_fd(h, rule).value
        return rule.kind, exact, analytic, fd

    def check(self, inputs, out, corrupt: bool = False) -> list[str]:
        """One operation per rule: |exact - analytic| < 1e-8 and
        |exact - fd| < 1e-4."""
        kind, exact, analytic, fd = out
        if corrupt:
            exact += 1e-6
        if not abs(exact - analytic) < ANALYTIC_TOL:
            return [f"{kind}: |exact - analytic| = {abs(exact - analytic):.3g}"]
        if not abs(exact - fd) < FD_TOL:
            return [f"{kind}: |exact - fd| = {abs(exact - fd):.3g}"]
        return []


WORKLOADS = {w.name: w for w in (DofStudy(), EvalFixture(), OracleCheck())}

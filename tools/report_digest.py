"""Digest every report rrdof writes for a fixed list of commands.

Runs each command below through ``rrdof.cli.main`` on the bundled fixture,
in a temporary directory, and prints one ``sha256  name`` line per file
written (JSON reports, coefficient CSVs and simulation tables). Two trees
whose outputs match byte for byte print identical lines, so a change that
claims unchanged reports can be checked with one diff:

    PYTHONPATH=src python tools/report_digest.py > change.txt
    PYTHONPATH=<parent checkout>/src python tools/report_digest.py > parent.txt
    diff parent.txt change.txt

rrdof is imported from the environment (``PYTHONPATH`` or an installed
package); the module path used is printed to stderr. Takes no options.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import rrdof
from rrdof import cli
from rrdof.pipeline import fixture_paths

SEED = ["--seed", "7"]
RULES = {"full": [], "rank3": ["--rank", "3"], "soft": ["--soft", "15"],
         "adaptive": ["--adaptive", "15"]}


def commands(data: list[str]) -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, output flags) per run; each output flag takes a file
    named ``<name>.<flag>``."""
    runs = []
    for rule, flags in RULES.items():
        runs.append((f"fit_{rule}", ["fit", *data, *flags], ["--output", "--coef-out"]))
    dof = {
        "exact": ["--rank", "3"],
        "naive": ["--rank", "3"],
        "fd": ["--rank", "3"],
        "mc": ["--rank", "3", "--sigma2", "1", "--reps", "20"],
        "perturb": ["--rank", "3", "--reps", "20"],
    }
    for method, flags in dof.items():
        runs.append((f"dof_{method}", ["dof", *data, "--method", method, *flags], ["--output"]))
    for rule in ("soft", "adaptive"):  # the weight-derivative and flag terms of exact_df_shrunk
        runs.append((f"dof_exact_{rule}", ["dof", *data, "--method", "exact", *RULES[rule]], ["--output"]))
    stochastic = {"mc_soft": ["--method", "mc", *RULES["soft"], "--sigma2", "1", "--reps", "20"],
                  "perturb_adaptive": ["--method", "perturb", *RULES["adaptive"], "--reps", "20"]}
    for name, flags in stochastic.items():  # weights of each draw's own spectrum
        runs.append((f"dof_{name}", ["dof", *data, *flags], ["--output"]))
    ols = {"mc": ["--sigma2", "1", "--reps", "20"], "perturb": ["--reps", "20"]}
    for method, flags in ols.items():  # no rule flag: the fits are least squares
        runs.append((f"dof_{method}_ols", ["dof", *data, "--method", method, *flags], ["--output"]))
    for kind in ("gcv", "bic"):
        for mode in ("exact", "naive"):
            runs.append((f"select_{kind}_{mode}",
                         ["select", *data, "--criterion", kind, "--df", mode], ["--output"]))
    runs.append(("select_cp", ["select", *data, "--criterion", "cp", "--sigma2", "1"], ["--output"]))
    runs.append(("select_cp_naive", ["select", *data, "--criterion", "cp", "--df", "naive",
                                     "--sigma2", "1"], ["--output"]))
    runs.append(("simulate_dof", ["simulate", "--preset", "setting1_desk", "--study", "dof",
                                  "--reps", "4"], ["--output", "--table-out"]))
    # 5 replications: the caller runs three and the helper two
    runs.append(("simulate_dof_odd", ["simulate", "--preset", "setting1_desk", "--study", "dof",
                                      "--reps", "5"], ["--output", "--table-out"]))
    runs.append(("simulate_pred", ["simulate", "--preset", "ld", "--study", "pred",
                                   "--reps", "5"], ["--output", "--table-out"]))
    runs.append(("simulate_pred_hd", ["simulate", "--preset", "hd", "--study", "pred",  # wide: p > n
                                      "--reps", "5"], ["--output", "--table-out"]))
    # 13 replications: three stacks of at most six (pipeline.STACK_BYTES), on one factor of X
    runs.append(("simulate_pred_hd_stacks", ["simulate", "--preset", "hd", "--study", "pred",
                                             "--reps", "13"], ["--output", "--table-out"]))
    crit = ["--criterion", "cp", "gcv", "bic", "--df", "exact", "naive", "--sigma2", "1", "--splits", "20"]
    runs.append(("eval", ["eval", *data, *crit], ["--output"]))
    runs.append(("eval_jobs2", ["eval", *data, *crit, "--jobs", "2"], ["--output"]))
    # training halves of 12 rows: a wide design, r_x = 12
    runs.append(("eval_wide", ["eval", *data, *crit, "--split-fraction", "0.1"], ["--output"]))
    return runs


def main() -> int:
    print(f"rrdof from {Path(rrdof.__file__).parent}", file=sys.stderr)
    x_path, y_path = fixture_paths()
    data = ["--x", x_path, "--y", y_path]
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, outputs in commands(data):
            files = [f"{name}.{flag.lstrip('-')}" for flag in outputs]
            out_flags = [a for flag, f in zip(outputs, files) for a in (flag, str(Path(tmp) / f))]
            rc = cli.main([*SEED, *argv, *out_flags])
            if rc != 0:
                print(f"{name}: rrdof exited {rc}", file=sys.stderr)
                return 1
            for f in files:
                print(f"{hashlib.sha256((Path(tmp) / f).read_bytes()).hexdigest()}  {f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: fit / dof / select / simulate / eval.

All commands read row-per-observation numeric CSVs and write versioned JSON
reports (plus flat CSV tables where plotting data is useful). The seed comes
from --seed, falling back to the RRDOF_SEED environment variable, then 0.

`main` is the one path from argv to report: it parses, reads the seed, loads
--x and --y once and writes the report last, after the command's own CSV
(`cmd_*` maps (args, seed[, x, y]) to the report's kind and payload). It
returns 0, or 2 after a usage message or one `error:` line for an rrdof or
file error, and then no report is written; it never raises `SystemExit`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import dof as dof_mod
from .estimators import _checked_ints, adaptive, coef_matrix, fit_ols, fit_shrunk, hard, soft
from .exceptions import RrdofError, SaturationError
from .pipeline import eval_splits, ingest_csv, write_matrix_csv, write_report
from .selection import Criterion, select_rank
from .simbench import PRESETS, run_dof_study, run_pred_study


def _seed_from(args) -> int:
    """--seed, else RRDOF_SEED, else 0; checked where a draw is made (`dof._substream`)."""
    env = os.environ.get("RRDOF_SEED") or "0"
    try:
        return int(env) if args.seed is None else args.seed
    except ValueError:
        raise RrdofError(f"RRDOF_SEED must be an integer, got {env!r}") from None


def _add_data_flags(sp):
    sp.add_argument("--x", required=True, help="design matrix CSV")
    sp.add_argument("--y", required=True, help="response matrix CSV")
    sp.add_argument("--header", action="store_true", help="skip a header row")
    sp.add_argument("--log", action="store_true", help="log-transform the data")
    sp.add_argument("--standardize", action="store_true", help="z-score each column")


def _add_rule_flags(sp):
    rules = sp.add_mutually_exclusive_group()  # one rule per fit: a second rule flag is an error
    rules.add_argument("--rank", type=int, help="hard rank truncation")
    rules.add_argument("--soft", type=float, help="soft-threshold penalty")
    rules.add_argument("--adaptive", type=float, help="adaptive-threshold penalty")
    sp.add_argument("--gamma", type=float, default=2.0, help="adaptive power (default 2)")


def cmd_fit(args, seed, x, y) -> tuple:
    ls = fit_ols(x, y)
    rule = _checked_rule(args, ls) or hard(ls.r_bar)
    s = rule.weights(ls.d)[0]
    payload = {
        "n": x.shape[0], "p": x.shape[1], "q": y.shape[1], "r_x": ls.gram.r_x, "r_bar": ls.r_bar,
        "rank_fitted": np.count_nonzero(s > 0), "singular_values": ls.d,
        "shrunk_singular_values": s * ls.d, "rss": np.sum((y - fit_shrunk(ls, rule)) ** 2),
    }
    if args.coef_out:
        write_matrix_csv(args.coef_out, coef_matrix(ls, rule))
    return "fit", payload


def cmd_dof(args, seed, x, y) -> tuple:
    ls = fit_ols(x, y)
    r_x, q = ls.gram.r_x, y.shape[1]
    rule = _checked_rule(args, ls)
    method = args.method
    needs = "--rank" if method == "naive" else "--rank, --soft, or --adaptive"
    if method in ("exact", "naive", "fd") and (rule is None or method == "naive" and rule.kind != "hard"):
        raise RrdofError(f"--method {method} needs {needs}")
    rule = rule or hard(ls.r_bar)  # no rule flag: least squares

    if method == "naive":
        est = dof_mod.DofEstimate(value=dof_mod.naive_df(r_x, q, rule.rank), method="naive")
    elif method == "exact":
        est = dof_mod.exact_df_shrunk(ls.d, r_x, q, *rule.weights(ls.d))
    elif method == "fd":
        est = dof_mod.divergence_fd(ls.hf.h, rule)
    elif method == "mc":
        if args.sigma2 is None:
            raise RrdofError("--method mc requires --sigma2")
        est = dof_mod.mc_df(ls, rule, args.sigma2, reps=args.reps, seed=seed)
    else:  # perturb: argparse restricts --method to these choices
        tau = args.tau if args.tau is not None else 0.1 * _sigma_hat(ls)
        est = dof_mod.perturbation_df(ls, rule, n_pert=args.reps, tau=tau, seed=seed)
    payload = asdict(est)
    return "dof", payload


def _sigma_hat(ls) -> float:
    n, q = ls.dims
    dof_resid = n * q - ls.gram.r_x * q
    if dof_resid <= 0:
        raise SaturationError(
            f"the least-squares fit interpolates (n={n} <= r_x={ls.gram.r_x}), so sigma_hat "
            "is roundoff and cannot set the default tau; pass --tau"
        )
    return float(np.sqrt(ls.rss / dof_resid))


def _checked_rule(args, ls):
    """The rule of `rrdof fit` and `rrdof dof` (None without a rule flag),
    one rank policy for every command and method: a rank above r_bar clamps
    to r_bar and one below 1 is a DomainError."""
    if args.rank is not None:
        return hard(_checked_ints(min(args.rank, ls.r_bar), 1, ls.r_bar))
    if args.soft is not None:
        return soft(args.soft)
    if args.adaptive is not None:
        return adaptive(args.adaptive, gamma=args.gamma)
    return None


def cmd_select(args, seed, x, y) -> tuple:
    ls = fit_ols(x, y)
    crit = Criterion(kind=args.criterion, df_mode=args.df, sigma2=args.sigma2)
    report = select_rank(ls, crit)
    payload = {"criterion": args.criterion, "df_mode": args.df, **asdict(report)}
    return "select", payload


def cmd_simulate(args, seed) -> tuple:
    cfg = PRESETS[args.preset]
    overrides = {"seed": seed}
    if args.reps is not None:
        overrides["reps"] = args.reps
    cfg = replace(cfg, **overrides)
    if args.study == "dof":
        res = run_dof_study(cfg)
        table = {  # the --table-out columns, in order
            "ranks": res.ranks,
            "naive": res.naive,
            "exact_mean": res.exact_mean,
            "exact_se": res.exact_se,
            "perturb_mean": res.perturb_mean,
            "perturb_se": res.perturb_se,
            "mc_value": [e.value for e in res.mc],
            "mc_se": [e.std_error for e in res.mc],
        }
        payload = {"preset": args.preset, "config": asdict(cfg), **table}
    else:
        res = run_pred_study(cfg)
        table = {
            "pred_exact": res.pred_exact, "pred_naive": res.pred_naive,
            "rank_exact": res.rank_exact, "rank_naive": res.rank_naive,
            "prg": res.prg,
        }
        payload = {
            "preset": args.preset,
            "config": asdict(cfg),
            "summary": res.summary(),
            "per_replication": {"est_exact": res.est_exact, "est_naive": res.est_naive,
                                **table, "snr": res.snr},
        }
    if args.table_out:
        write_matrix_csv(args.table_out, np.column_stack(list(table.values())))
    return f"simulate_{args.study}", payload


def cmd_eval(args, seed, x, y) -> tuple:
    criteria = {}
    for kind in args.criterion:
        for mode in args.df:
            sigma2 = args.sigma2 if kind == "cp" else None
            criteria[f"{kind}_{mode}"] = Criterion(kind=kind, df_mode=mode, sigma2=sigma2)
    report = eval_splits(
        x, y, criteria,
        n_splits=args.splits,
        split_fraction=args.split_fraction,
        seed=seed,
        jobs=args.jobs,
    )
    return "eval", report.to_payload()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrdof",
        description="Reduced-rank regression with exact degrees of freedom",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="PRNG seed (falls back to RRDOF_SEED, then 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fit", help="fit a reduced-rank or shrinkage estimator")
    _add_data_flags(sp)
    _add_rule_flags(sp)
    sp.add_argument("--coef-out", help="optional CSV path for the coefficient matrix")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("dof", help="estimate effective degrees of freedom")
    _add_data_flags(sp)
    _add_rule_flags(sp)
    sp.add_argument("--method", required=True,
                    choices=["exact", "naive", "mc", "perturb", "fd"])
    sp.add_argument("--sigma2", type=float, help="error variance (mc)")
    sp.add_argument("--tau", type=float, help="perturbation size (default 0.1*sigma_hat)")
    sp.add_argument("--reps", type=int, default=100,
                    help="replications / perturbations for stochastic methods")
    sp.set_defaults(func=cmd_dof)

    sp = sub.add_parser("select", help="select a rank by Cp, GCV, or BIC")
    _add_data_flags(sp)
    sp.add_argument("--criterion", required=True, choices=["gcv", "cp", "bic"])
    sp.add_argument("--df", default="exact", choices=["exact", "naive"])
    sp.add_argument("--sigma2", type=float, help="error variance (required for cp)")
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("simulate", help="run a named simulation study")
    sp.add_argument("--preset", required=True, choices=sorted(PRESETS))
    sp.add_argument("--study", default="dof", choices=["dof", "pred"])
    sp.add_argument("--reps", type=int, help="override the preset replication count")
    sp.add_argument("--table-out", help="optional flat CSV of the plotting data")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("eval", help="train/test split evaluation pipeline")
    _add_data_flags(sp)
    sp.add_argument("--criterion", nargs="+", default=["gcv"],
                    choices=["gcv", "cp", "bic"])
    sp.add_argument("--df", nargs="+", default=["exact"], choices=["exact", "naive"])
    sp.add_argument("--sigma2", type=float, help="error variance (required for cp)")
    sp.add_argument("--splits", type=int, default=100)
    sp.add_argument("--split-fraction", type=float, default=0.5)
    sp.add_argument("--jobs", type=int, default=1, help="1 or 2 threads; with 2, a helper thread takes the second half of the stacks of splits")
    sp.set_defaults(func=cmd_eval)

    for sp in sub.choices.values():  # the report that `main` writes, last
        sp.add_argument("--output", required=True, help="JSON report path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help (0) or a usage message (2)
        return exc.code
    try:
        seed = _seed_from(args)
        data = []
        if getattr(args, "x", None) is not None:  # a command with `_add_data_flags`: read --x and --y once
            flags = {"header": args.header, "log_transform": args.log, "standardize": args.standardize}
            data = [ingest_csv(args.x, **flags), ingest_csv(args.y, **flags)]
        kind, payload = args.func(args, seed, *data)
        write_report(args.output, kind, payload, seed=seed)  # last: every other output is written
    except (RrdofError, OSError) as exc:  # OSError: an unreadable input or an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

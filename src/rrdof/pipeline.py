"""CSV ingestion, train/test evaluation pipeline, and report emission.

The evaluation workflow splits (X, Y) into train/test halves, selects a rank
on the training split by a chosen criterion, predicts the held-out responses,
and aggregates MSPE over repeated random splits alongside an OLS baseline.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dof import _substream
from .estimators import LsFit, fit_ols
from .exceptions import DomainError, ParseError, RrdofError, SaturationError
from .selection import Criterion, select_ranks

#: Version tag carried by every emitted report; field names are part of the
#: external contract.
REPORT_SCHEMA_VERSION = 1

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "kind", "payload"],
    "properties": {
        "schema_version": {"const": REPORT_SCHEMA_VERSION},
        "kind": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "payload": {"type": "object"},
    },
}


def ingest_csv(
    path,
    header: bool = False,
    log_transform: bool = False,
    standardize: bool = False,
) -> np.ndarray:
    """Read a rectangular numeric CSV as a matrix (row = observation).

    Optional flags skip a header row, apply a log transform, and z-score each
    column (mean 0, sample sd 1). Missing and non-finite values, and constant
    columns under `standardize`, are rejected.
    """
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, record in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not record:
                continue
            parsed = []
            for colno, cell in enumerate(record, start=1):
                cell = cell.strip()
                if cell == "":
                    raise ParseError(f"missing value at row {lineno}, column {colno}")
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric cell {cell!r} at row {lineno}, column {colno}") from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite cell {cell!r} at row {lineno}, column {colno}")
                parsed.append(value)
            if rows and len(parsed) != len(rows[0]):
                raise ParseError(
                    f"ragged row at line {lineno}: expected {len(rows[0])} columns, got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: empty file")
    m = np.array(rows, dtype=float)
    if log_transform:
        if np.any(m <= 0):
            raise ParseError("log transform requires strictly positive values")
        m = np.log(m)
    if standardize:
        constant = np.flatnonzero(np.ptp(m, axis=0) == 0) + 1
        if constant.size:
            cols = ", ".join(str(c) for c in constant)
            raise ParseError(f"cannot standardize constant column(s) {cols}")
        m = (m - m.mean(axis=0)) / m.std(axis=0, ddof=1)
    return m


def write_matrix_csv(path, m: np.ndarray) -> None:
    """Emit a matrix as CSV with enough digits for a bit-exact round trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(m):
            writer.writerow([repr(float(v)) for v in row])


def write_report(path, kind: str, payload: dict, seed: int | None = None) -> None:
    """Write a versioned JSON report; keys are sorted for determinism."""
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, "seed": seed, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class EvalReport:
    """Per-split MSPE and selected rank for each criterion plus OLS baseline."""

    criteria: list[str]
    mspe: dict[str, list[float]]
    ranks: dict[str, list[int]]
    split_fraction: float
    n_splits: int
    failures: list[dict]

    def summary(self) -> dict:
        out = {}
        for name in self.criteria + ["ols"]:
            vals = np.asarray(self.mspe[name], dtype=float)
            entry = {
                "mean_mspe": float(vals.mean()),
                "std_mspe": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            }
            if name != "ols":
                r = np.asarray(self.ranks[name], dtype=float)
                entry["mean_rank"] = float(r.mean())
                entry["std_rank"] = float(r.std(ddof=1)) if r.size > 1 else 0.0
            out[name] = entry
        return out

    def to_payload(self) -> dict:
        return {
            "split_fraction": self.split_fraction,
            "n_splits": self.n_splits,
            "per_split": {"mspe": self.mspe, "ranks": self.ranks},
            "summary": self.summary(),
            "failures": self.failures,
        }


def _mspe_path(ls: LsFit, x_te: np.ndarray, y_te: np.ndarray) -> np.ndarray:
    """Held-out MSPE 2 ||Y_te - X_te B_r||^2 / (n_te q) of every hard rank
    r = 1..r_bar as one array (entry r - 1), for the rank-r coefficients B_r;
    for a stack of fits and held-out halves, one row per fit.

    With Z = X_te Q S^-1 U diag(d) and A = Y_te V, X_te B_r = Z_{:r} V_{:r}',
    so the squared error is ||Y_te - A V'||^2 + sum_{k<r} ||a_k - z_k||^2 +
    sum_{k>=r} ||a_k||^2: the held-out analogue of rss_path's tail sum, and a
    sum of nonnegative terms, so nothing cancels at high SNR. The factor 2
    follows the equal-halves convention of the split.
    """
    v = ls.hf.svd.right
    # in place where it can be: a stack holds few n_te-row arrays at once
    z = x_te @ ls.gram.q_mat
    z /= ls.gram.s[..., None, :]
    z = z @ (ls.hf.svd.left * ls.d[..., None, :])
    a = y_te @ v
    z -= a
    head = np.cumsum(np.sum(np.square(z, out=z), axis=-2), axis=-1)  # head[r-1] = sum_{k<r}
    tail = np.cumsum(np.sum(a**2, axis=-2)[..., :0:-1], axis=-1)[..., ::-1]
    tail = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1)  # tail[r-1] = sum_{k>=r}
    res = a @ v.swapaxes(-1, -2)
    np.subtract(y_te, res, out=res)
    rest = np.sum(np.square(res, out=res), axis=(-2, -1))[..., None]
    return 2.0 * (rest + head + tail) / (y_te.shape[-2] * y_te.shape[-1])


def _eval_stack(x, y, criteria, n_train, seed, splits: range) -> list:
    """(mspe, ranks) of each split of the stack `splits`, or its error: a
    stack that raises an rrdof error runs again one split at a time. Kept at
    module level: a closure that calls itself is a reference cycle, which
    would hold x and y after the run until the cyclic collector frees them."""
    try:
        perm = np.array([_substream(seed, 3, t).permutation(x.shape[0]) for t in splits])
        train, test = perm[:, :n_train], perm[:, n_train:]
        ls = fit_ols(x[train], y[train])
        ranks = {name: rep.chosen for name, rep in select_ranks(ls, criteria).items()}
        path = _mspe_path(ls, x[test], y[test])  # OLS is the rank-r_bar fit
    except RrdofError as exc:
        if len(splits) == 1:
            return [exc]
        return [res for t in splits for res in _eval_stack(x, y, criteria, n_train, seed, range(t, t + 1))]
    rows = range(len(splits))
    mspe = {name: path[rows, np.subtract(r, 1)].tolist() for name, r in ranks.items()}
    mspe["ols"] = path[:, -1].tolist()
    return [({name: m[i] for name, m in mspe.items()}, {name: r[i] for name, r in ranks.items()})
            for i in rows]


#: Bytes of data (training and held-out rows of X and Y) per stack of eval
#: splits: about four splits of the bundled fixture. Larger stacks save little
#: more time and hold more memory at once.
STACK_BYTES = 300_000


def eval_splits(
    x,
    y,
    criteria: dict[str, Criterion],
    n_splits: int,
    split_fraction: float = 0.5,
    seed: int = 0,
    jobs: int = 1,
) -> EvalReport:
    """Repeated random-split evaluation of selection criteria.

    Each criterion selects a rank on the training half; MSPE is recorded on
    the held-out half, alongside a full-rank OLS baseline. Split t permutes
    the rows by substream (3, t). Consecutive splits are fitted, scored and
    held out as one stack of up to ``STACK_BYTES`` of data, along the leading
    axes of the same kernels a single fit uses, so every split's numbers
    equal its own fit's bit for bit. All criteria of a stack are scored by
    one ``select_ranks`` call on one rss path and one df path per df mode;
    each chosen rank and the OLS rank r_bar read their MSPE from one held-out
    tail-sum path (``_mspe_path``), with no coefficient matrix. If a stack
    raises an rrdof error (one split fails, or the training halves differ in
    rank), its splits are run again one at a time: the error of a failing
    split (from the first criterion that fails) is recorded and the run
    continues. jobs > 1 runs stacks on a thread pool (no faster: they hold
    the GIL); results merge in split order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DomainError("x and y must have the same number of rows")
    if n_splits < 1:
        raise DomainError("n_splits must be at least 1")
    if jobs < 1:
        raise DomainError("jobs must be at least 1")
    if not 0.0 < split_fraction < 1.0:
        raise DomainError("split_fraction must be in (0, 1)")
    n = x.shape[0]
    n_train = int(round(n * split_fraction))
    if n_train < 1 or n_train >= n:
        raise DomainError("split_fraction leaves an empty train or test set")

    run = partial(_eval_stack, x, y, criteria, n_train, seed)
    per_stack = max(1, STACK_BYTES // (x.nbytes + y.nbytes))
    stacks = [range(t, min(t + per_stack, n_splits)) for t in range(0, n_splits, per_stack)]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = [res for stack in pool.map(run, stacks) for res in stack]
    else:
        results = [res for stack in stacks for res in run(stack)]

    names = list(criteria)
    report = EvalReport(
        criteria=names,
        mspe={name: [] for name in names + ["ols"]},
        ranks={name: [] for name in names},
        split_fraction=split_fraction,
        n_splits=n_splits,
        failures=[],
    )
    for t, res in enumerate(results):
        if isinstance(res, Exception):
            report.failures.append({"split": t, "error": str(res)})
            continue
        mspe, ranks = res
        for name in names:
            report.mspe[name].append(mspe[name])
            report.ranks[name].append(ranks[name])
        report.mspe["ols"].append(mspe["ols"])
    if not report.mspe["ols"]:
        raise SaturationError("selection failed on every split")
    return report


def synthetic_fixture() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic stand-in with the shape of a gene-expression
    train/test pipeline dataset.

    One dominant latent factor plus a slowly decaying tail of marginal
    factors near the noise level, so parsimonious criteria select rank 1
    while greedier ones chase the tail.
    """
    n, p, q = 118, 39, 36
    rng = _substream(20240501, 4)
    x = rng.standard_normal((n, p))
    sv = np.concatenate([[5.0], 1.6 * 0.95 ** np.arange(8)])
    r0 = sv.size
    left = np.linalg.qr(rng.standard_normal((p, r0)))[0]
    right = np.linalg.qr(rng.standard_normal((q, r0)))[0]
    b = (left * sv[None, :]) @ right.T
    y = x @ b + rng.standard_normal((n, q))  # unit noise variance
    return x, y


def fixture_paths() -> tuple[str, str]:
    """Filesystem paths of the bundled (X, Y) fixture CSVs."""
    from importlib.resources import files

    data = files("rrdof") / "data"
    return str(data / "fixture_x.csv"), str(data / "fixture_y.csv")

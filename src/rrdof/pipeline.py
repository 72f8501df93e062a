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

import numpy as np

from .dof import _substream
from .estimators import LsFit, _checked_ints, fit_ols
from .exceptions import DegenerateDesignError, DomainError, ParseError, RrdofError, SaturationError
from .linalg import _basis, _two_threads, as_matrix
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


def _jsonable(value):
    """A numpy array or scalar as its ``.tolist()``; json's TypeError for anything else."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else json.JSONEncoder().default(value)


def write_report(path, kind: str, payload: dict, seed: int | None = None) -> None:
    """Write a versioned JSON report, keys sorted; numpy values become their ``.tolist()``."""
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, "seed": seed, "payload": payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
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
        def ms(values, what):  # mean and sample sd; the sd of one split is 0
            a = np.asarray(values, dtype=float)
            return {f"mean_{what}": a.mean(), f"std_{what}": a.std(ddof=1) if a.size > 1 else 0.0}

        out = {name: ms(self.mspe[name], "mspe") for name in self.criteria + ["ols"]}
        for name in self.criteria:
            out[name] |= ms(self.ranks[name], "rank")
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
    z = _basis(x_te, ls.gram.q_mat, ls.gram.s) @ (ls.hf.svd.left * ls.d[..., None, :])
    a = y_te @ v
    z -= a
    head = np.cumsum(np.sum(np.square(z, out=z), axis=-2), axis=-1)  # head[r-1] = sum_{k<r}
    tail = np.cumsum(np.sum(a**2, axis=-2)[..., :0:-1], axis=-1)[..., ::-1]
    tail = np.concatenate([tail, np.zeros(tail.shape[:-1] + (1,))], axis=-1)  # tail[r-1] = sum_{k>=r}
    res = a @ v.swapaxes(-1, -2)
    np.subtract(y_te, res, out=res)
    rest = np.sum(np.square(res, out=res), axis=(-2, -1))[..., None]
    return 2.0 * (rest + head + tail) / (y_te.shape[-2] * y_te.shape[-1])


def _by_splits(work, splits, failed: dict) -> None:
    """Call work(splits); on an rrdof error, call it on each split alone and
    record each split's error in `failed`. At module level: a closure calling
    itself is a reference cycle, holding its data until gc frees them."""
    try:
        work(splits)
    except RrdofError as exc:
        if len(splits) == 1:
            failed[splits[0]] = str(exc)
            return
        for t in splits:
            _by_splits(work, [t], failed)


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
    the rows by substream (3, t). Stacks of up to ``STACK_BYTES`` of data
    write each split's spectrum, rss, design rank r_x and held-out MSPE path
    (``_mspe_path``) into tables of the run, bit for bit as its own fit would.
    Then one ``select_ranks`` call per r_x (one per run unless training halves
    differ in rank) scores every criterion of every split, and the chosen and
    OLS ranks read their MSPE from the path. A stack or selection call that
    raises an rrdof error runs again one split at a time, recording each
    failing split's error. `linalg._two_threads` plans the near-equal stacks
    and, with jobs=2, fits the second half of them on one helper."""
    x, y = as_matrix(x), as_matrix(y)
    if not x.any():
        raise DegenerateDesignError("design matrix has no nonzero column")
    if x.shape[0] != y.shape[0]:
        raise DomainError("x and y must have the same number of rows")
    n_splits = int(_checked_ints(n_splits, 1, what="n_splits"))
    seed = int(_checked_ints(seed, 0, what="seed"))  # here too: a split's error would only be recorded
    if jobs not in (1, 2):
        raise DomainError("jobs must be 1 or 2")
    if not 0.0 < split_fraction < 1.0:
        raise DomainError("split_fraction must be in (0, 1)")
    (n, p), q = x.shape, y.shape[1]
    n_train = int(round(n * split_fraction))
    if not 0 < n_train < n:
        raise DomainError("split_fraction leaves an empty train or test set")

    d, path = np.empty((2, n_splits, min(n_train, p, q)))  # spectra and held-out paths, r_bar columns used
    rss, r_x = np.empty(n_splits), np.zeros(n_splits, dtype=int)  # r_x stays 0 where a fit fails
    failed: dict[int, str] = {}

    def eval_stack(splits):  # fit a stack of training halves into their table rows
        perm = np.array([_substream(seed, 3, t).permutation(n) for t in splits])
        train, test = perm[:, :n_train], perm[:, n_train:]
        ls = fit_ols(x[train], y[train])
        path[splits, : ls.r_bar] = _mspe_path(ls, x[test], y[test])  # OLS is the rank-r_bar fit
        d[splits, : ls.r_bar], rss[splits], r_x[splits] = ls.d, ls.rss, ls.gram.r_x

    def run(lo, hi):
        _by_splits(eval_stack, range(lo, hi), failed)

    _two_threads(run, n_splits, STACK_BYTES // (x.nbytes + y.nbytes), threads=jobs)

    names = list(criteria)
    ranks = np.empty((n_splits, len(names)), dtype=int)
    mspe = np.empty((n_splits, len(names) + 1))

    def select(splits):  # score splits of one design rank from their table rows
        rank = int(r_x[splits[0]])
        r_bar = min(rank, q)
        reports = select_ranks(d[splits, :r_bar], rss[splits], rank, n_train, q, criteria)
        cols = np.column_stack([rep.chosen for rep in reports.values()] + [np.full(len(splits), r_bar)])
        ranks[splits] = cols[:, :-1]
        mspe[splits] = np.take_along_axis(path[splits], cols - 1, axis=1)

    for rank in sorted(set(r_x[r_x > 0].tolist())):  # np.unique adds ~1.4 MB to peak RSS
        _by_splits(select, np.flatnonzero(r_x == rank).tolist(), failed)

    if len(failed) == n_splits:
        raise SaturationError("selection failed on every split")
    ok = np.isin(np.arange(n_splits), list(failed), invert=True)
    return EvalReport(
        criteria=names,
        mspe=dict(zip(names + ["ols"], mspe[ok].T.tolist())),
        ranks=dict(zip(names, ranks[ok].T.tolist())),
        split_fraction=split_fraction,
        n_splits=n_splits,
        failures=[{"split": t, "error": failed[t]} for t in sorted(failed)],
    )


def fixture_paths() -> tuple[str, str]:
    """Filesystem paths of the bundled (X, Y) fixture CSVs."""
    from importlib.resources import files

    data = files("rrdof") / "data"
    return str(data / "fixture_x.csv"), str(data / "fixture_y.csv")

"""Dense linear-algebra substrate.

Thin SVD with a deterministic sign convention, eigenfactorization of the Gram
matrix X'X, and construction of the H matrix H = S^{-1} Q' X' Y that carries
all degrees-of-freedom information: H shares its singular values and right
singular vectors with the least-squares fit X (X'X)^+ X' Y. `_two_threads`
cuts work into near-equal stacks and runs them on the caller and at most one
helper: the one place rrdof plans stacks or starts a thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDesignError, NumericalError, ShapeError

#: Relative tolerance for rank decisions.
RANK_TOL = 1e-10


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return `a` as a finite 2-d float array; with `stack`, a
    stack (..., rows, cols) of them passes too."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim > 2) or 0 in m.shape:
        what = "matrix or a stack of them" if stack else "matrix"
        raise ShapeError(f"expected a 2-d {what}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    return m


def _check_rows(x: np.ndarray, y: np.ndarray) -> None:
    """Raise ShapeError unless x and y have the same rows and a stacked x has
    y's stack axes: one 2-d design may face a stack of responses."""
    if x.shape[-2] != y.shape[-2]:
        raise ShapeError(f"x has {x.shape[-2]} rows but y has {y.shape[-2]}")
    if x.ndim > 2 and x.shape[:-2] != y.shape[:-2]:
        raise ShapeError(f"x is a stack of {x.shape[:-2]} but y of {y.shape[:-2]}")


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD: ``left @ diag(d) @ right.T`` reconstructs the input.

    Columns of `left` and `right` are orthonormal; `d` is nonincreasing. The
    factors of a stack of matrices are stacks along the same leading axes.
    """

    left: np.ndarray
    d: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class GramFactors:
    """Eigenfactors of X'X: ``X'X = q_mat @ diag(s**2) @ q_mat.T``.

    `s` holds the `r_x` strictly positive singular values of X, so
    ``(X'X)^+ = q_mat @ diag(s**-2) @ q_mat.T``; `w` = X Q S^-1 has orthonormal
    columns, and every fit is W f(H). The factors of a stack of designs are
    stacks along the same leading axes, with one `r_x`.
    """

    q_mat: np.ndarray
    s: np.ndarray
    r_x: int
    w: np.ndarray


@dataclass(frozen=True)
class HFactor:
    """The r_x-by-q matrix H = S^{-1} Q' X' Y and its thin SVD."""

    h: np.ndarray
    svd: SvdFactors


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Force the largest-magnitude entry of each right singular vector to be
    # positive (the first one on ties); the compensating flip goes into the
    # left vectors. Works along leading (stack) axes.
    j = np.argmax(np.abs(vt), axis=-1)
    flip = np.take_along_axis(vt, j[..., None], axis=-1)[..., 0] < 0
    vt[flip] = -vt[flip]
    ut = u.swapaxes(-1, -2)  # a view: flipping its rows flips the columns of u
    ut[flip] = -ut[flip]
    return u, vt


def _svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD of a validated matrix or stack (..., rows, cols) of them, with
    the backend's signs: for callers blind to negating a singular-vector pair."""
    try:
        u, d, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(left=u, d=d, right=vt.swapaxes(-1, -2))


#: Whether this thread is running a stack of a `_two_threads` plan.
_in_stack = threading.local()


def _two_threads(work, m, per_stack, threads=2) -> None:
    """Run ``work(lo, hi)`` on the near-equal, non-empty stacks cutting
    [0, m) into ceil(m / max(1, per_stack)) pieces, one more when threads=2
    and that count is odd and neither 1 nor m: then the calling thread runs
    the first half in order (the larger one, for an odd count) and one helper
    the rest, under the caller's `np.errstate`, passed to it explicitly (a new
    thread may start from numpy's default error state). numpy's stacked SVD
    and products release the GIL, so the two run at once. With threads=1, or
    one stack, everything runs on the caller. A plan started inside a stack
    of another plan cuts the same stacks but runs them all in order on that
    stack's thread: a process runs at most one helper per outermost plan.
    Each thread stops at its next stack once either has failed; the first
    error is raised after the join."""
    count = -(-m // max(1, per_stack))
    if threads == 2 and count % 2 and 1 < count < m:
        count += 1  # an even count of near-equal stacks: as many items on each thread
    stacks = [(m * i // count, m * (i + 1) // count) for i in range(count)]
    errors = []

    def run(part, errstate):
        outer = getattr(_in_stack, "on", False)
        _in_stack.on = True
        try:
            with np.errstate(**errstate):
                for lo, hi in part:
                    if errors:
                        return
                    work(lo, hi)
        except BaseException as exc:  # re-raised by the caller once both threads stop
            errors.append(exc)
        finally:
            _in_stack.on = outer

    half = (count + 1) // 2 if threads == 2 and not getattr(_in_stack, "on", False) else count
    if half == count:  # one thread
        run(stacks, np.geterr())
    else:
        thread = threading.Thread(target=run, args=(stacks[half:], np.geterr()))
        thread.start()
        run(stacks[:half], np.geterr())
        thread.join()
    if errors:
        raise errors[0]


def thin_svd(m) -> SvdFactors:
    """Thin SVD of a real matrix, k = min(rows, cols) factors; of each matrix
    of a stack (..., rows, cols), along its leading axes."""
    f = _svd(as_matrix(m, stack=True))
    u, vt = _fix_signs(f.left, f.right.swapaxes(-1, -2))  # in place: the factors are fresh
    return SvdFactors(left=u, d=f.d, right=vt.swapaxes(-1, -2))


def _basis(rows: np.ndarray, q_mat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of X as rows of W = X Q S^-1, divided in place: the one place W is formed."""
    w = rows @ q_mat
    w /= s[..., None, :]
    return w


def gram_factors(x) -> GramFactors:
    """Eigenfactorization of X'X keeping eigenvalues above ``RANK_TOL * max``,
    and W; of each design of a stack (..., n, p), along its leading axes.

    The designs of a stack must keep the same number of eigenvalues, or
    ShapeError is raised. Each slice of `q_mat` is column-major, as the
    single-design factor is, so BLAS takes the same path on every slice.
    """
    x = as_matrix(x, stack=True)
    xtx = x.swapaxes(-1, -2) @ x
    try:
        evals, evecs = np.linalg.eigh(xtx)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals, axis=-1)[..., ::-1]
    evals = np.take_along_axis(evals, order, axis=-1)
    # gather the columns as rows of the transpose: column-major slices
    evecs = np.take_along_axis(evecs.swapaxes(-1, -2), order[..., None], axis=-2).swapaxes(-1, -2)
    if np.any(evals[..., 0] <= 0):
        raise DegenerateDesignError("design matrix has no nonzero column")
    keep = evals > RANK_TOL * evals[..., :1]
    ranks = np.count_nonzero(keep, axis=-1)
    r_x = int(ranks.max())
    if ranks.min() != r_x:
        raise ShapeError(f"the designs of a stack differ in rank: {int(ranks.min())} and {r_x}")
    q_mat, s = evecs[..., :r_x], np.sqrt(evals[..., :r_x])
    return GramFactors(q_mat=q_mat, s=s, r_x=r_x, w=_basis(x, q_mat, s))


def build_h(x, y, gf: GramFactors) -> HFactor:
    """Build H = S^{-1} Q' X' Y together with its thin SVD; of each pair of a
    stack, along the leading axes of x and y, or of one x against each y."""
    x = as_matrix(x, stack=True)
    y = as_matrix(y, stack=True)
    _check_rows(x, y)
    if gf.q_mat.shape[:-1] != x.shape[:-2] + x.shape[-1:]:
        raise ShapeError("gram factors do not match the design matrix")
    h = (gf.q_mat.swapaxes(-1, -2) @ (x.swapaxes(-1, -2) @ y)) / gf.s[..., :, None]  # the one place H is written
    return HFactor(h=h, svd=thin_svd(h))


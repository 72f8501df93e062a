"""Dense linear-algebra substrate.

Thin SVD with a deterministic sign convention, eigenfactorization of the Gram
matrix X'X, and construction of the H matrix H = S^{-1} Q' X' Y that carries
all degrees-of-freedom information: H shares its singular values and right
singular vectors with the least-squares fit X (X'X)^+ X' Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateDesignError, NumericalError, ShapeError

#: Relative tolerance for rank decisions.
RANK_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a finite 2-d float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ShapeError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD: ``left @ diag(d) @ right.T`` reconstructs the input.

    Columns of `left` and `right` are orthonormal; `d` is nonincreasing.
    """

    left: np.ndarray
    d: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class GramFactors:
    """Eigenfactors of X'X: ``X'X = q_mat @ diag(s**2) @ q_mat.T``.

    `s` holds the `r_x` strictly positive singular values of X, so
    ``(X'X)^+ = q_mat @ diag(s**-2) @ q_mat.T``.
    """

    q_mat: np.ndarray
    s: np.ndarray
    r_x: int


@dataclass(frozen=True)
class HFactor:
    """The r_x-by-q matrix H = S^{-1} Q' X' Y and its thin SVD."""

    h: np.ndarray
    svd: SvdFactors


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Force the largest-magnitude entry of each right singular vector to be
    # positive (the first one on ties); the compensating flip goes into the
    # left vectors.
    j = np.argmax(np.abs(vt), axis=1)
    flip = vt[np.arange(vt.shape[0]), j] < 0
    vt[flip] = -vt[flip]
    u[:, flip] = -u[:, flip]
    return u, vt


def _svd(m: np.ndarray) -> SvdFactors:
    """Thin SVD of a validated matrix or stack (..., rows, cols) of them, with
    the backend's signs: for callers blind to negating a singular-vector pair."""
    try:
        u, d, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend dependent
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(left=u, d=d, right=vt.swapaxes(-1, -2))


def thin_svd(m) -> SvdFactors:
    """Thin SVD of a real matrix, k = min(rows, cols) factors."""
    f = _svd(as_matrix(m))
    u, vt = _fix_signs(f.left, f.right.T)  # in place: the factors are fresh
    return SvdFactors(left=u, d=f.d, right=vt.T)


def gram_factors(x) -> GramFactors:
    """Eigenfactorization of X'X keeping eigenvalues above ``RANK_TOL * max``."""
    x = as_matrix(x)
    xtx = x.T @ x
    try:
        evals, evecs = np.linalg.eigh(xtx)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[0] <= 0:
        raise DegenerateDesignError("design matrix has no nonzero column")
    keep = evals > RANK_TOL * evals[0]
    r_x = int(np.count_nonzero(keep))
    return GramFactors(q_mat=evecs[:, :r_x], s=np.sqrt(evals[:r_x]), r_x=r_x)


def build_h(x, y, gf: GramFactors) -> HFactor:
    """Build H = S^{-1} Q' X' Y together with its thin SVD."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise ShapeError(
            f"x has {x.shape[0]} rows but y has {y.shape[0]}"
        )
    if gf.q_mat.shape[0] != x.shape[1]:
        raise ShapeError("gram factors do not match the design matrix")
    h = (gf.q_mat.T @ (x.T @ y)) / gf.s[:, None]
    return HFactor(h=h, svd=thin_svd(h))


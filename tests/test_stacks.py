"""A stack of fits equals its slices fitted one at a time, bit for bit.

`eval_splits` fits, scores and holds out several splits as one stack through
the kernels a single fit uses, so every stacked result must equal (==) the
result of the same call on each slice alone.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from rrdof.dof import exact_df_path
from rrdof.estimators import fit_ols, hard_rows
from rrdof.exceptions import SaturationError, ShapeError
from rrdof.linalg import gram_factors, thin_svd
from rrdof.pipeline import _mspe_path
from rrdof.selection import Criterion, rss_path, select_ranks

CRITERIA = {f"{kind}_{mode}": Criterion(kind=kind, df_mode=mode, sigma2=1.0 if kind == "cp" else None)
            for kind in ("cp", "gcv", "bic") for mode in ("exact", "naive")}


def design_shape(kind, rng):
    """(n, p, q) of a tall (n > p <= q), wide (n < p) or q < r_x design."""
    if kind == "tall":
        p = int(rng.integers(2, 7))
        return p + int(rng.integers(2, 10)), p, p + int(rng.integers(0, 4))
    if kind == "wide":
        n = int(rng.integers(3, 9))
        return n, n + int(rng.integers(1, 7)), int(rng.integers(2, 9))
    p = int(rng.integers(4, 9))
    return p + int(rng.integers(2, 10)), p, int(rng.integers(1, p))


def stacked_problem(seed, kind, size):
    """Stacked training and held-out halves. Some slices have a response of
    exact rank k < r_bar (no noise), so their spectra end in vanished tails
    of different lengths."""
    rng = np.random.default_rng(seed)
    n, p, q = design_shape(kind, rng)
    x = rng.standard_normal((size, 2 * n, p))
    y = np.empty((size, 2 * n, q))
    r_bar = min(n, p, q)
    for i in range(size):
        k = int(rng.integers(1, r_bar + 1))
        if k < r_bar:
            y[i] = x[i] @ rng.standard_normal((p, k)) @ rng.standard_normal((k, q))
        else:
            y[i] = x[i] @ rng.standard_normal((p, q)) + rng.standard_normal((2 * n, q))
    return x[:, :n], y[:, :n], x[:, n:], y[:, n:]


def assert_same(a, b):
    assert a.shape == b.shape and np.array_equal(a, b)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["tall", "wide", "q<r_x"]),
       size=st.integers(1, 5))
def test_stack_equals_each_slice_bit_for_bit(seed, kind, size):
    x, y, x_te, y_te = stacked_problem(seed, kind, size)
    ls = fit_ols(x, y)
    ranks = list(range(1, ls.r_bar + 1))
    rss = rss_path(ls, ranks)
    rows = hard_rows(ranks, ls.r_bar)
    df, flags = exact_df_path(ls.d, ls.gram.r_x, y.shape[-1], *rows)
    mspe = _mspe_path(ls, x_te, y_te)
    chosen, singles = chosen_ranks(ls), []
    for i in range(size):
        one = fit_ols(x[i], y[i])
        assert one.r_bar == ls.r_bar and one.gram.r_x == ls.gram.r_x
        for got, want in [(ls.y_hat[i], one.y_hat), (ls.hf.h[i], one.hf.h), (ls.d[i], one.d),
                          (ls.hf.svd.left[i], one.hf.svd.left), (ls.hf.svd.right[i], one.hf.svd.right),
                          (ls.gram.q_mat[i], one.gram.q_mat), (ls.gram.s[i], one.gram.s)]:
            assert_same(got, want)
        assert_same(rss[i], rss_path(one, ranks))
        one_df, one_flags = exact_df_path(one.d, one.gram.r_x, y.shape[-1], *rows)
        assert_same(df[i], one_df)
        assert_same(flags[i], one_flags)
        assert_same(mspe[i], _mspe_path(one, x_te[i], y_te[i]))
        singles.append(chosen_ranks(one))
    # a stack saturates exactly when one of its fits does (an interpolating
    # wide fit can); otherwise every fit chooses its own ranks
    if chosen is None:
        assert None in singles
    else:
        assert singles == [{name: r[i] for name, r in chosen.items()} for i in range(size)]


def chosen_ranks(ls):
    try:
        return {name: rep.chosen for name, rep in select_ranks(ls, CRITERIA).items()}
    except SaturationError:
        return None


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), r_bar=st.integers(2, 8), extra=st.integers(0, 4),
       wide=st.booleans(), size=st.integers(2, 5))
def test_df_path_of_stacked_spectra_with_vanished_tails(seed, r_bar, extra, wide, size):
    rng = np.random.default_rng(seed)
    r_x, q = (r_bar, r_bar + extra) if wide else (r_bar + extra, r_bar)
    d = np.sort(rng.uniform(0.1, 20.0, size=(size, r_bar)), axis=-1)[:, ::-1].copy()
    for i in range(size):  # a vanished tail of a different length per slice
        d[i, r_bar - int(rng.integers(0, r_bar)):] = rng.uniform(0.0, 1e-13)
    rows = hard_rows(range(1, r_bar + 1), r_bar)
    got, flags = exact_df_path(d, r_x, q, *rows)
    for i in range(size):
        one, one_flags = exact_df_path(d[i], r_x, q, *rows)
        assert_same(got[i], one)
        assert_same(flags[i], one_flags)


def test_stacked_designs_that_differ_in_rank_raise():
    rng = np.random.default_rng(90)
    x = rng.standard_normal((3, 10, 4))
    x[1, :, 3] = 0.0  # rank 3 against 4
    y = rng.standard_normal((3, 10, 2))
    with pytest.raises(ShapeError, match="differ in rank: 3 and 4"):
        gram_factors(x)
    with pytest.raises(ShapeError, match="differ in rank"):
        fit_ols(x, y)
    assert fit_ols(x[1], y[1]).gram.r_x == 3  # each slice alone fits


def test_stacks_must_match():
    rng = np.random.default_rng(91)
    x = rng.standard_normal((3, 10, 4))
    with pytest.raises(ShapeError, match="x has 10 rows but y has 9"):
        fit_ols(x, rng.standard_normal((3, 9, 2)))
    with pytest.raises(ShapeError, match="stack"):
        fit_ols(x, rng.standard_normal((2, 10, 2)))
    with pytest.raises(ShapeError, match="gram factors do not match"):
        fit_ols(x, rng.standard_normal((3, 10, 2)), gram=gram_factors(x[:2]))


def test_thin_svd_of_a_stack_keeps_the_sign_convention():
    m = np.random.default_rng(92).standard_normal((2, 3, 5, 4))
    f = thin_svd(m)
    for idx in np.ndindex(2, 3):
        one = thin_svd(m[idx])
        assert_same(f.left[idx], one.left)
        assert_same(f.d[idx], one.d)
        assert_same(f.right[idx], one.right)

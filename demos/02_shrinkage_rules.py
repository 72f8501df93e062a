"""Singular-value shrinkage beyond hard truncation.

Reduced-rank regression keeps or kills singular values; soft and adaptive
thresholding shrink them smoothly instead. The same closed-form df covers the
whole family: a weight term, a subspace-search term, and a derivative term
for rules that move continuously with the data.
"""

import numpy as np

from rrdof import adaptive, exact_df_shrunk, fit_ols, fit_shrunk, soft
from rrdof.selection import lambda_grid

rng = np.random.default_rng(11)
n, p, q, r0 = 80, 10, 8, 3
x = rng.standard_normal((n, p))
b = 2.5 * rng.standard_normal((p, r0)) @ rng.standard_normal((r0, q))
y = x @ b + rng.standard_normal((n, q))

ls = fit_ols(x, y)
r_x = ls.gram.r_x
print(f"least-squares singular values: {np.round(ls.d, 2)}")

print()
print("df along the soft-thresholding path (8 log-spaced penalties):")
print(f"{'lambda':>10} {'kept':>5} {'df':>10} {'rss':>12}")
for lam in lambda_grid(float(ls.d[0]), size=8):
    rule = soft(float(lam))
    s, sp = rule.weights(ls.d)
    df = exact_df_shrunk(ls.d, r_x, q, s, sp).value
    rss = float(np.sum((y - fit_shrunk(ls, rule)) ** 2))
    print(f"{lam:>10.4f} {np.count_nonzero(s):>5} {df:>10.4f} {rss:>12.2f}")

print()
print("Adaptive thresholding shrinks large singular values less than soft")
print("thresholding at the same penalty:")
lam = 0.5 * float(ls.d[0])
for name, rule in [("soft", soft(lam)), ("adaptive", adaptive(lam))]:
    print(f"  {name:>8}: shrunk values {np.round(rule.weights(ls.d)[0] * ls.d, 3)}")

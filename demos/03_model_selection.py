"""Rank selection with exact vs naive degrees of freedom.

Cp, GCV, and BIC all penalize fit complexity through df. Feeding them the
naive parameter count under-penalizes ranks just past the truth (where the
subspace-search cost spikes), so the naive variants overselect. This script
reproduces that effect on a small seeded study.
"""

import numpy as np

from rrdof import Criterion, fit_ols, select_rank
from rrdof.simbench import SimConfig, gen_instance

cfg = SimConfig(n=50, p=12, q=10, r0=3, sigma2=1.0, rho=0.5, reps=60, seed=13)
print(f"true rank r0 = {cfg.r0}; {cfg.reps} replications\n")

counts = {("gcv", "exact"): {}, ("gcv", "naive"): {},
          ("bic", "exact"): {}, ("bic", "naive"): {}}
for t in range(cfg.reps):
    x, _, y, _ = gen_instance(cfg, t)
    ls = fit_ols(x, y)
    for kind, mode in counts:
        crit = Criterion(kind=kind, df_mode=mode)
        r = select_rank(ls, crit).chosen
        counts[(kind, mode)][r] = counts[(kind, mode)].get(r, 0) + 1

for (kind, mode), hist in counts.items():
    dist = ", ".join(f"rank {r}: {c}" for r, c in sorted(hist.items()))
    print(f"{kind}/{mode:<5}  {dist}")

print()
print("One replication in detail (GCV):")
x, _, y, _ = gen_instance(cfg, 0)
ls = fit_ols(x, y)
exact = select_rank(ls, Criterion(kind="gcv"))
naive = select_rank(ls, Criterion(kind="gcv", df_mode="naive"))
print(f"{'rank':>4} {'rss':>10} {'df exact':>10} {'df naive':>10} "
      f"{'gcv exact':>10} {'gcv naive':>10}")
for i, r in enumerate(exact.candidates):
    print(f"{r:>4} {exact.residual_ss[i]:>10.1f} "
          f"{exact.df_used[i]:>10.2f} {naive.df_used[i]:>10.2f} "
          f"{exact.scores[i]:>10.4f} {naive.scores[i]:>10.4f}")
print(f"\nchosen: exact df -> rank {exact.chosen}, naive df -> rank {naive.chosen}")

"""Three independent routes to the same chain count.

A ring of n nodes with a sharp-window kernel admits an exact combinatorial
expectation for the number of k-intermediary chains between two pinned
nodes.  The same quantity has a continuum series formula and a Monte Carlo
estimate.  This script computes all three and reports the spread, both at
a reachable gap and at a gap beyond the chain's reach where every route
must give zero.
"""

import math

from ringnet import (
    UniformWindow,
    chain_count_leading,
    discrete_chain_count,
    estimate_chain_counts,
    uniform_window_series,
)

n = 256
kernel = UniformWindow(0.2, 0.6)
radius = n / (2.0 * math.pi)
series = uniform_window_series(kernel, 8192)
trials = 2000

print(f"ring of {n} nodes, p={kernel.p}, half-width={kernel.half_width}")
print(f"{'k':>2} {'offset':>7} {'discrete exact':>15} {'continuum':>12} {'monte carlo':>18}")
for k, offset in ((1, 20), (1, 40), (2, 30), (2, 60)):
    gap = 2.0 * math.pi * offset / n
    exact = discrete_chain_count(n, kernel, k, offset).reduced
    cont = chain_count_leading(series, radius, k, gap)
    mc = estimate_chain_counts(n, kernel, offset, (k,), trials, master_seed=7)[0]
    print(f"{k:>2} {offset:>7} {exact:>15.6f} {cont:>12.6f} "
          f"{mc.mean:>11.4f} +- {mc.std_error:.4f}")

# beyond reach: k+1 hops of at most half-width each cannot bridge the gap,
# so the expectation is exactly zero on every route
offset = 100
gap = 2.0 * math.pi * offset / n
for k in (1, 2):
    assert (k + 1) * kernel.half_width < gap
    exact = discrete_chain_count(n, kernel, k, offset).reduced
    mc = estimate_chain_counts(n, kernel, offset, (k,), 500, master_seed=7)[0]
    print(f"\nk={k} at offset {offset} (gap {gap:.3f} > reach "
          f"{(k + 1) * kernel.half_width:.3f}):")
    print(f"  discrete {exact}, monte carlo {mc.mean} over {mc.trials} trials")

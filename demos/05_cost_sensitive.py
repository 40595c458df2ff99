"""Task selection when opening a task costs money.

Under a saltus cost (free up to a threshold, then a fixed charge plus a
linear rate) the number of tasks sampled above the threshold dominates
the bill. cost_aware_allocate is plain water-filling on the minimum-L1
mixture with its dead band set to zero: a floored water-filling leaves
every task off the support at the floor, so the above-floor budget goes
to at most k tasks. The saving comes from that sparsity; uniform
sampling pays the fixed charge on every task.
"""

import numpy as np

from amtrl import (
    allocate_fixed_nu,
    cost_aware_allocate,
    eval_cost,
    l1_oracle_lp,
    make_almost_sparse_instance,
    saltus_cost,
)


def main():
    gt, _ = make_almost_sparse_instance(
        d=8, k=5, T=50, sigma_z=0.5, seed=990000,
        spectrum=(5.0, 4.0, 3.0, 2.0, 1.0))
    fns = [saltus_cost(C_fix=100.0, C_var=1.0, N_free=20)] * 50
    N, F = 3000, 20

    nu1 = l1_oracle_lp(gt.W_star, gt.w_target_star)
    aware = cost_aware_allocate(nu1, N, F)
    uniform = allocate_fixed_nu(np.ones(50), N, 0, strategy="passive")

    c_aware = eval_cost(aware, None, fns)
    c_unif = eval_cost(uniform, None, fns)
    print(f"budget {N} over 50 tasks, free threshold 20, "
          "fixed charge 100 per opened task:")
    print(f"  min-L1 support size: {int(np.sum(np.abs(nu1) > 1e-9))}")
    print(f"  cost-aware: {int(np.sum(aware.n > 20))} tasks above the "
          f"threshold, cost {c_aware:.0f}")
    print(f"  uniform:    {int(np.sum(uniform.n > 20))} tasks above the "
          f"threshold, cost {c_unif:.0f}")
    print(f"  cost ratio: {c_aware / c_unif:.3f}")


if __name__ == "__main__":
    main()

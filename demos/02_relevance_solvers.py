"""Three ways to solve W nu = w, and why the L1 one is special.

On a target that is almost reachable through a single source task, the
minimum-L2 solution spreads weight everywhere while the minimum-L1
solution concentrates on at most k tasks. The Lasso homotopy path, run
down to a tiny penalty, lands on the same answer as the exact LP.
"""

import numpy as np

from amtrl import (
    kkt_residual,
    l1_oracle_lp,
    lasso,
    make_almost_sparse_instance,
    min_l2_solution,
    support_size,
)


def main():
    gt, nu_ref = make_almost_sparse_instance(d=20, k=5, T=40, sigma_z=0.5,
                                             seed=3)
    W, w = gt.W_star, gt.w_target_star

    nu_l2 = min_l2_solution(W, w)
    nu_lp = l1_oracle_lp(W, w)
    lam = 1e-8
    nu_lasso, info = lasso(W, w, lam)

    print(f"instance: k={gt.k}, T={gt.T}; reference mixture has "
          f"{support_size(nu_ref)} nonzeros")
    print(f"{'solver':<12} {'||nu||_1':>10} {'||nu||_2':>10} {'support':>8}")
    for name, nu in (("min-L2", nu_l2), ("exact LP", nu_lp),
                     ("lasso", nu_lasso)):
        print(f"{name:<12} {np.abs(nu).sum():>10.4f} "
              f"{np.linalg.norm(nu):>10.4f} {support_size(nu):>8d}")

    gap = abs(np.abs(nu_lasso).sum() - np.abs(nu_lp).sum())
    print(f"\nlasso vs LP optimal-value gap: {gap:.3e}")
    print(f"lasso KKT residual at lam={lam:g}: "
          f"{kkt_residual(W, w, nu_lasso, lam):.3e}")
    print(f"lasso path steps: {info['sweeps']}, "
          f"converged: {info['converged']}")
    print(f"\nresidual ||W nu - w|| per solver: "
          f"L2 {np.linalg.norm(W @ nu_l2 - w):.2e}, "
          f"LP {np.linalg.norm(W @ nu_lp - w):.2e}, "
          f"lasso {np.linalg.norm(W @ nu_lasso - w):.2e}")


if __name__ == "__main__":
    main()

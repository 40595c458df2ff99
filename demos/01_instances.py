"""Tour of the synthetic instance factories.

Builds one instance of each kind (random, almost_sparse), prints the
geometry that matters for sampling decisions, and round-trips one through
JSON.
"""

import tempfile

import numpy as np

from amtrl import (
    load_instance,
    make_almost_sparse_instance,
    make_random_instance,
    sample_task,
    save_instance,
)


def main():
    gt = make_random_instance(d=20, k=4, T=12, sigma_z=0.5,
                              sigma_min_floor=0.5, seed=0)
    print("random instance:")
    print(f"  d={gt.d}, k={gt.k}, T={gt.T}, sigma_z={gt.sigma_z}")
    print(f"  sigma_min(W*)={gt.sigma_min_w():.3f}, "
          f"sigma_max(W*)={gt.sigma_max_w():.3f}")
    ds = sample_task(gt, 0, 5, seed=0)
    print(f"  task 0 sample: X {ds.X.shape}, Y {ds.Y.shape}")

    _, nu_ref = make_almost_sparse_instance(d=20, k=4, T=12, sigma_z=0.5,
                                            seed=0)
    print("\nalmost-1-sparse instance:")
    print(f"  reference nu: dominant entry {nu_ref[0]:.4f}, "
          f"others {nu_ref[1]:.4f}")
    print(f"  ||nu_ref||_1 = {np.abs(nu_ref).sum():.4f}, "
          f"||nu_ref||_2 = {np.linalg.norm(nu_ref):.4f}")


    with tempfile.NamedTemporaryFile(suffix=".json") as fh:
        save_instance(gt, fh.name)
        back = load_instance(fh.name)
    same = np.array_equal(back.W_star, gt.W_star)
    print(f"\nJSON round trip preserves W* exactly: {same}")


if __name__ == "__main__":
    main()

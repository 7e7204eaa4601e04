# The shipped kernel families: their order and certified sup bound k_max,
# and the vanishing moments of the bias-reducing fourth-order gaussian.

import numpy as np

from dyadreg.kernels import KERNEL_IDS, kernel_moment, make_kernel


def main():
    print(f"{'id':>14} {'dim':>4} {'order':>6} {'k_max':>10}")
    for kid in KERNEL_IDS:
        k = make_kernel(kid, 2)
        print(f"{kid:>14} {k.dim:>4} {k.order:>6} {k.k_max:10.5f}")

    print("\nmoments of the fourth-order gaussian factor (should vanish up to 3):")
    k4 = make_kernel("gaussian_o4", 1)
    for j in range(5):
        print(f"  int u^{j} K(u) du = {kernel_moment(k4, np.array([j])):+.2e}")


if __name__ == "__main__":
    main()

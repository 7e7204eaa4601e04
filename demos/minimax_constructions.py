# Numerical tour of the risk lower-bound constructions: the two-hypothesis
# (Le Cam) pair and the packing (Fano) family, with their Gaussian KL
# divergences evaluated through the dyad-to-unit selection structure.

import numpy as np

from dyadreg.minimax import (build_selection, fano_kl_average, kl_two_point,
                             make_fano, make_two_point, separation_check,
                             woodbury_sides)


def main():
    print("== selection structure ==")
    sel = build_selection(2)
    rows = np.arange(len(sel.pair_i))
    half = np.zeros((len(rows), sel.n_units))
    half[rows, sel.pair_i] = half[rows, sel.pair_j] = 1.0
    t = np.vstack([half, half])  # both directions of each dyad load the same units
    print("N=2 error covariance I + T T^T:")
    print(np.eye(len(t)) + t @ t.T)

    sel = build_selection(120)
    rng = np.random.default_rng(0)
    lhs, rhs = woodbury_sides(sel, rng.standard_normal(120))
    print(f"N=120 Woodbury identity: big-system route {lhs:.10f} vs N x N core {rhs:.10f}")

    print("\n== two-point construction (beta=2, L=1, c0=1, d_x=1) ==")
    con = make_two_point(2.0, 1.0, 1.0, 1)
    for n in (10, 50, 100):
        rep = kl_two_point(con, n, 400, seed=3)
        print(f"N={n:>3}: KL = {rep.kl_mean:.3e} +- {rep.kl_se:.1e}   bound {rep.bound:.3e}")
    w0 = np.concatenate(con.centers)
    sep = separation_check(con, 1, 0, [w0], 100)
    print(f"separation at the centers: gap {sep.gap:.3e} >= required {sep.required:.3e}")

    print("\n== fano packing (c0=0.5 keeps the supports disjoint at desk scale) ==")
    fano = make_fano(2.0, 1.0, 0.5, 1)
    for n in (50, 200, 400):
        rep = fano_kl_average(fano, n, 200, seed=4)
        print(f"N={n:>3}: M_N={rep.n_hypotheses}  avg KL {rep.avg_kl:.3e} <= bound {rep.bound:.3e}; "
              f"ln M_N {rep.ln_m_n:.3f} >= {rep.ln_m_lower:.3f}")


if __name__ == "__main__":
    main()

"""k-cores and k-connectivity along the process.

The k-core (iteratively peeling vertices of degree < k) is the natural
home of k-connectivity: once the minimum degree reaches k, the process
graph is typically already k-connected. On small cores the exact
(alpha, k) attack search decides resilience outright.
"""

from fractions import Fraction

from process_resilience import (
    BudgetRule,
    find_k_conn_attack,
    hitting_time_k_connectivity,
    hitting_time_min_degree,
    is_k_connected,
    k_core,
    sample_gnm,
    sample_process,
)
from process_resilience.experiments import ExperimentConfig, run_study


def main():
    print("tau_k vs tau_k-conn on seeded traces (k = 2)")
    print("=" * 60)
    for n in (64, 256):
        hits = 0
        for seed in range(10):
            trace = sample_process(n, seed)
            tk = hitting_time_min_degree(trace, 2)
            tkc = hitting_time_k_connectivity(trace, 2)
            hits += tk == tkc
        print(f"  n = {n:4d}: tau_2 = tau_2-conn in {hits}/10 traces")

    print()
    print("2-core size and connectivity across density (study, n = 256)")
    print("=" * 60)
    cfg = ExperimentConfig(study="kcore", ns=(256,), k=2, trials=25, seed=11,
                           m_factors=(0.8, 1.2, 2.0), epsilon="1/10")
    result = run_study(cfg)
    print(f"{'m':>6} {'core frac':>10} {'core 2-conn':>12} {'tau_2=tau_2c':>13}")
    for row in result.summary.rows:
        if row.get("trials"):
            print(f"{row['m']:>6} {row['core_frac_mean']:>10.2f} "
                  f"{row.get('core_k_connected_rate', float('nan')):>12.2f} "
                  f"{row['tau_equal_k_rate']:>13.2f}")

    print()
    print("Exact (alpha, 2) attack search on a small dense core")
    print("=" * 60)
    g = sample_gnm(10, 36, 3)
    core = k_core(g, 2)
    print(f"  2-core: {core.n} vertices, {core.m} edges, "
          f"2-connected: {is_k_connected(core, 2)}")
    for alpha in (Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)):
        rule = BudgetRule(alpha, 2)
        cut = find_k_conn_attack(core, rule, 2)
        if cut is None:
            print(f"  alpha = {alpha}: no certificate — (alpha, 2)-resilient")
        else:
            print(f"  alpha = {alpha}: certificate S = {sorted(cut.separator)}, "
                  f"sides {len(cut.side_a)}/{len(cut.side_b)}")


if __name__ == "__main__":
    main()

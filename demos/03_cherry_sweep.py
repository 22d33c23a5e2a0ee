"""The cherry obstruction across edge density.

A cherry (two degree-1 vertices sharing a degree-3 neighbour) lets an
adversary disconnect the giant by removing a single edge, staying within a
1/3 budget at both endpoints. Cherries are common below the m ~ n log n / 6
scale and vanish above it; this sweep locates the 50% crossing point.
"""

import math

from process_resilience import BudgetRule, budget_allows, cherry_attack, giant_component, sample_gnm
from process_resilience.experiments import ExperimentConfig, run_study


def main():
    n = 2048
    base = n * math.log(n) / 6
    factors = (0.4, 0.7, 1.0, 1.4, 2.0, 3.0)
    cfg = ExperimentConfig(study="sweep", ns=(n,), trials=40, seed=33,
                           m_factors=factors, delta=0.5)
    print(f"Cherry rate in the giant of G(n, m), n = {n}, "
          f"m = factor * n log n / 6 = factor * {base:.0f}")
    print("=" * 66)
    result = run_study(cfg)
    print(f"{'factor':>8} {'m':>8} {'cherry rate':>12} {'95% Wilson':>20}")
    rows = [r for r in result.summary.rows if r.get("trials")]
    for factor, row in zip(factors, rows):
        print(f"{factor:>8} {row['m']:>8} {row['cherry_present_rate']:>12.2f} "
              f"[{row['cherry_present_lo']:.2f}, {row['cherry_present_hi']:.2f}]")
    crossing = next(r["cherry_rate_crossing_m"] for r in result.summary.rows
                    if "cherry_rate_crossing_m" in r)
    print(f"\ncherry rate falls below 50% at m = {crossing} "
          f"(~{crossing / base:.2f} of n log n / 6)")

    print()
    print("One cherry, end to end")
    print("=" * 66)
    for seed in range(200):
        g = giant_component(sample_gnm(n, int(0.6 * base), seed))
        edge = cherry_attack(g)
        if edge is None:
            continue
        ok = budget_allows(g, [edge], BudgetRule("1/3"))
        print(f"  seed {seed}: removing edge {edge} "
              f"(original labels {tuple(g.original_label(v) for v in edge)}) "
              f"disconnects the giant; within the 1/3 budget: {ok}")
        break


if __name__ == "__main__":
    main()

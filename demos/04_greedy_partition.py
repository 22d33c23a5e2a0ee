"""The greedy partition attack at scale.

Above the connectivity threshold an adversary allowed slightly more than
half of each vertex's edges can disconnect the giant. The construction:
random equipartition, drop the atypical and crossing-heavy vertices,
reinsert them greedily to their majority side, then rearrange the remaining
violators. The resulting cut satisfies the per-vertex star condition
cross(v) <= (1/2 + eps) deg(v), which makes the crossing set a feasible
adversary subgraph.
"""

import math
from fractions import Fraction

from process_resilience import (
    attack_ratios,
    classify_vertices,
    crossing_edges,
    giant_component,
    greedy_partition_attack,
    pair_count,
    replay_cut,
    sample_gnm,
    BudgetRule,
)


def main():
    n = 2048
    m = math.ceil(n * math.log(n))
    p1 = m / pair_count(n)
    eps = Fraction(1, 10)
    print(f"n = {n}, m = {m} (avg degree {2 * m / n:.1f}), eps = {eps}")
    print("=" * 66)
    for seed in range(5):
        giant = giant_component(sample_gnm(n, m, seed))
        cls = classify_vertices(giant, p1, 0.5)
        outcome = greedy_partition_attack(giant, cls, 0.7 * giant.n * p1,
                                          eps, seed)
        h = crossing_edges(giant, outcome.cut)
        worst = max(attack_ratios(giant, h).values())
        d = outcome.diagnostics
        print(f"  seed {seed}: sides {len(outcome.cut.side_a)}/"
              f"{len(outcome.cut.side_b)}, |H| = {len(h)}, "
              f"worst ratio {worst} ({float(worst):.3f}), "
              f"reinserted {d['removed']}, moves {d['moves']}, "
              f"star condition: {outcome.satisfied}")
        if seed == 0:
            verdict = replay_cut(giant, outcome.cut,
                                 BudgetRule(Fraction(1, 2) + eps))
            print(f"    replay under alpha = 1/2 + eps: {verdict}")


if __name__ == "__main__":
    main()

"""Exact connectivity-resilience thresholds and their witness cuts.

The threshold alpha* of a connected graph is the smallest per-vertex budget
fraction at which some bipartition's crossing edges become a feasible
adversary subgraph. Cycles sit at exactly 1/2; cliques at ceil(n/2)/(n-1);
and the local-search upper bound tracks the exact value on small graphs.
"""

from fractions import Fraction

from process_resilience import (
    BudgetRule,
    build_graph,
    connectivity_resilience_threshold,
    find_disconnecting_attack,
    replay_cut,
    sample_gnm,
    is_connected,
)


def clique(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def ring(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def main():
    print("Exact thresholds with witnesses")
    print("=" * 64)
    for name, g in [("C_8", ring(8)), ("K_6", clique(6)), ("K_7", clique(7))]:
        rep = connectivity_resilience_threshold(g)
        wit = rep.witness
        print(f"  {name}: alpha* = {rep.threshold}  "
              f"witness sides {sorted(wit.side_a)} | {sorted(wit.side_b)}")

    print()
    print("The threshold is sharp: attack exists at alpha*, none just below")
    print("=" * 64)
    g = ring(8)
    alpha_star = connectivity_resilience_threshold(g).threshold
    at = find_disconnecting_attack(g, BudgetRule(alpha_star))
    below = find_disconnecting_attack(
        g, BudgetRule(alpha_star - Fraction(1, 100)))
    print(f"  C_8 at alpha = {alpha_star}: cut found = {at is not None}")
    print(f"  C_8 at alpha = {alpha_star - Fraction(1, 100)}: "
          f"cut found = {below is not None}")
    verdict = replay_cut(g, at, BudgetRule(alpha_star))
    print(f"  certificate replay: {verdict}")

    print()
    print("Local-search upper bound vs exact on random connected graphs")
    print("=" * 64)
    shown = 0
    seed = 0
    while shown < 6:
        g = sample_gnm(10, 16, seed)
        seed += 1
        if not is_connected(g):
            continue
        exact = connectivity_resilience_threshold(g).threshold
        upper = connectivity_resilience_threshold(
            g, mode="local_search", restarts=16, seed=seed).threshold
        tag = "tight" if exact == upper else "loose"
        print(f"  G(10,16) seed {seed - 1}: exact {exact}, "
              f"local-search {upper}  [{tag}]")
        shown += 1


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them live; they also appear in captured output).

All pass thresholds and parameter choices were pilot-calibrated and are
documented inline; the README's "Acceptance status" records the measured
rates.

Criterion 6 audits the structural conditions behind the paper's
resilience proof at pinned, finite parameters (n = 2^12, p0 = 1.2 log n/(3n),
delta = 0.05). Those conditions are whp statements as n -> infinity, and two
of them are false at this n. C4 is false by arithmetic: the typical-degree
band (1 +- 0.05) n p0 = [3.16, 3.49] holds no integer, so every vertex is
atypical and |ATYP| = n > n/log n. The tiny-3-ball half of C2 is false in
every sample: delta n p0 = 0.17, so tiny means isolated in G-, about 147
vertices are, and the fullest radius-3 ball of G+ holds 8 to 14 of them
against the bound 2. So criterion 6 gates what is true at this n (C3 and the
atypical-neighbourhood half of C2), asserts the C4 outcome that the
arithmetic forces, and checks every audit verdict in every sample against
an independent recount (tests/oracles.py), so that a wrong or missed
violation fails the test.
"""

import math
import time
from fractions import Fraction

import pytest

from process_resilience.classify import (audit_atyp_size, audit_neighbourhoods,
                                         classify_vertices)
from process_resilience.experiments import (ExperimentConfig,
                                            comparable_json_bytes,
                                            result_json_bytes, run_study)
from process_resilience.graphs import (build_graph, connected_components,
                                       giant_component, is_connected,
                                       is_k_connected, k_core)
from process_resilience.process import pair_count, sample_coupled, sample_gnm
from process_resilience.resilience import (AttackError, BudgetRule,
                                           budget_allows, cherry_attack,
                                           connectivity_resilience_threshold,
                                           find_disconnecting_attack,
                                           find_k_conn_attack,
                                           greedy_partition_attack, replay_cut)
from process_resilience.rng import derive_seed

from conftest import cherry_gadget, complete, cycle
from oracles import (audit_outcome, budget_caps, connected_graphs_up_to_iso,
                     degree_classes, exists_disconnecting_h,
                     exists_kconn_attack_h, recount_audits)

pytestmark = pytest.mark.slow

MASTER_SEED = 20260810

ALPHAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_exact_thresholds():
    """alpha*(C_n) = 1/2 for 4 <= n <= 12 and alpha*(K_n) = ceil(n/2)/(n-1)
    for 3 <= n <= 12, as exact rationals, in under 10 seconds."""
    t0 = time.time()
    failures = []
    for n in range(4, 13):
        got = connectivity_resilience_threshold(cycle(n)).threshold
        if got != Fraction(1, 2):
            failures.append(("cycle", n, got))
    for n in range(3, 13):
        got = connectivity_resilience_threshold(complete(n)).threshold
        if got != Fraction(-(-n // 2), n - 1):
            failures.append(("complete", n, got))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10
    report(1, ok, f"cycles and cliques n<=12 exact, {elapsed:.1f}s (<10s)")
    assert not failures, failures
    assert elapsed < 10, elapsed


def _random_connected_graphs(count, max_n):
    out = []
    attempt = 0
    while len(out) < count:
        seed = derive_seed(MASTER_SEED, 2, attempt)
        attempt += 1
        n = 4 + seed % (max_n - 3)
        m = min(pair_count(n), n - 1 + seed // 7 % 6)
        g = sample_gnm(n, m, seed)
        if is_connected(g):
            out.append(g)
    return out


def test_criterion_2_oracle_equivalence():
    """find_disconnecting_attack and find_k_conn_attack agree with the naive
    enumerate-all-H oracles: on every connected graph with n <= 7 (one
    representative per isomorphism class; both sides are isomorphism
    invariant and the labeled family is far beyond the runtime budget), on
    200 seeded random connected graphs with n <= 10, and for k in {2, 3} on
    the k-connected classes with n <= 7. Runtime < 10 min."""
    t0 = time.time()
    corpus = connected_graphs_up_to_iso(7)
    mismatches = []
    checks = 0
    for g in corpus:
        for alpha in ALPHAS:
            cut = find_disconnecting_attack(g, BudgetRule(alpha))
            oracle = exists_disconnecting_h(g, budget_caps(g, alpha))
            checks += 1
            if (cut is not None) != oracle:
                mismatches.append((g.edges, alpha, "conn"))
    for g in _random_connected_graphs(200, 10):
        for alpha in ALPHAS:
            cut = find_disconnecting_attack(g, BudgetRule(alpha))
            oracle = exists_disconnecting_h(g, budget_caps(g, alpha))
            checks += 1
            if (cut is not None) != oracle:
                mismatches.append((g.edges, alpha, "conn-random"))
    for g in corpus:
        for k in (2, 3):
            if not is_k_connected(g, k):
                continue
            for alpha in ALPHAS:
                rule = BudgetRule(alpha, k)
                cut = find_k_conn_attack(g, rule, k)
                oracle = exists_kconn_attack_h(g, budget_caps(g, alpha, k), k)
                checks += 1
                if (cut is not None) != oracle:
                    mismatches.append((g.edges, alpha, f"kconn-{k}"))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600
    report(2, ok, f"{checks} oracle comparisons agree, {elapsed:.0f}s (<600s)")
    assert not mismatches, mismatches[:5]
    assert elapsed < 600, elapsed


def test_criterion_3_cherry_obstruction():
    """On the explicit gadget the cherry attack returns the anchor edge;
    replaying it through the 1/3 budget and the component decomposition
    certifies disconnection. Zero tolerance."""
    g = cherry_gadget()
    edge = cherry_attack(g)
    ok = edge == (2, 3)
    ok = ok and budget_allows(g, [edge], BudgetRule("1/3"))
    rest = build_graph(g.n, [e for e in g.edges if e != edge])
    comps = connected_components(rest)
    ok = ok and len(comps) == 2 and frozenset({0, 1, 2}) in comps
    report(3, ok, f"edge {edge}, split certified under alpha = 1/3")
    assert edge == (2, 3)
    assert budget_allows(g, [edge], BudgetRule("1/3"))
    assert len(comps) == 2 and frozenset({0, 1, 2}) in comps


def test_criterion_4_greedy_partition_attack():
    """At n = 4096, m = ceil(n log n), eps = 1/10 the greedy partition
    attack satisfies the star condition in >= 90 of 100 seeded trials.
    Pilot-calibrated free parameters (documented): delta = 0.5 and
    d_threshold = 0.7 * n * p1; the pilot measured 99/100 at this setting
    (and 0/100 for every setting under the tiny-only rearrangement variant,
    which is why the rearrangement pass covers all star-violating vertices
    — see the README's "Acceptance status"). Runtime < 5 min."""
    t0 = time.time()
    n = 4096
    m = math.ceil(n * math.log(n))
    p1 = m / pair_count(n)
    delta = 0.5
    d_threshold = 0.7 * n * p1
    satisfied = 0
    for t in range(100):
        g = giant_component(sample_gnm(n, m, derive_seed(MASTER_SEED, 4, t)))
        cls = classify_vertices(g, p1, delta)
        try:
            outcome = greedy_partition_attack(g, cls, d_threshold,
                                              Fraction(1, 10),
                                              derive_seed(MASTER_SEED, 4, t, 1))
            satisfied += outcome.satisfied
        except AttackError:
            pass
    elapsed = time.time() - t0
    ok = satisfied >= 90 and elapsed < 300
    report(4, ok, f"star condition satisfied {satisfied}/100 (>=90), "
                  f"{elapsed:.0f}s (<300s)")
    assert satisfied >= 90, satisfied
    assert elapsed < 300, elapsed


def test_criterion_5_hitting_time_concordance():
    """fraction(tau_1 = tau_conn) over 200 trials is nondecreasing across
    n in {2^8, 2^10, 2^12} (one inversion allowed within Wilson intervals)
    and exceeds 0.85 at n = 2^12 (pilot: 0.97 / 1.0 / 1.0). Runtime < 10 min."""
    t0 = time.time()
    cfg = ExperimentConfig(study="hitting", ns=(256, 1024, 4096), trials=200,
                           seed=MASTER_SEED, measure_resilience=False,
                           exact_n_limit=0)
    rows = run_study(cfg).summary.rows
    rates = [(row["n"], row["tau_equal_rate"], row["tau_equal_lo"],
              row["tau_equal_hi"]) for row in rows]
    inversions = []
    for (n1, r1, lo1, hi1), (n2, r2, lo2, hi2) in zip(rates, rates[1:]):
        if r2 < r1:
            inversions.append((n1, n2, r1, r2, lo1 <= hi2))
    within = all(overlap for *_, overlap in inversions)
    elapsed = time.time() - t0
    final_rate = rates[-1][1]
    ok = (len(inversions) <= 1 and within and final_rate > 0.85
          and elapsed < 600)
    report(5, ok, f"rates {[f'{r:.3f}' for _, r, _, _ in rates]}, "
                  f"{len(inversions)} inversion(s), final {final_rate:.3f} "
                  f"(>0.85), {elapsed:.0f}s (<600s)")
    assert len(inversions) <= 1 and within, (rates, inversions)
    assert final_rate > 0.85, rates
    assert elapsed < 600, elapsed


def test_criterion_6_structural_audits():
    """With n = 2^12, p0 = 1.2 log n/(3n), p' = 0.5 p0, delta = 0.05 and
    L = 30, over 100 coupled samples (classes from G-, audits on G+):

    - in every sample the classes and all four audit reports (tiny-3ball,
      atyp-neighbourhood, triangle-tiny, atyp-size) agree exactly with the
      independent recount in ``oracles``: same holds, max_observed, bound
      and full violation list, so a missed violation fails as surely as a
      false one;
    - C3 (triangle-tiny) and the atypical-neighbourhood half of C2 hold in
      >= 90 of 100 samples;
    - the C4 outcome is derived from the definition alone: the closed
      typical band [(1-delta)np0, (1+delta)np0] holds no integer here, so
      ATYP = V and the atyp-size audit must report |ATYP| = n > n/log n in
      every sample.

    The tiny-3-ball half of C2 has no hold-rate gate: like C4 it is a whp
    statement as n -> infinity and is false at this n (module docstring).
    Its hold rate and per-sample maxima are printed. Runtime < 600 s.
    """
    t0 = time.time()
    n = 2 ** 12
    p0 = 1.2 * math.log(n) / (3 * n)
    p_prime = 0.5 * p0
    delta, L = 0.05, 30
    trials = 100
    scale = n * p0
    lo, hi = (1.0 - delta) * scale, (1.0 + delta) * scale
    assert math.floor(hi) < lo, (lo, hi)  # no integer degree is typical
    everyone = frozenset(range(n))
    mismatches = []
    ball_ok = nbr_ok = tri_ok = c4_as_derived = 0
    ball_maxima = []
    for t in range(trials):
        coupled = sample_coupled(n, p0, p_prime, derive_seed(MASTER_SEED, 6, t))
        cls = classify_vertices(coupled.g_minus, p0, delta)
        reports = [*audit_neighbourhoods(coupled.g_plus, cls, L),
                   audit_atyp_size(cls)]
        tiny, atyp = degree_classes(coupled.g_minus, p0, delta)
        if (cls.tiny, cls.atyp) != (tiny, atyp):
            mismatches.append((t, "classes"))
        expected = recount_audits(coupled.g_plus, tiny, atyp, L)
        for rep, prop in zip(reports, expected):
            if rep.property_id != prop or audit_outcome(rep) != expected[prop]:
                mismatches.append((t, prop))
        ball_rep, nbr_rep, tri_rep, size_rep = reports
        ball_ok += ball_rep.holds
        nbr_ok += nbr_rep.holds
        tri_ok += tri_rep.holds
        ball_maxima.append(int(ball_rep.max_observed))
        c4_as_derived += (atyp == everyone and not size_rep.holds
                          and size_rep.violations[0]["measured"] == n)
    elapsed = time.time() - t0
    ok = (not mismatches and tri_ok >= 90 and nbr_ok >= 90
          and c4_as_derived == trials and elapsed < 600)
    report(6, ok, f"4 audits match the recount in "
                  f"{trials - len({t for t, _ in mismatches})}/{trials} "
                  f"samples; C3 {tri_ok}/100, atyp-neighbourhood "
                  f"{nbr_ok}/100 (each >=90 required); band [{lo:.3f}, "
                  f"{hi:.3f}] holds no integer, C4 violated with |ATYP| = n "
                  f"in {c4_as_derived}/{trials}; tiny-3ball held "
                  f"{ball_ok}/100, max {min(ball_maxima)}-{max(ball_maxima)} "
                  f"(not gated); {elapsed:.0f}s (<600s)")
    assert not mismatches, mismatches[:10]
    assert tri_ok >= 90 and nbr_ok >= 90, (tri_ok, nbr_ok)
    assert c4_as_derived == trials, c4_as_derived
    assert elapsed < 600, elapsed


def test_criterion_7_kcore_attack_oracle_loop():
    """For n <= 12, k = 2, m in {C(n,2), ceil(0.8 C(n,2))}: presence or
    absence of a k-connectivity attack certificate on the 2-core at
    alpha = 1/3 matches the naive H-enumeration oracle on every instance
    (three seeded samples per grid point). Runtime < 10 min."""
    t0 = time.time()
    alpha = Fraction(1, 3)
    rule = BudgetRule(alpha, 2)
    mismatches = []
    instances = 0
    for n in range(4, 13):
        for m in (pair_count(n), math.ceil(0.8 * pair_count(n))):
            for t in range(3):
                g = sample_gnm(n, m, derive_seed(MASTER_SEED, 7, n, m, t))
                core = k_core(g, 2)
                if core.n == 0 or not is_k_connected(core, 2):
                    continue
                instances += 1
                cut = find_k_conn_attack(core, rule, 2)
                oracle = exists_kconn_attack_h(core, budget_caps(core, alpha, 2), 2)
                if (cut is not None) != oracle:
                    mismatches.append((n, m, t))
                if cut is not None:
                    assert replay_cut(core, cut, rule)["valid"]
    elapsed = time.time() - t0
    ok = not mismatches and instances >= 40 and elapsed < 600
    report(7, ok, f"{instances} instances agree with the oracle, "
                  f"{elapsed:.0f}s (<600s)")
    assert not mismatches, mismatches
    assert instances >= 40, instances
    assert elapsed < 600, elapsed


def test_criterion_8_reproducibility():
    """Identical configs give byte-identical JSON (timestamp excluded),
    including across different thread counts, for two study types."""
    hit = dict(study="hitting", ns=(64,), trials=10, seed=MASTER_SEED,
               measure_resilience=False, exact_n_limit=0)
    audit = dict(study="audit", ns=(128,), trials=4, seed=MASTER_SEED,
                 epsilon="1/2", p0_factor=1.6, p_prime_factor=0.4,
                 subset_trials=50, delta=0.5, L=12)
    ok = True
    for base in (hit, audit):
        one = result_json_bytes(run_study(ExperimentConfig(**base)))
        two = result_json_bytes(run_study(ExperimentConfig(**base)))
        threaded = result_json_bytes(
            run_study(ExperimentConfig(**{**base, "threads": 3})))
        same_rerun = comparable_json_bytes(one) == comparable_json_bytes(two)
        same_threads = comparable_json_bytes(one) == comparable_json_bytes(threaded)
        ok = ok and same_rerun and same_threads
        assert same_rerun, base["study"]
        assert same_threads, base["study"]
    report(8, ok, "reruns and thread counts byte-identical for hitting and "
                  "audit studies")

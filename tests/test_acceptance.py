"""Acceptance gate: thirteen pinned criteria, one pass/fail line each.

Every test prints exactly one line `[criterion NN] <label>: PASS|FAIL (...)`
before asserting, so a plain pytest run doubles as the acceptance report.
Tolerances are pinned in the assertions, not configurable.
"""
import itertools
import json
import time
from math import factorial

import numpy as np

from snfair.cayley import SymmetricSet, dense_operator, spectrum_report, symmetrize
from snfair.cli import main
from snfair.fairness import Analysis, nested_stabilizer_instance, verify_indicator_degree
from snfair.fourier import degree, inverse, transform, uncertainty_check
from snfair.intersecting import stabilizer_set, intersection_profile
from snfair.partitions import dimension, partitions_of
from snfair.payoffs import (
    CfmmModel,
    JuntaTerm,
    LiquidationModel,
    PayoffFn,
    cfmm_payoff,
    junta_payoff,
    liquidation_payoff,
    random_payoff,
)
from snfair.permutations import Permutation
from snfair.representations import evaluate
from snfair.sequencing import VoteProfile, majority_graph, simulate, valid_orderings
from snfair.sets import OrderingSet


def report(num, label, ok, detail):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_permutation(rng, n):
    return Permutation(tuple(int(x) for x in rng.permutation(n) + 1))


def generator_corpus(n):
    """Every payoff family the package generates, instantiated at size n."""
    deltas = tuple(
        float(m) * (1.0 if i % 2 == 0 else -1.0)
        for i, m in enumerate([1, 1, 2, 2, 3, 3][:n])
    )
    corpus = {f"cfmm_n{n}": cfmm_payoff(CfmmModel(deltas=deltas))}
    if n % 2 == 0:
        k = n // 2
        for c in range(1, k + 1):
            corpus[f"liquidation_k{k}_c{c}"] = liquidation_payoff(
                LiquidationModel(k=k, c=c)
            )
    corpus[f"junta1_n{n}"] = junta_payoff([JuntaTerm(((1, 1),))], n)
    corpus[f"junta2_n{n}"] = junta_payoff([JuntaTerm(((1, 1), (2, 2)))], n)
    return corpus


def test_criterion_01_dimension_identity():
    start = time.perf_counter()
    ok = all(
        sum(dimension(s) ** 2 for s in partitions_of(n)) == factorial(n)
        for n in range(1, 11)
    )
    took = time.perf_counter() - start
    report(1, "dimension identity n=1..10", ok and took < 1.0, f"{took:.3f} s")


def test_criterion_02_representation_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (3, 4, 5, 6):
        shapes = partitions_of(n)
        for _ in range(200):
            p, q, r = (random_permutation(rng, n) for _ in range(3))
            for shape in shapes:
                a, b, c = (evaluate(shape, x) for x in (p, q, r))
                hom2 = np.abs(evaluate(shape, p * q) - a @ b).max()
                hom3 = np.abs(evaluate(shape, (p * q) * r) - a @ b @ c).max()
                orth = np.abs(a @ a.T - np.eye(a.shape[0])).max()
                worst = max(worst, float(hom2), float(hom3), float(orth))
    took = time.perf_counter() - start
    report(
        2,
        "homomorphism/orthogonality residuals, 200 triples per n in 3..6",
        worst <= 1e-10 and took < 30.0,
        f"max residual {worst:.2e}, {took:.1f} s",
    )


def _roundtrip_corpus():
    for seed in range(20):
        yield random_payoff(5, seed=seed)
    for seed in (100, 101, 102):
        yield random_payoff(6, seed=seed)


def test_criterion_03_fourier_roundtrip():
    start = time.perf_counter()
    worst = 0.0
    for f in _roundtrip_corpus():
        back = inverse(transform(f))
        worst = max(worst, float(np.abs(back.values - f.values).max()))
    took = time.perf_counter() - start
    report(
        3,
        "round trip on 20 x S_5 + 3 x S_6",
        worst <= 1e-9 and took < 120.0,
        f"max abs error {worst:.2e}, {took:.1f} s",
    )


def test_criterion_04_plancherel():
    worst = 0.0
    for f in _roundtrip_corpus():
        spec = transform(f)
        energy = float(f.values @ f.values)
        spectral = sum(
            dimension(s) * float(np.linalg.norm(m)) ** 2
            for s, m in spec.blocks.items()
        ) / factorial(f.n)
        worst = max(worst, abs(energy - spectral) / energy)
    report(4, "Plancherel on the round-trip corpus", worst <= 1e-9, f"max rel error {worst:.2e}")


def test_criterion_05_uncertainty_principle():
    start = time.perf_counter()
    failures = []
    for seed in range(100):
        check = uncertainty_check(random_payoff(4, seed=seed))
        if not check.product >= factorial(4) * (1 - 1e-9):
            failures.append(f"random_{seed}")
    for n in (4, 5):
        for label, f in generator_corpus(n).items():
            check = uncertainty_check(f)
            if not check.product >= factorial(n) * (1 - 1e-9):
                failures.append(label)
    eq_worst = 0.0
    for n in (4, 5):
        order = factorial(n)
        delta = uncertainty_check(PayoffFn(n, np.eye(order)[order // 2]))
        const = uncertainty_check(PayoffFn(n, np.full(order, 3.0)))
        eq_worst = max(
            eq_worst,
            abs(delta.product - order) / order,
            abs(const.product - order) / order,
        )
    took = time.perf_counter() - start
    report(
        5,
        "support-spread product >= n! with equality at the extremes",
        not failures and eq_worst <= 1e-12 and took < 120.0,
        f"violations {failures or 'none'}, equality rel err {eq_worst:.2e}, {took:.1f} s",
    )


def test_criterion_06_fairness_exact_cases():
    worst = 0.0
    for n in range(2, 8):
        whole = OrderingSet.full_group(n)
        delta = PayoffFn(n, np.eye(factorial(n))[0])
        const = PayoffFn(n, np.full(factorial(n), 2.0))
        delta_fair = Analysis(delta, whole).fairness
        const_fair = Analysis(const, whole).fairness
        worst = max(
            worst,
            abs(delta_fair.additive_gap - (1 - 1 / factorial(n))),
            abs(const_fair.additive_gap),
        )
        assert delta_fair.classification == "maximally_unfair"
        assert const_fair.classification == "perfectly_fair"
    # Connecting identity on a mixed corpus of analyses.
    rng = np.random.default_rng(6)
    identity_worst = 0.0
    analyses = 0
    for n in (4, 5):
        payoffs = [random_payoff(n, seed=s) for s in range(5)]
        payoffs += list(generator_corpus(n).values())
        sets = [
            OrderingSet.full_group(n),
            stabilizer_set(n, [(1, 1)]),
            stabilizer_set(n, [(1, 1), (2, 2)]),
            OrderingSet.from_ranks(
                n, rng.choice(factorial(n), size=7, replace=False)
            ),
        ]
        for f in payoffs:
            for members in sets:
                vals = f.values[list(members.members)]
                if vals.sum() <= 0.0:
                    continue
                fair = Analysis(f, members).fairness
                gap = fair.additive_gap
                star = fair.multiplicative_gap
                identity_worst = max(
                    identity_worst,
                    abs(gap - float(vals.max()) * (1 - 1 / star)),
                )
                analyses += 1
    report(
        6,
        "exact point-mass/constant gaps (n<=7) + connecting identity",
        worst <= 1e-12 and identity_worst <= 1e-12,
        f"exact err {worst:.2e}, identity err {identity_worst:.2e} over {analyses} analyses",
    )


def test_criterion_07_degree_pins():
    checks = []
    for n in (5, 6):
        checks.append(degree(junta_payoff([JuntaTerm(())], n)) == 0)
        checks.append(degree(junta_payoff([JuntaTerm(((1, 1),))], n)) == 1)
        checks.append(degree(junta_payoff([JuntaTerm(((1, 1), (2, 2)))], n)) == 2)
    support = int(liquidation_payoff(LiquidationModel(k=2, c=1)).values.sum())
    checks.append(support == 16)
    report(
        7,
        "junta degrees k=0,1,2 at n=5,6 and liquidation support 16/24",
        all(checks),
        f"degree flags {checks[:-1]}, support {support}/24",
    )


def test_criterion_08_indicator_degree_claim():
    start = time.perf_counter()
    failures = 0
    total = 0
    for n in (4, 5, 6):
        for t in (1, 2, 3):
            for slots in itertools.combinations(range(1, n + 1), t):
                for items in itertools.permutations(range(1, n + 1), t):
                    members = stabilizer_set(n, list(zip(slots, items)))
                    rep = verify_indicator_degree(members)
                    total += 1
                    if not rep.claim_holds:
                        failures += 1
    took = time.perf_counter() - start
    report(
        8,
        "deg(indicator) >= agreement level on every stabilizer corpus",
        failures == 0,
        f"{total} sets, {failures} failures, {took:.1f} s",
    )


def _fair_ordering_sets(n):
    out = {}
    for seed in (0, 1):
        votes = simulate(n, 5, "iid_shuffle", seed=seed)
        out[f"iid_{seed}"] = valid_orderings(majority_graph(votes))
    if n >= 3:
        votes = simulate(n, n, "adversarial_cycle")
        out["cycle"] = valid_orderings(majority_graph(votes))
    return out


def test_criterion_09_uncertainty_fairness_bound():
    start = time.perf_counter()
    checked = 0
    violations = []
    for n in (4, 5, 6):
        sets = {
            "stab1": stabilizer_set(n, [(1, 1)]),
            "stab2": stabilizer_set(n, [(1, 1), (2, 2)]),
        }
        sets.update(_fair_ordering_sets(n))
        for p_label, f in generator_corpus(n).items():
            for s_label, members in sets.items():
                vals = f.values[list(members.members)]
                if float(np.abs(vals).max()) == 0.0:
                    continue  # bound degenerate: nothing to extract on the set
                rep = Analysis(f, members).uncertainty
                checked += 1
                if rep.additive_gap > rep.bound + 1e-9:
                    violations.append((p_label, s_label))
    took = time.perf_counter() - start
    report(
        9,
        "additive gap <= support-spread bound over the payoff x set corpus",
        checked >= 40 and not violations,
        f"{checked} pairs, violations {violations or 'none'}, {took:.1f} s",
    )


def test_criterion_10_cayley_blocks():
    rng = np.random.default_rng(10)
    worst = 0.0
    flagged = []
    for n in (3, 4):
        conns = {
            "identity": SymmetricSet(n, (0,)),
            "transpositions": SymmetricSet(
                n,
                tuple(
                    sorted(
                        Permutation.transposition(n, i, j).rank()
                        for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)
                    )
                ),
            ),
        }
        for trial in range(2):
            picks = rng.choice(factorial(n), size=3, replace=False)
            conns[f"random_{trial}"] = symmetrize(OrderingSet.from_ranks(n, picks))
        for label, conn in conns.items():
            dense = np.sort(np.linalg.eigvalsh(dense_operator(conn)))
            blocks = np.sort(
                np.concatenate(
                    [
                        np.repeat(
                            np.linalg.eigvalsh(conn.blocks[s]), dimension(s)
                        )
                        for s in partitions_of(n)
                    ]
                )
            )
            worst = max(worst, float(np.abs(dense - blocks).max()))
            if not all(spec.within_bound for spec in spectrum_report(conn).values()):
                flagged.append((n, label))
    report(
        10,
        "dense spectrum equals block union; normalized bound unviolated",
        worst <= 1e-8 and not flagged,
        f"max residual {worst:.2e}, violations {flagged or 'none'}",
    )


def test_criterion_11_low_agreement_constant():
    results = {}
    for n in (5, 6):
        f, members = nested_stabilizer_instance(n, 1, 3)
        rep = Analysis(f, members).lower
        results[n] = rep
    hard = all(
        rep.applicable
        and rep.implied_constant is not None
        and np.isfinite(rep.implied_constant)
        and rep.implied_constant > 0
        for rep in results.values()
    )
    factor = results[6].implied_constant / results[5].implied_constant
    factor = max(factor, 1.0 / factor)
    ratios = {n: round(rep.gap_ratio, 4) for n, rep in results.items()}
    report(
        11,
        "nested-pin instances: applicable with finite positive constant",
        hard,
        f"gap ratios {ratios} (>=0.9 expected), cross-n factor {factor:.2f} (<=3 expected)",
    )


def test_criterion_12_sequencing_pipeline():
    start = time.perf_counter()
    cycle = VoteProfile(3, ((1, 2, 3), (2, 3, 1), (3, 1, 2)))
    cycle_set = valid_orderings(majority_graph(cycle))
    cycle_ok = (
        len(cycle_set) == 6 and intersection_profile(cycle_set).t_max == 0
    )
    n = 4
    unanimity = VoteProfile(n, ((3, 1, 4, 2),) * 5)
    unanimous_set = valid_orderings(majority_graph(unanimity))
    unanimity_ok = (
        len(unanimous_set) == 1 and intersection_profile(unanimous_set).t_max == n
    )
    took = time.perf_counter() - start
    report(
        12,
        "Condorcet cycle frees all orderings; unanimity pins one",
        cycle_ok and unanimity_ok and took < 10.0,
        f"cycle |A|={len(cycle_set)}, unanimity |A|={len(unanimous_set)}, {took:.2f} s",
    )


def test_criterion_13_reproducibility(tmp_path):
    identical = True
    for args in (
        ["verify", "--suite", "roundtrip", "--n", "4"],
        ["verify", "--suite", "claim1", "--n", "4", "--seed", "7"],
        ["verify", "--suite", "eigenvalue", "--n", "3"],
    ):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        identical &= a.read_bytes() == b.read_bytes()
    report(
        13,
        "repeated verify runs are byte-identical",
        identical,
        "3 suites compared",
    )

"""Walkthrough: how unfair can an ordering set be for a given payoff?

Compares the measured additive gap against the spectral upper bound for
several payoff/set pairs on S_5, then shows both bound regimes: high
set agreement versus payoff degree, and the low-agreement template.
"""
from snfair.fairness import Analysis, nested_stabilizer_instance
from snfair.intersecting import stabilizer_set
from snfair.payoffs import CfmmModel, JuntaTerm, cfmm_payoff, junta_payoff
from snfair.sets import OrderingSet

N = 5


def show_pair(p_label, f, s_label, members):
    pair = Analysis(f, members)  # f keeps its spectrum, members its agreement profile
    base, ub, t = pair.fairness, pair.uncertainty, members.profile.t_max
    print(
        f"  {p_label:<18} over {s_label:<22} "
        f"gap={base.additive_gap:8.4f}  bound={ub.bound:8.4f}  "
        f"slack={ub.slack:8.4f}  t_max={t}  [{base.classification}]"
    )


def main():
    market = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    pin2 = junta_payoff([JuntaTerm(((1, 1), (2, 2)))], N)

    sets = {
        "everything": OrderingSet.full_group(N),
        "slot1 pinned": stabilizer_set(N, [(1, 1)]),
        "slots 1+2 pinned": stabilizer_set(N, [(1, 1), (2, 2)]),
    }

    print("measured additive gap vs spectral upper bound\n")
    for s_label, members in sets.items():
        show_pair("market impact", market, s_label, members)
    show_pair("2-pin junta", pin2, "slots 1+2 pinned", sets["slots 1+2 pinned"])

    print("\nhigh-agreement regime (set agreement >= payoff degree):")
    upper = Analysis(pin2, sets["slots 1+2 pinned"]).upper
    print(
        f"  degree={upper.degree}, t_max={upper.t_max}, applicable={upper.applicable},"
        f" band dim^2 sum={upper.dim_sq_sum}, bound={upper.bound_value:.4f}"
    )

    print("\nlow-agreement regime (degree outruns agreement):")
    f, members = nested_stabilizer_instance(N, 1, 3)
    lower = Analysis(f, members).lower
    print(
        f"  degree={lower.degree}, t_max={lower.t_max}, applicable={lower.applicable},"
        f" gap/max={lower.gap_ratio:.4f}, implied constant={lower.implied_constant:.4f}"
    )
    print(
        "\nA positive slack everywhere above is the point: no ordering set"
        "\ncan extract more than the spectrum of the restricted payoff allows."
    )


if __name__ == "__main__":
    main()

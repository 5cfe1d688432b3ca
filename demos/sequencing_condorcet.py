"""Walkthrough: validator receive-orders -> majority graph -> what a fair
sequencer may still choose.

Three profiles on four transactions: unanimity (one admissible order),
a full rotation attack (every order admissible), and an honest-latency
profile somewhere in between.
"""
from snfair.sequencing import VoteProfile, majority_graph, simulate, valid_orderings


def show(label, votes):
    graph = majority_graph(votes)
    members = valid_orderings(graph)
    print(f"\n{label}")
    for order in votes.validators:
        print(f"  saw: {order}")
    print(f"  majority edges: {sorted(graph.edges) or 'none'}")
    print(f"  components: {graph.sccs}  (cycle: {graph.has_cycle})")
    print(
        f"  admissible orderings: {len(members)} of 24,"
        f" pairwise agreement floor t_max={members.profile.t_max}"
    )
    if len(members) <= 6:
        for word in members.matrix().tolist():
            print(f"    {tuple(word)}")


def main():
    show("unanimity", VoteProfile(4, ((2, 1, 4, 3),) * 5))
    show("rotation attack", simulate(4, 4, "adversarial_cycle"))
    show("honest latency jitter", simulate(4, 7, "iid_shuffle", seed=3))
    print(
        "\nUnanimity pins the sequence completely (t_max = n); the rotation"
        "\nprofile manufactures a Condorcet cycle, so majority voting"
        "\nconstrains nothing and every ordering stays admissible (t_max = 0)."
    )


if __name__ == "__main__":
    main()

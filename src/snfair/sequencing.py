"""Fair-ordering sequencing: votes to majority graph to admissible orderings.

Each validator reports the order it received the transactions, written as
a sequence of 1-based transaction labels (first received first).  The
majority graph has an edge i -> j when strictly more than half of the
validators saw i before j; exact ties produce no edge.  Strongly
connected components of that graph are the groups the sequencer may not
separate deterministically: an ordering is admissible when it respects
every edge whose endpoints lie in different components, while members of
one component may appear in any relative order.

Unanimous profiles leave a single admissible ordering; a full rotation
profile produces one big cycle and leaves every ordering admissible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .permutations import all_of, group_order, is_integer, seeded, word_blocks
from .sets import OrderingSet


@dataclass(frozen=True)
class VoteProfile:
    """Receive orders reported by validators, one full sequence each, kept
    as tuples of integer labels; sorting would take True for 1, 2.0 for 2."""

    n_tx: int
    validators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_integer(self.n_tx):
            raise ValueError(f"n_tx must be an integer, got {self.n_tx!r}")
        if self.n_tx < 1:
            raise ValueError("need at least one transaction")
        if not isinstance(self.validators, (list, tuple)) or not all(
            isinstance(o, (list, tuple)) and all_of(o, (int, np.integer)) for o in self.validators
        ):
            raise ValueError("validators must be a list of lists of integer labels")
        object.__setattr__(self, "validators", tuple(map(tuple, self.validators)))
        if not self.validators:
            raise ValueError("need at least one validator")
        expected = list(range(1, self.n_tx + 1))
        for v, order in enumerate(self.validators):
            if sorted(order) != expected:
                raise ValueError(
                    f"validator {v} order {order!r} is not a permutation of 1..{self.n_tx}"
                )


@dataclass(frozen=True)
class MajorityGraph:
    """Strict-majority precedence edges and their strongly connected components."""

    n_tx: int
    edges: frozenset[tuple[int, int]]
    sccs: tuple[tuple[int, ...], ...]  # each sorted; ordered by smallest member

    @property
    def has_cycle(self) -> bool:
        return any(len(c) > 1 for c in self.sccs)


def majority_graph(votes: VoteProfile) -> MajorityGraph:
    n = votes.n_tx
    orders = np.array(votes.validators)
    count = len(orders)
    # position[v, tx - 1] = the place at which validator v received tx
    position = np.empty((count, n), dtype=np.int32)
    position[np.arange(count)[:, None], orders - 1] = np.arange(n)
    # before[i, j] = how many validators received i + 1 before j + 1
    before = (position[:, :, None] < position[:, None, :]).sum(0)
    majority = 2 * before > count
    edges = frozenset((int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(majority)))
    reach = majority | np.eye(n, dtype=bool)

    # Transitive closure (Warshall); i and j share a strongly connected
    # component iff each reaches the other.
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k])
    mutual = reach & reach.T
    sccs = tuple(sorted({tuple(int(j) + 1 for j in np.flatnonzero(r)) for r in mutual}))
    return MajorityGraph(n_tx=n, edges=edges, sccs=sccs)


def valid_orderings(graph: MajorityGraph) -> OrderingSet:
    """Orderings respecting every edge between different components.

    The ordering word lists transaction labels by execution slot, so tx i
    precedes tx j when i appears earlier in the word.  S_n is scanned one
    block of :func:`snfair.permutations.word_blocks` at a time: for each
    block the int8 slot of every item on a cross edge, then each cross
    edge's precedence ANDed into one n! boolean mask, whose True ranks
    become the set.  Enumerating S_n bounds n_tx by
    :func:`snfair.permutations.group_order`.
    """
    n = graph.n_tx
    component = {}
    for c_index, comp in enumerate(graph.sccs):
        for tx in comp:
            component[tx] = c_index
    cross_edges = [
        (i, j) for (i, j) in sorted(graph.edges) if component[i] != component[j]
    ]
    items = sorted({v for edge in cross_edges for v in edge})
    keep = np.ones(group_order(n), dtype=bool)
    for rows, block in word_blocks(n):
        # slot_of[v][r] = 0-based execution slot of item v under ordering r
        slot_of = {v: (block == v).argmax(axis=1).astype(np.int8) for v in items}
        part = keep[rows]
        for i, j in cross_edges:
            part &= slot_of[i] < slot_of[j]
    return OrderingSet.from_mask(n, keep)


def simulate(
    n_tx: int,
    n_validators: int,
    latency_model: str = "iid_shuffle",
    seed: int = 0,
) -> VoteProfile:
    """Generate a vote profile from a latency model.

    iid_shuffle: every validator receives an independent uniformly random
    order, drawn from :func:`snfair.permutations.seeded`.
    adversarial_cycle: validators receive rotations of the base order,
    which yields a full-cycle majority graph; requires n_tx >= 3 and a
    validator count that is a multiple of n_tx.
    """
    if not (is_integer(n_tx) and is_integer(n_validators)):
        raise ValueError(f"counts must be integers, got {n_tx!r} and {n_validators!r}")
    if n_tx < 1 or n_validators < 1:
        raise ValueError("need positive transaction and validator counts")
    if latency_model == "iid_shuffle":
        rng = seeded(seed)
        labels = range(1, n_tx + 1)
        orders = tuple(tuple(rng.sample(labels, n_tx)) for _ in range(n_validators))
        return VoteProfile(n_tx, orders)
    if latency_model == "adversarial_cycle":
        if n_tx < 3:
            raise ValueError("a rotation cycle needs n_tx >= 3")
        if n_validators % n_tx != 0:
            raise ValueError(
                "the rotation family guarantees a full cycle only when the "
                f"validator count is a multiple of n_tx (got {n_validators} for {n_tx})"
            )
        base = list(range(1, n_tx + 1))
        orders = tuple(
            tuple(base[(v % n_tx + k) % n_tx] for k in range(n_tx))
            for v in range(n_validators)
        )
        return VoteProfile(n_tx, orders)
    raise ValueError(f"unknown latency model {latency_model!r}")

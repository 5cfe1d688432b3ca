"""Walkthrough: averaging over a connection set, block by block.

Builds the averaging operator of two Cayley graphs on S_4 (all
transpositions, and a small random symmetric set), prints each block's
gram eigenvalues next to the reference bound, and cross-checks the block
route against the dense 24 x 24 operator.
"""
import numpy as np

from snfair.cayley import SymmetricSet, dense_operator, spectrum_report, symmetrize
from snfair.partitions import dimension, partitions_of
from snfair.permutations import Permutation
from snfair.sets import OrderingSet

N = 4


def show(label, conn):
    print(f"\n{label}  (|F| = {len(conn)})")
    report = spectrum_report(conn)
    for shape, spec in report.items():
        eigs = ", ".join(f"{e:6.3f}" for e in spec.eigenvalues)
        flag = "ok" if spec.within_bound else "VIOLATED"
        print(f"  {str(shape):<14} gram eigs [{eigs}]  bound {spec.bound:7.3f}  {flag}")

    dense = np.sort(np.linalg.eigvalsh(dense_operator(conn)))
    blocks = np.sort(
        np.concatenate(
            [
                np.repeat(np.linalg.eigvalsh(conn.blocks[s]), dimension(s))
                for s in partitions_of(N)
            ]
        )
    )
    print(f"  dense-vs-block spectrum residual: {np.abs(dense - blocks).max():.2e}")


def main():
    transpositions = SymmetricSet(
        N,
        tuple(
            sorted(
                Permutation.transposition(N, i, j).rank()
                for i in range(1, N + 1)
                for j in range(i + 1, N + 1)
            )
        ),
    )
    show("all transpositions", transpositions)

    seedling = OrderingSet.from_ranks(N, [5, 11, 17])
    show("random symmetric closure of 3 elements", symmetrize(seedling))

    print(
        "\nEach shape's block is the whole story: the dense spectrum is the"
        "\nunion of block spectra with dimension multiplicity, so nothing"
        "\nabove desk scale ever needs the n! x n! matrix."
    )


if __name__ == "__main__":
    main()

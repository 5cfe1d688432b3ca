"""Walkthrough: payoff -> matrix spectrum -> payoff, with degree readouts.

Run as `python demos/fourier_roundtrip.py`.  Builds three payoffs on S_5
(a market-impact payoff, a single-pin indicator, a point mass), prints
where their spectral mass sits, and confirms the transform inverts to
machine precision.
"""
import numpy as np

from snfair.fourier import degree, inverse
from snfair.intersecting import stabilizer_set
from snfair.partitions import dimension
from snfair.payoffs import CfmmModel, PayoffFn, cfmm_payoff, indicator_payoff

N = 5


def describe(label, f):
    spec = f.spectrum
    print(f"\n{label}  (degree {degree(f)})")
    print(f"  {'shape':<14} {'dim':>4} {'frobenius':>12}")
    for shape, block in spec.blocks.items():
        norm = np.linalg.norm(block)
        bar = "#" * int(round(20 * norm / max(1e-300, abs(f.values).sum())))
        print(f"  {str(shape):<14} {dimension(shape):>4} {norm:>12.4f}  {bar}")
    back = inverse(spec)
    err = np.abs(back.values - f.values).max()
    summary = spec.schatten
    print(f"  round-trip max error {err:.2e};  s1={summary.s1:.3f}, sinf={summary.sinf:.3f}")


def main():
    market = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    describe("market-impact payoff", market)

    pinned = indicator_payoff(stabilizer_set(N, [(1, 1)]))
    describe("indicator of 'slot 1 holds item 1'", pinned)

    mass = np.zeros(120)
    mass[42] = 1.0
    describe("point mass at rank 42", PayoffFn(N, mass))

    print(
        "\nThe indicator is a 1-junta: everything sits in the top two shapes."
        "\nThe point mass spreads across every shape, the generic market"
        "\npayoff across most of them."
    )


if __name__ == "__main__":
    main()

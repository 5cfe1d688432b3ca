"""Payoff generators: concrete families of functions on orderings.

Every generator returns a dense :class:`PayoffFn` whose entry at rank r
is the payoff of the ordering with that rank, handing its values over
read-only so that the payoff keeps them without a copy; a list of values
is typed (no bools) and converted once, both by :mod:`snfair.permutations`.
The CFMM, liquidation and random families produce nonnegative values; a
junta payoff is negative wherever a term with a negative coefficient holds.

CFMM sandwich-style model: n labeled trades with signed sizes; executing
trade with size D against price p books extraction beta * D^2 * p and
moves the price to p * (1 + gamma * D).  The payoff of an ordering is the
total extracted along it.

Liquidation model: 2k labeled unit trades, the first k upward (+1) and
the last k downward (-1).  An ordering pays 1 exactly when some prefix
drives the cumulative move to -c or below (the position would have been
liquidated), else 0.

Junta payoffs are weighted sums of position-constraint indicators; random
payoffs come from a seeded generator for reproducible experiments
(CPython's Mersenne Twister, :func:`snfair.permutations.seeded`).

Every generator enumerates S_n, so each is bounded by the one library
limit, :func:`snfair.permutations.group_order` (n <= 10), which gives
every n!-sized array its length.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelValidityError
from .intersecting import stabilizer_set
from .permutations import (all_of, group_order, is_integer, owned_read_only, seeded,
                           typed_array, uniform, word_blocks)
from .sets import OrderingSet

if TYPE_CHECKING:
    from .fourier import FourierSpectrum

# Largest |value| a payoff may hold.  Transform block entries reach
# n! * max|v| and Frobenius norms square them, so n! * max|v| must stay
# below sqrt(float max) ~ 1.3e154 for every n <= 10 (10! ~ 3.6e6): a
# constant 1e150 already overflows at n = 8 and 1e145 does not, so 1e100
# leaves a wide margin.
MAX_MAGNITUDE = 1e100

REAL = (int, float, np.integer, np.floating)  # a payoff value's or a model's real types


@dataclass(frozen=True, eq=False)
class PayoffFn:
    """A real-valued function on S_n, dense in rank order; keeps its spectrum."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        size = group_order(self.n)
        raw = self.values
        if isinstance(raw, (list, tuple)):  # an int past the float range is not finite
            raw = typed_array(raw, REAL, float, "payoff values must be real numbers",
                              "payoff values must be finite")
        raw = np.asarray(raw)
        # Strings, bools, objects and complex numbers would be coerced to floats.
        if raw.dtype.kind not in "iuf":
            raise ValueError(f"payoff values must be real numbers, got dtype {raw.dtype}")
        vals = owned_read_only(raw, float)
        if vals.shape != (size,):
            raise ValueError(
                f"need {size} values for n={self.n}, got shape {vals.shape}"
            )
        # min and max are NaN if any value is, so they see every non-finite
        # value without an n!-sized mask.
        low, high = vals.min(), vals.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("payoff values must be finite")
        if max(high, -low) > MAX_MAGNITUDE:
            raise ValueError(f"payoff values must not exceed {MAX_MAGNITUDE:g} in magnitude")
        object.__setattr__(self, "values", vals)

    @cached_property
    def spectrum(self) -> FourierSpectrum:
        """:func:`snfair.fourier.transform` of this payoff: n! more floats,
        kept for as long as the payoff lives."""
        # Imported here: fourier imports this module; gen-payoff loads no Fourier code.
        from .fourier import transform

        return transform(self)


@dataclass(frozen=True)
class CfmmModel:
    """Trade sizes plus price-impact and extraction coefficients."""

    deltas: tuple[float, ...]
    p0: float = 100.0
    gamma: float = 0.001
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not all_of((*self.deltas, self.p0, self.gamma, self.beta), REAL):
            raise ValueError("trade sizes, p0, gamma and beta must be real numbers")
        if len(self.deltas) < 1:
            raise ModelValidityError("need at least one trade")
        if self.p0 <= 0:
            raise ModelValidityError("initial price must be positive")
        if self.gamma < 0 or self.beta < 0:
            raise ModelValidityError("gamma and beta must be nonnegative")
        # prices stay positive along every ordering iff every single-trade
        # factor is positive (each trade comes first in some ordering)
        for d in self.deltas:
            if 1.0 + self.gamma * d <= 0.0:
                raise ModelValidityError(
                    f"trade size {d} drives the price nonpositive "
                    f"(1 + gamma*delta = {1.0 + self.gamma * d})"
                )

    @property
    def n(self) -> int:
        return len(self.deltas)


def cfmm_payoff(model: CfmmModel) -> PayoffFn:
    """Total extraction of every ordering of the model's trades, built one
    block of :func:`snfair.permutations.word_blocks` at a time."""
    n = model.n
    deltas = np.asarray(model.deltas, dtype=float)
    values = np.empty(group_order(n))
    # Values past the float range become inf or nan silently here; the
    # PayoffFn check then rejects them with one message.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in word_blocks(n):
            sizes = deltas[block - 1]  # trade size per slot
            # prior[:, k] = price before slot k: the price factors, their
            # running product times p0, then shifted one slot right behind
            # p0, all in place
            prior = model.gamma * sizes
            prior += 1.0
            np.cumprod(prior, axis=1, out=prior)
            prior *= model.p0
            for k in range(n - 1, 0, -1):
                prior[:, k] = prior[:, k - 1]
            prior[:, 0] = model.p0
            sizes *= sizes
            sizes *= prior
            values[rows] = model.beta * sizes.sum(axis=1)
    values.setflags(write=False)
    return PayoffFn(n, values)


@dataclass(frozen=True)
class LiquidationModel:
    """k unit up-moves and k unit down-moves with a liquidation depth c.

    The depth must be reachable: the lowest prefix any ordering attains is
    -k (all down-moves first), so 0 < c <= k; at the c = k boundary only
    the all-downs-first orderings pay.
    """

    k: int
    c: int

    def __post_init__(self) -> None:
        if not (is_integer(self.k) and is_integer(self.c)):
            raise ValueError(f"k and c must be integers, got {self.k!r} and {self.c!r}")
        if self.k < 1:
            raise ModelValidityError("k must be positive")
        if not 0 < self.c <= self.k:
            raise ModelValidityError(
                f"liquidation depth must satisfy 0 < c <= k, got c={self.c}, k={self.k}"
            )

    @property
    def n(self) -> int:
        return 2 * self.k

    @property
    def moves(self) -> tuple[int, ...]:
        """Signed move of each labeled trade: trades 1..k are +1, k+1..2k are -1."""
        return (1,) * self.k + (-1,) * self.k


def liquidation_payoff(model: LiquidationModel) -> PayoffFn:
    """Indicator of orderings whose running move total ever reaches -c,
    built one block of :func:`snfair.permutations.word_blocks` at a time."""
    n = model.n
    moves = np.asarray(model.moves, dtype=np.int8)
    values = np.empty(group_order(n))
    for rows, block in word_blocks(n):
        # int8 holds every running total: it stays within -k..k
        running = moves[block - 1]
        np.cumsum(running, axis=1, dtype=np.int8, out=running)
        values[rows] = (running <= -model.c).any(axis=1)
    values.setflags(write=False)
    return PayoffFn(n, values)


@dataclass(frozen=True)
class JuntaTerm:
    """One weighted product of position constraints: slot i holds item j."""

    constraints: tuple[tuple[int, int], ...]
    coefficient: float = 1.0

    def __post_init__(self) -> None:  # stabilizer_set checks the constraints
        if not all_of((self.coefficient,), REAL):
            raise ValueError(f"coefficient must be a real number, got {self.coefficient!r}")


def junta_payoff(terms, n: int) -> PayoffFn:
    """Sum of the terms' weighted constraint indicators on S_n, each the
    indicator of its constraints' stabilizer set, which checks them."""
    values = np.zeros(group_order(n))
    for term in terms:
        values[stabilizer_set(n, term.constraints).members] += term.coefficient
    values.setflags(write=False)
    return PayoffFn(n, values)


def indicator_payoff(members: OrderingSet) -> PayoffFn:
    """The 0/1 indicator of an ordering set."""
    values = np.zeros(group_order(members.n))
    values[members.members] = 1.0
    values.setflags(write=False)
    return PayoffFn(members.n, values)


def random_payoff(
    n: int,
    seed: int,
    dist: str = "uniform01",
    nonzero: int | None = None,
) -> PayoffFn:
    """Seeded random payoff: dense uniform values, or a sparse support.

    dist="uniform01" draws every value from [0, 1); dist="sparse" places
    `nonzero` values in (0, 1] at distinct random ranks.  Both draw from
    :func:`snfair.permutations.seeded`, which takes only a non-negative
    integer seed.
    """
    size = group_order(n)
    rng = seeded(seed)
    if dist == "uniform01":
        values = uniform(rng, size)
    elif dist == "sparse":
        if nonzero is None or not 1 <= nonzero <= size:
            raise ValueError(f"sparse payoff needs 1 <= nonzero <= {size}")
        values = np.zeros(size)
        ranks = rng.sample(range(size), nonzero)
        values[ranks] = 1.0 - uniform(rng, nonzero)  # in (0, 1]
    else:
        raise ValueError(f"unknown distribution {dist!r}")
    values.setflags(write=False)
    return PayoffFn(n, values)

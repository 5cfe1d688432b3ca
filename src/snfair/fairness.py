"""Fairness functionals for payoffs restricted to ordering sets.

The additive gap of a payoff f over a set A is the best member's payoff
minus the whole-group average of the restriction:

    gap_plus(f, A) = max_{p in A} f(p) - (1/n!) * sum_{p in A} f(p)

(the mean is over all n! orderings, treating f as zero off A, not over
|A|; the per-member conditional mean is a separate statistic).  The
multiplicative gap divides instead of subtracting, and the two satisfy

    gap_plus = max * (1 - 1 / gap_star).

A restriction is perfectly fair when the gap vanishes and maximally
unfair when it hits the point-mass extreme (1 - 1/n!) * max.

Upper bounds on the additive gap come from the support-spread inequality
of :func:`snfair.fourier.uncertainty_check`: for a nonnegative restriction
g = f * 1_A,

    gap_plus <= (1 - sinf/s1) * ||g||_inf.

The regime reports compare the payoff's spectral degree s with the set's
agreement level t_max: high agreement (t_max >= s) activates the upper
bound regime, low agreement (t_max < s) the lower bound regime whose
template rhs(c) = (1 - c * (s - t_max - 1)/(n - t_max)!) * ||g||_inf is
solved for the constant that would make it tight.

A payoff keeps its spectrum and that spectrum's Schatten summary, and a
set its agreement profile, so analyses that share a payoff or a set share
those values; a kept spectrum costs n! more floats for as long as the
payoff lives.  An :class:`Analysis` keeps the restriction's statistics,
the degree at its `tol` and the bound reports, and is the one way to
reach each of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import DegenerateError, EmptySetError
from .fourier import DEGREE_TOL, degree as spectral_degree
from .intersecting import stabilizer_set
from .partitions import dimension, partitions_of
from .payoffs import REAL, PayoffFn, indicator_payoff
from .permutations import all_of, is_integer
from .sets import OrderingSet

# Absolute: a gap within CLASSIFY_TOL of 0 is perfectly fair, within it of
# the point-mass extreme (1 - 1/n!) * max maximally unfair.  A constant
# payoff's gap over the full group measured at most 2.3e-16 at n = 8-10,
# and a point mass's gap met the extreme exactly.
CLASSIFY_TOL = 1e-12


@dataclass(frozen=True)
class FairnessReport:
    """All headline fairness statistics for one (payoff, set) pair."""

    max_value: float
    mean_value: float  # whole-group mean of the restriction
    additive_gap: float
    multiplicative_gap: float | None
    conditional_gap: float
    classification: str
    trivial_bound: float


@dataclass(frozen=True)
class UncertaintyBound:
    """Support-spread upper bound on the additive gap of a restriction."""

    bound: float
    additive_gap: float
    slack: float  # bound - gap; nonnegative when the inequality holds


@dataclass(frozen=True)
class UpperBoundReport:
    """High-agreement regime: set agreement at or above the payoff degree."""

    degree: int
    t_max: int
    applicable: bool  # t_max >= degree
    schatten_ratio: float  # sinf / s1 of the unrestricted payoff's spectrum
    dim_sq_sum: int  # sum of dim^2 over shapes with largest part >= n - degree
    bound_value: float  # (1 - 1/dim_sq_sum) * ||f * 1_A||_inf


@dataclass(frozen=True)
class LowerBoundReport:
    """Low-agreement regime: set agreement strictly below the payoff degree."""

    degree: int
    t_max: int
    applicable: bool  # t_max < degree and the size gate holds
    gap_ratio: float  # additive gap / ||f * 1_A||_inf
    rhs_coefficient: float  # (degree - t_max - 1) / (n - t_max)!
    implied_constant: float | None  # c making rhs(c) equal the measured gap


def _classify(gap: float, extreme: float) -> str:
    if abs(gap) <= CLASSIFY_TOL:
        return "perfectly_fair"
    if abs(gap - extreme) <= CLASSIFY_TOL:
        return "maximally_unfair"
    return "other"


class Analysis:
    """The fairness trade-off of one payoff over one ordering set.

    The pointwise statistics of the restriction (`fairness`, and `linf`
    = ||f * 1_A||_inf) are computed on construction; the multiplicative
    gap is None when the restricted mean is not positive.  The degree at
    `tol` and the bound reports are computed on first use and then kept;
    they read the spectrum that `f` keeps and the agreement profile that
    `members` keeps, so analyses that share a payoff or a set share those
    values too.  The group size and set size are `f.n` and `len(members)`.
    Each bound report raises DegenerateError with `bounds_note` when the
    note is set.
    """

    def __init__(self, f: PayoffFn, members: OrderingSet, tol: float = DEGREE_TOL):
        if not all_of((tol,), REAL):
            raise ValueError(f"tol must be a real number, got {tol!r}")
        if f.n != members.n:
            raise ValueError(f"payoff on S_{f.n} but set in S_{members.n}")
        if len(members) == 0:
            raise EmptySetError("fairness gaps over the empty set are undefined")
        self.f, self.members, self.tol = f, members, tol
        self.on_set = f.values[members.members]
        self.linf = float(np.abs(self.on_set).max())  # ||f * 1_A||_inf
        top = float(self.on_set.max())
        mean = float(self.on_set.sum() / factorial(f.n))
        trivial = (1.0 - 1.0 / factorial(f.n)) * top
        self.fairness = FairnessReport(
            max_value=top,
            mean_value=mean,
            additive_gap=top - mean,
            multiplicative_gap=top / mean if mean > 0.0 else None,
            conditional_gap=float(self.on_set.max() - self.on_set.mean()),
            classification=_classify(top - mean, trivial),
            trivial_bound=trivial,
        )

    @cached_property
    def degree(self) -> int:
        return spectral_degree(self.f, tol=self.tol)

    @cached_property
    def bounds_note(self) -> str | None:
        """Why the spectral bounds do not apply, or None when they do.

        They need a nonnegative, nonzero restriction (module docstring).
        """
        if self.linf == 0.0:
            return "restriction is identically zero; spectral bounds degenerate"
        if self.on_set.min() < 0.0:
            return "restriction takes negative values; spectral bounds need it nonnegative"
        return None

    def _require_bounds(self) -> None:
        """Raise DegenerateError with the note when the bounds do not apply."""
        if self.bounds_note is not None:
            raise DegenerateError(self.bounds_note)

    @cached_property
    def uncertainty(self) -> UncertaintyBound:
        """gap_plus <= (1 - sinf/s1) * ||f * 1_A||_inf, sinf and s1 of f * 1_A."""
        self._require_bounds()
        restricted = np.zeros_like(self.f.values)
        restricted[self.members.members] = self.on_set
        restricted.setflags(write=False)  # handed over to the payoff, not copied
        summary = PayoffFn(self.f.n, restricted).spectrum.schatten
        bound = (1.0 - summary.sinf / summary.s1) * self.linf
        gap = self.fairness.additive_gap
        return UncertaintyBound(bound=bound, additive_gap=gap, slack=bound - gap)

    @cached_property
    def upper(self) -> UpperBoundReport:
        self._require_bounds()
        n, s, t = self.f.n, self.degree, self.members.profile.t_max
        schatten = self.f.spectrum.schatten
        dim_sq = sum(
            dimension(shape) ** 2 for shape in partitions_of(n) if shape[0] >= n - s
        )
        return UpperBoundReport(
            degree=s,
            t_max=t,
            applicable=t >= s,
            schatten_ratio=schatten.sinf / schatten.s1,
            dim_sq_sum=dim_sq,
            bound_value=(1.0 - 1.0 / dim_sq) * self.linf,
        )

    @cached_property
    def lower(self) -> LowerBoundReport:
        self._require_bounds()
        n, s, t = self.f.n, self.degree, self.members.profile.t_max
        gap = self.fairness.additive_gap
        coeff = (s - t - 1) / factorial(n - t)
        implied = None
        if s - t - 1 > 0:
            implied = (1.0 - gap / self.linf) * factorial(n - t) / (s - t - 1)
        return LowerBoundReport(
            degree=s,
            t_max=t,
            applicable=t < s and self.members.profile.size_gate,
            gap_ratio=gap / self.linf,
            rhs_coefficient=coeff,
            implied_constant=implied,
        )


@dataclass(frozen=True)
class IndicatorDegreeReport:
    """The indicator's spectral degree against the set's agreement `profile`."""

    deg_indicator: int
    claim_holds: bool


def verify_indicator_degree(members: OrderingSet) -> IndicatorDegreeReport:
    """Check that a large high-agreement set has a high-degree indicator:
    once a set's size clears (n - t)!, its indicator must carry spectral
    mass at degree t or above.

    The comparison level is min(t_max, n - 1) because degrees cap at
    n - 1.  The clamp only binds for singletons, whose point-mass
    indicator has full spectrum anyway: two distinct orderings agree on
    at most n - 2 slots.  Sets below the (n - t_max)! size gate satisfy
    the claim vacuously.  The degree threshold is ``fourier.DEGREE_TOL``.
    """
    profile = members.profile
    deg = spectral_degree(indicator_payoff(members))
    required = min(profile.t_max, members.n - 1)
    holds = (not profile.size_gate) or deg >= required
    return IndicatorDegreeReport(deg_indicator=deg, claim_holds=holds)


def nested_stabilizer_instance(
    n: int, outer_pins: int, inner_pins: int
) -> tuple[PayoffFn, OrderingSet]:
    """Low-agreement showcase: a wide pinned set paired with a narrower payoff.

    The set pins the first `outer_pins` slots to their own items; the
    payoff is the indicator of the finer set pinning `inner_pins` slots
    the same way.  With outer_pins < inner_pins the payoff degree exceeds
    the set's agreement level while the restriction stays nonzero, which
    is exactly the lower-bound regime.
    """
    if not (all(map(is_integer, (n, outer_pins, inner_pins))) and 0 < outer_pins < inner_pins < n):
        raise ValueError("need 0 < outer_pins < inner_pins < n")
    outer = stabilizer_set(n, [(i, i) for i in range(1, outer_pins + 1)])
    inner = stabilizer_set(n, [(i, i) for i in range(1, inner_pins + 1)])
    return indicator_payoff(inner), outer

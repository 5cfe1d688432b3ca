"""Fairness gaps, spectral upper/lower bound regimes, the shared analysis pass."""
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snfair.fourier
import snfair.intersecting
from snfair.cayley import symmetrize
from snfair.errors import DegenerateError, EmptySetError
from snfair.fairness import Analysis, nested_stabilizer_instance
from snfair.intersecting import stabilizer_set
from snfair.payoffs import CfmmModel, PayoffFn, cfmm_payoff, indicator_payoff, random_payoff
from snfair.sets import OrderingSet


def test_two_member_indicator_gaps():
    n = 3
    members = OrderingSet(n, (0, 1))
    fair = Analysis(indicator_payoff(members), members).fairness
    assert fair.additive_gap == pytest.approx(2.0 / 3.0)
    assert fair.multiplicative_gap == pytest.approx(3.0)
    assert fair.conditional_gap == pytest.approx(0.0)


def test_indicator_multiplicative_gap_is_factorial_over_size():
    n = 4
    for size in (1, 6, 24):
        members = OrderingSet(n, tuple(range(size)))
        fair = Analysis(indicator_payoff(members), members).fairness
        assert fair.multiplicative_gap == pytest.approx(factorial(n) / size)


def test_constant_payoff_is_perfectly_fair():
    n = 4
    f = PayoffFn(n, 2.5 * np.ones(factorial(n)))
    fair = Analysis(f, OrderingSet.full_group(n)).fairness
    assert fair.additive_gap == pytest.approx(0.0, abs=1e-12)
    assert fair.multiplicative_gap == pytest.approx(1.0)
    assert fair.classification == "perfectly_fair"


def test_point_mass_is_maximally_unfair():
    n = 4
    f = PayoffFn(n, np.eye(factorial(n))[3])
    fair = Analysis(f, OrderingSet.full_group(n)).fairness
    assert fair.additive_gap == pytest.approx(1.0 - 1.0 / factorial(n))
    assert fair.classification == "maximally_unfair"


def test_connecting_identity_between_gaps():
    # gap_plus = max * (1 - 1/gap_star), whenever gap_star exists.
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = 4
        f = random_payoff(n, seed=trial)
        size = int(rng.integers(1, 25))
        members = OrderingSet.from_ranks(n, rng.choice(24, size=size, replace=False))
        vals = f.values[list(members.members)]
        fair = Analysis(f, members).fairness
        star = fair.multiplicative_gap
        assert fair.additive_gap == pytest.approx(vals.max() * (1.0 - 1.0 / star), abs=1e-12)


def test_gap_never_exceeds_trivial_bound():
    rng = np.random.default_rng(9)
    for trial in range(20):
        f = random_payoff(4, seed=100 + trial)
        members = OrderingSet.from_ranks(4, rng.choice(24, size=8, replace=False))
        fair = Analysis(f, members).fairness
        assert fair.additive_gap <= fair.trivial_bound + 1e-12


def test_classification_generic_cfmm():
    f = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0)))
    assert Analysis(f, OrderingSet.full_group(4)).fairness.classification == "other"


def test_uncertainty_bound_point_mass_is_tight():
    n = 4
    f = PayoffFn(n, np.eye(factorial(n))[7])
    report = Analysis(f, OrderingSet.full_group(n)).uncertainty
    assert report.slack == pytest.approx(0.0, abs=1e-12)
    assert report.bound == pytest.approx(1.0 - 1.0 / factorial(n))


def test_uncertainty_bound_constant_is_zero():
    n = 4
    f = PayoffFn(n, np.ones(factorial(n)))
    report = Analysis(f, OrderingSet.full_group(n)).uncertainty
    assert report.bound == pytest.approx(0.0, abs=1e-12)
    assert report.additive_gap == pytest.approx(0.0, abs=1e-12)


def test_uncertainty_bound_holds_on_random_corpus():
    rng = np.random.default_rng(21)
    for trial in range(25):
        f = random_payoff(4, seed=200 + trial)
        size = int(rng.integers(1, 25))
        members = OrderingSet.from_ranks(4, rng.choice(24, size=size, replace=False))
        report = Analysis(f, members).uncertainty
        assert report.slack >= -1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_gap_never_exceeds_uncertainty_bound_on_random_sets(n, seed, data):
    f = random_payoff(n, seed=seed)
    ranks = data.draw(st.lists(st.integers(0, factorial(n) - 1), min_size=1, max_size=50))
    report = Analysis(f, OrderingSet.from_ranks(n, ranks)).uncertainty
    assert report.slack >= -1e-9


def test_uncertainty_bound_cfmm_on_stabilizer():
    f = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    members = stabilizer_set(5, [(1, 1)])
    report = Analysis(f, members).uncertainty
    assert report.slack >= 0.0


def test_uncertainty_bound_zero_restriction_rejected():
    n = 3
    f = PayoffFn(n, np.eye(6)[5])
    with pytest.raises(DegenerateError):
        Analysis(f, OrderingSet(n, (0, 1))).uncertainty


@pytest.mark.parametrize(
    "values, ranks, reason",
    [
        ([-1.0, 2.0, 3.0, -4.0, 5.0, 6.0], (0, 1, 2), "negative values"),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], (0,), "identically zero"),
    ],
    ids=["negative", "zero"],
)
@pytest.mark.parametrize("bound", ["uncertainty", "upper", "lower"])
def test_every_bound_raises_where_the_bounds_do_not_apply(values, ranks, reason, bound):
    pair = Analysis(PayoffFn(3, values), OrderingSet(3, ranks))
    assert reason in pair.bounds_note
    with pytest.raises(DegenerateError, match=pair.bounds_note):
        getattr(pair, bound)


def test_upper_regime_constant_payoff():
    n = 4
    f = PayoffFn(n, np.ones(factorial(n)))
    report = Analysis(f, OrderingSet.full_group(n)).upper
    assert report.degree == 0
    assert report.applicable  # t_max = 0 >= 0
    assert report.dim_sq_sum == 1
    assert report.bound_value == pytest.approx(0.0)


def test_upper_regime_dim_sq_sum_one_junta_band():
    # Degree-1 payoff on S_5: shapes (5) and (4,1) carry the band,
    # contributing 1 + 16 = 17.
    f = indicator_payoff(stabilizer_set(5, [(1, 1)]))
    report = Analysis(f, stabilizer_set(5, [(1, 1), (2, 2)])).upper
    assert report.degree == 1
    assert report.dim_sq_sum == 17
    assert report.t_max == 2
    assert report.applicable


def test_upper_regime_applicability_tracks_degree():
    f = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    members = stabilizer_set(5, [(1, 1), (2, 2)])
    report = Analysis(f, members).upper
    assert report.t_max == 2
    assert report.applicable == (report.t_max >= report.degree)
    assert 0.0 < report.schatten_ratio <= 1.0


def test_lower_regime_point_mass_closed_form():
    # Point mass over the full group: s = n-1, t = 0, gap = 1 - 1/n!,
    # so the implied constant collapses to 1/(n-2).
    for n in (4, 5):
        f = PayoffFn(n, np.eye(factorial(n))[0])
        pair = Analysis(f, OrderingSet.full_group(n))
        report = pair.lower
        assert report.degree == n - 1
        assert report.t_max == 0
        assert report.applicable
        assert report.implied_constant == pytest.approx(1.0 / (n - 2))
        # rhs at the implied constant reproduces the measured gap
        rhs = (1.0 - report.implied_constant * report.rhs_coefficient) * pair.linf
        assert rhs == pytest.approx(pair.fairness.additive_gap)


def test_nested_stabilizer_instances_frozen_values():
    f5, a5 = nested_stabilizer_instance(5, 1, 3)
    r5 = Analysis(f5, a5).lower
    assert r5.applicable
    assert r5.t_max == 1
    assert r5.degree == 3
    assert r5.implied_constant == pytest.approx(0.4)
    assert r5.gap_ratio >= 0.9

    f6, a6 = nested_stabilizer_instance(6, 1, 3)
    r6 = Analysis(f6, a6).lower
    assert r6.applicable
    assert r6.implied_constant == pytest.approx(1.0)
    ratio = r6.implied_constant / r5.implied_constant
    assert max(ratio, 1.0 / ratio) <= 3.0


def test_nested_stabilizer_validation():
    with pytest.raises(ValueError):
        nested_stabilizer_instance(5, 2, 2)
    with pytest.raises(ValueError):
        nested_stabilizer_instance(5, 0, 3)
    with pytest.raises(ValueError):
        nested_stabilizer_instance(5, 1, 5)


def test_fairness_report_bundles_consistently():
    f = random_payoff(4, seed=33)
    members = stabilizer_set(4, [(2, 2)])
    report = Analysis(f, members).fairness
    on_set = f.values[members.members]
    assert report.additive_gap == pytest.approx(on_set.max() - on_set.sum() / 24)
    assert report.conditional_gap == pytest.approx(on_set.max() - on_set.mean())
    assert report.trivial_bound == pytest.approx((1.0 - 1.0 / 24) * on_set.max())
    assert report.classification == "other"


def test_analysis_with_a_given_spectrum_transforms_only_the_restriction(monkeypatch):
    f = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    members = stabilizer_set(5, [(1, 1)])
    fresh = Analysis(f, members)
    expected = (fresh.uncertainty, fresh.upper, fresh.lower)
    spectrum = f.spectrum  # kept by the payoff since the first analysis
    calls = []
    real = snfair.fourier.transform
    monkeypatch.setattr(
        snfair.fourier, "transform", lambda g: calls.append(g) or real(g)
    )
    pair = Analysis(f, members)
    assert (pair.uncertainty, pair.upper, pair.lower) == expected
    assert f.spectrum is spectrum and len(calls) == 1 and calls[0] is not f


def test_analysis_computes_each_spectrum_and_profile_once(monkeypatch):
    calls = {"transform": 0, "profile": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        snfair.fourier, "transform", counted("transform", snfair.fourier.transform)
    )
    monkeypatch.setattr(
        snfair.intersecting,
        "intersection_profile",
        counted("profile", snfair.intersecting.intersection_profile),
    )
    f = cfmm_payoff(CfmmModel(deltas=(1.0, 2.0, -1.0, -2.0, 0.5)))
    members = stabilizer_set(5, [(1, 1)])
    pair = Analysis(f, members)
    pair.uncertainty, pair.upper, pair.lower  # every report, each computed once
    assert pair.degree == pair.upper.degree == pair.lower.degree
    assert calls == {"transform": 2, "profile": 1}


def test_kept_values_are_computed_once_and_read_only():
    # payoffs, spectra and sets are shared between analyses, so what they
    # keep must not be replaced or written into by any one reader
    f = random_payoff(5, seed=3)
    members = stabilizer_set(5, [(1, 1)])
    conn = symmetrize(OrderingSet.from_ranks(5, [3, 17, 40]))
    for obj, name in (
        (f, "spectrum"),
        (f.spectrum, "schatten"),
        (members, "profile"),
        (conn, "profile"),
        (conn, "blocks"),
    ):
        first = getattr(obj, name)
        assert getattr(obj, name) is first
        with pytest.raises(AttributeError):
            setattr(obj, name, first)
    shape = (4, 1)
    kept = (f.spectrum.blocks[shape], f.spectrum.schatten.per_block[shape], conn.blocks[shape])
    for array in kept:
        with pytest.raises(ValueError):
            array[...] = 0.0
    for mapping in (f.spectrum.blocks, f.spectrum.schatten.per_block, conn.blocks):
        with pytest.raises(TypeError):
            mapping[shape] = np.zeros_like(mapping[shape])


def test_size_mismatch_and_empty_set_errors():
    f = random_payoff(4, seed=0)
    with pytest.raises(ValueError):
        Analysis(f, OrderingSet.full_group(3))
    with pytest.raises(EmptySetError):
        Analysis(f, OrderingSet(4, ()))
    zero = PayoffFn(3, np.zeros(6))
    assert Analysis(zero, OrderingSet.full_group(3)).fairness.multiplicative_gap is None

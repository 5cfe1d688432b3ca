"""Matrix-valued Fourier analysis of payoff functions on S_n.

A payoff function assigns a real value to every ordering; it is stored
densely in rank order.  Its transform collects one matrix per partition:

    block[shape] = sum_p f(p) * rho_shape(p)

with rho from :mod:`snfair.representations`.  Inversion transposes the
representation matrix:

    f(p) = (1/n!) * sum_shape dim(shape) * trace(block[shape] @ rho_shape(p).T)

and the Parseval identity in this normalization reads

    sum_p f(p)^2 = (1/n!) * sum_shape dim(shape) * ||block[shape]||_F^2.

The degree of a payoff is the largest n - (largest part) over shapes whose
block is numerically nonzero; constants have degree 0, single-position
indicator payoffs have degree 1, and a point mass has degree n - 1.

Schatten aggregates of a spectrum weight each block's singular values by
the block dimension: s1 = sum_shape dim * sum_i sigma_i(block) and
sinf = max over all blocks of sigma_max.  The support-spread inequality

    (||f||_1 / ||f||_inf) * (s1 / sinf) >= n!

holds for every nonzero payoff, with equality for point masses and for
constants.

A payoff keeps its transform (``PayoffFn.spectrum``), a spectrum its
Schatten summary (``FourierSpectrum.schatten``), both read-only, and its
blocks by :func:`snfair.permutations.owned_read_only`.

The only size limit is :func:`snfair.permutations.group_order`, which
every :class:`~snfair.payoffs.PayoffFn` passes on construction.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from types import MappingProxyType

import numpy as np

from .errors import DegenerateError
from .partitions import dimension, partitions_of
from .payoffs import REAL, PayoffFn
from .permutations import all_of, owned_read_only
from .representations import fft, fft_adjoint

# Relative: a block counts toward the degree when its Frobenius norm
# exceeds DEGREE_TOL * ||f||_2.  Blocks that are zero in exact arithmetic
# measured at most 1.7e-14 * ||f||_2 at n = 8-10 (junta k = 2, stabilizer
# t = 3); the smallest true block there is at least 11 * ||f||_2.
# The raw norm is kept rather than weighted by sqrt(dim / n!), which is a
# block's Parseval share of ||f||_2.  At n = 9 (same payoffs) weighting
# would move the zero blocks from <= 5.8e-15 to <= 8.8e-17 and the true
# ones from >= 26.8 to >= 0.045 times ||f||_2: margins to DEGREE_TOL of
# about 1e7 on both sides instead of 1.7e5 and 2.7e10.  Both leave the
# threshold five or more orders of magnitude from either side, and
# weighting would rescale what a user's --tol means by up to sqrt(n!).
DEGREE_TOL = 1e-9

# Relative to n!: the support-spread product holds when it falls short of
# n! by at most SUPPORT_SPREAD_TOL * n!.  The equality cases (point mass,
# constant) land within 3.1e-15 * n! of n! at n = 8 and 9.
SUPPORT_SPREAD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Read-only blocks, one per partition of n in canonical order; its
    `schatten` summary is computed on first use and kept."""

    n: int
    blocks: Mapping[tuple[int, ...], np.ndarray]

    def __post_init__(self) -> None:
        blocks = {}
        for s in partitions_of(self.n):
            if s not in self.blocks:
                raise ValueError(f"missing block for shape {s}")
            mat = owned_read_only(self.blocks[s])
            d = dimension(s)
            if mat.shape != (d, d):
                raise ValueError(f"block {s} must be {d}x{d}")
            blocks[s] = mat
        object.__setattr__(self, "blocks", MappingProxyType(blocks))

    @cached_property
    def schatten(self) -> SchattenSummary:
        return schatten_summary(self)


def transform(f: PayoffFn) -> FourierSpectrum:
    """Forward transform: one dim x dim block per partition."""
    return FourierSpectrum(f.n, fft(f.n, f.values))


def inverse(spec: FourierSpectrum) -> PayoffFn:
    """Invert a full spectrum: (1/n!) sum_shape dim * trace(block @ rho(p).T)."""
    weighted = {s: dimension(s) * np.asarray(m) for s, m in spec.blocks.items()}
    values = fft_adjoint(spec.n, weighted)
    values /= factorial(spec.n)
    values.setflags(write=False)
    return PayoffFn(spec.n, values)


def degree(f: PayoffFn, tol: float = DEGREE_TOL) -> int:
    """Largest n - (largest part) over shapes carrying spectral mass.

    The threshold is relative: a block counts when its Frobenius norm
    exceeds tol * ||f||_2.  Undefined for the zero function.
    """
    if not all_of((tol,), REAL):
        raise ValueError(f"tol must be a real number, got {tol!r}")
    norm = float(np.linalg.norm(f.values))
    if norm == 0.0:
        raise DegenerateError("degree of the zero function is undefined")
    deg = 0
    for s, mat in f.spectrum.blocks.items():
        if np.linalg.norm(mat) > tol * norm:
            deg = max(deg, f.n - s[0])
    return deg


@dataclass(frozen=True)
class SchattenSummary:
    """Dimension-weighted singular value aggregates of a spectrum."""

    s1: float
    sinf: float
    per_block: Mapping[tuple[int, ...], np.ndarray] = field(repr=False)


def schatten_summary(spec: FourierSpectrum) -> SchattenSummary:
    per_block = {}
    s1 = 0.0
    sinf = 0.0
    for s, mat in spec.blocks.items():
        sv = np.linalg.svd(mat, compute_uv=False)
        sv.setflags(write=False)
        per_block[s] = sv
        s1 += dimension(s) * float(sv.sum())
        if sv.size:
            sinf = max(sinf, float(sv[0]))
    return SchattenSummary(s1=s1, sinf=sinf, per_block=MappingProxyType(per_block))


@dataclass(frozen=True)
class UncertaintyCheck:
    """Both factors of the support-spread product and the verdict."""

    support_ratio: float  # ||f||_1 / ||f||_inf
    spread_ratio: float  # s1 / sinf
    product: float
    holds: bool


def uncertainty_check(f: PayoffFn) -> UncertaintyCheck:
    """Check (||f||_1/||f||_inf) * (s1/sinf) >= n! for a nonzero payoff,
    within SUPPORT_SPREAD_TOL."""
    abs_vals = np.abs(f.values)
    linf = float(abs_vals.max())
    if linf == 0.0:
        raise DegenerateError("support-spread product undefined for the zero function")
    l1 = float(abs_vals.sum())
    summary = f.spectrum.schatten
    support_ratio = l1 / linf
    spread_ratio = summary.s1 / summary.sinf
    product = support_ratio * spread_ratio
    return UncertaintyCheck(
        support_ratio=support_ratio,
        spread_ratio=spread_ratio,
        product=product,
        holds=product >= factorial(f.n) * (1.0 - SUPPORT_SPREAD_TOL),
    )

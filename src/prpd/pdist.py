"""Pseudodistributions, robust generators and their matrix forms.

A pseudodistribution is a finite weighted list of output strings; realized
on a program segment it becomes the coefficient-weighted average of walk
matrices. Robust generators carry a two-level seed (outer x, inner y) and a
bundle of mu signed strings per seed pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from .bits import all_bits
from .errors import ContractError, InputError, check_capacity
from .robp import Mat, Robp, check_segment, mat_scale, signed_walk_sum

if TYPE_CHECKING:
    from .recursion import MergeNode
    from .sampler import Sampler


# ---------------------------------------------------------------------------
# plain pseudodistributions


@dataclass(frozen=True)
class PseudoDist:
    """Indexed family of (output string, rational coefficient) pairs."""

    out_len: int
    entries: Tuple[Tuple[str, Fraction], ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InputError("a pseudodistribution needs at least one entry")
        for s, _ in self.entries:
            if len(s) != self.out_len or any(ch not in "01" for ch in s):
                raise InputError(f"entry {s!r} is not a {self.out_len}-bit string")

    @property
    def size(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# robust generators: bundles of signed strings behind a two-level seed


Bundle = Callable[[str, str], List[Tuple[str, int]]]


@dataclass(frozen=True)
class RobustPrpd:
    """Generator (x, y) -> bundle of mu (string, sign) pairs; coefficients are sign * mu.

    x has s_out bits, y has s_in bits. The per-seed matrix A(x, y) is the
    plain sum of signed walk matrices over the bundle. A generator built by
    merging children also carries its layout, which the bundle reads and
    recursion.merge_tree_form evaluates through; one that reads a child
    behind a sampler carries the pair (child, sampler) as `reads`.
    """

    out_len: int
    s_out: int
    s_in: int
    mu: int
    bundle: Bundle
    merge: Optional[MergeNode] = field(default=None, compare=False, repr=False)
    reads: Optional[Tuple[RobustPrpd, Sampler]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.mu < 1:
            raise InputError("weight mu must be at least 1")
        if self.s_out < 0 or self.s_in < 0:
            raise InputError("seed lengths must be non-negative")

    @property
    def seed_len(self) -> int:
        return self.s_out + self.s_in


def uniform_bundle(x: str, y: str) -> List[Tuple[str, int]]:     # merge_tree_form knows it
    return [(y, 1)]


def uniform_prpd(out_len: int) -> RobustPrpd:
    """The exact baseline: inner seed is the output, weight 1, zero error."""
    return RobustPrpd(out_len=out_len, s_out=0, s_in=out_len, mu=1, bundle=uniform_bundle)


def seed_bundles(prpd: RobustPrpd, site: str) -> Iterator[Tuple[str, str, list]]:
    """Every (x, y, bundle), x outer; the capacity of all (x, y, i) is checked at the call.

    A bundle whose length is not mu raises ContractError.
    """
    check_capacity((1 << prpd.seed_len) * prpd.mu, site)
    return _checked_bundles(prpd)


def _checked_bundles(prpd: RobustPrpd) -> Iterator[Tuple[str, str, list]]:
    for x in all_bits(prpd.s_out):
        for y in all_bits(prpd.s_in):
            bundle = prpd.bundle(x, y)
            if len(bundle) != prpd.mu:
                raise ContractError(f"bundle at x={x!r} y={y!r} has {len(bundle)} entries, "
                                    f"mu is {prpd.mu}")
            yield x, y, bundle


def to_pseudodist(prpd: RobustPrpd) -> PseudoDist:
    """Expand every (x, y, i) into an entry with coefficient sign * mu."""
    mu = Fraction(prpd.mu)
    return PseudoDist(prpd.out_len, tuple(
        (s, sign * mu) for _, _, bundle in seed_bundles(prpd, "robust generator expansion")
        for s, sign in bundle))


# ---------------------------------------------------------------------------
# matrix forms on a fixed program segment: dicts from a seed to a w x w matrix


def dyadic_form(prpd: RobustPrpd, robp: Robp, a: int, b: int) -> Dict[str, Mat]:
    """x -> the int sum over y of A(x, y): robust_form as int matrices over 2^s_in."""
    check_segment(robp, a, b, prpd.out_len)
    per_x = groupby(seed_bundles(prpd, "matrix form enumeration"), key=itemgetter(0))
    return {x: signed_walk_sum(robp, a, b, (e for _, _, bundle in group for e in bundle))
            for x, group in per_x}


def robust_form(prpd: RobustPrpd, robp: Robp, a: int, b: int) -> Dict[str, Mat]:
    """x -> E_y A(x, y), A(x, y) the sum over the bundle of sign * walk matrix; exact."""
    inv = Fraction(1, 1 << prpd.s_in)
    return {x: mat_scale(inv, m) for x, m in dyadic_form(prpd, robp, a, b).items()}


def matrix_form(prpd: RobustPrpd, robp: Robp, a: int, b: int) -> Dict[str, Mat]:
    """x||y -> A(x, y), the int matrix of one seed's bundle; its average is robust_form's."""
    check_segment(robp, a, b, prpd.out_len)
    return {x + y: signed_walk_sum(robp, a, b, bundle)
            for x, y, bundle in seed_bundles(prpd, "per-seed table")}

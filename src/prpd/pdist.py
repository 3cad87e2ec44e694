"""Pseudodistributions and their matrix-form machinery.

A pseudodistribution is a finite weighted list of output strings; realized
on a program segment it becomes the coefficient-weighted average of walk
matrices. Scaling / union / concatenation mirror matrix scaling / sum /
product exactly. Robust generators carry a two-level seed (outer x, inner
y) and a bundle of mu signed strings per seed pair; flattening promotes
the inner seed into the outer one without touching averages or weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, Iterable, Iterator, Tuple

from .bits import all_bits
from .errors import ContractError, InputError, check_capacity
from .robp import Mat, Robp, inf_norm, mat_add, mat_scale, signed_walk_sum


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


def pdist(out_len: int, entries: Iterable[Tuple[str, object]]) -> PseudoDist:
    return PseudoDist(out_len, tuple((s, Fraction(c)) for s, c in entries))


def uniform_pdist(out_len: int) -> PseudoDist:
    check_capacity(1 << out_len, "uniform pseudodistribution")
    one = Fraction(1)
    return PseudoDist(out_len, tuple((s, one) for s in all_bits(out_len)))


def realize(pd: PseudoDist, robp: Robp, a: int, b: int) -> Mat:
    """E_i[coeff_i * walk(string_i)] on the segment [a, b], exact."""
    if pd.out_len != (b - a) * robp.d_step:
        raise InputError(
            f"pseudodistribution emits {pd.out_len} bits, segment consumes {(b - a) * robp.d_step}"
        )
    return mat_scale(Fraction(1, pd.size), signed_walk_sum(robp, a, pd.entries))


def scale(pd: PseudoDist, c) -> PseudoDist:
    c = Fraction(c)
    return PseudoDist(pd.out_len, tuple((s, coeff * c) for s, coeff in pd.entries))


def union(pd_a: PseudoDist, pd_b: PseudoDist) -> PseudoDist:
    """Disjoint union reweighted so realization adds exactly."""
    if pd_a.out_len != pd_b.out_len:
        raise InputError("union needs equal output lengths")
    total = pd_a.size + pd_b.size
    fa = Fraction(total, pd_a.size)
    fb = Fraction(total, pd_b.size)
    entries = tuple((s, c * fa) for s, c in pd_a.entries) + tuple((s, c * fb) for s, c in pd_b.entries)
    return PseudoDist(pd_a.out_len, entries)


def concat(pd_a: PseudoDist, pd_b: PseudoDist) -> PseudoDist:
    """Row-major pairing (a, b) -> a * size_b + b; realization multiplies."""
    entries = tuple(
        (sa + sb, ca * cb)
        for sa, ca in pd_a.entries
        for sb, cb in pd_b.entries
    )
    return PseudoDist(pd_a.out_len + pd_b.out_len, entries)


def dump_pdist(pd: PseudoDist) -> str:
    lines = [f"{s} {c.numerator}/{c.denominator}" for s, c in pd.entries]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# robust generators: bundles of signed strings behind a two-level seed


Gen = Callable[[str, str, int], Tuple[str, int]]


@dataclass(frozen=True)
class RobustPrpd:
    """Generator (x, y, i) -> (string, sign); coefficients are sign * mu.

    x has s_out bits, y has s_in bits, i ranges over [0, mu). The per-seed
    matrix is the plain sum of signed walk matrices over the bundle.
    """

    out_len: int
    s_out: int
    s_in: int
    mu: int
    gen: Gen

    def __post_init__(self):
        if self.mu < 1:
            raise InputError("weight mu must be at least 1")
        if self.s_out < 0 or self.s_in < 0:
            raise InputError("seed lengths must be non-negative")

    @property
    def seed_len(self) -> int:
        return self.s_out + self.s_in

    def bundle(self, x: str, y: str):
        return [self.gen(x, y, i) for i in range(self.mu)]


def uniform_prpd(out_len: int) -> RobustPrpd:
    """The exact baseline: inner seed is the output, weight 1, zero error."""

    def gen(x: str, y: str, i: int):
        return y, 1

    return RobustPrpd(out_len=out_len, s_out=0, s_in=out_len, mu=1, gen=gen)


def flatten(prpd: RobustPrpd) -> RobustPrpd:
    """Promote the inner seed into the outer seed; bundles stay bundled."""
    if prpd.s_in == 0:
        return prpd
    cut = prpd.s_out
    inner = prpd

    def gen(x: str, y: str, i: int):
        return inner.gen(x[:cut], x[cut:], i)

    return RobustPrpd(out_len=prpd.out_len, s_out=prpd.seed_len, s_in=0, mu=prpd.mu, gen=gen)


def pad_seeds(prpd: RobustPrpd, s_out: int, s_in: int) -> RobustPrpd:
    """Declare longer seeds; only the original prefixes are read."""
    if s_out < prpd.s_out or s_in < prpd.s_in:
        raise InputError(
            f"cannot shrink seeds: have ({prpd.s_out}, {prpd.s_in}), asked ({s_out}, {s_in})"
        )
    if s_out == prpd.s_out and s_in == prpd.s_in:
        return prpd
    inner = prpd
    ox, oy = prpd.s_out, prpd.s_in

    def gen(x: str, y: str, i: int):
        return inner.gen(x[:ox], y[:oy], i)

    return RobustPrpd(out_len=prpd.out_len, s_out=s_out, s_in=s_in, mu=prpd.mu, gen=gen)


def seed_bundles(prpd: RobustPrpd, site: str) -> Iterator[Tuple[str, str, list]]:
    """Every (x, y, bundle), x outer; the capacity of all (x, y, i) is checked at the call."""
    check_capacity((1 << prpd.seed_len) * prpd.mu, site)
    return ((x, y, prpd.bundle(x, y)) for x in all_bits(prpd.s_out) for y in all_bits(prpd.s_in))


def to_pseudodist(prpd: RobustPrpd) -> PseudoDist:
    """Expand every (x, y, i) into an entry with coefficient sign * mu."""
    mu = Fraction(prpd.mu)
    return PseudoDist(prpd.out_len, tuple(
        (s, sign * mu) for _, _, bundle in seed_bundles(prpd, "robust generator expansion")
        for s, sign in bundle))


def dump_prpd(prpd: RobustPrpd) -> str:
    """Canonical full-table serialization, used to compare builds bit for bit."""
    lines = [f"prpd out_len={prpd.out_len} s_out={prpd.s_out} s_in={prpd.s_in} mu={prpd.mu}"]
    for x, y, bundle in seed_bundles(prpd, "robust generator dump"):
        lines += [f"{x or '-'} {y or '-'} {i} {s} {'+' if sign > 0 else '-'}"
                  for i, (s, sign) in enumerate(bundle)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrix forms on a fixed program segment


@dataclass(frozen=True)
class MatrixForm:
    """Seed-indexed family of w x w matrices, stored as an exact table."""

    w: int
    s_out: int
    s_in: int
    table: Dict[Tuple[str, str], Mat]

    def at(self, x: str, y: str = "") -> Mat:
        return self.table[(x, y)]

    def flat_at(self, z: str) -> Mat:
        if self.s_in != 0:
            raise ContractError("flat lookup on a non-flattened form; flatten first")
        return self.table[(z, "")]

    def average(self) -> Mat:
        return mat_scale(Fraction(1, len(self.table)), reduce(mat_add, self.table.values()))

    @classmethod
    def from_flat(cls, table: Dict[str, Mat]) -> "MatrixForm":
        some = next(iter(table.values()))
        keys = next(iter(table.keys()))
        return cls(w=len(some), s_out=len(keys), s_in=0,
                   table={(z, ""): m for z, m in table.items()})


def matrix_form(prpd: RobustPrpd, robp: Robp, a: int, b: int) -> MatrixForm:
    """A(x, y) = sum over the bundle of sign * walk matrix; exact table."""
    if prpd.out_len != (b - a) * robp.d_step:
        raise InputError(
            f"generator emits {prpd.out_len} bits, segment consumes {(b - a) * robp.d_step}"
        )
    table = {(x, y): signed_walk_sum(robp, a, bundle)
             for x, y, bundle in seed_bundles(prpd, "matrix form enumeration")}
    return MatrixForm(w=robp.w, s_out=prpd.s_out, s_in=prpd.s_in, table=table)


def robust_form(mf: MatrixForm) -> Dict[str, Mat]:
    """Average the inner seed out: x -> E_y[A(x, y)]."""
    inv = Fraction(1, 1 << mf.s_in)
    return {x: mat_scale(inv, reduce(mat_add, (mf.table[(x, y)] for y in all_bits(mf.s_in))))
            for x in all_bits(mf.s_out)}


@dataclass(frozen=True)
class FormStats:
    norm: Fraction
    robust_norm: Fraction
    weight: Fraction


def form_stats(mf: MatrixForm) -> FormStats:
    """Exact norm / robust norm / weight of the robust mapping x -> E_y A(x, y)."""
    rf = robust_form(mf)
    norms = [inf_norm(m) for m in rf.values()]
    inv = Fraction(1, len(norms))
    avg = mf.average()
    return FormStats(
        norm=inf_norm(avg),
        robust_norm=sum(norms) * inv,
        weight=max(norms),
    )

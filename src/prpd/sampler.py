"""Averaging samplers as a certified interface.

A sampler g: {0,1}^n x {0,1}^d -> {0,1}^m estimates the mean of any bounded
function over {0,1}^m from the 2^d samples selected by an outer input x.
Certification is by brute force: for each x the total variation distance
between the sample multiset and uniform is the exact worst case over
[0,1]-valued test functions, so the per-x TV profile decides the (eps,
delta) property outright. Constructions refuse samplers that do not carry
a covering certificate.

A sampler is a function on ints: g.sample(x, s) takes the n-bit outer input
x and the d-bit seed s and returns the m-bit output, each read MSB first,
so its order is the lexicographic order of the bit strings. Callers that
hold strings convert at their own edge. A sampler may also carry a row:
g.row(x) yields g.sample(x, s) for every seed s in order, all at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, List, Optional, Tuple

from .errors import ContractError, InputError, check_capacity

METHOD_BRUTE = "brute-force"
METHOD_ANALYTIC = "analytic"


@dataclass(frozen=True)
class Certificate:
    eps: Fraction
    delta: Fraction
    method: str

    def covers(self, eps, delta) -> bool:
        """Certificates are monotone: (eps, delta) covers anything weaker, compared as given."""
        return self.eps <= eps and self.delta <= delta


@dataclass
class Sampler:
    n: int
    d: int
    m: int
    sample: Callable[[int, int], int]
    cert: Optional[Certificate] = None
    row: Optional[Callable[[int], Iterable[int]]] = None


@dataclass(frozen=True)
class TvProfile:
    """Per-outer-input total variation distance from uniform."""

    per_x: Tuple[Fraction, ...]

    @property
    def max_tv(self) -> Fraction:
        return max(self.per_x)

    def bad_count(self, eps) -> int:
        eps = Fraction(eps)
        return sum(1 for tv in self.per_x if tv > eps)


def pass_seed(x: int, s: int) -> int:
    """g(x, s) = s: with d = m every seed is selected once, whatever x is."""
    return s


# every enumeration sampler's certificate: it is frozen, and certify() replaces a cert
_EXACT = Certificate(eps=Fraction(0), delta=Fraction(0), method=METHOD_ANALYTIC)


def enumeration_sampler(m: int, n: int = 0) -> Sampler:
    """d = m and g(x, s) = s: exact for every x, a (0, 0)-sampler."""
    if n < 0 or m < 0:
        raise InputError("enumeration_sampler needs n, m >= 0")
    return Sampler(n=n, d=m, m=m, sample=pass_seed, cert=_EXACT)


# The walk's step for each 2-bit seed symbol, as v -> a*v + b mod 2^m.
_WALK_STEPS = ((1, 1), (1, -1), (5, 3), (3, 1))


def _composed_steps(bits: int, mask: int) -> Tuple[Tuple[int, int], ...]:
    """For every value of a bits-long seed chunk, the walk it drives as one map (a, b).

    The chunk's 2-bit steps are composed left to right, then an odd last bit
    steps +1 or -1; a and b are reduced by mask = 2^m - 1. Affine maps mod 2^m
    compose exactly: v -> a2*(a1*v + b1) + b2 is v -> (a1*a2)*v + (a2*b1 + b2).
    """
    table = []
    for value in range(1 << bits):
        a, b = 1, 0
        for shift in range(bits - 2, (bits & 1) - 1, -2):
            a2, b2 = _WALK_STEPS[(value >> shift) & 3]
            a, b = (a * a2) & mask, (a2 * b + b2) & mask
        if bits & 1:
            b = (b + (1 if value & 1 else -1)) & mask
        table.append((a, b))
    return tuple(table)


def expander_walk_sampler(n: int, d: int, m: int, seed: int = 0) -> Sampler:
    """Heuristic walk over Z_{2^m}; returned uncertified, certify before use.

    The outer input, cut into m-bit chunks from the left, XOR-folds onto a
    salt to give the start vertex. Each 2-bit seed symbol is an affine step
    (_WALK_STEPS) and an odd last seed bit steps +1 or -1. Each whole seed
    byte is one map from a 256-entry table of composed steps, and the
    leftover d % 8 bits one map from the table of that length. The shifts
    that cut x into chunks and s into bytes are fixed with the sampler; the
    tables depend on m only and are never changed. The sampler's row folds
    x once and expands the start vertex through the same tables, byte by
    byte from the left, so its outputs come in seed order. Each 2-bit
    step has odd a and b and the last bit steps +1 or -1, so every step
    flips the parity of v: all 2^d samples of an x share one parity, their
    TV is at least 1/2, and the walk cannot certify any eps < 1/2. The
    degenerate d = m case passes the seed straight through and has no row.
    """
    if n < 0 or d < 0 or m < 1:
        raise InputError("expander_walk_sampler needs n, d >= 0 and m >= 1")
    mask = (1 << m) - 1
    salt = (seed * 0x9E3779B1 + 0x85EBCA77) & mask

    if d == m:
        return Sampler(n=n, d=d, m=m, sample=pass_seed, cert=None)

    # x's last chunk is its low n % m bits; the whole chunks sit above it
    part = n % m
    part_mask, fold_shifts = (1 << part) - 1, tuple(range(part, n, m))
    # s's whole bytes from the left, then its low d % 8 bits
    tail = d & 7
    byte_shifts = tuple(range(d - 8, tail - 1, -8))
    tail_mask = (1 << tail) - 1
    byte_steps, tail_steps = _composed_steps(8, mask), _composed_steps(tail, mask)

    def start(x: int) -> int:
        v = salt ^ (x & part_mask)
        for shift in fold_shifts:
            v ^= (x >> shift) & mask
        return v

    def sample(x: int, s: int) -> int:
        v = start(x)
        for shift in byte_shifts:
            a, b = byte_steps[(s >> shift) & 255]
            v = (a * v + b) & mask
        if tail:
            a, b = tail_steps[s & tail_mask]
            v = (a * v + b) & mask
        return v

    def row(x: int) -> List[int]:
        vs = [start(x)]
        for _ in byte_shifts:
            vs = [(a * v + b) & mask for v in vs for a, b in byte_steps]
        if tail:
            vs = [(a * v + b) & mask for v in vs for a, b in tail_steps]
        return vs

    return Sampler(n=n, d=d, m=m, sample=sample, cert=None, row=row)


def check_outputs(outs: Iterable, m: int) -> None:
    """ContractError naming the first of outs that is not an int in [0, 2^m); a bool is not."""
    for out in outs:
        if type(out) is not int or out < 0 or out >> m:
            raise ContractError(f"sampler output {out!r} is not an int in [0, 2^{m})")


def tv_profile(g: Sampler) -> TvProfile:
    """Exact TV(p_x, uniform) for every x, by full enumeration.

    Over 2^(d+m), an output hit c times is |c*2^m - 2^d| from uniform and a
    missed one 2^d, so each TV is one Fraction of an int sum. Each x is
    counted in one pass over the seeds, from g.row(x) when the sampler has
    a row; the Counter keeps outputs in first-seen order, so an output out
    of range is reported as the first one met in (x, s) order. Only
    distinct outputs are checked: a value equal to one already counted
    (True after 1) is counted as that int. A row must yield 2^d outputs.
    """
    check_capacity((1 << g.n) * (1 << g.d), "sampler TV profile")
    unif, den = 1 << g.d, 1 << (g.d + g.m + 1)
    seeds = range(1 << g.d)
    per_x = []
    for x in range(1 << g.n):
        counts = Counter(g.row(x) if g.row else map(g.sample, repeat(x), seeds))
        check_outputs(counts, g.m)
        if g.row and sum(counts.values()) != unif:
            raise ContractError(f"sampler row at x = {x} yields {sum(counts.values())} "
                                f"outputs, not 2^{g.d}")
        hit_mass = sum(abs((c << g.m) - unif) for c in counts.values())
        miss_mass = ((1 << g.m) - len(counts)) * unif
        per_x.append(Fraction(hit_mass + miss_mass, den))
    return TvProfile(per_x=tuple(per_x))


def certify(g: Sampler, eps, delta) -> Tuple[bool, TvProfile]:
    """Brute-force verdict: at most a delta fraction of x may exceed TV eps.

    On success the sampler's certificate is replaced with the brute-force
    record at exactly (eps, delta).
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if eps < 0 or delta < 0:
        raise InputError("eps and delta must be non-negative")
    profile = tv_profile(g)
    ok = Fraction(profile.bad_count(eps), 1 << g.n) <= delta
    if ok:
        g.cert = Certificate(eps=eps, delta=delta, method=METHOD_BRUTE)
    return ok, profile


def require_certified(g: Sampler, eps, delta, what: str = "sampler") -> None:
    if g.cert is None:
        raise ContractError(f"{what} is uncertified; run certify() first")
    if not g.cert.covers(eps, delta):
        raise ContractError(
            f"{what} certified at ({g.cert.eps}, {g.cert.delta}), "
            f"needs ({Fraction(eps)}, {Fraction(delta)})"
        )


"""Averaging samplers as a certified interface.

A sampler g: {0,1}^n x {0,1}^d -> {0,1}^m estimates the mean of any bounded
function over {0,1}^m from the 2^d samples selected by an outer input x.
Certification is by brute force: for each x the total variation distance
between the sample multiset and uniform is the exact worst case over
[0,1]-valued test functions, so the per-x TV profile decides the (eps,
delta) property outright. Constructions refuse samplers that do not carry
a covering certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from .bits import all_bits, bits_to_int, int_to_bits
from .errors import ContractError, InputError, check_capacity

METHOD_BRUTE = "brute-force"
METHOD_ANALYTIC = "analytic"


@dataclass(frozen=True)
class Certificate:
    eps: Fraction
    delta: Fraction
    method: str

    def covers(self, eps, delta) -> bool:
        """Certificates are monotone: (eps, delta) covers anything weaker."""
        return self.eps <= Fraction(eps) and self.delta <= Fraction(delta)


@dataclass
class Sampler:
    n: int
    d: int
    m: int
    sample: Callable[[str, str], str]
    cert: Optional[Certificate] = None


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


def pass_seed(x: str, s: str) -> str:
    """g(x, s) = s: with d = m every seed is selected once, whatever x is."""
    return s


def enumeration_sampler(m: int, n: int = 0) -> Sampler:
    """d = m and g(x, s) = s: exact for every x, a (0, 0)-sampler."""
    if n < 0 or m < 0:
        raise InputError("enumeration_sampler needs n, m >= 0")
    cert = Certificate(eps=Fraction(0), delta=Fraction(0), method=METHOD_ANALYTIC)
    return Sampler(n=n, d=m, m=m, sample=pass_seed, cert=cert)


def expander_walk_sampler(n: int, d: int, m: int, seed: int = 0) -> Sampler:
    """Heuristic walk over Z_{2^m}; returned uncertified, certify before use.

    The outer input folds to a start vertex, the seed drives affine steps.
    The degenerate d = m case passes the seed straight through.
    """
    if n < 0 or d < 0 or m < 1:
        raise InputError("expander_walk_sampler needs n, d >= 0 and m >= 1")
    size = 1 << m
    salt = (seed * 0x9E3779B1 + 0x85EBCA77) % size

    if d == m:
        return Sampler(n=n, d=d, m=m, sample=pass_seed, cert=None)

    def fold(x: str) -> int:
        v = salt
        for pos in range(0, len(x), m):
            v ^= bits_to_int(x[pos:pos + m])
        return v % size

    def sample(x: str, s: str) -> str:
        v = fold(x)
        for pos in range(0, len(s) - 1, 2):
            c = bits_to_int(s[pos:pos + 2])
            if c == 0:
                v = v + 1
            elif c == 1:
                v = v - 1
            elif c == 2:
                v = 5 * v + 3
            else:
                v = 3 * v + 1
            v %= size
        if len(s) % 2:
            v = (v + (1 if s[-1] == "1" else size - 1)) % size
        return int_to_bits(v, m)

    return Sampler(n=n, d=d, m=m, sample=sample, cert=None)


def tv_profile(g: Sampler) -> TvProfile:
    """Exact TV(p_x, uniform) for every x, by full enumeration.

    Over 2^(d+m), an output hit c times is |c*2^m - 2^d| from uniform and a
    missed one 2^d, so each TV is one Fraction of an int sum.
    """
    check_capacity((1 << g.n) * (1 << g.d), "sampler TV profile")
    unif, den = 1 << g.d, 1 << (g.d + g.m + 1)
    per_x = []
    for x in all_bits(g.n):
        counts: Dict[str, int] = {}
        for s in all_bits(g.d):
            out = g.sample(x, s)
            if len(out) != g.m:
                raise ContractError(f"sampler output {out!r} is not {g.m} bits")
            counts[out] = counts.get(out, 0) + 1
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


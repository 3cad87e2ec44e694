"""Seeded random instance generators shared across the test suite.

Everything returns exact rationals so oracle comparisons are equalities,
never tolerances.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from prpd import Certificate, PseudoDist, RobustPrpd, Sampler, build_ck, inf_norm
from prpd.bits import all_bits, bits_to_int, int_to_bits


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`."""
    def time_out(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rand_fraction(rng: random.Random, lo=-2, hi=2, den_bits=4) -> Fraction:
    den = 1 << rng.randrange(den_bits + 1)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_matrix(rng: random.Random, w: int, lo=-1, hi=1, den_bits=4):
    return tuple(tuple(rand_fraction(rng, lo, hi, den_bits) for _ in range(w)) for _ in range(w))


def rand_stochastic(rng: random.Random, w: int):
    rows = []
    for _ in range(w):
        raw = [rng.randint(1, 16) for _ in range(w)]
        total = sum(raw)
        rows.append(tuple(Fraction(v, total) for v in raw))
    return tuple(rows)


def rand_substochastic(rng: random.Random, w: int):
    rows = []
    for _ in range(w):
        raw = [rng.randint(0, 16) for _ in range(w)]
        total = sum(raw) + rng.randint(1, 16)
        rows.append(tuple(Fraction(v, total) for v in raw))
    return tuple(rows)


def perturbed(rng: random.Random, base, bound) -> tuple:
    """base + E with inf_norm(E) <= bound exactly (equality on request)."""
    w = len(base)
    raw = rand_matrix(rng, w)
    nrm = inf_norm(raw)
    if nrm == 0:
        return base
    q = Fraction(rng.randint(0, 8), 8)
    scale = Fraction(bound) * q / nrm
    return tuple(tuple(b + scale * e for b, e in zip(rb, re)) for rb, re in zip(base, raw))


def rand_bits(rng: random.Random, width: int) -> str:
    return int_to_bits(rng.randrange(1 << width), width) if width else ""


def rand_pdist(rng: random.Random, out_len: int, size: int) -> PseudoDist:
    entries = tuple(
        (rand_bits(rng, out_len), rand_fraction(rng, -2, 2))
        for _ in range(size)
    )
    return PseudoDist(out_len, entries)


def rand_flat_map(rng: random.Random, m_bits: int, w: int, lo=-1, hi=1) -> dict:
    return {z: rand_matrix(rng, w, lo, hi) for z in all_bits(m_bits)}


def rand_table_sampler(rng: random.Random, n: int, d: int, m: int) -> Sampler:
    table = {
        (x, s): bits_to_int(rand_bits(rng, m))
        for x in range(1 << n)
        for s in range(1 << d)
    }

    def sample(x: int, s: int) -> int:
        return table[(x, s)]

    return Sampler(n=n, d=d, m=m, sample=sample, cert=None)


def rand_prpd(rng: random.Random, out_len: int, s_out: int, s_in: int, mu: int) -> RobustPrpd:
    """Frozen random generator table with random strings and signs."""
    table = {
        (x, y): [(rand_bits(rng, out_len), rng.choice((1, -1))) for _ in range(mu)]
        for x in all_bits(s_out)
        for y in all_bits(s_in)
    }

    def bundle(x: str, y: str):
        return table[(x, y)]

    return RobustPrpd(out_len=out_len, s_out=s_out, s_in=s_in, mu=mu, bundle=bundle)


def corrupted_uniform_prpd(out_len: int, s_in: int, corrupt_at: int = 0,
                           replacement: str | None = None) -> RobustPrpd:
    """Uniform generator over y[:out_len] except on one inner seed.

    Robust error is at most 2/2^s_in, so s_in tunes the accuracy grade
    while keeping weight 1.
    """
    if s_in < out_len:
        raise ValueError("need s_in >= out_len for the uniform part")
    bad_y = int_to_bits(corrupt_at, s_in)
    repl = replacement if replacement is not None else "1" * out_len

    def bundle(x: str, y: str):
        return [(repl if y == bad_y else y[:out_len], 1)]

    return RobustPrpd(out_len=out_len, s_out=0, s_in=s_in, mu=1, bundle=bundle)


def weighted_exact_prpd(out_len: int, mu: int) -> RobustPrpd:
    """Exact uniform realization carrying an odd weight mu via cancelling pairs."""
    if mu % 2 != 1:
        raise ValueError("cancelling pairs need odd mu")

    def bundle(x: str, y: str):
        # entries 1..(mu-1) cancel in +/- pairs; entry 0 carries the value
        return [(y, 1)] + [(y, 1 if i % 2 == 1 else -1) for i in range(1, mu)]

    return RobustPrpd(out_len=out_len, s_out=0, s_in=out_len, mu=mu, bundle=bundle)


def assumed_sampler(g: Sampler, eps=Fraction(0), delta=Fraction(0)) -> Sampler:
    """g with an assumed (eps, delta) certificate, by default (0, 0), so build_ck installs it.

    For tests that judge how a generator is evaluated, not how accurate its
    samplers are, and for tests that put a certificate at a given requirement.
    """
    g.cert = Certificate(eps=Fraction(eps), delta=Fraction(delta), method="assumed")
    return g


def rand_child(rng: random.Random, m_bits: int, i: int, s_out: int, s_in: int) -> RobustPrpd:
    """A random index-i child: a random table within weight binom(m-1, i), or, when its
    seed allows, a corrupted uniform generator."""
    if s_out == 0 and s_in >= m_bits and rng.random() < 0.4:
        return corrupted_uniform_prpd(m_bits, s_in, rng.randrange(1 << s_in),
                                      rand_bits(rng, m_bits))
    return rand_prpd(rng, m_bits, s_out, s_in, rng.randint(1, comb(m_bits - 1, i)))


def rand_merge(rng: random.Random, children, n_max: int) -> RobustPrpd:
    """build_ck over the family with random-table samplers: outer input up to n_max bits
    (at least one at index 0, so the merge reads an outer seed), seed up to 2 bits."""
    samplers = [assumed_sampler(rand_table_sampler(rng, rng.randint(1 if i == 0 else 0, n_max),
                                                   rng.randint(0, 2), children[i].seed_len))
                for i in range(len(children) // 2 + 1)]
    return build_ck(children, w=2, gamma=Fraction(1, 2), samplers=samplers)


def rand_depth1_tree(rng: random.Random, m_bits: int, k: int, n_max: int = 2) -> RobustPrpd:
    """One merge of a family of random children, each serving both halves: a pass-through
    index gets a child with s_out > 0."""
    children = []
    for i in range(k + 1):
        if i <= (k + 1) // 2:
            seed = rng.randint(0, 3)
            s_out = rng.randint(0, min(seed, 1))
            children.append(rand_child(rng, m_bits, i, s_out, seed - s_out))
        else:
            children.append(rand_child(rng, m_bits, i, rng.randint(1, 2), rng.randint(0, 2)))
    return rand_merge(rng, children, n_max)


def rand_depth2_tree(rng: random.Random, m_bits: int, k: int, n_max: int = 2) -> RobustPrpd:
    """A merge of depth-1 merges: child i is a depth-1 tree with k = i."""
    return rand_merge(rng, [rand_depth1_tree(rng, m_bits, i, n_max) for i in range(k + 1)], n_max)

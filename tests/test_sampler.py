import random
from collections import Counter
from fractions import Fraction

import pytest

from prpd import (Certificate, InputError, Sampler, certify, enumeration_sampler,
                  expander_walk_sampler, inf_norm, mat_sub, tv_profile)
from prpd.bits import all_bits

from helpers import rand_flat_map, rand_table_sampler
from lemmas import average, bad_fraction, form_stats, sampled_average


def sampled_mean(g, f, x):
    """E_s[f(g(x, s))]: g's estimate of the mean of f at outer input x."""
    return sum(Fraction(f(g.sample(x, s))) for s in all_bits(g.d)) / (1 << g.d)


def exhaustive_f_verdict(g, eps, delta):
    """Check the defining property over every 0/1-valued test function."""
    eps, delta = Fraction(eps), Fraction(delta)
    outs = {x: [g.sample(x, s) for s in all_bits(g.d)] for x in all_bits(g.n)}
    bad = set()
    for mask in range(1 << (1 << g.m)):
        f = {y: (mask >> i) & 1 for i, y in enumerate(all_bits(g.m))}
        mean = Fraction(sum(f.values()), 1 << g.m)
        for x, samples in outs.items():
            est = Fraction(sum(f[o] for o in samples), 1 << g.d)
            if abs(est - mean) > eps:
                bad.add(x)
    return Fraction(len(bad), 1 << g.n) <= delta


def test_enumeration_sampler_exact():
    g = enumeration_sampler(3, n=2)
    profile = tv_profile(g)
    assert profile.max_tv == 0
    rng = random.Random(0)
    f = {y: Fraction(rng.randint(0, 8), 8) for y in all_bits(3)}
    mean = sum(f.values()) / 8
    for x in all_bits(2):
        assert sampled_mean(g, lambda y: f[y], x) == mean


def test_enumeration_sampler_certifies_at_zero_zero():
    g = enumeration_sampler(3)
    ok, profile = certify(g, 0, 0)
    assert ok and profile.max_tv == 0
    assert g.cert.method == "brute-force"
    assert g.cert.covers(Fraction(1, 100), 0)


def test_constant_sampler_tv():
    m = 2
    g = Sampler(n=2, d=2, m=m, sample=lambda x, s: "0" * m)
    profile = tv_profile(g)
    expected = 1 - Fraction(1, 1 << m)
    assert all(tv == expected for tv in profile.per_x)
    ok, _ = certify(g, Fraction(1, 2), Fraction(1, 2))
    assert not ok
    ok, _ = certify(g, expected, 0)
    assert ok


def per_output_tv(g, x):
    """TV(p_x, uniform) as a Fraction sum over every output, hit or not."""
    counts = Counter(g.sample(x, s) for s in all_bits(g.d))
    gap = sum(abs(Fraction(counts[y], 1 << g.d) - Fraction(1, 1 << g.m)) for y in all_bits(g.m))
    return gap / 2


@pytest.mark.parametrize("n,d,m", [(2, 2, 5), (3, 3, 4), (2, 6, 3), (1, 5, 2), (2, 3, 3)])
def test_tv_profile_matches_per_output_formula(n, d, m):
    # d < m leaves outputs never hit; d > m hits some outputs many times
    for seed in range(3):
        g = expander_walk_sampler(n, d, m, seed=seed)
        assert tv_profile(g).per_x == tuple(per_output_tv(g, x) for x in all_bits(n))
    if d < m:
        assert len({g.sample("0" * n, s) for s in all_bits(d)}) < 1 << m


def test_expander_walk_certifies_at_measured_profile():
    g = expander_walk_sampler(8, 4, 4, seed=1)
    profile = tv_profile(g)
    ok, _ = certify(g, profile.max_tv, 0)
    assert ok


def test_expander_walk_degenerate_is_enumeration():
    g = expander_walk_sampler(4, 3, 3, seed=0)
    for x in all_bits(4):
        for s in all_bits(3):
            assert g.sample(x, s) == s
    ok, profile = certify(g, 0, 0)
    assert ok and profile.max_tv == 0


def test_certificate_monotonicity():
    cert = Certificate(eps=Fraction(1, 8), delta=Fraction(1, 16), method="brute-force")
    assert cert.covers(Fraction(1, 8), Fraction(1, 16))
    assert cert.covers(Fraction(1, 4), Fraction(1, 2))
    assert not cert.covers(Fraction(1, 16), Fraction(1, 2))
    assert not cert.covers(Fraction(1, 2), Fraction(1, 32))


def test_certify_soundness_small_grid():
    rng = random.Random(7)
    for trial in range(6):
        n, d, m = rng.choice([(3, 2, 2), (4, 2, 2), (4, 3, 2)])
        g = rand_table_sampler(rng, n, d, m)
        profile = tv_profile(g)
        for eps in (Fraction(0), Fraction(1, 8), Fraction(1, 4), profile.max_tv):
            for delta in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
                tv_ok = bad_fraction(profile, eps) <= delta
                if tv_ok:
                    assert exhaustive_f_verdict(g, eps, delta)


def test_estimate_scalar_general_range():
    g = expander_walk_sampler(6, 3, 3, seed=3)
    profile = tv_profile(g)
    certify(g, profile.max_tv, 0)
    rng = random.Random(4)
    lo, hi = Fraction(-2), Fraction(2)
    f = {y: lo + (hi - lo) * Fraction(rng.randint(0, 16), 16) for y in all_bits(3)}
    mean = sum(f.values()) / 8
    eps, delta = g.cert.eps, g.cert.delta
    bad = sum(1 for x in all_bits(6)
              if abs(sampled_mean(g, lambda y: f[y], x) - mean) > eps * (hi - lo))
    assert Fraction(bad, 64) <= delta


def test_estimate_scalar_constant_function_exact():
    g = expander_walk_sampler(5, 2, 3, seed=11)
    certify(g, Fraction(1), Fraction(1))
    for x in all_bits(5):
        assert sampled_mean(g, lambda y: Fraction(3, 7), x) == Fraction(3, 7)


def test_estimate_matrix_enumeration_exact():
    rng = random.Random(5)
    flat = rand_flat_map(rng, 3, 2)
    g = enumeration_sampler(3, n=2)
    truth = average(flat)
    for x in all_bits(2):
        assert sampled_average(flat, g, x) == truth


def test_estimate_matrix_constant_form_exact():
    rng = random.Random(6)
    m = rand_flat_map(rng, 1, 2)["0"]
    flat = {z: m for z in all_bits(3)}
    g = expander_walk_sampler(5, 2, 3, seed=6)
    certify(g, Fraction(1), Fraction(1))
    for x in all_bits(5):
        assert sampled_average(flat, g, x) == m


def test_matrix_estimate_deviation_bound():
    # bad-x fraction <= w^2 * delta, good-x deviation <= 2 * w * mu * eps
    rng = random.Random(9)
    w = 2
    flat = rand_flat_map(rng, 3, w)
    g = expander_walk_sampler(6, 2, 3, seed=9)
    profile = tv_profile(g)
    eps = sorted(profile.per_x)[len(profile.per_x) * 3 // 4]  # genuine (eps, delta) tradeoff
    delta = bad_fraction(profile, eps)
    assert certify(g, eps, delta)[0]
    stats = form_stats(flat)
    truth = average(flat)
    threshold = 2 * w * stats.weight * eps
    bad = sum(1 for x in all_bits(6)
              if inf_norm(mat_sub(sampled_average(flat, g, x), truth)) > threshold)
    assert Fraction(bad, 64) <= w * w * delta


@pytest.mark.parametrize("eps,delta", [(-1, 0), (0, Fraction(-1, 2))])
def test_certify_refuses_negative_eps_or_delta(eps, delta):
    with pytest.raises(InputError, match="non-negative"):
        certify(enumeration_sampler(2), eps, delta)

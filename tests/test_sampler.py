import hashlib
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest

from prpd import (Certificate, ContractError, InputError, Sampler, certify, enumeration_sampler,
                  expander_walk_sampler, inf_norm, mat_sub, tv_profile)
from prpd.bits import all_bits, bits_to_int, int_to_bits

from helpers import rand_bits, rand_flat_map, rand_table_sampler
from lemmas import (average, bad_fraction, form_stats, reference_walk, sample_on_bits,
                    sampled_average)


def sampled_mean(g, f, x):
    """E_s[f(g(x, s))]: g's estimate of the mean of f at outer input x."""
    return sum(Fraction(f(sample_on_bits(g, x, s))) for s in all_bits(g.d)) / (1 << g.d)


def exhaustive_f_verdict(g, eps, delta):
    """Check the defining property over every 0/1-valued test function."""
    eps, delta = Fraction(eps), Fraction(delta)
    outs = {x: [sample_on_bits(g, x, s) for s in all_bits(g.d)] for x in all_bits(g.n)}
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
    g = Sampler(n=2, d=2, m=m, sample=lambda x, s: 0)
    profile = tv_profile(g)
    expected = 1 - Fraction(1, 1 << m)
    assert all(tv == expected for tv in profile.per_x)
    ok, _ = certify(g, Fraction(1, 2), Fraction(1, 2))
    assert not ok
    ok, _ = certify(g, expected, 0)
    assert ok


def per_output_tv(g, x):
    """TV(p_x, uniform) as a Fraction sum over every output, hit or not."""
    counts = Counter(sample_on_bits(g, x, s) for s in all_bits(g.d))
    gap = sum(abs(Fraction(counts[y], 1 << g.d) - Fraction(1, 1 << g.m)) for y in all_bits(g.m))
    return gap / 2


@pytest.mark.parametrize("n,d,m", [(2, 2, 5), (3, 3, 4), (2, 6, 3), (1, 5, 2), (2, 3, 3)])
def test_tv_profile_matches_per_output_formula(n, d, m):
    # d < m leaves outputs never hit; d > m hits some outputs many times
    for seed in range(3):
        g = expander_walk_sampler(n, d, m, seed=seed)
        assert tv_profile(g).per_x == tuple(per_output_tv(g, x) for x in all_bits(n))
    if d < m:
        assert len({g.sample(0, s) for s in range(1 << d)}) < 1 << m


def test_expander_walk_certifies_at_measured_profile():
    g = expander_walk_sampler(8, 4, 4, seed=1)
    profile = tv_profile(g)
    ok, _ = certify(g, profile.max_tv, 0)
    assert ok


# every leftover length d % 8, odd and even, after zero to two whole seed bytes
WALK_GRID = [(d, m) for d in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17) for m in (1, 2, 5, 6, 9)
             if d != m]


@pytest.mark.parametrize("d,m", WALK_GRID)
def test_expander_walk_matches_string_walk(d, m):
    # n % m leaves a partial fold chunk at n = m + 1 and 2m + 3; past 2^12 (x, s)
    # pairs, a seeded sample of them (every pair up to 2^16 took over a minute on
    # two cores, doubling the suite). The int walk is read on strings, at m bits.
    # The row is the pointwise walk at every seed, in seed order: at every x up to
    # 2^12 pairs and at 16 seeded x past it. Past 2^12 seeds (d = 15..17) the row of
    # 2 seeded x is compared at its first, its last and 510 seeded seeds (16 whole
    # rows there took this file from 8 s to nearly five minutes on two cores, and 16
    # rows at 512 seeds to 38 s). tv_profile counts the row, and the oracle's profile
    # maps its pointwise sample
    for n in sorted({0, 1, m, m + 1, 2 * m + 3}):
        for seed in (0, 7, -3):
            g, reference = expander_walk_sampler(n, d, m, seed=seed), reference_walk(m, seed)
            pick = random.Random(f"row {n} {d} {m} {seed}")
            xs = (range(1 << n) if n + d <= 12 else
                  [pick.getrandbits(n) for _ in range(16 if d <= 12 else 2)])
            for x in xs:
                row = list(g.row(x))
                assert len(row) == 1 << d, (n, seed, x)
                seeds = (range(1 << d) if d <= 12 else
                         [0, (1 << d) - 1] + [pick.getrandbits(d) for _ in range(510)])
                assert [row[s] for s in seeds] == [g.sample(x, s) for s in seeds], (n, seed, x)
            if n + d <= 12:
                seeds = list(all_bits(d))
                for x in all_bits(n):
                    assert ([int_to_bits(g.sample(bits_to_int(x), bits_to_int(s)), m)
                             for s in seeds]
                            == list(map(reference, repeat(x), seeds))), (n, seed, x)
                oracle = Sampler(n=n, d=d, m=m, sample=lambda x, s: bits_to_int(
                    reference(int_to_bits(x, n), int_to_bits(s, d))))
                assert tv_profile(g).per_x == tv_profile(oracle).per_x
            else:
                rng = random.Random(f"{n} {d} {m} {seed}")
                for _ in range(512):
                    x, s = rand_bits(rng, n), rand_bits(rng, d)
                    assert (int_to_bits(g.sample(bits_to_int(x), bits_to_int(s)), m)
                            == reference(x, s)), (n, seed, x, s)


# sha256 of per_x, one line per seed, for expander_walk_sampler(6, 8, 6, seed) with
# seeds 0-7 (the certify benchmark's pool), as the string walk gives them
BENCH_PER_X_SHA256 = "e0fdf1fed37feacde6491fe5c5434ff882395f1089922ecf82d0c3cfd3caaa96"


def per_x_digest(profiles):
    lines = "".join(",".join(map(str, profile.per_x)) + "\n" for profile in profiles)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_expander_walk_bench_profiles_pinned():
    profiles = [tv_profile(expander_walk_sampler(6, 8, 6, seed=seed)) for seed in range(8)]
    assert per_x_digest(profiles) == BENCH_PER_X_SHA256


def bad_output_at(n, d, m, bad_x, bad_s, bad_out):
    """The seed itself as output (d = m), but bad_out at (bad_x, bad_s) only."""
    def sample(x, s):
        return bad_out if (x, s) == (bad_x, bad_s) else s
    return Sampler(n=n, d=d, m=m, sample=sample)


def refused_output(out, m):
    return rf"^{re.escape(f'sampler output {out!r} is not an int in [0, 2^{m})')}$"


@pytest.mark.parametrize("bad_x,bad_s,bad_out", [
    pytest.param(0b101, 0b1101, 16, id="101-1101"),
    pytest.param(0b111, 0b0110, -1, id="111-0110"),
    pytest.param(0b111, 0b1111, "1111", id="111-1111"),
    pytest.param(0b110, 0b0001, True, id="110-0001-bool"),
    pytest.param(0b101, 0b0011, 3.0, id="101-0011-float")])
def test_tv_profile_names_first_wrong_width_output(bad_x, bad_s, bad_out):
    # 2^m, -1, a str, a bool (an int subclass) and a float equal to an int are not m-bit
    # ints; late in (x, s) order, and at one x only, the output is named exactly
    g = bad_output_at(3, 4, 4, bad_x, bad_s, bad_out)
    with pytest.raises(ContractError, match=refused_output(bad_out, 4)):
        tv_profile(g)


def test_tv_profile_names_the_earliest_of_several_wrong_outputs():
    # at x = 110 two outputs past 2^3, 11 met before 13; at x = 111 every output is past it
    def sample(x, s):
        bad = x == 0b111 or (x == 0b110 and s in (0b011, 0b101))
        return s | 8 if bad else s
    with pytest.raises(ContractError, match=refused_output(11, 3)):
        tv_profile(Sampler(n=3, d=3, m=3, sample=sample))


def several_wrong_outputs(x, s):
    """At x = 110 two outputs past 2^3, 11 before 13; at x = 111 every output is past it."""
    return s | 8 if x == 0b111 or (x == 0b110 and s in (0b011, 0b101)) else s


@pytest.mark.parametrize("twin,named", [
    pytest.param(bad_output_at(3, 4, 4, 0b101, 0b1101, 16), 16, id="2^m"),
    pytest.param(bad_output_at(3, 4, 4, 0b110, 0b0001, True), True, id="bool"),
    pytest.param(bad_output_at(3, 4, 4, 0b111, 0b1111, "1111"), "1111", id="str"),
    pytest.param(Sampler(n=3, d=3, m=3, sample=several_wrong_outputs), 11, id="earliest")])
def test_tv_profile_row_refuses_as_pointwise_twin(twin, named):
    # a row yielding bad outputs late in an x is refused with the message, naming the
    # same output, that the same sampler without a row gets
    g = Sampler(n=twin.n, d=twin.d, m=twin.m, sample=twin.sample,
                row=lambda x: (twin.sample(x, s) for s in range(1 << twin.d)))
    for sampler in (twin, g):
        with pytest.raises(ContractError, match=refused_output(named, twin.m)):
            tv_profile(sampler)


@pytest.mark.parametrize("length", [15, 17])
def test_tv_profile_refuses_row_of_wrong_length(length):
    # 2^d outputs per x, or the counts are not a distribution over the seeds
    g = Sampler(n=2, d=4, m=4, sample=lambda x, s: s,
                row=lambda x: [s & 15 for s in range(length)] if x == 3 else range(16))
    with pytest.raises(ContractError, match=rf"^sampler row at x = 3 yields {length} "
                                            r"outputs, not 2\^4$"):
        tv_profile(g)


def test_tv_profile_right_width_outputs_profile_as_before():
    # the same sampler with no wrong output is exact, as enumeration is
    g = bad_output_at(3, 4, 4, None, None, None)
    assert tv_profile(g).per_x == (Fraction(0),) * 8


def test_expander_walk_degenerate_is_enumeration():
    g = expander_walk_sampler(4, 3, 3, seed=0)
    for x in range(1 << 4):
        for s in range(1 << 3):
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


@pytest.mark.parametrize("n,d,m", [(-1, 2, 2), (2, -1, 2), (2, 2, 0)])
def test_expander_walk_refuses_bad_sizes(n, d, m):
    with pytest.raises(InputError, match="needs n, d >= 0 and m >= 1"):
        expander_walk_sampler(n, d, m)

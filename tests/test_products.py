"""The three sampler-product rules, checked exactly against their bounds."""

import random
from fractions import Fraction

import pytest

from prpd import (certify, enumeration_sampler, expander_walk_sampler, inf_norm, mat_mul,
                  tv_profile)

from helpers import rand_flat_map
from lemmas import (average, bad_fraction, form_stats, left_product_bound, left_product_error,
                    right_product_bound, right_product_error, symmetric_product_bound,
                    symmetric_product_error)


def certified_at_profile(g, quantile=Fraction(3, 4)):
    profile = tv_profile(g)
    ordered = sorted(profile.per_x)
    eps = ordered[int(len(ordered) * quantile) - 1] if len(ordered) > 1 else ordered[0]
    delta = bad_fraction(profile, eps)
    ok, _ = certify(g, eps, delta)
    assert ok
    return g


@pytest.mark.parametrize("seed", range(5))
def test_symmetric_product_within_bound(seed):
    rng = random.Random(seed)
    w = rng.randint(1, 3)
    map_a = rand_flat_map(rng, 3, w)
    map_b = rand_flat_map(rng, 2, w)
    f = certified_at_profile(expander_walk_sampler(5, 2, 3, seed=seed))
    g = certified_at_profile(expander_walk_sampler(5, 2, 2, seed=seed + 100))
    lhs = symmetric_product_error(map_a, map_b, f, g)
    rhs = symmetric_product_bound(form_stats(map_a), form_stats(map_b), f.cert, g.cert, w)
    assert lhs <= rhs


@pytest.mark.parametrize("seed", range(5))
def test_left_product_within_bound(seed):
    rng = random.Random(seed + 10)
    w = rng.randint(1, 3)
    map_a = rand_flat_map(rng, 5, w)   # indexed directly by the shared z
    map_b = rand_flat_map(rng, 2, w)
    g = certified_at_profile(expander_walk_sampler(5, 2, 2, seed=seed + 200))
    lhs = left_product_error(map_a, map_b, g)
    rhs = left_product_bound(form_stats(map_a), form_stats(map_b), g.cert, w)
    assert lhs <= rhs


@pytest.mark.parametrize("seed", range(5))
def test_right_product_within_bound(seed):
    rng = random.Random(seed + 20)
    w = rng.randint(1, 3)
    map_a = rand_flat_map(rng, 2, w)
    map_b = rand_flat_map(rng, 5, w)   # indexed directly by the shared z
    f = certified_at_profile(expander_walk_sampler(5, 2, 2, seed=seed + 300))
    lhs = right_product_error(map_a, map_b, f)
    rhs = right_product_bound(form_stats(map_a), form_stats(map_b), f.cert, w)
    assert lhs <= rhs


def test_symmetric_product_exact_samplers_collapse():
    rng = random.Random(99)
    w = 2
    map_a = rand_flat_map(rng, 2, w)
    map_b = rand_flat_map(rng, 2, w)
    f = enumeration_sampler(2, n=3)
    g = enumeration_sampler(2, n=3)
    lhs = symmetric_product_error(map_a, map_b, f, g)
    assert lhs == inf_norm(mat_mul(average(map_a), average(map_b)))
    rhs = symmetric_product_bound(form_stats(map_a), form_stats(map_b), f.cert, g.cert, w)
    assert lhs <= rhs

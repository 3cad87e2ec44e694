import random
from fractions import Fraction

import pytest

from prpd import (InputError, inf_norm, mat_mul, mat_sub, telescoping_error_bound,
                  telescoping_product)

from helpers import perturbed, rand_stochastic


def test_k0_is_plain_product():
    rng = random.Random(0)
    a, b = rand_stochastic(rng, 3), rand_stochastic(rng, 3)
    gamma = Fraction(1, 16)
    a0 = perturbed(rng, a, gamma)
    b0 = perturbed(rng, b, gamma)
    result = telescoping_product(a, b, [a0], [b0], 0)
    assert result == mat_mul(a0, b0)
    assert inf_norm(mat_sub(result, mat_mul(a, b))) <= telescoping_error_bound(0, gamma)
    assert telescoping_error_bound(0, gamma) == 2 * gamma + gamma ** 2


def test_exact_approximations_collapse_to_product():
    rng = random.Random(1)
    a, b = rand_stochastic(rng, 3), rand_stochastic(rng, 3)
    for k in range(4):
        approx_a = [a] * (k + 1)
        approx_b = [b] * (k + 1)
        assert telescoping_product(a, b, approx_a, approx_b, k) == mat_mul(a, b)


@pytest.mark.parametrize("gamma", [Fraction(1, 16), Fraction(1, 256)])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_error_bound_holds_exactly(gamma, k):
    rng = random.Random(1000 * k + gamma.denominator)
    for _ in range(6):
        w = rng.randint(2, 3)
        a, b = rand_stochastic(rng, w), rand_stochastic(rng, w)
        approx_a = [perturbed(rng, a, gamma ** (i + 1)) for i in range(k + 1)]
        approx_b = [perturbed(rng, b, gamma ** (i + 1)) for i in range(k + 1)]
        result = telescoping_product(a, b, approx_a, approx_b, k)
        err = inf_norm(mat_sub(result, mat_mul(a, b)))
        assert err <= telescoping_error_bound(k, gamma)


def test_list_length_error():
    rng = random.Random(2)
    a, b = rand_stochastic(rng, 2), rand_stochastic(rng, 2)
    with pytest.raises(InputError):
        telescoping_product(a, b, [a], [b], 1)
    with pytest.raises(InputError):
        telescoping_product(a, b, [a, a], [b], 1)


def test_width_mismatch_error():
    rng = random.Random(3)
    a = rand_stochastic(rng, 2)
    b = rand_stochastic(rng, 3)
    with pytest.raises(InputError):
        telescoping_product(a, b, [a], [b], 0)


def test_negative_k_error():
    a = rand_stochastic(random.Random(4), 2)
    with pytest.raises(InputError, match="k must be non-negative"):
        telescoping_product(a, a, [a], [a], -1)

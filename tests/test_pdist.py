import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prpd import (InputError, PseudoDist, exact_average, mat_add, mat_mul, mat_scale,
                  random_robp, uniform_prpd)

from helpers import rand_pdist
from lemmas import (concat, dump_pdist, identity_robp, pdist, realize, scale, uniform_pdist,
                    union, walk_matrix, zeros as mat_zeros)

ZERO2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))


def weighted_sum_oracle(pd, program, a, b):
    total = mat_zeros(program.w)
    for s, coeff in pd.entries:
        total = mat_add(total, mat_scale(coeff, walk_matrix(program, a, b, s)))
    return mat_scale(Fraction(1, pd.size), total)


def test_realize_single_entry_is_walk():
    program = random_robp(4, 3, seed=1)
    pd = pdist(4, [("0110", 1)])
    assert realize(pd, program, 0, 4) == walk_matrix(program, 0, 4, "0110")


def test_realize_uniform_is_exact_average():
    program = random_robp(4, 3, seed=2)
    assert realize(uniform_pdist(4), program, 0, 4) == exact_average(program, 0, 4)


def test_realize_mixed_signs_matches_weighted_sum():
    rng = random.Random(3)
    program = random_robp(5, 3, seed=3)
    pd = rand_pdist(rng, 5, 7)
    assert realize(pd, program, 0, 5) == weighted_sum_oracle(pd, program, 0, 5)


def test_realize_length_mismatch():
    program = random_robp(4, 2, seed=0)
    with pytest.raises(InputError):
        realize(pdist(3, [("000", 1)]), program, 0, 4)


def test_scale_examples():
    rng = random.Random(4)
    program = random_robp(4, 3, seed=4)
    pd = rand_pdist(rng, 4, 5)
    base = realize(pd, program, 0, 4)
    assert realize(scale(pd, 1), program, 0, 4) == base
    assert realize(scale(pd, 0), program, 0, 4) == mat_zeros(3)
    assert realize(scale(pd, Fraction(-3, 2)), program, 0, 4) == mat_scale(Fraction(-3, 2), base)


def test_union_cancellation():
    rng = random.Random(5)
    program = random_robp(3, 2, seed=5)
    pd = rand_pdist(rng, 3, 4)
    assert realize(union(pd, scale(pd, -1)), program, 0, 3) == ZERO2


def test_union_equal_sizes_plain_sum():
    rng = random.Random(6)
    program = random_robp(3, 2, seed=6)
    pa, pb = rand_pdist(rng, 3, 4), rand_pdist(rng, 3, 4)
    merged = union(pa, pb)
    # both blocks are reweighted by exactly 2
    assert merged.entries[0][1] == 2 * pa.entries[0][1]
    assert merged.entries[4][1] == 2 * pb.entries[0][1]
    lhs = realize(merged, program, 0, 3)
    rhs = mat_add(realize(pa, program, 0, 3), realize(pb, program, 0, 3))
    assert lhs == rhs


def test_union_unequal_sizes_realizes_sum():
    rng = random.Random(7)
    program = random_robp(4, 3, seed=7)
    pa, pb = rand_pdist(rng, 4, 3), rand_pdist(rng, 4, 5)
    lhs = realize(union(pa, pb), program, 0, 4)
    rhs = mat_add(realize(pa, program, 0, 4), realize(pb, program, 0, 4))
    assert lhs == rhs


def test_union_length_mismatch():
    with pytest.raises(InputError):
        union(pdist(2, [("00", 1)]), pdist(3, [("000", 1)]))


def test_concat_with_identity_realizer():
    rng = random.Random(8)
    program = random_robp(3, 3, seed=8)
    # extend with an identity step so the second segment realizes the identity
    ext = identity_robp(1, 3)
    steps = program.transitions + ext.transitions
    extended = type(program)(n=4, w=3, d_step=1, transitions=steps)
    pa = rand_pdist(rng, 3, 4)
    pb = pdist(1, [("0", 1)])
    lhs = realize(concat(pa, pb), extended, 0, 4)
    assert lhs == realize(pa, extended, 0, 3)


def test_concat_uniform_uniform():
    program = random_robp(4, 3, seed=9)
    pd = concat(uniform_pdist(2), uniform_pdist(2))
    assert realize(pd, program, 0, 4) == exact_average(program, 0, 4)


def test_concat_row_major_order():
    pa = pdist(1, [("0", 2), ("1", 3)])
    pb = pdist(1, [("0", 5), ("1", 7)])
    merged = concat(pa, pb)
    assert [s for s, _ in merged.entries] == ["00", "01", "10", "11"]
    assert [c for _, c in merged.entries] == [10, 14, 15, 21]


def test_concat_realizes_product():
    rng = random.Random(10)
    program = random_robp(6, 3, seed=10)
    pa, pb = rand_pdist(rng, 3, 4), rand_pdist(rng, 3, 5)
    lhs = realize(concat(pa, pb), program, 0, 6)
    rhs = mat_mul(realize(pa, program, 0, 3), realize(pb, program, 3, 6))
    assert lhs == rhs


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_algebra_homomorphism_property(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    half = data.draw(st.integers(1, 3))
    w = data.draw(st.integers(1, 4))
    program = random_robp(2 * half, w, seed=seed)
    pa = rand_pdist(rng, half, data.draw(st.integers(1, 6)))
    pb = rand_pdist(rng, half, data.draw(st.integers(1, 6)))
    c = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=8))
    assert realize(scale(pa, c), program, 0, half) == mat_scale(c, realize(pa, program, 0, half))
    assert realize(union(pa, pb), program, 0, half) == mat_add(
        realize(pa, program, 0, half), realize(pb, program, 0, half))
    assert realize(concat(pa, pb), program, 0, 2 * half) == mat_mul(
        realize(pa, program, 0, half), realize(pb, program, half, 2 * half))


def test_dump_format():
    pd = pdist(2, [("01", Fraction(-3, 2)), ("11", 2)])
    assert dump_pdist(pd) == "01 -3/2\n11 2/1\n"


PDIST_REFUSALS = {
    "no-entries": (lambda: PseudoDist(2, ()), "needs at least one entry"),
    "entry-length": (lambda: PseudoDist(2, (("0", Fraction(1)),)), "'0' is not a 2-bit string"),
    "entry-symbol": (lambda: PseudoDist(2, (("0x", Fraction(1)),)), "'0x' is not a 2-bit string"),
    "mu-zero": (lambda: dataclasses.replace(uniform_prpd(2), mu=0), "mu must be at least 1"),
    "s-out-negative": (lambda: dataclasses.replace(uniform_prpd(2), s_out=-1),
                       "seed lengths must be non-negative"),
    "s-in-negative": (lambda: dataclasses.replace(uniform_prpd(2), s_in=-1),
                      "seed lengths must be non-negative"),
}


@pytest.mark.parametrize("case", PDIST_REFUSALS)
def test_pdist_refusals(case):
    build, message = PDIST_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        build()

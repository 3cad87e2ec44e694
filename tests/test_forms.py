import random
from fractions import Fraction

import pytest

from prpd import (ContractError, InputError, RobustPrpd, exact_average, identity, inf_norm,
                  mat_add, mat_scale, matrix_form, random_robp, robust_form, to_pseudodist,
                  uniform_prpd)
from prpd.bits import all_bits

from helpers import rand_prpd
from lemmas import average, dump_prpd, form_stats, realize, walk_matrix, zeros


def test_uniform_prpd_matrix_form_is_walk():
    program = random_robp(3, 2, seed=1)
    mf = matrix_form(uniform_prpd(3), program, 0, 3)
    for y in all_bits(3):
        assert mf[y] == walk_matrix(program, 0, 3, y)
    assert average(mf) == exact_average(program, 0, 3)


def test_matrix_form_weight_bound():
    rng = random.Random(2)
    program = random_robp(4, 3, seed=2)
    prpd = rand_prpd(rng, 4, 2, 1, 3)
    mf = matrix_form(prpd, program, 0, 4)
    for m in mf.values():
        assert inf_norm(m) <= prpd.mu


def test_matrix_form_matches_weighted_sum_oracle():
    rng = random.Random(3)
    program = random_robp(3, 2, seed=3)
    prpd = rand_prpd(rng, 3, 1, 2, 2)
    mf = matrix_form(prpd, program, 0, 3)
    for x in all_bits(1):
        for y in all_bits(2):
            total = zeros(2)
            for s, sign in prpd.bundle(x, y):
                m = mat_scale(sign, walk_matrix(program, 0, 3, s))
                total = tuple(tuple(p + q for p, q in zip(r1, r2)) for r1, r2 in zip(total, m))
            assert mf[x + y] == total


def test_matrix_form_length_mismatch():
    program = random_robp(3, 2, seed=0)
    with pytest.raises(InputError):
        matrix_form(uniform_prpd(2), program, 0, 3)


def test_robust_form_trivial_cases():
    rng = random.Random(4)
    program = random_robp(2, 2, seed=4)
    flat = rand_prpd(rng, 2, 2, 0, 2)
    mf = matrix_form(flat, program, 0, 2)
    rf = robust_form(flat, program, 0, 2)
    for x in all_bits(2):
        assert rf[x] == mf[x]


def test_robust_form_matches_enumeration():
    rng = random.Random(5)
    program = random_robp(3, 2, seed=5)
    prpd = rand_prpd(rng, 3, 1, 2, 1)
    rf = robust_form(prpd, program, 0, 3)
    for x in all_bits(1):
        acc = zeros(2)
        for y in all_bits(2):
            for s, sign in prpd.bundle(x, y):
                acc = mat_add(acc, mat_scale(sign, walk_matrix(program, 0, 3, s)))
        assert rf[x] == mat_scale(Fraction(1, 4), acc)


def test_matrix_form_keyed_by_flat_seed_with_robust_average():
    rng = random.Random(6)
    program = random_robp(3, 2, seed=6)
    for s_out, s_in in ((2, 2), (2, 0)):
        prpd = rand_prpd(rng, 3, s_out, s_in, 2)
        mf = matrix_form(prpd, program, 0, 3)
        assert list(mf) == [x + y for x in all_bits(s_out) for y in all_bits(s_in)]
        assert average(mf) == average(robust_form(prpd, program, 0, 3))


def test_form_stats_constant_identity():
    table = {z: identity(2) for z in all_bits(2)}
    stats = form_stats(table)
    assert (stats.norm, stats.robust_norm, stats.weight) == (1, 1, 1)


def test_form_stats_cancellation():
    plus = identity(2)
    minus = mat_scale(Fraction(-1), identity(2))
    stats = form_stats({"0": plus, "1": minus})
    assert stats.norm == 0
    assert stats.robust_norm == 1
    assert stats.weight == 1


def test_form_stats_chain():
    rng = random.Random(9)
    program = random_robp(3, 3, seed=9)
    for _ in range(20):
        prpd = rand_prpd(rng, 3, rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3))
        stats = form_stats(robust_form(prpd, program, 0, 3))
        assert stats.norm <= stats.robust_norm <= stats.weight


def test_robust_weight_never_exceeds_generator_weight():
    rng = random.Random(10)
    program = random_robp(3, 2, seed=10)
    for _ in range(10):
        prpd = rand_prpd(rng, 3, 1, 2, rng.randint(1, 3))
        stats = form_stats(robust_form(prpd, program, 0, 3))
        assert stats.weight <= prpd.mu


def test_to_pseudodist_realizes_average():
    rng = random.Random(11)
    program = random_robp(3, 2, seed=11)
    prpd = rand_prpd(rng, 3, 1, 1, 2)
    pd = to_pseudodist(prpd)
    assert all(abs(c) == prpd.mu for _, c in pd.entries)
    assert realize(pd, program, 0, 3) == average(matrix_form(prpd, program, 0, 3))


def test_bundle_length_must_be_mu():
    # a bundle of mu - 1 entries at one seed pair is refused wherever bundles are read
    rng = random.Random(12)
    program = random_robp(2, 2, seed=12)
    good = rand_prpd(rng, 2, 1, 1, 2)
    short = RobustPrpd(out_len=2, s_out=1, s_in=1, mu=2,
                       bundle=lambda x, y: good.bundle(x, y)[:1 if x + y == "10" else 2])
    for read in (dump_prpd, to_pseudodist, lambda p: robust_form(p, program, 0, 2),
                 lambda p: matrix_form(p, program, 0, 2)):
        read(good)
        with pytest.raises(ContractError, match="has 1 entries, mu is 2"):
            read(short)

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prpd import (CapacityError, ContractError, InputError, RobustPrpd, SzSchedule,
                  armoni_pow, build_ck, certify, enumeration_sampler, exact_average,
                  expander_walk_sampler, grid_bits, identity, inf_norm, mat_pow,
                  mat_sub, matrix_form, max_norm, robp_from_matrix, robust_form,
                  snap_collision_bound, snap_collision_rate,
                  snap_matrix, snap_value, sz_error_bound, sz_power,
                  uniform_prpd)
from prpd.bits import all_bits, int_to_bits

from helpers import (assumed_sampler, corrupted_uniform_prpd, deadline, rand_substochastic,
                     rand_table_sampler)
from lemmas import (bisect_step, fraction_grid_bits, fraction_snap_value, sampled_average,
                    snap_error_bound, sz_failure_bound)


def test_snap_value_on_grid_unchanged():
    d = 3
    for num in range(9):
        x = Fraction(num, 1 << d)
        assert snap_value(x, 0, d) == x


def test_snap_value_worked_example():
    assert snap_value(Fraction(3, 4), 1, 1) == Fraction(1, 2)


def test_snap_value_clamps_at_zero():
    for y in range(4):
        assert snap_value(Fraction(0), y, 2) == 0
    assert snap_value(Fraction(-1, 8), 3, 2) == 0


@given(num=st.integers(0, 1 << 10), y=st.integers(0, (1 << 6) - 1), d=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_snap_value_grid_and_accuracy(num, y, d):
    y = y % (1 << d)
    x = Fraction(num, 1 << 10)
    out = snap_value(x, y, d)
    assert out >= 0
    assert (out * (1 << d)).denominator == 1  # multiple of 2^-d
    assert abs(out - x) <= snap_error_bound(d)
    assert out <= x


# ints, Fractions and floats, negative ones, and denominators far above 2^d
SNAP_INPUTS = ([-3, -1, 0, 1, 2, 7]
               + [Fraction(p, q) for p in range(-5, 12, 3) for q in (1, 3, 7, 64, 97)]
               + [Fraction(p, 3 ** 40 + 2) for p in (1, 3 ** 38, 3 ** 40 + 1, -(3 ** 39))]
               + [Fraction(2 ** 70 + 1, 2 ** 71), Fraction(-1, 2 ** 90)]
               + [0.0, -0.0, 0.1, 0.5, -0.3, 0.999999, 1.0, 2.5, 1e-30, -1e-30, 1234.5678])


@pytest.mark.parametrize("d", range(1, 7))
def test_snap_value_matches_fraction_formula(d):
    # the int floor division against the Fraction arithmetic it replaced, at every offset
    for x in SNAP_INPUTS:
        for y in range(1 << d):
            out = snap_value(x, y, d)
            assert type(out) is Fraction
            assert out == fraction_snap_value(x, y, d), (x, y, d)


def test_grid_bits_matches_fraction_loop():
    eps_grid = ([Fraction(p, q) for p in range(1, 13) for q in range(1, 13)]
                + [1, 2, 5, 100, Fraction(1, 3 ** 30), Fraction(7, 2 ** 65), Fraction(10 ** 9, 3)])
    for n1 in range(1, 5):
        for w in range(1, 5):
            for eps in eps_grid:
                d = grid_bits(n1, w, eps)
                assert type(d) is int and d == fraction_grid_bits(n1, w, eps), (n1, w, eps)
    for eps in (0, Fraction(-1, 3), -2):
        with pytest.raises(InputError, match="eps must be positive"):
            grid_bits(2, 2, eps)


def test_snap_matrix_entrywise():
    m = ((Fraction(3, 4), Fraction(1, 8)), (Fraction(0), Fraction(1)))
    snapped = snap_matrix(m, 1, 1)
    assert snapped == ((snap_value(Fraction(3, 4), 1, 1), snap_value(Fraction(1, 8), 1, 1)),
                       (snap_value(Fraction(0), 1, 1), snap_value(Fraction(1), 1, 1)))


def test_collision_rate_zero_for_equal():
    rng = random.Random(0)
    m = rand_substochastic(rng, 3)
    assert snap_collision_rate(m, m, 5) == 0


def test_collision_rate_scalar_grid_count():
    d = 6
    rng = random.Random(1)
    for _ in range(30):
        a = Fraction(rng.randint(0, 1 << 10), 1 << 10)
        eps = Fraction(rng.randint(0, 8), 1 << 10)
        b = min(a + eps, Fraction(1))
        rate = snap_collision_rate(((a,),), ((b,),), d)
        assert rate <= (1 << d) * (b - a) + Fraction(1, 1 << d)


def test_collision_rate_matrix_bound():
    rng = random.Random(2)
    d = 4
    for _ in range(20):
        m = rand_substochastic(rng, 2)
        shift = Fraction(rng.randint(0, 4), 1 << 8)
        m2 = tuple(tuple(min(e + shift, Fraction(1)) for e in row) for row in m)
        eps = max_norm(mat_sub(m, m2))
        assert snap_collision_rate(m, m2, d) <= snap_collision_bound(2, eps, d)


def test_robp_from_matrix_identity():
    d = 3
    program = robp_from_matrix(identity(2), 4, d)
    avg = exact_average(program, 0, 4)
    for i in range(2):
        for j in range(2):
            assert avg[i][j] == (1 if i == j else 0)


def test_robp_from_matrix_doubly_stochastic_no_dummy():
    half = Fraction(1, 2)
    m = ((half, half), (half, half))
    program = robp_from_matrix(m, 2, 2)
    for label_row in program.transitions[0]:
        for state in range(2):
            assert label_row[state] != 2  # no real state feeds the dummy


def test_robp_from_matrix_matches_power_oracle():
    rng = random.Random(3)
    d = 4
    for _ in range(10):
        m = snap_matrix(rand_substochastic(rng, 3), 0, d)
        program = robp_from_matrix(m, 3, d)
        avg = exact_average(program, 0, 3)
        cube = mat_pow(m, 3)
        for i in range(3):
            for j in range(3):
                assert avg[i][j] == cube[i][j]


def test_robp_from_matrix_rejects_off_grid():
    with pytest.raises(InputError, match="multiple"):
        robp_from_matrix(((Fraction(1, 3),),), 2, 2)


def scanned_label_rows(counts, w, scale):
    """The step's label rows by a linear scan: state i sends label v to the first j whose
    running count of grid labels passes v, and to the dummy state w if none does."""
    rows = []
    for v in range(scale):
        succ = []
        for i in range(w):
            target, acc = w, 0
            for j, c in enumerate(counts[i]):
                acc += c
                if v < acc:
                    target = j
                    break
            succ.append(target)
        rows.append(tuple(succ) + (w,))
    return tuple(rows)


def test_robp_from_matrix_label_rows_match_scan():
    rng = random.Random(7)
    for _ in range(300):
        w, d = rng.randint(1, 4), rng.randint(1, 6)
        scale = 1 << d
        counts = []
        for _ in range(w):             # grid counts with row sum at most 2^d, zeros included
            row, left = [], scale
            for _ in range(w):
                row.append(rng.randint(0, left))
                left -= row[-1]
            rng.shuffle(row)
            counts.append(row)
        m = tuple(tuple(Fraction(c, scale) for c in row) for row in counts)
        step = robp_from_matrix(m, 2, d).transitions
        assert step[0] == step[1] == scanned_label_rows(counts, w, scale)


def grid_row(rng, w, scale):
    """w grid counts summing to 2^d half the time, else to at most 2^d, some of them 0."""
    total = scale if rng.random() < 0.5 else rng.randint(0, scale)
    support = [j for j in range(w) if rng.random() < 0.7] or [rng.randrange(w)]
    cuts = sorted(rng.randint(0, total) for _ in support[1:])
    row = [0] * w
    for j, lo, hi in zip(support, [0] + cuts, cuts + [total]):
        row[j] = hi - lo
    return row


def test_robp_from_matrix_matches_bisect_construction():
    rng = random.Random(23)
    zero_entries = full_rows = 0
    for w in range(1, 5):
        for d in range(1, 9):
            scale = 1 << d
            for n1 in (1, 2):
                for _ in range(60):
                    counts = [grid_row(rng, w, scale) for _ in range(w)]
                    zero_entries += sum(row.count(0) for row in counts)
                    full_rows += sum(sum(row) == scale for row in counts)
                    m = tuple(tuple(Fraction(c, scale) for c in row) for row in counts)
                    step = bisect_step(m, d)
                    assert robp_from_matrix(m, n1, d).transitions == (step,) * n1
    assert zero_entries and full_rows


NOT_SQUARE = {
    "empty": (),
    "one-by-two": ((Fraction(1, 2), Fraction(1, 4)),),
    "two-by-one": ((Fraction(1, 2),), (Fraction(1, 4),)),
    "ragged": ((Fraction(1, 2), Fraction(0)), (Fraction(1, 4),)),
}


@pytest.mark.parametrize("case", NOT_SQUARE)
def test_non_square_matrix_refused(case):
    m = NOT_SQUARE[case]
    with pytest.raises(InputError, match="matrix is not a non-empty square matrix"):
        robp_from_matrix(m, 1, 2)
    gen = uniform_prpd(2)
    with pytest.raises(InputError, match="input matrix is not a non-empty square matrix"):
        armoni_pow(m, 1, gen, enumeration_sampler(gen.seed_len), "", Fraction(1, 4))


def test_armoni_exact_stages_equal_rounded_power():
    rng = random.Random(4)
    m = rand_substochastic(rng, 2)
    eps = Fraction(1, 8)
    d = grid_bits(2, 2, eps)
    gen = uniform_prpd(2 * d)
    samp = enumeration_sampler(gen.seed_len, n=0)
    result = armoni_pow(m, 2, gen, samp, "", eps)
    assert result == mat_pow(snap_matrix(m, 0, d), 2)
    assert max_norm(mat_sub(result, mat_pow(m, 2))) <= eps / 3


def test_armoni_grid_exact_input_is_exact():
    rng = random.Random(5)
    eps = Fraction(1, 8)
    d = grid_bits(2, 2, eps)
    m = snap_matrix(rand_substochastic(rng, 2), 0, d)
    gen = uniform_prpd(2 * d)
    samp = enumeration_sampler(gen.seed_len, n=0)
    assert armoni_pow(m, 2, gen, samp, "", eps) == mat_pow(m, 2)


def test_armoni_certificate_at_the_requirement_is_the_boundary():
    # the offline sampler needs (eps/(6*mu), eps/w^2): exactly that is accepted, and one
    # certified above it in eps alone or in delta alone is refused
    m = rand_substochastic(random.Random(6), 2)
    eps = Fraction(1, 8)
    d = grid_bits(2, 2, eps)
    gen = uniform_prpd(2 * d)
    need_eps, need_delta = eps / (6 * gen.mu), eps / 4
    samp = assumed_sampler(enumeration_sampler(gen.seed_len), need_eps, need_delta)
    assert armoni_pow(m, 2, gen, samp, "", eps) == mat_pow(snap_matrix(m, 0, d), 2)
    for eps_up, delta_up in ((Fraction(1, 10 ** 9), 0), (0, Fraction(1, 10 ** 9))):
        samp = assumed_sampler(enumeration_sampler(gen.seed_len), need_eps + eps_up,
                               need_delta + delta_up)
        with pytest.raises(ContractError, match="offline sampler certified at"):
            armoni_pow(m, 2, gen, samp, "", eps)


def test_armoni_contract_errors():
    m = ((Fraction(1, 2),),)
    eps = Fraction(1, 4)
    d = grid_bits(2, 1, eps)
    gen = uniform_prpd(2 * d)
    bad_samp = expander_walk_sampler(4, 2, gen.seed_len, seed=0)
    with pytest.raises(ContractError):
        armoni_pow(m, 2, gen, bad_samp, "0000", eps)  # uncertified
    ok, _ = certify(bad_samp, 1, 1)
    assert ok
    with pytest.raises(ContractError):
        armoni_pow(m, 2, gen, bad_samp, "0000", eps)  # certificate too weak
    wrong_len = uniform_prpd(2 * d + 1)
    samp = enumeration_sampler(wrong_len.seed_len, n=0)
    with pytest.raises(ContractError):
        armoni_pow(m, 2, wrong_len, samp, "", eps)
    with pytest.raises(ContractError, match=f"sampler emits {gen.seed_len - 1} bits"):
        armoni_pow(m, 2, gen, enumeration_sampler(gen.seed_len - 1), "", eps)
    for bad_y in ("0", "ab", "0 ", "012"):
        with pytest.raises(InputError, match="offline randomness must be 2 bits"):
            armoni_pow(m, 2, gen, enumeration_sampler(gen.seed_len, n=2), bad_y, eps)
    for bad_eps in (0, Fraction(-1, 4)):
        with pytest.raises(InputError, match="eps must be positive"):
            armoni_pow(m, 2, gen, enumeration_sampler(gen.seed_len), "", bad_eps)


def armoni_cases(d):
    """(generator, offline sampler) pairs over 2d bits: the exact generator enumerated, a
    merge with a lossy child read through the tree, the exact generator behind a table."""
    uniform = uniform_prpd(2 * d)
    tree = build_ck([corrupted_uniform_prpd(d, d)], w=3, gamma=Fraction(1, 64))
    table = assumed_sampler(rand_table_sampler(random.Random(11), 2, 3, uniform.seed_len))
    return {"uniform-enumerated": (uniform, enumeration_sampler(uniform.seed_len)),
            "tree-enumerated": (tree, enumeration_sampler(tree.seed_len, n=2)),
            "uniform-behind-table": (uniform, table)}


@pytest.mark.parametrize("case", ["uniform-enumerated", "tree-enumerated", "uniform-behind-table"])
def test_armoni_equals_sampled_average_of_table(case):
    # the per-seed table averaged over the sampler's selections at y: the estimate the
    # generator and sampler define, computed without the merge tree
    rng = random.Random(12)
    m = rand_substochastic(rng, 2)
    eps = Fraction(1, 4)
    d = grid_bits(2, 2, eps)
    gen, samp = armoni_cases(d)[case]
    rounded = snap_matrix(m, 0, d)
    table = matrix_form(gen, robp_from_matrix(rounded, 2, d), 0, 2)
    results = []
    for y in all_bits(samp.n):
        expected = tuple(row[:2] for row in sampled_average(table, samp, y)[:2])
        results.append(armoni_pow(m, 2, gen, samp, y, eps))
        assert results[-1] == expected
    # only the exact generator enumerated gives the rounded power itself
    exact = case == "uniform-enumerated"
    assert all(r == mat_pow(rounded, 2) for r in results) == exact


def test_armoni_refuses_bundle_length_other_than_mu():
    # mu = 1 but three strings a seed: the capacity check and the eps/(6*mu) requirement
    # would count one walk a seed where the kernel sums three; robust_form refuses it too
    m = ((Fraction(1, 2),),)
    eps = Fraction(1, 4)
    d = grid_bits(2, 1, eps)
    gen = RobustPrpd(out_len=2 * d, s_out=0, s_in=2 * d, mu=1, bundle=lambda x, y: [(y, 1)] * 3)
    samp = enumeration_sampler(gen.seed_len, n=0)
    with pytest.raises(ContractError, match="3 entries, mu is 1"):
        armoni_pow(m, 2, gen, samp, "", eps)
    with pytest.raises(ContractError, match="3 entries, mu is 1"):
        robust_form(gen, robp_from_matrix(snap_matrix(m, 0, d), 2, d), 0, 2)


def test_armoni_refuses_strings_shorter_than_the_step_program():
    # d of the 2d bits the step program reads: a one-step walk would return M, not M^2
    m = ((Fraction(1, 2),),)
    eps = Fraction(1, 4)
    d = grid_bits(2, 1, eps)
    gen = RobustPrpd(out_len=2 * d, s_out=0, s_in=2 * d, mu=1, bundle=lambda x, y: [(y[:d], 1)])
    samp = enumeration_sampler(gen.seed_len, n=0)
    with pytest.raises(ContractError, match=rf"a {d}-bit string on segment \[0, 2\]"):
        armoni_pow(m, 2, gen, samp, "", eps)


def test_armoni_counts_step_program_before_building_it():
    # one seed bit, but d = 21 at n1 = 16: a step program of 16 * 2^21 * 3 successor entries
    eps, n1 = Fraction(1, 1 << 14), 16
    d = grid_bits(n1, 2, eps)
    assert d == 21
    gen = RobustPrpd(out_len=n1 * d, s_out=0, s_in=1, mu=1, bundle=lambda x, y: [(y * n1 * d, 1)])
    samp = enumeration_sampler(gen.seed_len, n=0)
    m = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    with pytest.raises(CapacityError, match="offline power estimate"):
        with deadline(1):
            armoni_pow(m, n1, gen, samp, "", eps)


def test_armoni_honest_generator_bad_y_fraction():
    # a generator with real nonzero error still lands every y within eps
    rng = random.Random(6)
    m = rand_substochastic(rng, 2)
    eps = Fraction(1, 4)
    n1, w = 2, 2
    d = grid_bits(n1, w, eps)  # 6 bits per step
    child = corrupted_uniform_prpd(d, d + 2)  # robust error <= 2^-(d+1)
    from prpd import build_ck
    gen = build_ck([child], w=w + 1, gamma=Fraction(1, 64))
    assert gen.out_len == n1 * d
    program = robp_from_matrix(snap_matrix(m, 0, d), n1, d)
    from prpd import measure_robust_error
    prog_err = measure_robust_error(gen, program)
    assert 0 < prog_err <= eps / 3
    samp = enumeration_sampler(gen.seed_len, n=2)
    bad = 0
    for y in all_bits(2):
        result = armoni_pow(m, n1, gen, samp, y, eps)
        if max_norm(mat_sub(result, mat_pow(m, n1))) > eps:
            bad += 1
    assert Fraction(bad, 4) <= eps


def test_sz_power_exact_approximator_meets_bound():
    rng = random.Random(7)
    for trial in range(20):
        w = rng.randint(1, 3)
        n1 = rng.choice([2, 3, 4])
        n2 = rng.choice([1, 2])
        d = rng.randint(4, 10)
        n = n1 ** n2
        m = rand_substochastic(rng, w)
        offsets = tuple(int_to_bits(rng.randrange(1 << d), d) for _ in range(n2))
        schedule = SzSchedule(n1=n1, n2=n2, d=d, eps=Fraction(0), y="", offsets=offsets)
        result = sz_power(m, schedule, lambda m, y: mat_pow(m, n1))
        assert inf_norm(mat_sub(result, mat_pow(m, n))) <= sz_error_bound(n, w, d)


def test_sz_power_doubly_stochastic_high_precision():
    half = Fraction(1, 2)
    m = ((half, half), (half, half))
    d = 12
    rng = random.Random(9)
    offsets = tuple(int_to_bits(rng.randrange(1 << d), d) for _ in range(2))
    schedule = SzSchedule(n1=4, n2=2, d=d, eps=Fraction(0), y="", offsets=offsets)
    result = sz_power(m, schedule, lambda m, y: mat_pow(m, 4))
    assert inf_norm(mat_sub(result, mat_pow(m, 16))) <= sz_error_bound(16, 2, d)


def test_sz_power_single_level_is_single_snap():
    rng = random.Random(8)
    m = rand_substochastic(rng, 2)
    d = 5
    schedule = SzSchedule(n1=4, n2=1, d=d, eps=Fraction(0), y="", offsets=("0" * d,))
    assert sz_power(m, schedule, lambda m, y: mat_pow(m, 4)) == snap_matrix(mat_pow(m, 4), 0, d)


def test_sz_schedule_validation():
    with pytest.raises(InputError, match="n1 and n2 must be at least 1"):
        SzSchedule(n1=0, n2=1, d=1, eps=Fraction(0), y="", offsets=("0",))
    with pytest.raises(InputError, match="n1 and n2 must be at least 1"):
        SzSchedule(n1=2, n2=0, d=1, eps=Fraction(0), y="", offsets=())
    with pytest.raises(InputError):
        SzSchedule(n1=2, n2=1, d=0, eps=Fraction(0), y="", offsets=("",))
    with pytest.raises(InputError):
        SzSchedule(n1=2, n2=2, d=3, eps=Fraction(0), y="", offsets=("000",))
    with pytest.raises(InputError):
        SzSchedule(n1=2, n2=1, d=3, eps=Fraction(0), y="", offsets=("01",))


def test_sz_schedule_refuses_n1_one_chain():
    # at n1 = 1 each level adds up to w*2^(1-d) and nothing shrinks it: n2 levels reach
    # n2*w*2^(1-d), past sz_error_bound(1, w, d) = w*2^(1-d); one level stays within it
    with pytest.raises(InputError, match="outside sz_error_bound's regime"):
        SzSchedule(n1=1, n2=2, d=3, eps=Fraction(0), y="", offsets=("000", "000"))
    m = ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 5), Fraction(3, 5)))
    for z in all_bits(3):
        schedule = SzSchedule(n1=1, n2=1, d=3, eps=Fraction(0), y="", offsets=(z,))
        result = sz_power(m, schedule, lambda mat, y: mat_pow(mat, 1))
        assert inf_norm(mat_sub(result, m)) <= sz_error_bound(1, 2, 3)


def test_sz_failure_bound_expression():
    assert sz_failure_bound(2, 1, 4, Fraction(1, 128)) == (
        Fraction(1, 128) + 4 * (16 * Fraction(1, 128) + Fraction(1, 16)))


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
SAKS_ZHOU_REFUSALS = {
    "offset-range": (lambda: snap_value(HALF, 4, 2), r"offset 4 out of range \[0, 2\^2\)"),
    "collision-width": (lambda: snap_collision_rate(((HALF,),), identity(2), 2),
                        "matrices must have equal width"),
    "negative-entry": (lambda: robp_from_matrix(((-QUARTER,),), 1, 2),
                       "matrix has a negative entry"),
    "row-sum": (lambda: robp_from_matrix(((HALF, 3 * QUARTER), (0, 0)), 1, 2),
                "matrix has a row sum above 1"),
    "n1-zero": (lambda: robp_from_matrix(((HALF,),), 0, 2), "n1 must be at least 1"),
    # an off-grid entry in a row summing above 1 is named by the row sum, checked first
    "row-sum-before-grid": (lambda: robp_from_matrix(((Fraction(1, 3), Fraction(5, 6)), (0, 0)),
                                                     1, 2),
                            "matrix has a row sum above 1"),
}


@pytest.mark.parametrize("case", SAKS_ZHOU_REFUSALS)
def test_saks_zhou_refusals(case):
    build, message = SAKS_ZHOU_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        build()

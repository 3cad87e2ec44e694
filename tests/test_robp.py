import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prpd import (CapacityError, InputError, Robp, exact_average, identity, inf_norm, mat_add,
                  mat_mul, mat_pow, mat_scale, max_norm, random_robp, serialize_robp,
                  signed_walk_sum)
from prpd.bits import all_bits
from prpd.robp import walk_counts

from helpers import deadline, rand_matrix
from lemmas import (check_steps, identity_first_pow, identity_robp, step_matrix,
                    swap_on_one_robp, walk_matrix)

HALF = Fraction(1, 2)


def test_step_matrix_identity_robp():
    program = identity_robp(3, 4)
    for t in range(1, 4):
        for b in (0, 1):
            assert step_matrix(program, t, b) == identity(4)


def test_step_matrix_swap_on_one():
    program = swap_on_one_robp(2)
    assert step_matrix(program, 1, 1) == ((0, 1), (1, 0))
    assert step_matrix(program, 2, 0) == identity(2)


def test_step_matrix_matches_successor_lookup():
    program = random_robp(4, 3, seed=11)
    for t in range(1, 5):
        for b in (0, 1):
            m = step_matrix(program, t, b)
            for i in range(3):
                succ = program.transitions[t - 1][b][i]
                assert m[i][succ] == 1
                assert sum(m[i]) == 1


def test_step_matrix_range_errors():
    program = random_robp(2, 2, seed=0)
    with pytest.raises(InputError):
        step_matrix(program, 0, 0)
    with pytest.raises(InputError):
        step_matrix(program, 3, 0)
    with pytest.raises(InputError):
        step_matrix(program, 1, 2)
    with pytest.raises(InputError):
        step_matrix(program, 1, "01")  # wrong label width


def test_walk_matrix_empty_and_identity():
    program = random_robp(5, 3, seed=3)
    assert walk_matrix(program, 2, 2, "") == identity(3)
    assert walk_matrix(identity_robp(4, 3), 0, 4, "0110") == identity(3)


def test_walk_matrix_against_path_following_oracle():
    program = random_robp(5, 3, seed=7)
    rng = random.Random(1)
    for _ in range(20):
        a = rng.randint(0, 5)
        b = rng.randint(a, 5)
        r = "".join(rng.choice("01") for _ in range(b - a))
        m = walk_matrix(program, a, b, r)
        assert signed_walk_sum(program, a, b, [(r, 1)]) == m
        for row in m:
            assert sum(row) == 1


def test_walk_matrix_one_one_per_row():
    program = random_robp(6, 4, seed=9)
    for r in all_bits(6):
        m = walk_matrix(program, 0, 6, r)
        for row in m:
            assert sorted(row) == [0, 0, 0, 1]


def test_walk_matrix_length_mismatch():
    program = random_robp(3, 2, seed=0)
    with pytest.raises(InputError):
        walk_matrix(program, 0, 3, "01")


def test_exact_average_identity_and_swap():
    assert exact_average(identity_robp(4, 3), 0, 4) == identity(3)
    program = swap_on_one_robp(1)
    assert exact_average(program, 0, 1) == ((HALF, HALF), (HALF, HALF))


def test_exact_average_equals_exhaustive_enumeration():
    program = random_robp(6, 4, seed=21)
    total = None
    for r in all_bits(6):
        m = walk_matrix(program, 0, 6, r)
        total = m if total is None else mat_add(total, m)
    oracle = mat_scale(Fraction(1, 64), total)
    assert exact_average(program, 0, 6) == oracle


@pytest.mark.parametrize("d_step", [1, 2, 3])
def test_exact_average_is_scaled_walk_counts(d_step):
    # against every label string of segments at the program's start, middle and end
    program = random_robp(4, 3, d_step=d_step, seed=d_step)
    for a, b in [(0, 2), (1, 3), (3, 4)]:
        bits = (b - a) * d_step
        total = reduce(mat_add, (walk_matrix(program, a, b, r) for r in all_bits(bits)))
        counts = walk_counts(program, a, b)
        assert all(type(v) is int for row in counts for v in row)
        assert counts == total
        assert exact_average(program, a, b) == mat_scale(Fraction(1, 1 << bits), total)


@pytest.mark.parametrize("d_step", [1, 2, 3])
def test_exact_average_empty_segment_is_identity(d_step):
    program = random_robp(3, 4, d_step=d_step, seed=7)
    for a in range(4):
        assert walk_counts(program, a, a) == identity(4)       # shift 0: nothing to scale
        assert exact_average(program, a, a) == identity(4)


def test_exact_average_row_stochastic():
    program = random_robp(5, 3, seed=5)
    avg = exact_average(program, 1, 4)
    for row in avg:
        assert sum(row) == 1
        assert all(e >= 0 for e in row)


def test_exact_average_wide_step():
    program = random_robp(2, 2, d_step=2, seed=4)
    total = None
    for r in all_bits(4):
        m = walk_matrix(program, 0, 2, r)
        total = m if total is None else mat_add(total, m)
    assert exact_average(program, 0, 2) == mat_scale(Fraction(1, 16), total)


def test_mat_pow_refuses_entries_past_digit_limit():
    third = ((Fraction(1, 3),),)
    assert mat_pow(third, 9000) == ((Fraction(1, 3 ** 9000),),)     # 4295 digits
    with pytest.raises(InputError, match="more than 4300 digits"):
        mat_pow(third, 9100)                                        # 4342 digits
    # a 0/1 matrix stays small at any exponent: its power is computed, not refused
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert mat_pow(swap, 1 << 60) == identity(2)


def entry_types(m):
    return [[type(e) for e in row] for row in m]


def test_mat_pow_matches_identity_first_power():
    # the first factor taken as it is against square-and-multiply into the identity
    rng = random.Random(5)
    ints = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
    fracs = rand_matrix(rng, 2, den_bits=3)
    for a in (ints, fracs, [list(row) for row in ints], [list(row) for row in fracs]):
        for e in range(41):
            got, want = mat_pow(a, e), identity_first_pow(a, e)
            assert got == want, e
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert entry_types(got) == entry_types(want), e


def test_inf_norm_examples():
    program = random_robp(4, 3, seed=2)
    assert inf_norm(exact_average(program, 0, 4)) == 1  # stochastic has norm 1
    assert inf_norm(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))) == 0
    assert inf_norm(((Fraction(1), Fraction(-2)), (Fraction(0), HALF))) == 3


def test_norm_report_chain():
    rng = random.Random(13)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 4))
        assert max_norm(m) <= inf_norm(m)


@st.composite
def small_matrices(draw, w=None):
    w = w if w is not None else draw(st.integers(1, 3))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=16)
    return tuple(tuple(draw(entry) for _ in range(w)) for _ in range(w))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_inf_norm_subadditive_submultiplicative(data):
    w = data.draw(st.integers(1, 3))
    a = data.draw(small_matrices(w))
    b = data.draw(small_matrices(w))
    assert inf_norm(mat_add(a, b)) <= inf_norm(a) + inf_norm(b)
    assert inf_norm(mat_mul(a, b)) <= inf_norm(a) * inf_norm(b)
    assert max_norm(a) <= inf_norm(a)
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=8))
    assert inf_norm(mat_scale(c, a)) == abs(c) * inf_norm(a)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_signed_walk_sum_matches_weighted_walk_matrices(data):
    # steps of up to 10 bits and strings of up to 20 steps cross chunk boundaries
    w = data.draw(st.integers(1, 4))
    d_step = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 20))
    program = random_robp(n, w, d_step=d_step, seed=data.draw(st.integers(0, 10**6)))
    calls = []
    for _ in range(data.draw(st.integers(1, 4))):
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        string = st.text("01", min_size=(b - a) * d_step, max_size=(b - a) * d_step)
        weight = data.draw(st.sampled_from([
            st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=8)]))
        weighted = data.draw(st.lists(st.tuples(string, weight), min_size=1, max_size=6))
        total = signed_walk_sum(program, a, b, weighted)
        assert total == reduce(mat_add, (mat_scale(c, walk_matrix(program, a, b, r))
                                         for r, c in weighted))
        if all(type(c) is int for _, c in weighted):
            assert all(type(e) is int for row in total for e in row)
        calls.append((a, b, weighted, total))
    # every call again gives the same matrix, and the program holds its fields alone
    for a, b, weighted, total in calls:
        assert signed_walk_sum(program, a, b, weighted) == total
    assert list(vars(program)) == [f.name for f in dataclasses.fields(Robp)]


def wide_step_robp(n, w, d_step, seed):
    """random_robp's distribution, each label row a uniform map on w states.

    The w^w distinct rows are shared tuples, so a program with millions of
    label rows builds in about a second.
    """
    rng = random.Random(seed)
    maps = list(product(range(w), repeat=w))
    return Robp(n=n, w=w, d_step=d_step,
                transitions=tuple(tuple(rng.choices(maps, k=1 << d_step)) for _ in range(n)))


def test_chunk_tables_are_lazy():
    # one string on 2^20-label steps: a table of every label would take seconds
    program = wide_step_robp(2, 3, d_step=20, seed=5)
    r = "01" * 20
    with deadline(1):
        total = signed_walk_sum(program, 0, 2, [(r, 1)])
    assert total == walk_matrix(program, 0, 2, r)


def test_serialize_robp_text():
    # the header, then one successor row per (step, label), step-major
    assert serialize_robp(swap_on_one_robp(2)) == "robp 2 2 1\n0 1\n1 0\n0 1\n1 0\n"
    program = Robp(n=1, w=3, d_step=2, transitions=(((0, 1, 2), (2, 2, 0), (1, 0, 1), (0, 0, 0)),))
    assert serialize_robp(program) == "robp 1 3 2\n0 1 2\n2 2 0\n1 0 1\n0 0 0\n"


def test_random_robp_deterministic():
    assert random_robp(5, 4, seed=123) == random_robp(5, 4, seed=123)
    assert random_robp(5, 4, seed=123) != random_robp(5, 4, seed=124)


def test_random_robp_counts_its_entries(monkeypatch):
    # 5 steps x 2^2 labels x 3 states: 60 successor entries, counted before any is drawn
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "59")
    with pytest.raises(CapacityError, match="needs 60"):
        random_robp(5, 3, d_step=2)
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "60")
    assert random_robp(5, 3, d_step=2).n == 5


ROBP_REFUSALS = {
    "n-zero": (lambda: Robp(n=0, w=2, d_step=1, transitions=()),
               "Robp needs n >= 1, w >= 1, d_step >= 1"),
    "step-count": (lambda: Robp(n=2, w=2, d_step=1, transitions=(((0, 1), (1, 0)),)),
                   "expected 2 steps, got 1"),
    "label-rows": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1),),)),
                   "step 1 has 1 label rows, expected 2"),
    "successor-count": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1), (1,)),)),
                        "step 1 label 1 has 1 successors, expected 2"),
    "successor-range": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1), (1, 2)),)),
                        r"step 1 label 1: successor 2 out of range \[0, 2\)"),
    # a step object repeated n times is checked once, and still named by its first index
    "repeated-bad-step": (lambda: Robp(n=5, w=2, d_step=1, transitions=(((0, 1), (1, 2)),) * 5),
                          r"step 1 label 1: successor 2 out of range \[0, 2\)"),
    "bad-step-after-repeats": (lambda: Robp(n=4, w=2, d_step=1,
                                            transitions=(((0, 1), (1, 0)),) * 3 + (((0, 2), (1, 0)),)),
                               r"step 4 label 0: successor 2 out of range \[0, 2\)"),
    # a successor of another type is refused as the range check refuses it: a bool or
    # float by value, and a str, None or list by the TypeError its comparison raises
    "bool-successor": (lambda: Robp(n=1, w=1, d_step=1, transitions=(((0,), (True,)),)),
                       r"step 1 label 1: successor True out of range \[0, 1\)"),
    "float-successor": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1), (1, 2.0)),)),
                        r"step 1 label 1: successor 2.0 out of range \[0, 2\)"),
    "str-successor": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1), (1, "1")),)),
                      "'<=' not supported between instances of 'int' and 'str'", TypeError),
    "none-successor": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 1), (None, 1)),)),
                       "'<=' not supported between instances of 'int' and 'NoneType'",
                       TypeError),
    "list-successor": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, [1]), (1, 0)),)),
                       "'<=' not supported between instances of 'int' and 'list'", TypeError),
    # the first fault in label order is named, ahead of an unhashable successor after it
    "range-before-list": (lambda: Robp(n=1, w=2, d_step=1, transitions=(((0, 5), (1, [0])),)),
                          r"step 1 label 0: successor 5 out of range \[0, 2\)"),
    "short-row-after-repeats": (lambda: Robp(n=4, w=2, d_step=1,
                                             transitions=(((0, 1), (1, 0)),) * 3
                                             + (((0, 1), (1,)),)),
                                "step 4 label 1 has 1 successors, expected 2"),
    "mat-pow-negative": (lambda: mat_pow(identity(2), -1), "matrix power must be non-negative"),
    # the first factor is digit-checked although no product makes it
    "mat-pow-one-past-digit-limit": (lambda: mat_pow(((Fraction(1, 3 ** 9100),),), 1),
                                     "more than 4300 digits"),
    "mat-pow-three-past-digit-limit": (lambda: mat_pow(((Fraction(1, 3 ** 9100),),), 3),
                                       "more than 4300 digits"),
    "mat-pow-int-past-digit-limit": (lambda: mat_pow([[10 ** 4300]], 1), "more than 4300 digits"),
}


@pytest.mark.parametrize("case", ROBP_REFUSALS)
def test_robp_refusals(case):
    build, message, *error = ROBP_REFUSALS[case]
    with pytest.raises(error[0] if error else InputError, match=message):
        build()


def outcome(check):
    try:
        check()
    except (InputError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def test_robp_step_check_matches_per_successor_loop():
    # malformed steps of every kind: the one-pass check accepts, refuses and names faults
    # exactly as the per-successor loop does
    rng = random.Random(3)
    odd = [-1, 3, True, False, 1.0, 1.5, 2.0, float("nan"), "1", None, [0], Fraction(1), 10 ** 30]
    for _ in range(400):
        w, d_step, n = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
        good = [tuple(tuple(rng.randrange(w) for _ in range(w)) for _ in range(1 << d_step))
                for _ in range(n)]
        steps = [[list(row) for row in step] for step in good]
        for _ in range(rng.randint(0, 2)):
            step = rng.choice(steps)
            row = rng.choice(step) if step else []
            kind = rng.randrange(4)
            if kind == 0 and row:
                row[rng.randrange(len(row))] = rng.choice(odd)
            elif kind == 1 and row:
                row.pop()
            elif kind == 2 and step:
                step.pop()
            else:
                step.append([0] * w)
        transitions = tuple(tuple(tuple(row) for row in step) for step in steps)
        if rng.random() < 0.3:
            transitions = (transitions[0],) * n
        assert outcome(lambda: Robp(n=n, w=w, d_step=d_step, transitions=transitions)) == \
            outcome(lambda: check_steps(w, d_step, transitions)), transitions

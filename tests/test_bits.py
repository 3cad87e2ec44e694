from itertools import product

import pytest

from prpd.bits import all_bits, int_to_bits


def test_all_bits_lexicographic():
    for width in range(7):
        expected = ["".join(p) for p in product("01", repeat=width)]
        assert list(all_bits(width)) == expected
        assert len(expected) == 1 << width
    assert list(all_bits(0)) == [""]


def test_all_bits_fresh_iterator_per_call():
    for width in (0, 3):
        used = all_bits(width)
        next(used)
        assert list(all_bits(width)) == ["".join(p) for p in product("01", repeat=width)]


def test_int_to_bits_fixed_width():
    assert [int_to_bits(v, 3) for v in (0, 5, 7)] == ["000", "101", "111"]
    assert int_to_bits(0, 0) == ""


@pytest.mark.parametrize("value,width", [(1, 0), (-1, 0), (-1, 3), (8, 3)])
def test_int_to_bits_refuses_values_past_width(value, width):
    with pytest.raises(ValueError, match=f"{value} does not fit in {width} bits"):
        int_to_bits(value, width)

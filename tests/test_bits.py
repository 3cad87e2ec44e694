from itertools import product

from prpd.bits import all_bits


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

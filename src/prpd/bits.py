"""Fixed-width binary strings: a generator's seeds and outputs, and snap offsets.

Samplers do not use them: a sampler maps (int, int) to int, and
recursion.behind converts at its edge, where a generator reads a sampler.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator


def int_to_bits(value: int, width: int) -> str:
    if width == 0:
        if value != 0:
            raise ValueError(f"{value} does not fit in 0 bits")
        return ""
    if value < 0 or value >= 1 << width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def bits_to_int(s: str) -> int:
    return int(s, 2) if s else 0


def all_bits(width: int) -> Iterator[str]:
    """Lexicographic enumeration of {0,1}^width; yields '' once for width 0."""
    if width == 0:
        return iter(("",))          # format(0, "") is "0", not ""
    return map(format, range(1 << width), repeat(f"0{width}b"))


def suffix(s: str, length: int) -> str:
    # s[-0:] would return the whole string, hence the explicit slice
    return s[len(s) - length:] if length else ""

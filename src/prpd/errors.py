"""Shared exception types and the desk-scale enumeration budget."""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

DEFAULT_ENUM_LIMIT = 1 << 22
ENUM_LIMIT_ENV = "PRPD_ENUM_LIMIT"


class PrpdError(Exception):
    """Base class for every error raised by this package."""


class InputError(PrpdError, ValueError):
    """An argument violates a documented precondition."""


class CapacityError(PrpdError):
    """An enumeration would exceed the configured budget.

    Exact verification refuses outright instead of silently subsampling;
    callers that want an estimate must subsample explicitly.
    """


class ContractError(PrpdError):
    """A value was used without the certificate, shape or hypothesis its consumer requires."""


def enum_limit() -> int:
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{ENUM_LIMIT_ENV} must be an integer, got {raw!r}") from exc


def check_capacity(count: int, what: str) -> None:
    limit = enum_limit()
    if count > limit:
        # a count of thousands of digits is shown by its size: str() would refuse it
        shown = count if count.bit_length() <= 64 else f"about 2^{count.bit_length() - 1}"
        raise CapacityError(
            f"{what} needs {shown} evaluations, over the limit {limit} "
            f"(set {ENUM_LIMIT_ENV} to override)"
        )


@lru_cache(maxsize=None)
def _ten_to(limit: int) -> int:
    return 10 ** limit


def check_renders(values: Iterable, what: str) -> None:
    """InputError if an int or Fraction among values has a part str(int) refuses to render.

    That is a part of more digits than sys.get_int_max_str_digits() (0: no limit).
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    too_long = _ten_to(limit)
    for v in values:
        if isinstance(v, (int, Fraction)) and max(map(abs, v.as_integer_ratio())) >= too_long:
            raise InputError(f"{what} of more than {limit} digits, past the int-to-str limit "
                             "of this Python")

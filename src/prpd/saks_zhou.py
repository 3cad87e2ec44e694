"""Snap rounding and recursive matrix powering with an offline approximator.

Snap shifts a value down by a seed-dependent multiple of 2^(-2d), floors to
the 2^(-d) grid and clamps at zero; it moves any non-negative value by less
than 2^(-d+1) and, crucially, two matrices within eps of each other snap to
the same result except with probability w^2*(2^d*eps + 2^(-d)) over the
offset. The powering chain alternates an approximate n1-th power with a
snap, so each level's input is (with high probability) a deterministic
function of the previous snapped matrix and not of the offline randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from .bits import bits_to_int
from .errors import ContractError, InputError, check_capacity
from .pdist import RobustPrpd
from .recursion import behind, merge_tree_form
from .robp import Mat, Robp
from .sampler import Sampler, require_certified


def _offset_int(y, d: int) -> int:
    v = bits_to_int(y) if isinstance(y, str) else int(y)
    if not (0 <= v < 1 << d):
        raise InputError(f"offset {v} out of range [0, 2^{d})")
    return v


def snap_value(x, y, d: int) -> Fraction:
    """max(floor(x*2^d - 2^(-d)*y) * 2^(-d), 0); a multiple of 2^(-d).

    With x = num/den the floor is one int division, (num*2^2d - y*den) // (den*2^d).
    """
    v = _offset_int(y, d)
    num, den = x.as_integer_ratio()
    return Fraction(max(((num << 2 * d) - v * den) // (den << d), 0), 1 << d)


def snap_matrix(m: Mat, y, d: int) -> Mat:
    v = _offset_int(y, d)
    return tuple(tuple(snap_value(e, v, d) for e in row) for row in m)


def snap_collision_rate(m: Mat, m2: Mat, d: int) -> Fraction:
    """Exact fraction of offsets on which the two matrices snap differently."""
    if len(m) != len(m2):
        raise InputError("matrices must have equal width")
    check_capacity((1 << d) * len(m) * len(m), "snap collision enumeration")
    collisions = sum(1 for v in range(1 << d) if snap_matrix(m, v, d) != snap_matrix(m2, v, d))
    return Fraction(collisions, 1 << d)


def snap_collision_bound(w: int, eps, d: int) -> Fraction:
    return w * w * ((1 << d) * Fraction(eps) + Fraction(1, 1 << d))


# ---------------------------------------------------------------------------
# step program realizing a grid matrix


def _check_substochastic(m: Mat, what: str) -> None:
    if not m or any(len(row) != len(m) for row in m):
        raise InputError(f"{what} is not a non-empty square matrix")
    for row in m:
        if any(e < 0 for e in row):
            raise InputError(f"{what} has a negative entry")
        if sum(row) > 1:
            raise InputError(f"{what} has a row sum above 1")


def robp_from_matrix(m: Mat, n1: int, d: int) -> Robp:
    """(n1, w+1, d) program whose restricted average is the n1-th power.

    Each of the w real states fans its 2^d labels across the successors in
    proportion to the grid entries, in successor order; leftover labels go to
    an absorbing dummy state, so exact_average restricted to the real states
    equals M^n1.
    """
    if n1 < 1:
        raise InputError("n1 must be at least 1")
    w = len(m)
    scale = 1 << d
    _check_substochastic(m, "matrix")
    columns = []                  # state i's successor under each label, in label order
    for i, row in enumerate(m):
        column = []
        for j, e in enumerate(row):
            num, den = e.as_integer_ratio()
            c, off_grid = divmod(num << d, den)
            if off_grid:
                raise InputError(f"entry ({i},{j}) = {e} is not a multiple of 2^-{d}")
            column += [j] * c
        columns.append(column + [w] * (scale - len(column)))
    step = tuple(row + (w,) for row in zip(*columns))
    return Robp(n=n1, w=w + 1, d_step=d, transitions=tuple(step for _ in range(n1)))


def grid_bits(n1: int, w: int, eps) -> int:
    """Smallest d with 2^d >= 3*n1*w/eps, compared in ints as 2^d*num >= 3*n1*w*den."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    need = 3 * n1 * w * eps.denominator
    d = 0
    while eps.numerator << d < need:
        d += 1
    return max(d, 1)


# ---------------------------------------------------------------------------
# the offline approximator built from a generator plus a sampler


def armoni_pow(m: Mat, n1: int, prpd: RobustPrpd, samp: Sampler, y: str, eps) -> Mat:
    """Estimate M^n1 from offline randomness y.

    Rounds M to d = ceil(log2(3*n1*w/eps)) bits, builds the step program,
    and averages the generator's signed walk indicators over the sampler's
    selections: for at least a 1-eps fraction of y the result is within eps
    of M^n1 entrywise (one eps/3 loss each from rounding, the generator, and
    the sampler estimate). The average is the form of behind(prpd, samp) at
    y, evaluated by merge_tree_form.
    """
    eps = Fraction(eps)
    w = len(m)
    _check_substochastic(m, "input matrix")
    d = grid_bits(n1, w, eps)
    if prpd.out_len != n1 * d:
        raise ContractError(
            f"generator emits {prpd.out_len} bits, the step program consumes {n1 * d}"
        )
    if samp.m != prpd.seed_len:
        raise ContractError(f"sampler emits {samp.m} bits, generator seed is {prpd.seed_len}")
    require_certified(samp, eps / (6 * prpd.mu), eps / (w * w), what="offline sampler")
    if len(y) != samp.n or any(ch not in "01" for ch in y):
        raise InputError(f"offline randomness must be {samp.n} bits of 0 and 1, got {y!r}")
    # the step program robp_from_matrix builds has n1 * 2^d * (w+1) successor entries
    check_capacity(n1 * (1 << d) * (w + 1), "offline power estimate")
    # snap at offset 0 floors to the grid; its clamp at 0 never acts on the checked m
    program = robp_from_matrix(snap_matrix(m, 0, d), n1, d)
    sums = merge_tree_form(behind(prpd, samp), program, 0, n1)
    # state w is the absorbing dummy; M^n1 lives on the real states only
    return tuple(tuple(Fraction(v, 1 << samp.d) for v in row[:w]) for row in sums[y][:w])


# ---------------------------------------------------------------------------
# the powering schedule


@dataclass(frozen=True)
class SzSchedule:
    n1: int
    n2: int
    d: int
    eps: Fraction
    y: str
    offsets: Tuple[str, ...]

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise InputError("n1 and n2 must be at least 1")
        if self.n1 == 1 and self.n2 > 1:
            raise InputError("n1 = 1 with n2 >= 2 is outside sz_error_bound's regime")
        if self.d < 1:
            raise InputError("snap precision d must be at least 1")
        if len(self.offsets) != self.n2:
            raise InputError(f"need {self.n2} snap offsets, got {len(self.offsets)}")
        for z in self.offsets:
            if len(z) != self.d or any(ch not in "01" for ch in z):
                raise InputError(f"offset {z!r} is not a {self.d}-bit string")


def sz_power(m: Mat, schedule: SzSchedule, approximator: Callable[[Mat, str], Mat]) -> Mat:
    """Alternate the approximator with snap: hat(M)_i = Snap(approx(hat(M)_{i-1}, y), z_i)."""
    current = m
    for z in schedule.offsets:
        current = snap_matrix(approximator(current, schedule.y), z, schedule.d)
    return current


def sz_error_bound(n: int, w: int, d: int) -> Fraction:
    """Final accuracy of the snapped chain: n*w*2^(-d+1), for n = n1^n2 with n1 >= 2 or n2 = 1.

    Level i's error is at most n1 times level i-1's plus w*2^(1-d), so the
    chain stays within w*2^(1-d)*(1 + n1 + ... + n1^(n2-1)), which is at most
    n*w*2^(1-d) exactly in that regime; SzSchedule refuses the rest.
    """
    return Fraction(2 * n * w, 1 << d)

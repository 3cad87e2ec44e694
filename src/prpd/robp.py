"""Read-once branching programs and their transition-matrix semantics.

A length-n width-w program reads d_step bits per step; each (step, label)
pair is a total successor map on the w states, equivalently a 0/1
row-stochastic matrix. Matrices are plain tuples of tuples so the same
helpers run exactly on Fractions and approximately on floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul
from typing import Iterable, Optional

from .errors import ContractError, InputError, check_capacity, check_renders

Mat = tuple  # w-tuple of w-tuples of numbers

# signed_walk_sum reads a string in chunks of at most this many bits (whole steps)
CHUNK_BITS = 8


# ---------------------------------------------------------------------------
# exact matrix helpers


def identity(w: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(w)) for i in range(w))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple([tuple(map(add, ra, rb)) for ra, rb in zip(a, b)])


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def mat_pow(a: Mat, e: int) -> Mat:
    """a^e by repeated squaring.

    An exact power gains digits with every product, so once an entry has more
    digits than Python's int-to-str limit, which no record could render, the
    power is refused with InputError instead of computed in full.
    """
    if e < 0:
        raise InputError("matrix power must be non-negative")

    def checked(m: Mat) -> Mat:
        check_renders((v for row in m for v in row), "matrix power has an entry")
        return m

    if not e:
        return identity(len(a))
    result, base = None, tuple(map(tuple, a))
    while e:
        if e & 1:               # the first factor is the result as it is, checked like a product
            result = checked(base if result is None else mat_mul(result, base))
        base = checked(mat_mul(base, base)) if e > 1 else base
        e >>= 1
    return result


def inf_norm(a: Mat):
    """Maximum absolute row sum."""
    return max(sum(abs(e) for e in row) for row in a)


def max_norm(a: Mat):
    """Maximum absolute entry; never exceeds inf_norm."""
    return max(abs(e) for row in a for e in row)


# ---------------------------------------------------------------------------
# the program itself


@dataclass(frozen=True)
class Robp:
    """Layered branching program: transitions[t][label][state] -> state."""

    n: int
    w: int
    d_step: int
    transitions: tuple

    def __post_init__(self):
        if self.n < 1 or self.w < 1 or self.d_step < 1:
            raise InputError("Robp needs n >= 1, w >= 1, d_step >= 1")
        if len(self.transitions) != self.n:
            raise InputError(f"expected {self.n} steps, got {len(self.transitions)}")
        labels, states, seen = 1 << self.d_step, frozenset(range(self.w)), set()
        for t, step in enumerate(self.transitions):
            if id(step) in seen:            # a repeated step object is checked once
                continue
            seen.add(id(step))
            try:                            # one pass accepts a well-formed step ...
                if (len(step) == labels and {*map(len, step)} == {self.w}
                        and states.issuperset(chain.from_iterable(step))):
                    continue
            except TypeError:
                pass
            # ... and the loop below names the first fault, or accepts what it allows
            if len(step) != labels:
                raise InputError(f"step {t + 1} has {len(step)} label rows, expected {labels}")
            for v, row in enumerate(step):
                if len(row) != self.w:
                    raise InputError(f"step {t + 1} label {v} has {len(row)} successors, expected {self.w}")
                for s in row:
                    if not (0 <= s < self.w):
                        raise InputError(f"step {t + 1} label {v}: successor {s} out of range [0, {self.w})")


def check_segment(robp: Robp, a: int, b: int, bits: Optional[int] = None) -> None:
    """InputError unless 0 <= a <= b <= n and, if given, `bits` is what steps a..b consume."""
    if not (0 <= a <= b <= robp.n):
        raise InputError(f"segment [{a}, {b}] out of range [0, {robp.n}]")
    if bits is not None and bits != (b - a) * robp.d_step:
        raise InputError(f"{bits} bits given, segment [{a}, {b}] consumes {(b - a) * robp.d_step}")


def _chunk_walk(robp: Robp, t: int, chunk: str) -> tuple:
    """Successor tuple of every start state along chunk, read from layer t."""
    d = robp.d_step
    ends = range(robp.w)
    for idx in range(len(chunk) // d):
        row = robp.transitions[t + idx][int(chunk[idx * d:(idx + 1) * d], 2)]
        ends = [row[s] for s in ends]
    return tuple(ends)


def signed_walk_sum(robp: Robp, a: int, b: int, weighted: Iterable) -> Mat:
    """Unscaled sum of c * W(r) over (r, c) pairs, W(r) the 0/1 walk matrix of r on [a, b].

    r is read in chunks of whole steps, at most CHUNK_BITS bits each unless
    one step is wider. A chunk's successor tuple is looked up in this call's
    table for its position, filled on first sight, so it holds only chunks
    that occurred. Weights are summed per end tuple and spread into the
    matrix once. Entries are ints for int weights and Fractions for Fraction
    weights. Callers check the segment with check_segment and scale; a
    string whose length is not the segment's raises ContractError.
    """
    w, d = robp.w, robp.d_step
    bits, steps, run = (b - a) * d, b - a, max(1, CHUNK_BITS // d)
    layout = [(lo * d, min(lo + run, steps) * d, a + lo, {})
              for lo in range(0, steps, run)]      # [(first bit, last bit, step, table)]
    totals = {}
    for r, c in weighted:
        if len(r) != bits:
            raise ContractError(f"a {len(r)}-bit string on segment [{a}, {b}], which reads {bits}")
        ends = None                 # stays None for the empty segment: the identity walk
        for lo, hi, t, table in layout:
            chunk = r[lo:hi]
            nxt = table.get(chunk)
            if nxt is None:
                nxt = table[chunk] = _chunk_walk(robp, t, chunk)
            ends = nxt if ends is None else tuple(map(nxt.__getitem__, ends))
        totals[ends] = totals.get(ends, 0) + c
    acc = [[0] * w for _ in range(w)]
    for ends, c in totals.items():
        for i, e in enumerate(ends or range(w)):
            acc[i][e] += c
    return tuple(tuple(row) for row in acc)


def walk_counts(robp: Robp, a: int, b: int) -> Mat:
    """The uniform generator's int form: walks i to j, exact_average * 2^((b - a) * d_step)."""
    check_segment(robp, a, b)
    w = robp.w
    steps = []
    for t in range(a, b):
        counts = [[0] * w for _ in range(w)]
        for row in robp.transitions[t]:
            for i, j in enumerate(row):
                counts[i][j] += 1
        steps.append(tuple(map(tuple, counts)))
    # from the first step's counts, so a one-step segment makes no product
    return reduce(mat_mul, steps or [identity(w)])


def exact_average(robp: Robp, a: int, b: int) -> Mat:
    """Uniform random-walk matrix of the segment; row-stochastic, exact."""
    counts = walk_counts(robp, a, b)
    return mat_scale(Fraction(1, 1 << (b - a) * robp.d_step), counts)


# ---------------------------------------------------------------------------
# construction and I/O


def random_robp(n: int, w: int, d_step: int = 1, seed: int = 0) -> Robp:
    """Deterministic given seed; its n * 2^d_step * w successor entries are counted first."""
    check_capacity(n * (1 << d_step) * w, "random program (successor entries)")
    rng = random.Random(seed)
    steps = tuple(
        tuple(tuple(rng.randrange(w) for _ in range(w)) for _ in range(1 << d_step))
        for _ in range(n)
    )
    return Robp(n=n, w=w, d_step=d_step, transitions=steps)


def serialize_robp(robp: Robp) -> str:
    lines = [f"robp {robp.n} {robp.w} {robp.d_step}"]
    for t in range(robp.n):
        for v in range(1 << robp.d_step):
            lines.append(" ".join(str(s) for s in robp.transitions[t][v]))
    return "\n".join(lines) + "\n"

"""Paper lemmas and oracles that only the tests call.

The zero matrix, the brute-force walk oracle (step_matrix and walk_matrix:
the Fraction product of 0/1 step matrices that every walk kernel is tested
against), the generator-table dump that compares builds byte for byte
(dump_prpd), the pseudodistribution algebra (realization turns scale /
union / concat into matrix scale / sum / product exactly), the Fraction view
of a generator's int form, the mean of a form, the merge terms summed one
product per term (the factored sum's oracle), the norm statistics of a
matrix form, a sampler read on bit strings, a sampler's average over a
per-seed table and the three sampler-product rules with their worst-case
bounds, the fraction of a sampler's bad outer inputs, the expander walk on
strings that the int walk is tested against, the plain average error of a
generator, the merge level's delta by an argmax over its binomials, the
snap and Saks-Zhou failure bounds, the grid step program by bisection, the
Fraction snap, grid-bits loop, identity-first power and per-successor program
check that the int paths are tested against, two example programs, and the
reflective ledger codec the specialised one is tested against. The package
keeps what its commands, scripts and benchmark call; these stay next to the
assertions that check them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, repeat
from math import comb, floor
from typing import (Callable, Dict, Iterable, Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

from prpd import (Certificate, InputError, Mat, PseudoDist, Robp, RobustPrpd, Sampler,
                  TvProfile, exact_average, identity, inf_norm, mat_add, mat_mul, mat_scale,
                  mat_sub, signed_walk_sum)
from prpd.bits import all_bits, bits_to_int, int_to_bits
from prpd.errors import check_capacity
from prpd.pdist import seed_bundles
from prpd.recursion import _parse_frac, frac_str, merge_tree_form
from prpd.robp import check_segment


def zeros(w: int) -> Mat:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(w)) for _ in range(w))


# ---------------------------------------------------------------------------
# the brute-force walk oracle and the generator-table dump


def _label_int(robp: Robp, label) -> int:
    if isinstance(label, str):
        if len(label) != robp.d_step:
            raise InputError(f"label {label!r} is not {robp.d_step} bits")
        return bits_to_int(label)
    v = int(label)
    if not (0 <= v < 1 << robp.d_step):
        raise InputError(f"label {v} out of range for d_step={robp.d_step}")
    return v


def step_matrix(robp: Robp, t: int, label) -> Mat:
    """0/1 row-stochastic matrix of step t (1-based) under the given label."""
    if not (1 <= t <= robp.n):
        raise InputError(f"step index {t} out of range [1, {robp.n}]")
    row = robp.transitions[t - 1][_label_int(robp, label)]
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if row[i] == j else zero for j in range(robp.w)) for i in range(robp.w))


def walk_matrix(robp: Robp, a: int, b: int, r: str) -> Mat:
    """Product of step matrices along label string r (one 1 per row)."""
    check_segment(robp, a, b, len(r))
    result = identity(robp.w)
    for t in range(a + 1, b + 1):
        chunk = r[(t - a - 1) * robp.d_step:(t - a) * robp.d_step]
        result = mat_mul(result, step_matrix(robp, t, chunk))
    return result


def dump_prpd(prpd: RobustPrpd) -> str:
    """Canonical full-table serialization, used to compare builds bit for bit."""
    lines = [f"prpd out_len={prpd.out_len} s_out={prpd.s_out} s_in={prpd.s_in} mu={prpd.mu}"]
    for x, y, bundle in seed_bundles(prpd, "robust generator dump"):
        lines += [f"{x or '-'} {y or '-'} {i} {s} {'+' if sign > 0 else '-'}"
                  for i, (s, sign) in enumerate(bundle)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the pseudodistribution algebra


def pdist(out_len: int, entries: Iterable[Tuple[str, object]]) -> PseudoDist:
    return PseudoDist(out_len, tuple((s, Fraction(c)) for s, c in entries))


def uniform_pdist(out_len: int) -> PseudoDist:
    check_capacity(1 << out_len, "uniform pseudodistribution")
    one = Fraction(1)
    return PseudoDist(out_len, tuple((s, one) for s in all_bits(out_len)))


def realize(pd: PseudoDist, robp: Robp, a: int, b: int) -> Mat:
    """E_i[coeff_i * walk(string_i)] on the segment [a, b], exact."""
    if pd.out_len != (b - a) * robp.d_step:
        raise InputError(
            f"pseudodistribution emits {pd.out_len} bits, segment consumes {(b - a) * robp.d_step}"
        )
    return mat_scale(Fraction(1, pd.size), signed_walk_sum(robp, a, b, pd.entries))


def scale(pd: PseudoDist, c) -> PseudoDist:
    c = Fraction(c)
    return PseudoDist(pd.out_len, tuple((s, coeff * c) for s, coeff in pd.entries))


def union(pd_a: PseudoDist, pd_b: PseudoDist) -> PseudoDist:
    """Disjoint union reweighted so realization adds exactly."""
    if pd_a.out_len != pd_b.out_len:
        raise InputError("union needs equal output lengths")
    total = pd_a.size + pd_b.size
    fa = Fraction(total, pd_a.size)
    fb = Fraction(total, pd_b.size)
    entries = tuple((s, c * fa) for s, c in pd_a.entries) + tuple((s, c * fb) for s, c in pd_b.entries)
    return PseudoDist(pd_a.out_len, entries)


def concat(pd_a: PseudoDist, pd_b: PseudoDist) -> PseudoDist:
    """Row-major pairing (a, b) -> a * size_b + b; realization multiplies."""
    entries = tuple(
        (sa + sb, ca * cb)
        for sa, ca in pd_a.entries
        for sb, cb in pd_b.entries
    )
    return PseudoDist(pd_a.out_len + pd_b.out_len, entries)


def dump_pdist(pd: PseudoDist) -> str:
    lines = [f"{s} {c.numerator}/{c.denominator}" for s, c in pd.entries]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# forms as Fractions


def fraction_form(prpd: RobustPrpd, form: Dict[str, Mat]) -> Dict[str, Mat]:
    """The Fraction view of prpd's form x -> int matrix: each matrix over 2^prpd.s_in."""
    inv = Fraction(1, 1 << prpd.s_in)
    return {x: mat_scale(inv, m) for x, m in form.items()}


def average(form: Dict[str, Mat]) -> Mat:
    """The mean of a form's matrices over its seeds."""
    return mat_scale(Fraction(1, len(form)), reduce(mat_add, form.values()))


def term_by_term_sum(terms, left, right) -> Mat:
    """sum sign * left[i] * right[j] over the merge terms (i, j, sign), one product per term."""
    return reduce(mat_add, (mat_scale(sign, mat_mul(left[i], right[j])) for i, j, sign in terms))


# ---------------------------------------------------------------------------
# form statistics and the sampler-product rules: worst-case bounds for
# sampler-estimated matrix products, next to their exact left-hand sides


@dataclass(frozen=True)
class FormStats:
    norm: Fraction
    robust_norm: Fraction
    weight: Fraction


def form_stats(form: Dict[str, Mat]) -> FormStats:
    """Exact norm / robust norm / weight of a form, e.g. x -> E_y A(x, y)."""
    norms = [inf_norm(m) for m in form.values()]
    return FormStats(
        norm=inf_norm(average(form)),
        robust_norm=sum(norms) * Fraction(1, len(norms)),
        weight=max(norms),
    )


def symmetric_product_bound(stats_a: FormStats, stats_b: FormStats,
                            cert_a: Certificate, cert_b: Certificate, w: int) -> Fraction:
    """Sampler on both sides: failure mass + product of inflated norms."""
    fail = w * w * (cert_a.delta + cert_b.delta) * stats_a.weight * stats_b.weight
    good_a = stats_a.norm + 2 * w * stats_a.weight * cert_a.eps
    good_b = stats_b.norm + 2 * w * stats_b.weight * cert_b.eps
    return fail + good_a * good_b


def left_product_bound(stats_a: FormStats, stats_b: FormStats,
                       cert_b: Certificate, w: int) -> Fraction:
    """Sampler on the right side only; the left side contributes its robust norm."""
    fail = w * w * cert_b.delta * stats_a.weight * stats_b.weight
    good_b = stats_b.norm + 2 * w * stats_b.weight * cert_b.eps
    return fail + stats_a.robust_norm * good_b


def right_product_bound(stats_a: FormStats, stats_b: FormStats,
                        cert_a: Certificate, w: int) -> Fraction:
    """Sampler on the left side only; mirror of the left rule."""
    fail = w * w * cert_a.delta * stats_a.weight * stats_b.weight
    good_a = stats_a.norm + 2 * w * stats_a.weight * cert_a.eps
    return fail + good_a * stats_b.robust_norm


def sample_on_bits(g: Sampler, x: str, s: str) -> str:
    """g.sample read on bit strings: x and s parsed, the output formatted at g.m bits."""
    return int_to_bits(g.sample(bits_to_int(x), bits_to_int(s)), g.m)


def sampled_average(mapping: Dict[str, Mat], g: Sampler, z: str) -> Mat:
    """E_s[A(g(z, s))]: the mean of the mapping over g's samples for input z; no certificate check."""
    total = reduce(mat_add, (mapping[sample_on_bits(g, z, s)] for s in all_bits(g.d)))
    return mat_scale(Fraction(1, 1 << g.d), total)


def symmetric_product_error(map_a: Dict[str, Mat], map_b: Dict[str, Mat],
                            f: Sampler, g: Sampler) -> Fraction:
    """E_z || E_x[A(f(z,x))] * E_y[B(g(z,y))] ||, exact."""
    if f.n != g.n:
        raise InputError("both samplers must share the outer seed length")
    total = Fraction(0)
    for z in all_bits(f.n):
        total += inf_norm(mat_mul(sampled_average(map_a, f, z), sampled_average(map_b, g, z)))
    return total / (1 << f.n)


def left_product_error(map_a: Dict[str, Mat], map_b: Dict[str, Mat], g: Sampler) -> Fraction:
    """E_z || A(z) * E_y[B(g(z,y))] ||, exact; A is indexed by z directly."""
    if len(next(iter(map_a))) != g.n:
        raise InputError("left mapping must be indexed by the sampler's outer input")
    total = Fraction(0)
    for z in all_bits(g.n):
        total += inf_norm(mat_mul(map_a[z], sampled_average(map_b, g, z)))
    return total / (1 << g.n)


def right_product_error(map_a: Dict[str, Mat], map_b: Dict[str, Mat], f: Sampler) -> Fraction:
    """E_z || E_x[A(f(z,x))] * B(z) ||, exact; B is indexed by z directly."""
    if len(next(iter(map_b))) != f.n:
        raise InputError("right mapping must be indexed by the sampler's outer input")
    total = Fraction(0)
    for z in all_bits(f.n):
        total += inf_norm(mat_mul(sampled_average(map_a, f, z), map_b[z]))
    return total / (1 << f.n)


def bad_fraction(profile: TvProfile, eps) -> Fraction:
    """The fraction of outer inputs whose TV distance exceeds eps."""
    return Fraction(profile.bad_count(eps), len(profile.per_x))


def reference_walk(m: int, seed: int = 0) -> Callable[[str, str], str]:
    """expander_walk_sampler(n, d, m, seed).sample for d != m, on strings, one step at a time.

    The outer input is sliced into m-bit strings and the seed into 2-bit
    symbols, each parsed on its own: the walk as it ran before the package
    read seeds through tables of composed affine maps.
    """
    size = 1 << m
    salt = (seed * 0x9E3779B1 + 0x85EBCA77) % size

    def fold(x: str) -> int:
        v = salt
        for pos in range(0, len(x), m):
            v ^= bits_to_int(x[pos:pos + m])
        return v % size

    def sample(x: str, s: str) -> str:
        v = fold(x)
        for pos in range(0, len(s) - 1, 2):
            c = bits_to_int(s[pos:pos + 2])
            if c == 0:
                v = v + 1
            elif c == 1:
                v = v - 1
            elif c == 2:
                v = 5 * v + 3
            else:
                v = 3 * v + 1
            v %= size
        if len(s) % 2:
            v = (v + (1 if s[-1] == "1" else size - 1)) % size
        return int_to_bits(v, m)

    return sample


# ---------------------------------------------------------------------------
# error measurement and bounds


def measure_average_error(prpd: RobustPrpd, robp: Robp, a: int = 0, b: Optional[int] = None) -> Fraction:
    """|| <A> - exact average ||, the plain (non-robust) approximation error."""
    if b is None:
        b = robp.n
    form = fraction_form(prpd, merge_tree_form(prpd, robp, a, b))
    return inf_norm(mat_sub(average(form), exact_average(robp, a, b)))


def argmax_delta(m_bits: int, w: int, k: int, gamma) -> Tuple[Fraction, int]:
    """ck_requirements' (delta, binding index), the index found by search.

    The binding index is the first i <= ceil(k/2) attaining the largest
    binom(2m-1, i), and delta is gamma^(k+1) / (w^2 binom(2m-1, i)) there.
    """
    binding = max(range((k + 1) // 2 + 1), key=lambda i: comb(2 * m_bits - 1, i))
    return Fraction(gamma) ** (k + 1) / (w * w * comb(2 * m_bits - 1, binding)), binding


def snap_error_bound(d: int) -> Fraction:
    return Fraction(2, 1 << d)


def sz_failure_bound(w: int, n2: int, d: int, eps) -> Fraction:
    """Explicit two-events-per-level union bound over (y, z_1..z_n2)."""
    eps = Fraction(eps)
    return n2 * (eps + w * w * ((1 << d) * eps + Fraction(1, 1 << d)))


def bisect_step(m: Mat, d: int) -> Tuple[Tuple[int, ...], ...]:
    """robp_from_matrix's label rows for a grid matrix m, built by bisection.

    Label v of state i goes to the first j whose cumulative count of grid
    labels passes v, and to the dummy state w = len(m) if none does.
    """
    scale = 1 << d
    cums = [list(accumulate(int(Fraction(e) * scale) for e in row)) for row in m]
    return tuple(tuple(bisect_right(cum, v) for cum in cums) + (len(m),) for v in range(scale))


def fraction_snap_value(x, y: int, d: int) -> Fraction:
    """snap_value in Fraction arithmetic: max(floor(x*2^d - y/2^d) / 2^d, 0)."""
    scale = 1 << d
    shifted = Fraction(x) * scale - Fraction(y, scale)
    return max(Fraction(floor(shifted), scale), Fraction(0))


def fraction_grid_bits(n1: int, w: int, eps) -> int:
    """grid_bits by comparing 2^d with the Fraction 3*n1*w/eps."""
    need = Fraction(3 * n1 * w) / Fraction(eps)
    d = 0
    while (1 << d) < need:
        d += 1
    return max(d, 1)


def identity_first_pow(a: Mat, e: int) -> Mat:
    """a^e by square-and-multiply into the identity, without mat_pow's digit check."""
    result, base = identity(len(a)), a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def check_steps(w: int, d_step: int, transitions) -> None:
    """Robp's step check one successor at a time: raises what it raises, in its order."""
    labels, seen = 1 << d_step, set()
    for t, step in enumerate(transitions):
        if id(step) in seen:
            continue
        seen.add(id(step))
        if len(step) != labels:
            raise InputError(f"step {t + 1} has {len(step)} label rows, expected {labels}")
        for v, row in enumerate(step):
            if len(row) != w:
                raise InputError(f"step {t + 1} label {v} has {len(row)} successors, expected {w}")
            for s in row:
                if not (0 <= s < w):
                    raise InputError(f"step {t + 1} label {v}: successor {s} out of range [0, {w})")


# ---------------------------------------------------------------------------
# example programs


def identity_robp(n: int, w: int, d_step: int = 1) -> Robp:
    step = tuple(tuple(range(w)) for _ in range(1 << d_step))
    return Robp(n=n, w=w, d_step=d_step, transitions=tuple(step for _ in range(n)))


def swap_on_one_robp(n: int) -> Robp:
    """Width-2 program where label 1 swaps the two states."""
    step = ((0, 1), (1, 0))
    return Robp(n=n, w=2, d_step=1, transitions=tuple(step for _ in range(n)))


# ---------------------------------------------------------------------------
# the reflective ledger codec: a closure per JSON value, a dataclass built by keyword


def reference_reader(hint) -> Callable:
    """A function reading a JSON value as a `hint`, or raising InputError."""
    args = get_args(hint)
    if hint is Fraction:
        return _parse_frac
    if get_origin(hint) is Union:                       # Optional[X]
        read = reference_reader(args[0])
        return lambda value: None if value is None else read(value)
    if get_origin(hint) in (tuple, list):
        container, reads = get_origin(hint), [reference_reader(a) for a in args
                                              if a is not Ellipsis]
        fixed = len(args) > 1 and args[-1] is not Ellipsis      # Tuple[int, int, int, int]

        def read_items(value):
            items = _typed(value, list)
            if fixed and len(items) != len(reads):
                raise InputError(f"{value!r} must have {len(reads)} entries")
            return container([read(item) for read, item in
                              zip(reads if fixed else repeat(reads[0]), items)])
        return read_items
    if is_dataclass(hint):
        fields = [(name, reference_reader(t)) for name, t in get_type_hints(hint).items()]

        def read_object(value):
            value = _typed(value, dict)
            return hint(**{name: read(value[name]) for name, read in fields})
        return read_object
    return partial(_typed, kind=hint)


def _typed(value, kind: type):
    if type(value) is not kind:             # not isinstance: a bool is no int here
        raise InputError(f"{value!r} is not a JSON {kind.__name__}")
    return value


def reference_ledger_to_dict(value):
    """The ledger, or any value inside it, as JSON values, each read through vars()."""
    if type(value) in (int, str) or value is None:
        return value
    if type(value) is Fraction:
        return frac_str(Fraction(value))
    if type(value) in (tuple, list):
        return [reference_ledger_to_dict(v) for v in value]
    return {name: reference_ledger_to_dict(v) for name, v in vars(value).items()}

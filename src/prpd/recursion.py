"""Recursive construction of robust generators with seed/weight accounting.

One merge level combines graded approximations of the two half segments
through the telescoping combination sum_{i+j=k} A_i B_j - sum_{i+j=k-1}
A_i B_j. A low index (i <= ceil(k/2)) reads its child behind an averaging
sampler, at the flat seed (outer and inner together) the sampler selects
from the outer seed; a high index passes the outer seed through directly.
The ledger records, per node, the seed lengths and weight actually used next
to the inductive bounds they must stay under.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, repeat
from math import comb, gcd
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)

from .bits import all_bits, bits_to_int, int_to_bits, suffix
from .errors import ContractError, InputError, check_capacity, check_renders
from .pdist import RobustPrpd, dyadic_form, uniform_bundle, uniform_prpd
from .robp import (Mat, Robp, check_segment, inf_norm, mat_add, mat_mul, mat_scale, mat_sub,
                   walk_counts)
from .sampler import Sampler, check_outputs, enumeration_sampler, pass_seed, require_certified

# the provenance recursive_prpd records; ledger_check judges a ledger of any provenance
MODE_EXACT = "exact-enumeration"

# Largest accepted k and c. The exact cascade arithmetic of a ledger grows with k;
# c multiplies a finished float seed bound once, and up to 2^64 that product stays
# finite for every ledger within Python's int digit limit.
K_MAX = 4096
C_MAX = 2 ** 64


# ---------------------------------------------------------------------------
# telescoping product of graded approximations


def merge_terms(k: int) -> Tuple[Tuple[int, int, int], ...]:
    """The telescoping terms (i, j, sign): i + j = k with +1, then i + j = k-1 with -1."""
    return tuple([(i, k - i, 1) for i in range(k + 1)] + [(i, k - 1 - i, -1) for i in range(k)])


def _term_sum(terms, left: Sequence[Mat], right: Sequence[Mat]) -> Mat:
    """sum sign * left[i] * right[j] over the merge terms (i, j, sign), grouped by i: one
    product of left[i] with the signed sum of its right[j]."""
    sums: Dict[int, list] = {}
    for i, j, sign in terms:            # each i's sum starts from zeros, repeat(repeat(0))
        sums[i] = [[u + sign * v for u, v in zip(acc, row)]
                   for acc, row in zip(sums.get(i, repeat(repeat(0))), right[j])]
    return reduce(mat_add, (mat_mul(left[i], rows) for i, rows in sums.items()))


def telescoping_product(a: Mat, b: Mat, a_approx: Sequence[Mat], b_approx: Sequence[Mat], k: int) -> Mat:
    """sum_{i+j=k} A_i B_j - sum_{i+j=k-1} A_i B_j.

    With ||A||, ||B|| <= 1 and ||A_i - A||, ||B_i - B|| <= gamma^(i+1) the
    result is within (k+2)*gamma^(k+1) + (k+1)*gamma^(k+2) of AB.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if len(a_approx) < k + 1 or len(b_approx) < k + 1:
        raise InputError(f"need approximation lists of length at least {k + 1}")
    w = len(a)
    if len(b) != w or any(len(m) != w for m in list(a_approx[:k + 1]) + list(b_approx[:k + 1])):
        raise InputError("all matrices must share the same width")
    return _term_sum(merge_terms(k), a_approx, b_approx)


def telescoping_error_bound(k: int, gamma) -> Fraction:
    gamma = Fraction(gamma)
    return (k + 2) * gamma ** (k + 1) + (k + 1) * gamma ** (k + 2)


# ---------------------------------------------------------------------------
# hypotheses of one merge level


def ck_requirements(m_bits: int, w: int, k: int, gamma) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """Per-index sampler accuracy eps_i for i <= split = ceil(k/2), and the shared failure delta.

    split is len(eps) - 1. delta takes the most conservative reading: the
    minimum over sampled indices i <= split, i.e. the largest binom(2m-1, i).
    That index is split itself: binom(2m-1, i) strictly increases for
    i <= m-1, and eps_split divides by binom(m-1, split), which is 0 past
    split = m-1.
    """
    eps, delta = _requirement_ratios(m_bits, w, k, *Fraction(gamma).as_integer_ratio())
    return tuple(Fraction(*r) for r in eps), Fraction(*delta)


def _requirement_ratios(m_bits: int, w: int, k: int, num: int, den: int):
    """ck_requirements at gamma = num/den as unreduced (numerator, denominator) int pairs."""
    split = (k + 1) // 2
    eps = [(num ** (i + 1), den ** (i + 1) * w * comb(m_bits - 1, i)) for i in range(split + 1)]
    delta = (num ** (k + 1), den ** (k + 1) * w * w * comb(2 * m_bits - 1, split))
    return eps, delta


@dataclass(frozen=True)
class SamplerSlot:
    i: int
    out_bits: int
    n: int
    d: int
    eps_required: Fraction
    delta_required: Fraction
    cert_method: str
    cert_eps: Fraction
    cert_delta: Fraction


def _selects_every_seed(child: RobustPrpd, g: Sampler) -> bool:
    """Whether g's function, not its certificate, selects each flat seed of child once per x."""
    return g.sample is pass_seed and g.d == g.m == child.seed_len


def behind(child: RobustPrpd, g: Sampler) -> RobustPrpd:
    """child read behind sampler g: x, s -> child at the flat seed g.sample(x, s).

    The composition G(Samp(x, s)) is itself a robust generator, with outer
    seed g's input, inner seed g's seed and child's weight; it carries
    (child, g) as `reads`. Behind a sampler that selects every flat seed once,
    with no outer seed on either side, the composition is child itself.
    Generator seeds are strings and sampler seeds ints: the bundle parses x
    and s, refuses an output out of range as tv_profile does, and formats
    the output at g.m bits.
    """
    if _selects_every_seed(child, g) and g.n == child.s_out == 0:
        return child
    cut = child.s_out

    def bundle(x: str, s: str) -> List[Tuple[str, int]]:
        z = g.sample(bits_to_int(x), bits_to_int(s))
        check_outputs((z,), g.m)
        z = int_to_bits(z, g.m)
        return child.bundle(z[:cut], z[cut:])

    return RobustPrpd(out_len=child.out_len, s_out=g.n, s_in=g.d, mu=child.mu, bundle=bundle,
                      reads=(child, g))


@dataclass(frozen=True)
class MergeNode:
    """How a merged generator reads its children: the layout build_ck fixes.

    One family G_0..G_k serves both halves. Index i <= split reads G_i
    behind samplers[i]; a higher index reads G_i itself, on a prefix of the
    outer seed. On the A half reader i reads the prefix y[:lens[i]] of the
    inner seed, on the B half the suffix of length lens[i].
    """

    children: Tuple[RobustPrpd, ...]
    samplers: Tuple[Sampler, ...]
    lens: Tuple[int, ...]
    terms: Tuple[Tuple[int, int, int], ...]

    @cached_property
    def readers(self) -> Tuple[RobustPrpd, ...]:
        """The generator index i reads: child i behind its sampler, or child i itself."""
        return (tuple(behind(child, g) for child, g in zip(self.children, self.samplers))
                + self.children[len(self.samplers):])

    def bundle(self, x: str, y: str) -> List[Tuple[str, int]]:
        """The merged generator's bundle at (x, y): each term's products of reader bundles."""
        a = [r.bundle(x[:r.s_out], y[:n]) for r, n in zip(self.readers, self.lens)]
        b = [r.bundle(x[:r.s_out], suffix(y, n)) for r, n in zip(self.readers, self.lens)]
        return [(sa + sb, sign * na * nb) for i, j, sign in self.terms
                for sa, na in a[i] for sb, nb in b[j]]


def build_ck(children: Sequence[RobustPrpd], w: int, gamma,
             samplers: Optional[Sequence[Sampler]] = None) -> RobustPrpd:
    """Merge a graded half-segment family into one generator for the doubled segment.

    children[i] must be a gamma^(i+1)-robust generator for either half with
    weight at most binom(m-1, i); the result approximates the product with
    robust error (11*gamma)^(k+1) and weight at most binom(2m-1, k). Every
    violated hypothesis raises a ContractError naming it; a sampler's
    certificate must cover (eps_i, delta) of ck_requirements, judged by
    require_certified. Passing samplers=None installs exact enumeration
    samplers (certified at (0, 0) analytically). The generator returned
    carries its layout as `merge`; the layout's bundle is the generator's bundle.
    """
    children = tuple(children)
    k = len(children) - 1
    if k < 0:
        raise InputError("need an approximation family G_0..G_k")
    if type(gamma) is not Fraction:
        gamma = Fraction(gamma)
    if gamma <= 0:
        raise InputError("gamma must be positive")
    m_bits = children[0].out_len
    for i, child in enumerate(children):
        if child.out_len != m_bits:
            raise InputError(f"G_{i} emits {child.out_len} bits, expected {m_bits}")
        cap = comb(m_bits - 1, i)
        if child.mu > cap:
            raise ContractError(f"weight hypothesis mu(G_{i}) <= binom(m-1, i) fails: "
                                f"{child.mu} > binom({m_bits - 1}, {i}) = {cap}")
    eps_req, delta_req = ck_requirements(m_bits, w, k, gamma)
    split = len(eps_req) - 1
    if samplers is None:
        samplers = [enumeration_sampler(children[i].seed_len) for i in range(split + 1)]
    samplers = list(samplers)
    if len(samplers) != split + 1:
        raise InputError(f"need one sampler per index 0..{split}, got {len(samplers)}")
    for i, g in enumerate(samplers):
        if g.m != children[i].seed_len:
            raise ContractError(f"sampler g_{i} emits {g.m} bits, flat child seed is "
                                f"{children[i].seed_len}")
        require_certified(g, eps_req[i], delta_req, what=f"sampler g_{i}")

    lens = tuple(samplers[i].d if i <= split else children[i].s_in for i in range(k + 1))
    terms = merge_terms(k)
    s_in = max(lens[i] + lens[j] for i, j, _ in terms)
    s_out = max([g.n for g in samplers] + [c.s_out for c in children[split + 1:]])

    # the caps binom(m-1, i) * binom(m-1, j) over the terms sum to binom(2m-1, k) (Vandermonde)
    mu_total = sum(children[i].mu * children[j].mu for i, j, _ in terms)
    node = MergeNode(children=children, samplers=tuple(samplers), lens=lens, terms=terms)
    return RobustPrpd(out_len=2 * m_bits, s_out=s_out, s_in=s_in, mu=mu_total, bundle=node.bundle,
                      merge=node)


# ---------------------------------------------------------------------------
# the full recursion and its ledger


@dataclass
class RecursionParams:
    gamma: Optional[Fraction] = None          # default 1/max(n, 2)^4 (n padded)
    k: Optional[int] = None                   # default: smallest k meeting eps
    c: int = 1                                # sampler seed-length constant


@dataclass(frozen=True)
class LedgerNode:
    h: int
    k: int
    kind: str                                 # "terminal" | "merge"
    s_out: int
    s_in: int
    mu: int
    mu_cap: int
    error_bound: Fraction                     # (11^h * gamma)^(k+1)
    merge_gamma: Optional[Fraction] = None
    delta_binding_i: Optional[int] = None
    children: Tuple[Tuple[int, int, int, int], ...] = ()   # (i, s_out, s_in, mu)
    len_a: Tuple[int, ...] = ()
    len_b: Tuple[int, ...] = ()
    samplers: Tuple[SamplerSlot, ...] = ()


@dataclass
class SeedLedger:
    n: int
    n_padded: int
    w: int
    gamma: Fraction
    k: int
    c: int
    sampler_mode: str
    eps_target: Optional[Fraction]
    nodes: List[LedgerNode]

    @property
    def top(self) -> LedgerNode:
        h = self.n_padded.bit_length() - 1
        return next(nd for nd in self.nodes if (nd.h, nd.k) == (h, self.k))


def next_power_of_two(n: int) -> int:
    if n < 1:
        raise InputError("n must be at least 1")
    return 1 << (n - 1).bit_length()


def cascade_bound(h: int, k: int, gamma: Fraction) -> Fraction:
    """(11^h * gamma)^(k+1): the robust error bound of node (h, k)."""
    num, den = gamma.as_integer_ratio()
    return Fraction((11 ** h * num) ** (k + 1), den ** (k + 1))


def derive_k(n_padded: int, gamma: Fraction, eps: Fraction) -> int:
    """Smallest k whose full-cascade error bound meets eps."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    num, den = gamma.as_integer_ratio()
    num *= 11 ** (n_padded.bit_length() - 1)
    if num >= den:
        raise InputError(
            f"per-level cascade 11^log2(n)*gamma = {Fraction(num, den)} is not below 1; "
            "decrease gamma or give k explicitly"
        )
    # (num/den)^(k+1) <= eps as ints, each side one multiply per k
    lhs, rhs = num * eps.denominator, den * eps.numerator
    k = 0
    while lhs > rhs:
        k += 1
        if k > K_MAX:
            raise InputError("eps unreachable at these parameters")
        lhs, rhs = lhs * num, rhs * den
    return k


def check_domain(n: int, n_padded: int, w: int, k: int, gamma: Fraction, c: int) -> None:
    """InputError unless (n, n_padded, w, k, gamma, c) heads a recursion's ledger."""
    if not (n >= 1 and n_padded == next_power_of_two(n) and w >= 1 and 0 <= k <= K_MAX
            and 0 < gamma < 1 and 1 <= c <= C_MAX):
        raise InputError(f"out of domain (n >= 1, n_padded the next power of two, w >= 1, "
                         f"0 <= k <= {K_MAX}, 0 < gamma < 1, 1 <= c <= 2^64): n={n} "
                         f"n_padded={n_padded} w={w} k={k} gamma={gamma} c={c}")


def is_terminal(h: int, k: int) -> bool:
    return h == 0 or 2 * k >= (1 << h)


@dataclass(frozen=True)
class NodePlan:
    """What the ledger of a recursion must record at one node (h, k)."""

    kind: str                                 # "terminal" | "merge"
    mu_cap: int                               # max(1, binom(2^h - 1, k))
    error_bound: Fraction
    merge_gamma: Optional[Fraction] = None    # 11^(h-1) * gamma, the children's level
    eps_required: Tuple[Fraction, ...] = ()   # ck_requirements at merge_gamma
    delta_required: Optional[Fraction] = None
    delta_binding_i: Optional[int] = None


def ledger_plan(n_padded: int, k: int, w: int, gamma: Fraction) -> Dict[Tuple[int, int], NodePlan]:
    """Every node (h, k) the recursion for (n_padded, k) builds, h ascending, then k.

    The plan's size, its node count times the digits of the top node's
    error bound, is checked against the enumeration budget before it is
    built; a plan holding an exact value past Python's int-to-str digit limit
    raises InputError, since no record or ledger could render it.
    """
    top = n_padded.bit_length() - 1
    needed, level = [], [k]
    for h in range(top, -1, -1):
        needed += [(h, kk) for kk in level]
        # a merge node (h, kk) needs (h-1, 0..kk), so level h-1 is 0..the largest such kk
        level = range(max((kk for kk in level if not is_terminal(h, kk)), default=-1) + 1)
    num, den = gamma.as_integer_ratio()
    digits = (k + 1) * math.log10(max(11 ** top * num, den))
    check_capacity(len(needed) * math.ceil(digits), "ledger plan (nodes x bound digits)")
    plan = {}
    for h, kk in sorted(needed):
        cap, bound = max(1, comb((1 << h) - 1, kk)), cascade_bound(h, kk, gamma)
        if is_terminal(h, kk):
            plan[(h, kk)] = NodePlan("terminal", cap, bound)
            continue
        merge_gamma = cascade_bound(h - 1, 0, gamma)
        eps_req, delta_req = ck_requirements(1 << (h - 1), w, kk, merge_gamma)
        plan[(h, kk)] = NodePlan("merge", cap, bound, merge_gamma, eps_req, delta_req,
                                 len(eps_req) - 1)
    # a requirement's denominator adds at most w^2 * binom(2^top, k/2) to the top bound's;
    # a weight cap binom(2^h - 1, k) has at most the digits of 2^(top*k)
    log2 = math.log10(2)
    _check_renders(plan, max(digits + 2 * math.log10(w) + (k + 1) // 2 * top * log2,
                             k * top * log2))
    return plan


def _check_renders(plan: Dict[Tuple[int, int], NodePlan], most_digits: float) -> None:
    """InputError if a plan value has more digits than str(int) renders.

    most_digits bounds the digits of every value, so the values themselves
    are compared only when it comes near the limit.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or most_digits + 2 < limit:         # 0: no limit
        return
    for (h, k), p in plan.items():
        check_renders((p.mu_cap, p.error_bound, p.merge_gamma, p.delta_required, *p.eps_required),
                      f"node ({h},{k}) holds an exact value")


def recursive_prpd(n: int, w: int, eps=None, params: Optional[RecursionParams] = None
                   ) -> Tuple[RobustPrpd, SeedLedger]:
    """Build the full generator table bottom-up and return the top node.

    n is padded to the next power of two (extra bits are simply ignored by
    shorter programs extended with identity steps). Terminal nodes
    (h = 0 or 2k >= 2^h) are the exact uniform generator with s_out = 0, and
    every merge re-selects its low-index children through build_ck's
    enumeration samplers.
    """
    params = params or RecursionParams()
    n_pad = next_power_of_two(n)
    # at n = 1 the default is 1/16, not 1: gamma must lie in (0, 1)
    gamma = (Fraction(params.gamma) if params.gamma is not None
             else Fraction(1, max(n_pad, 2) ** 4))
    eps = Fraction(eps) if eps is not None else None
    if params.k is not None:
        k_top = params.k
    elif eps is None:
        raise InputError("give either eps or params.k")
    else:
        k_top = derive_k(n_pad, gamma, eps)
    check_domain(n, n_pad, w, k_top, gamma, params.c)
    # a given k must meet a given eps: refused here, and ledger_check judges eps_target too
    if eps is not None and params.k is not None:
        if eps <= 0:
            raise InputError("eps must be positive")
        if cascade_bound(n_pad.bit_length() - 1, k_top, gamma) > eps:
            raise InputError(f"k={k_top} gives a top error bound above eps; "
                             "raise k, or give eps alone")

    table: Dict[Tuple[int, int], RobustPrpd] = {}
    nodes: List[LedgerNode] = []
    for (h, kk), p in ledger_plan(n_pad, k_top, w, gamma).items():
        merge = {}
        if p.kind == "terminal":
            prpd = uniform_prpd(1 << h)
        else:
            children = [table[(h - 1, i)] for i in range(kk + 1)]
            prpd = build_ck(children, w=w, gamma=p.merge_gamma)
            slots = tuple(SamplerSlot(i=i, out_bits=g.m, n=g.n, d=g.d, eps_required=eps_i,
                                      delta_required=p.delta_required, cert_method=g.cert.method,
                                      cert_eps=g.cert.eps, cert_delta=g.cert.delta)
                          for i, (g, eps_i) in enumerate(zip(prpd.merge.samplers, p.eps_required)))
            merge = dict(merge_gamma=p.merge_gamma, delta_binding_i=p.delta_binding_i,
                         children=tuple((i, c.s_out, c.s_in, c.mu) for i, c in enumerate(children)),
                         len_a=prpd.merge.lens, len_b=prpd.merge.lens, samplers=slots)
        nodes.append(LedgerNode(h=h, k=kk, kind=p.kind, s_out=prpd.s_out, s_in=prpd.s_in,
                                mu=prpd.mu, mu_cap=p.mu_cap, error_bound=p.error_bound, **merge))
        table[(h, kk)] = prpd
    ledger = SeedLedger(n=n, n_padded=n_pad, w=w, gamma=gamma, k=k_top, c=params.c,
                        sampler_mode=MODE_EXACT,
                        eps_target=eps,
                        nodes=nodes)
    return prpd, ledger            # the plan ends at the top node


# ---------------------------------------------------------------------------
# inductive seed-length bounds and the ledger check


def _lg(v: int) -> float:
    # exact for powers of two so dyadic desk parameters compare without wobble
    return float(v.bit_length() - 1) if v & (v - 1) == 0 else math.log2(v)


def _log2_ratio(num: int, den: int) -> float:
    """log2(num/den) for positive ints, from the lowest-terms parts Fraction(num, den) has."""
    g = gcd(num, den)
    return _lg(num // g) - _lg(den // g)


def _seed_bounds(h: int, k: int, L_n: float, L_nw: float, L_knw: float) -> Tuple[float, float]:
    """The inductive (s_out, s_in) bounds of node (h, k) from log2 of n, nw and max(k,1)nw
    over gamma, at c = 1."""
    if k <= 1:
        s_out = h * (3 * k * L_n + 7 * L_nw)
        s_in = k * L_n + 4 * L_knw
    else:
        s_out = 4 * k * L_n + (math.ceil(math.log2(k)) + 1) * h * (10 * L_nw)
        s_in = k * L_n + h * (4 * L_knw)
    return s_out, s_in


def inductive_seed_bounds(h: int, k: int, n: int, w: int, gamma: Fraction) -> Tuple[float, float]:
    """Inductive (s_out, s_in) bounds for node (h, k) at c = 1; constant c scales both."""
    return _seed_bounds(h, k, *(_log2_ratio(v * gamma.denominator, gamma.numerator)
                                for v in (n, n * w, max(k, 1) * n * w)))


class LedgerCheck(NamedTuple):     # a tuple, cheap to build: one ledger makes thousands
    h: int
    k: int
    name: str
    lhs: Union[int, Fraction, float]   # the compared values as they are: a bool, int or
    rhs: Union[int, Fraction, float]   # Fraction is exact, a float comes from the log2 replay
    ok: bool

    @property
    def slack(self) -> Union[int, Fraction, float]:
        """rhs - lhs; exact unless a side is a float."""
        try:
            return self.rhs - self.lhs
        except OverflowError:           # a recorded int beyond float range against a float
            return Fraction(self.rhs) - Fraction(self.lhs)


@dataclass
class LedgerReport:
    checks: List[LedgerCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[LedgerCheck]:
        return [c for c in self.checks if not c.ok]


# absolute slack for checks against a log2 replay; exact checks use none
_TOL = 1e-9


def ledger_check(ledger: SeedLedger) -> LedgerReport:
    """Judge a ledger against ledger_plan of its own (n_padded, k, w, gamma).

    The plan fixes the nodes, kinds, caps, error bounds, merge gammas and
    sampler requirements; recorded copies must equal it. Then: used values
    against the header's c times the inductive bounds, the merge layout
    (non-overlap, read lengths, child summaries against the child nodes), and
    the replay of the proof's chains. Every seed length the proof chains is c
    times a c-free one, so the replay runs at c = 1 and its verdicts depend on
    the header alone. A header outside check_domain raises InputError. A check
    whose sides are both int or Fraction is decided exactly; only a side
    computed through log2 gets _TOL.
    """
    check_domain(ledger.n, ledger.n_padded, ledger.w, ledger.k, ledger.gamma, ledger.c)
    n, w, gamma = ledger.n_padded, ledger.w, ledger.gamma
    plan = ledger_plan(n, ledger.k, w, gamma)
    recorded: Dict[Tuple[int, int], List[LedgerNode]] = {}
    for nd in ledger.nodes:
        recorded.setdefault((nd.h, nd.k), []).append(nd)
    checks: List[LedgerCheck] = []
    # the replay asks for each node's bounds and each k's sampler budgets many times: the
    # header's logs are taken once, log2(max(k,1)nw/gamma) once per k; a sampler budget
    # is i*log2(n/gamma) + 2*log2(knw/gamma)
    num, den = gamma.as_integer_ratio()
    L_n, L_nw = _log2_ratio(n * den, num), _log2_ratio(n * w * den, num)
    L_knw = cache(lambda k: _log2_ratio(max(k, 1) * n * w * den, num))
    bounds = cache(lambda h, k: _seed_bounds(h, k, L_n, L_nw, L_knw(k)))
    budgets = cache(lambda k: [i * L_n + 2 * L_knw(k) for i in range(k + 1)])

    def add(h, k, name, lhs, rhs, equal=False):         # both sides exact
        checks.append(LedgerCheck(h, k, name, lhs, rhs, lhs == rhs if equal else lhs <= rhs))

    def add_float(h, k, name, lhs, rhs):        # rhs a float from the log2 replay
        # an int lhs against a float compares exactly at any size
        checks.append(LedgerCheck(h, k, name, lhs, rhs, lhs <= rhs + _TOL))

    for (h, k), p in plan.items():
        found = recorded.get((h, k), ())
        add(h, k, "node recorded iff planned", len(found), 1, equal=True)
        if not found:
            continue
        node = found[0]
        add(h, k, f"kind = {p.kind}", node.kind == p.kind, True, equal=True)
        if node.kind != p.kind:
            continue
        so_bound, si_bound = bounds(h, k)
        add_float(h, k, "used s_out <= bound", node.s_out, ledger.c * so_bound)
        add_float(h, k, "used s_in <= bound", node.s_in, ledger.c * si_bound)
        add(h, k, "used mu <= max(1, binom(2^h-1,k))", node.mu, p.mu_cap)
        differing = sum(a != b for a, b in zip(
            (p.mu_cap, p.error_bound, p.merge_gamma, p.delta_binding_i),
            (node.mu_cap, node.error_bound, node.merge_gamma, node.delta_binding_i)))
        add(h, k, "recorded mu_cap, error_bound, merge_gamma, delta_binding_i: count differing "
            "from plan", differing, 0, equal=True)
        if p.kind == "terminal":
            add(h, k, "terminal s_out = 0", node.s_out, 0, equal=True)
            add(h, k, "terminal records no children, len_a, len_b or samplers",
                (node.children, node.len_a, node.len_b, node.samplers) == ((),) * 4, True,
                equal=True)
            continue

        split = len(p.eps_required) - 1
        terms = merge_terms(k)
        # structural: layout of the merge actually built
        for i, j, _ in terms:
            add(h, k, f"prefix a_{i} + suffix b_{j} <= s_in", node.len_a[i] + node.len_b[j], node.s_in)
        kids = [recorded.get((h - 1, i), [None])[0] for i in range(k + 1)]
        differing = sum(kid is None or summary != (i, kid.s_out, kid.s_in, kid.mu)
                        for i, (summary, kid) in enumerate(zip(node.children, kids)))
        add(h, k, f"child summaries: count differing from nodes ({h - 1}, 0..{k})",
            differing, 0, equal=True)
        for i, (_, s_out_c, _, _) in enumerate(node.children[split + 1:], split + 1):
            add(h, k, f"pass-through child s_out(G_{i}) <= s_out", s_out_c, node.s_out)
        # both halves read G_i at one length: a sampled index the slot's d (a missing slot
        # differs), a pass-through index the child's s_in
        reads = [slot.d for slot in node.samplers[:split + 1]]
        reads += [None] * (split + 1 - len(reads)) + [kid[2] for kid in node.children[split + 1:]]
        differing = sum(not a == b == r for a, b, r in zip(node.len_a, node.len_b, reads))
        add(h, k, f"read lengths len_a = len_b = slot d (i <= {split}), child s_in (i > {split}): "
            "count differing", differing, 0, equal=True)
        slots_ok = ([(slot.i, slot.eps_required, slot.delta_required) for slot in node.samplers]
                    == [(i, eps_i, p.delta_required) for i, eps_i in enumerate(p.eps_required)])
        add(h, k, f"sampler slots i = 0..{split} at the derived requirements", slots_ok, True,
            equal=True)
        for i, slot in enumerate(node.samplers if slots_ok else ()):
            child = node.children[i]
            add(h, k, f"sampler g_{i} outer input <= s_out", slot.n, node.s_out)
            add(h, k, f"sampler g_{i} output = flat child seed", slot.out_bits,
                child[1] + child[2], equal=True)
            add(h, k, f"cert eps(g_{i}) <= required", slot.cert_eps, slot.eps_required)
            add(h, k, f"cert delta(g_{i}) <= required", slot.cert_delta, slot.delta_required)
            if slot.d < slot.out_bits:
                # 2^d samples reach at most 2^(d - out_bits) of the output space, so every outer
                # input is that far from uniform. Past the bits of cert eps's denominator the
                # exponent decides nothing, so it is capped there and the record stays small
                cap = min(slot.out_bits - slot.d, slot.cert_eps.denominator.bit_length())
                miss = 1 - Fraction(1, 1 << cap)
                ok = miss <= slot.cert_eps or slot.cert_delta >= 1
                checks.append(LedgerCheck(h, k, f"support: cert eps(g_{i}) >= 1 - 2^(d - out_bits) "
                                          "unless cert delta >= 1", miss, slot.cert_eps, ok))
        mus = [summary[3] for summary in node.children]
        add(h, k, "mu identity: sum of term blocks", node.mu,
            sum(mus[i] * mus[j] for i, j, _ in terms), equal=True)

        # arithmetic replay of the proof's chains, global gamma, c = 1: -log2 of each
        # requirement of ck_requirements(2^(h-1), w, k, gamma), from its int ratio
        eps_ratios, delta_ratio = _requirement_ratios(1 << (h - 1), w, k, num, den)
        log_delta = -_log2_ratio(*delta_ratio)
        log_eps = [-_log2_ratio(*r) for r in eps_ratios]
        d_budget = budgets(k)
        for i in range(split + 1):
            need = log_eps[i] + math.log2(max(2.0, log_delta))
            add_float(h, k, f"replay: d_{i} formula covers log(1/eps_{i})+loglog(1/delta)",
                      need, d_budget[i])
            for j in range(min(i, k - i) + 1):
                add_float(h, k, f"replay: d_{i}+d_{j} <= s_in bound", d_budget[i] + d_budget[j],
                          si_bound)
        for i in range(split + 1, k + 1):
            add_float(h, k, f"replay: s_in bound(h-1,{i}) + d_{k - i} <= s_in bound",
                      bounds(h - 1, i)[1] + d_budget[k - i], si_bound)
        for i in range(k + 1):
            add_float(h, k, f"replay: s_out bound(h-1,{i}) <= s_out bound", bounds(h - 1, i)[0],
                      so_bound)
        for i in range(split + 1):
            lhs = sum(bounds(h - 1, i)) + log_delta + log_eps[i]
            add_float(h, k, f"replay: sampler outer budget at i={i} <= s_out bound", lhs, so_bound)
    for h, k in sorted(recorded.keys() - plan.keys()):
        add(h, k, "node recorded iff planned", len(recorded[(h, k)]), 0, equal=True)
    if ledger.eps_target is not None:
        top = (n.bit_length() - 1, ledger.k)
        add(*top, "top error bound <= eps_target", plan[top].error_bound, ledger.eps_target)
    return LedgerReport(checks=checks)


# ---------------------------------------------------------------------------
# exact error measurement


def _passes_seed(prpd: RobustPrpd) -> bool:
    """Whether prpd reads its child behind a sampler that selects every flat seed once."""
    return prpd.reads is not None and _selects_every_seed(*prpd.reads)


def _is_uniform(prpd: RobustPrpd) -> bool:
    """Whether prpd is uniform_prpd's generator: told by its bundle function, not its shape."""
    return prpd.bundle is uniform_bundle and (prpd.s_out, prpd.s_in, prpd.mu) == (0, prpd.out_len, 1)


Form = Dict[str, Mat]       # x -> the int sum of A(x, y) over the generator's 2^s_in inner seeds


class _MergeTree:
    """The plan of one generator tree on one program.

    A step per (generator, segment start), in the order its forms are made,
    readers first: its cost (products, averaged matrices, leaf strings or
    uniform label rows) and the closure that makes its form from the forms
    made before it. Its uniform leaves read walk counts from a table kept per
    segment; their steps hold the table, not the tree, so no reference cycle
    keeps the tree alive after its call.
    """

    def __init__(self, robp: Robp):
        self.robp = robp
        self.steps: Dict[Tuple[int, int], Tuple[int, Callable[[dict], Form]]] = {}
        self.counts: Dict[Tuple[int, int], Mat] = {}

    def plan(self, prpd: RobustPrpd, a: int) -> Tuple[int, int]:
        """Plan prpd's form on the segment from a, once, after its readers'; its key."""
        key = (id(prpd), a)
        if key in self.steps:
            return key
        robp, node, counts = self.robp, prpd.merge, self.counts
        b = a + prpd.out_len // robp.d_step
        if _is_uniform(prpd):       # walk_counts reads every label row of its steps once
            step = (b - a) << robp.d_step, lambda forms: {"": _segment_counts(robp, counts, a, b)}
        elif _passes_seed(prpd):
            # every flat seed of the child once, whatever x is: the sum of the child's form
            child = prpd.reads[0]
            at = self.plan(child, a)
            step = (1 << child.s_out) + (1 << prpd.s_out), lambda forms: dict.fromkeys(
                all_bits(prpd.s_out), reduce(mat_add, forms[at].values()))
        elif node is None or node.children[0].out_len % robp.d_step:
            step = (1 << prpd.seed_len) * prpd.mu, lambda forms: dyadic_form(prpd, robp, a, b)
        else:
            for i, j, _ in node.terms:
                if node.lens[i] + node.lens[j] > prpd.s_in:
                    raise ContractError(f"merge term ({i}, {j}) reads {node.lens[i]} + "
                                        f"{node.lens[j]} inner seed bits, the node has {prpd.s_in}")
            mid = a + node.children[0].out_len // robp.d_step
            halves = [[self.plan(r, start) for r in node.readers] for start in (a, mid)]
            # term (i, j) leaves s_in - lens[i] - lens[j] inner seed bits unread
            terms = [(i, j, sign << (prpd.s_in - node.lens[i] - node.lens[j]))
                     for i, j, sign in node.terms]
            cuts = [r.s_out for r in node.readers]

            def make(forms):
                a_forms, b_forms = ([forms[k] for k in keys] for keys in halves)
                return {x: _term_sum(terms, [v[x[:c]] for v, c in zip(a_forms, cuts)],
                                     [v[x[:c]] for v, c in zip(b_forms, cuts)])
                        for x in all_bits(prpd.s_out)}
            step = (1 << prpd.s_out) * len(node.terms), make
        self.steps[key] = step
        return key

    def form(self, prpd: RobustPrpd, a: int, b: int) -> Form:
        """prpd's form on [a, b]: planned, its total cost checked, then made step by step."""
        check_segment(self.robp, a, b, prpd.out_len)
        top = self.plan(prpd, a)
        check_capacity(sum(cost for cost, _ in self.steps.values()), "merge tree evaluation")
        forms = {}
        for key, (_, make) in self.steps.items():
            forms[key] = make(forms)
        return forms[top]


def _segment_counts(robp: Robp, table: dict, a: int, b: int) -> Mat:
    """walk_counts(robp, a, b) through table: a segment from its halves, a step object once."""
    key = (a, b) if b - a != 1 else (id(robp.transitions[a]), -1)     # -1: one step
    m = table.get(key)
    if m is None:
        mid = (a + b) // 2
        m = table[key] = (walk_counts(robp, a, b) if b - a < 2 else mat_mul(
            _segment_counts(robp, table, a, mid), _segment_counts(robp, table, mid, b)))
    return m


def merge_tree_form(prpd: RobustPrpd, robp: Robp, a: int, b: int) -> Form:
    """robust_form(prpd, robp, a, b) as x -> int matrix over 2^s_in, through build_ck's layout.

    A merge term reads A_i from a prefix of y and B_j from a disjoint suffix,
    so sum_y A(x, y) = sum sign * 2^(s_in - lens[i] - lens[j]) * (sum A_i at x)
    * (sum B_j at x) exactly, each read from its reader's form at x[:s_out].
    A reader behind pass_seed with d = m = the child's flat seed is the sum
    of its child's form at every x (with no outer seed, behind returns the
    child itself); a reader behind any other sampler has no
    layout and is read from its bundles; uniform_prpd's generator is read as
    walk_counts. A term that reads more inner seed bits than the node has
    raises ContractError. The plan's products, averaged matrices, leaf
    strings and uniform label rows, each (generator, start) once, are counted
    against the enumeration budget before any form is made.
    """
    return _MergeTree(robp).form(prpd, a, b)


def measure_robust_error(prpd: RobustPrpd, robp: Robp, a: int = 0, b: Optional[int] = None) -> Fraction:
    """E_x || E_y A(x, y) - exact average ||, exactly, through the merge tree.

    The form, over 2^s_in, and the walk counts, over 2^bits, are compared
    over 2^(s_in + bits), so the norms sum as ints and the one Fraction is
    made at the end. The target is read from the tree's walk-count table.
    """
    if b is None:
        b = robp.n
    tree = _MergeTree(robp)
    form = tree.form(prpd, a, b)
    bits = (b - a) * robp.d_step
    target = mat_scale(1 << prpd.s_in, _segment_counts(robp, tree.counts, a, b))
    total = sum(inf_norm(mat_sub(mat_scale(1 << bits, m), target)) for m in form.values())
    return Fraction(total, 1 << (prpd.s_out + prpd.s_in + bits))


# ---------------------------------------------------------------------------
# ledger serialization: the dataclasses above are the format, with an object
# per dataclass, a list per tuple or list and a 'num/den' string per Fraction


def frac_str(q) -> str:
    """q as 'num/den'; InputError if a part has more digits than str(int) renders."""
    if type(q) is not Fraction:
        q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise InputError(f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
                         "past the int-to-str limit of this Python") from None


# what frac_str writes: ASCII digits, a minus sign only on the numerator
_FRACTION = re.compile(r"-?[0-9]+/[0-9]+")


def _parse_frac(s: str) -> Fraction:
    if type(s) is not str or not _FRACTION.fullmatch(s):
        raise InputError(f"fraction {s!r} is not a 'num/den' string")
    num, den = s.split("/")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad fraction {s!r}") from None


def ledger_to_dict(value: SeedLedger) -> dict:
    """The ledger, or any value inside it, as JSON values."""
    kind = type(value)
    if kind is int or kind is str or value is None:
        return value
    if kind is Fraction:
        return frac_str(value)
    if kind is tuple or kind is list:
        return [v if type(v) is int else ledger_to_dict(v) for v in value]
    return {name: ledger_to_dict(v) for name, v in vars(value).items()}      # a dataclass


def _reader(hint) -> Callable:
    """A function reading a JSON value as a `hint`, or raising InputError.

    Made once per type at import: a scalar or a tuple of ints is checked in one
    closure, a dataclass is built from its fields' readers in field order.
    """
    args = get_args(hint)
    if hint is Fraction:
        return _parse_frac
    if hint is int or hint is str:
        def read_scalar(value):
            if type(value) is not hint:         # not isinstance: a bool is no int here
                raise _not_a(value, hint)
            return value
        return read_scalar
    if get_origin(hint) is Union:                       # Optional[X]
        read = _reader(args[0])
        return lambda value: None if value is None else read(value)
    if get_origin(hint) in (tuple, list):
        container, reads = get_origin(hint), [_reader(a) for a in args if a is not Ellipsis]
        fixed = len(args) > 1 and args[-1] is not Ellipsis      # Tuple[int, int, int, int]
        ints = {a for a in args if a is not Ellipsis} == {int}

        def read_items(value):
            if type(value) is not list:
                raise _not_a(value, list)
            if fixed and len(value) != len(reads):
                raise InputError(f"{value!r} must have {len(reads)} entries")
            if ints:
                for item in value:
                    if type(item) is not int:       # not isinstance: a bool is no int here
                        raise _not_a(item, int)
                return container(value)
            return container([read(item) for read, item in
                              zip(reads if fixed else repeat(reads[0]), value)])
        return read_items
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        fields = [(f.name, _reader(hints[f.name])) for f in dataclass_fields(hint)]

        def read_object(value):
            if type(value) is not dict:
                raise _not_a(value, dict)
            return hint(*[read(value[name]) for name, read in fields])
        return read_object
    raise TypeError(f"no ledger reader for {hint!r}")


def _not_a(value, kind: type) -> InputError:
    return InputError(f"{value!r} is not a JSON {kind.__name__}")


def ledger_from_dict(data: dict) -> SeedLedger:
    """Inverse of ledger_to_dict; raises InputError on a ledger of the wrong shape.

    That is a missing key, a bad fraction, a value of the wrong JSON type (an
    int must be a non-bool int), a header outside its domain, a negative int in
    a node or sampler slot (each is a count, a length or an index), a negative
    cert_eps or cert_delta (a TV distance and a failure probability), and a
    merge node without its merge gamma and binding index or k+1 entries of
    len_a, len_b and children.
    """
    try:
        ledger = _read_ledger(data)
    except KeyError as exc:
        raise InputError(f"ledger is missing key {exc}") from None
    check_domain(ledger.n, ledger.n_padded, ledger.w, ledger.k, ledger.gamma, ledger.c)
    for nd in ledger.nodes:
        ints = [nd.h, nd.k, nd.s_out, nd.s_in, nd.mu, nd.mu_cap, nd.delta_binding_i or 0,
                *nd.len_a, *nd.len_b, *chain.from_iterable(nd.children),
                *chain.from_iterable((s.i, s.out_bits, s.n, s.d) for s in nd.samplers)]
        if min(ints) < 0:
            raise InputError(f"node ({nd.h},{nd.k}) holds a negative count, length or index")
        if any(s.cert_eps < 0 or s.cert_delta < 0 for s in nd.samplers):
            raise InputError(f"node ({nd.h},{nd.k}) holds a negative certificate: cert_eps is "
                             "a TV distance and cert_delta a failure probability")
        if nd.kind == "merge" and (None in (nd.merge_gamma, nd.delta_binding_i) or
                                   {len(nd.len_a), len(nd.len_b), len(nd.children)} != {nd.k + 1}):
            raise InputError(f"merge node ({nd.h},{nd.k}) lacks merge_gamma, delta_binding_i "
                             f"or k+1 entries of len_a, len_b and children")
    return ledger


_read_ledger = _reader(SeedLedger)

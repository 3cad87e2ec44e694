import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from prpd import (ContractError, InputError, build_ck, certify, enumeration_sampler,
                  exact_average, expander_walk_sampler, inf_norm, mat_mul, mat_scale, mat_sub,
                  matrix_form, measure_robust_error, merge_terms, random_robp, signed_walk_sum,
                  uniform_prpd)
from prpd.bits import all_bits
from prpd.recursion import MergeNode, ck_requirements

from helpers import assumed_sampler, corrupted_uniform_prpd, weighted_exact_prpd
from lemmas import argmax_delta, average, dump_prpd, sample_on_bits, zeros

GAMMA = Fraction(1, 256)


def child_bundle(node, side, i, x, y):
    """The bundle of child i read on `side` at the merged seed (x, y).

    Its flat seed is composed here from the layout: a sampled index reads what
    its sampler selects from the outer seed and its part of y, a pass-through
    index a prefix of x followed by its part of y.
    """
    child = node.children[i]
    y_part = y[:node.lens[i]] if side == "A" else y[len(y) - node.lens[i]:]
    if i < len(node.samplers):
        g = node.samplers[i]
        z = sample_on_bits(g, x[:g.n], y_part)
    else:
        z = x[:child.s_out] + y_part
    return child.bundle(z[:child.s_out], z[child.s_out:])


def test_ck_requirements_binds_at_split_index():
    # binom(2m-1, i) strictly increases for i <= m-1, and k <= 2m-2 keeps ceil(k/2) <= m-1:
    # the argmax over the sampled indices is ceil(k/2); past it eps divides by binom(m-1, i) = 0
    gamma = Fraction(3, 7)
    for m_bits in range(1, 70):
        for k in range(2 * m_bits - 1):
            eps, delta = ck_requirements(m_bits, 2, k, gamma)
            binding = len(eps) - 1
            assert binding == (k + 1) // 2
            assert (delta, binding) == argmax_delta(m_bits, 2, k, gamma)
        for k in range(2 * m_bits - 1, 2 * m_bits + 2):
            with pytest.raises(ZeroDivisionError):
                ck_requirements(m_bits, 2, k, gamma)


def test_one_family_serves_both_halves():
    # a PRPD does not know which half it runs on: one family, one read length per index
    assert [f.name for f in dataclasses.fields(MergeNode)] == ["children", "samplers", "lens",
                                                                "terms"]
    children = [corrupted_uniform_prpd(3, s_in) for s_in in (5, 4, 3)]
    node = build_ck(children, w=2, gamma=Fraction(1, 16)).merge
    assert node.children == tuple(children)
    # indices 0 and 1 are sampled at d = m, index 2 is passed through at its s_in
    assert node.lens == (node.samplers[0].d, node.samplers[1].d, children[2].s_in) == (5, 4, 3)


def test_k0_exact_children_collapse_to_product():
    children = [uniform_prpd(2)]
    prpd = build_ck(children, w=2, gamma=GAMMA)
    program = random_robp(4, 2, seed=1)
    lhs = average(matrix_form(prpd, program, 0, 4))
    rhs = mat_mul(exact_average(program, 0, 2), exact_average(program, 2, 4))
    assert lhs == rhs
    assert prpd.mu == 1 == comb(3, 0)


def test_weight_equality_and_vandermonde():
    # children with weights exactly binom(m-1, i) make the merged weight
    # meet its cap binom(2m-1, k) with equality
    m_bits, k = 4, 2
    children = [weighted_exact_prpd(m_bits, comb(m_bits - 1, i)) for i in range(k + 1)]
    prpd = build_ck(children, w=2, gamma=GAMMA)
    assert prpd.mu == comb(2 * m_bits - 1, k) == 21
    total = sum(comb(m_bits - 1, i) * comb(m_bits - 1, k - i) for i in range(k + 1))
    total += sum(comb(m_bits - 1, i) * comb(m_bits - 1, k - 1 - i) for i in range(k))
    assert prpd.mu == total


def test_exact_children_zero_error():
    children = [uniform_prpd(2), uniform_prpd(2)]
    prpd = build_ck(children, w=2, gamma=GAMMA)
    for seed in range(5):
        program = random_robp(4, 2, seed=seed)
        assert measure_robust_error(prpd, program) == 0


def test_lossy_children_error_within_cascade_bound():
    gamma = Fraction(1, 16)
    a0 = corrupted_uniform_prpd(2, 5)        # robust error <= 2/32 = gamma
    a1 = corrupted_uniform_prpd(2, 9)        # robust error <= 2/512 = gamma^2
    prpd = build_ck([a0, a1], w=2, gamma=gamma)
    bound = (11 * gamma) ** 2
    saw_nonzero = False
    for seed in range(3):
        program = random_robp(4, 2, seed=seed)
        for i, child in enumerate((a0, a1)):
            for (a, b) in ((0, 2), (2, 4)):
                err = measure_robust_error(child, program, a, b)
                assert err <= gamma ** (i + 1)
        err = measure_robust_error(prpd, program)
        assert err <= bound
        saw_nonzero = saw_nonzero or err > 0
    assert saw_nonzero


def test_bundle_decomposes_into_terms():
    gamma = Fraction(1, 16)
    a0 = corrupted_uniform_prpd(2, 5)
    a1 = corrupted_uniform_prpd(2, 9)
    prpd = build_ck([a0, a1], w=2, gamma=gamma)
    assert prpd.bundle == prpd.merge.bundle
    program = random_robp(4, 2, seed=7)
    rng = random.Random(0)
    for _ in range(25):
        y = format(rng.randrange(1 << prpd.s_in), f"0{prpd.s_in}b")
        whole = signed_walk_sum(program, 0, 4, prpd.bundle("", y))
        total = zeros(2)
        for i, j, sign in merge_terms(1):
            a_mat = signed_walk_sum(program, 0, 2, child_bundle(prpd.merge, "A", i, "", y))
            b_mat = signed_walk_sum(program, 2, 4, child_bundle(prpd.merge, "B", j, "", y))
            term = mat_scale(sign, mat_mul(a_mat, b_mat))
            total = tuple(tuple(p + q for p, q in zip(r1, r2)) for r1, r2 in zip(total, term))
        assert whole == total


def test_termwise_decomposition_bounds():
    # with exact (0,0) samplers each cross term collapses to a product of
    # robust-error matrices; the per-term bounds then hold with slack
    gamma = Fraction(1, 16)
    a0 = corrupted_uniform_prpd(2, 5)
    a1 = corrupted_uniform_prpd(2, 9)
    prpd = build_ck([a0, a1], w=2, gamma=gamma)
    node = prpd.merge
    k = 1
    measured = []
    # on the width-2 program every term is 0 (each of its first three steps maps both
    # states to one); on the width-3 programs every term and the last term are non-zero
    for program in [random_robp(4, 2, seed=3)] + [random_robp(4, 3, seed=s) for s in range(3)]:
        targets = {"A": exact_average(program, 0, 2), "B": exact_average(program, 2, 4)}

        def mean_error(side, i):
            """E_y[child i - target] over the part of y it reads, one read per flat seed."""
            length = node.lens[i]
            pad = "0" * (prpd.s_in - length)
            ys = [u + pad if side == "A" else pad + u for u in all_bits(length)]
            start = 0 if side == "A" else 2
            walks = signed_walk_sum(program, start, start + 2,
                                    (e for y in ys for e in child_bundle(node, side, i, "", y)))
            return mat_sub(mat_scale(Fraction(1, len(ys)), walks), targets[side])

        for i, j, _ in merge_terms(k):
            # A_i reads a prefix of y and B_j a disjoint suffix, so the mean over y
            # of the product of their errors is the product of their mean errors
            assert node.lens[i] + node.lens[j] <= prpd.s_in
            term_err = inf_norm(mat_mul(mean_error("A", i), mean_error("B", j)))
            # symmetric rule at delta = 0: 9 * gamma^(i+j+2)
            assert term_err <= 9 * gamma ** (i + j + 2)
            measured.append(term_err)
        # last-term rule: || E_y[A_k - A] * B || <= 3 * gamma^(k+1) at delta = 0
        last = inf_norm(mat_mul(mean_error("A", k), targets["B"]))
        assert last <= 3 * gamma ** (k + 1)
        measured.append(last)
    assert measured[:4] == [0] * 4 and all(measured[4:])


def test_sign_structure_all_plus_minus_one():
    children = [uniform_prpd(2), uniform_prpd(2)]
    prpd = build_ck(children, w=2, gamma=GAMMA)
    for x in all_bits(prpd.s_out):
        for y in all_bits(prpd.s_in):
            for _, sign in prpd.bundle(x, y):
                assert sign in (1, -1)


def test_non_overlap_structural():
    m_bits, k = 4, 2
    children = [weighted_exact_prpd(m_bits, comb(m_bits - 1, i)) for i in range(k + 1)]
    prpd = build_ck(children, w=2, gamma=GAMMA)
    for i, j, _ in merge_terms(k):
        assert prpd.merge.lens[i] + prpd.merge.lens[j] <= prpd.s_in


def test_oblivious_construction():
    def fresh():
        children = [uniform_prpd(2), uniform_prpd(2)]
        return build_ck(children, w=2, gamma=GAMMA)

    first = fresh()
    dump_before = dump_prpd(first)
    # evaluating against two different programs must not disturb the generator
    matrix_form(first, random_robp(4, 2, seed=11), 0, 4)
    matrix_form(first, random_robp(4, 2, seed=12), 0, 4)
    assert dump_prpd(first) == dump_before
    assert dump_prpd(fresh()) == dump_before


def test_refuses_unsatisfiable_weight_hypothesis():
    # binom(m-1, i) = 0 admits no generator of weight >= 1
    children = [uniform_prpd(1), uniform_prpd(1)]
    with pytest.raises(ContractError, match=r"weight hypothesis.*binom\(0, 1\) = 0"):
        build_ck(children, w=2, gamma=GAMMA)


def test_refuses_insufficient_sampler_accuracy():
    children = [uniform_prpd(2)]
    g = expander_walk_sampler(6, 2, children[0].seed_len, seed=5)
    ok, _ = certify(g, Fraction(1, 2), Fraction(1, 4))
    assert ok  # certified, but far too weak for gamma = 1/256
    with pytest.raises(ContractError, match=r"sampler g_0 certified at \(1/2, 1/4\)"):
        build_ck(children, w=2, gamma=GAMMA, samplers=[g])


def test_refuses_insufficient_sampler_failure_probability():
    children = [uniform_prpd(2)]
    g = expander_walk_sampler(6, 2, children[0].seed_len, seed=5)
    ok, _ = certify(g, 0, 1)
    assert ok  # at TV 0, but on a failing fraction of x bounded only by 1
    with pytest.raises(ContractError, match=r"sampler g_0 certified at \(0, 1\)"):
        build_ck(children, w=2, gamma=GAMMA, samplers=[g])


def test_refuses_uncertified_sampler():
    children = [uniform_prpd(2)]
    g = expander_walk_sampler(6, 2, children[0].seed_len, seed=5)
    with pytest.raises(ContractError, match="uncertified"):
        build_ck(children, w=2, gamma=GAMMA, samplers=[g])


def test_refuses_sampler_output_mismatch():
    children = [uniform_prpd(2)]
    g = expander_walk_sampler(6, 3, 3, seed=5)
    certify(g, Fraction(1), Fraction(1))
    with pytest.raises(ContractError, match="flat child seed"):
        build_ck(children, w=2, gamma=GAMMA, samplers=[g])


def test_certificate_at_the_requirement_is_the_boundary():
    # a sampler certified at exactly (eps_i, delta) is installed; one certified above it, in
    # eps alone or in delta alone, at any sampled index, is refused
    children = [uniform_prpd(4)] * 3
    eps_req, delta_req = ck_requirements(4, 2, 2, GAMMA)
    assert len(eps_req) == 2

    def samplers(raised=None, eps_up=0, delta_up=0):
        return [assumed_sampler(enumeration_sampler(4), eps_i + (eps_up if i == raised else 0),
                                delta_req + (delta_up if i == raised else 0))
                for i, eps_i in enumerate(eps_req)]

    node = build_ck(children, w=2, gamma=GAMMA, samplers=samplers()).merge
    assert [(g.cert.eps, g.cert.delta) for g in node.samplers] == [(e, delta_req) for e in eps_req]
    for i, eps_i in enumerate(eps_req):
        for up in (dict(eps_up=Fraction(1, eps_i.denominator ** 2)),
                   dict(delta_up=Fraction(1, delta_req.denominator ** 2))):
            with pytest.raises(ContractError, match=f"sampler g_{i} certified at"):
                build_ck(children, w=2, gamma=GAMMA, samplers=samplers(i, **up))


BUILD_CK_REFUSALS = {
    "empty-family": (lambda: build_ck([], 2, GAMMA), "need an approximation family"),
    "gamma-zero": (lambda: build_ck([uniform_prpd(4)], 2, 0), "gamma must be positive"),
    "child-length": (lambda: build_ck([uniform_prpd(4), uniform_prpd(3)], 2, GAMMA),
                     "G_1 emits 3 bits, expected 4"),
    "sampler-count": (lambda: build_ck([uniform_prpd(4)] * 2, 2, GAMMA, samplers=[]),
                      r"need one sampler per index 0\.\.1, got 0"),
}


@pytest.mark.parametrize("case", BUILD_CK_REFUSALS)
def test_build_ck_refusals(case):
    build, message = BUILD_CK_REFUSALS[case]
    with pytest.raises(InputError, match=message):
        build()

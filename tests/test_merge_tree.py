"""The merge-tree evaluator against the flat enumeration it replaces.

merge_tree_form's int matrices must equal dyadic_form's, and over 2^s_in
robust_form's dict of exact Fractions, on every generator: random one- and
two-level build_ck trees with random-table samplers, random signed and lossy
children, and the pinned recursive builds. A child behind a sampler is
checked against the per-seed table it replaces, and measure_robust_error
against an all-Fraction oracle that scales no int sums. The factored merge
sum is checked against the term-by-term one, and the tree's walk-count table
against walk_counts.
"""

import gc
import random
import re
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prpd import (CapacityError, ContractError, InputError, RecursionParams, Robp, RobustPrpd,
                  Sampler, build_ck, enumeration_sampler, inf_norm, mat_add, mat_scale, mat_sub,
                  matrix_form, measure_robust_error, random_robp, recursive_prpd, robust_form,
                  telescoping_product, uniform_prpd)
from prpd import recursion
from prpd.bits import all_bits
from prpd.pdist import dyadic_form
from prpd.recursion import (_MergeTree, _segment_counts, _term_sum, behind, merge_terms,
                            merge_tree_form)
from prpd.robp import walk_counts

from helpers import (assumed_sampler, corrupted_uniform_prpd, rand_bits, rand_child,
                     rand_depth1_tree, rand_depth2_tree, rand_merge, rand_table_sampler)
from lemmas import (fraction_form, measure_average_error, sample_on_bits, sampled_average,
                    term_by_term_sum, walk_matrix)
from test_recursion import PINNED_DUMPS


def rand_program(data, out_len, seed):
    # with two bits a step, a half of odd length splits a label: that node is read flat
    d_step = data.draw(st.sampled_from([1, 2]))
    return random_robp(out_len // d_step, data.draw(st.integers(1, 3)), d_step=d_step, seed=seed)


def assert_same_forms(prpd, program):
    tree = merge_tree_form(prpd, program, 0, program.n)
    assert tree == dyadic_form(prpd, program, 0, program.n)
    assert fraction_form(prpd, tree) == robust_form(prpd, program, 0, program.n)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_depth1_trees_match_flat(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m_bits = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, m_bits - 1))
    prpd = rand_depth1_tree(rng, m_bits, k)
    assert_same_forms(prpd, rand_program(data, prpd.out_len, seed))


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_depth2_trees_match_flat(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m_bits = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, m_bits - 1))
    prpd = rand_depth2_tree(rng, m_bits, k)
    assert_same_forms(prpd, rand_program(data, prpd.out_len, seed))


def rand_lossy_depth2_tree(rng, m_bits, k):
    """A merge of depth-1 merges whose every leaf is a corrupted uniform generator."""
    def lossy():
        s_in = m_bits + rng.randint(0, 2)
        return corrupted_uniform_prpd(m_bits, s_in, rng.randrange(1 << s_in),
                                      rand_bits(rng, m_bits))

    return rand_merge(rng, [rand_merge(rng, [lossy() for _ in range(i + 1)], 2)
                            for i in range(k + 1)], 2)


def rand_enumerated_depth2_tree(rng, m_bits, k):
    """Depth-1 trees with outer seeds, merged behind enumeration samplers: each is read as
    the mean of its form over its outer seed."""
    return build_ck([rand_depth1_tree(rng, m_bits, i) for i in range(k + 1)], w=2,
                    gamma=Fraction(1, 2))


def fraction_oracle_error(prpd, program):
    """E_x || robust_form(x) - exhaustive walk average ||, all in Fractions, no int sums scaled."""
    bits = program.n * program.d_step
    walks = reduce(mat_add, (walk_matrix(program, 0, program.n, r) for r in all_bits(bits)))
    target = mat_scale(Fraction(1, 1 << bits), walks)
    form = robust_form(prpd, program, 0, program.n)
    return sum(inf_norm(mat_sub(m, target)) for m in form.values()) / (1 << prpd.s_out)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_robust_error_matches_fraction_oracle(data):
    # random-table samplers (d != m) leave a node's terms different numbers of inner seed
    # bits unread, lossy leaves a non-zero error and enumeration samplers over outer seeds
    # sum a child's form: only such trees show a term scaled wrongly. Halves of at most
    # 2 bits keep the oracle's exhaustive walks at 2^8
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m_bits = data.draw(st.integers(1, 2))
    k = data.draw(st.integers(0, m_bits - 1))
    draw_tree = data.draw(st.sampled_from([rand_depth2_tree, rand_lossy_depth2_tree,
                                           rand_enumerated_depth2_tree]))
    prpd = draw_tree(rng, m_bits, k)
    program = rand_program(data, prpd.out_len, seed)
    expected = fraction_oracle_error(prpd, program)
    assume(expected != 0)
    assert measure_robust_error(prpd, program) == expected


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_tree_forms_are_int_matrices(data):
    # a Fraction that slips back into the tree would still compare equal to robust_form
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m_bits = data.draw(st.integers(1, 3))
    prpd = rand_depth2_tree(rng, m_bits, data.draw(st.integers(0, m_bits - 1)))
    program = rand_program(data, prpd.out_len, seed)
    form = merge_tree_form(prpd, program, 0, program.n)
    assert all(type(v) is int for m in form.values() for row in m for v in row)


def test_pinned_build_forms_are_int_matrices():
    prpd, _ = recursive_prpd(8, 3, params=RecursionParams(k=2))
    form = merge_tree_form(prpd, random_robp(8, 3, seed=0), 0, 8)
    assert list(form) == [""]
    assert all(type(v) is int for m in form.values() for row in m for v in row)


def rand_child_behind(data):
    """A random child, a random-table sampler over its flat seed, and the seed of both."""
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    m_bits = data.draw(st.integers(1, 3))
    child = rand_child(rng, m_bits, data.draw(st.integers(0, m_bits - 1)),
                       data.draw(st.integers(0, 1)), data.draw(st.integers(0, 3)))
    g = rand_table_sampler(rng, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)),
                           child.seed_len)
    return child, g, seed


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_behind_form_is_sampled_average_of_table(data):
    # the reader's form against the per-seed table averaged over the sampler's selections
    child, g, seed = rand_child_behind(data)
    program = random_robp(child.out_len, data.draw(st.integers(1, 3)), seed=seed)
    form = robust_form(behind(child, g), program, 0, program.n)
    table = matrix_form(child, program, 0, program.n)
    assert form == {x: sampled_average(table, g, x) for x in all_bits(g.n)}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_behind_bundle_reads_child_at_selected_seed(data):
    child, g, _ = rand_child_behind(data)
    reader = behind(child, g)
    assert (reader.out_len, reader.s_out, reader.s_in, reader.mu) == (child.out_len, g.n, g.d,
                                                                      child.mu)
    assert reader.reads[0] is child and reader.reads[1] is g
    for x in all_bits(g.n):
        for s in all_bits(g.d):
            z = sample_on_bits(g, x, s)
            assert reader.bundle(x, s) == child.bundle(z[:child.s_out], z[child.s_out:])


@pytest.mark.parametrize("n,d,m", [(0, 2, 2), (2, 0, 2), (1, 1, 0), (0, 0, 0), (2, 3, 3)])
def test_behind_converts_seeds_at_its_edge(n, d, m):
    # the sampler gets ints, also for an empty x or s, and a 0-bit output is the empty
    # flat seed (format(0, "00b") is "0"); each bit of the output is checked by hand
    seen = []

    def sample(x, s):
        seen.append((type(x), type(s), x, s))
        return (3 * x + s + 1) % (1 << m)

    child = RobustPrpd(out_len=1, s_out=m // 2, s_in=m - m // 2, mu=1,
                       bundle=lambda x, y: [(x + "|" + y, 1)])
    reader = behind(child, Sampler(n=n, d=d, m=m, sample=sample))
    for x in all_bits(n):
        for s in all_bits(d):
            xi, si = int(x or "0", 2), int(s or "0", 2)
            v = (3 * xi + si + 1) % (1 << m)
            z = "".join("1" if v >> (m - 1 - j) & 1 else "0" for j in range(m))
            assert reader.bundle(x, s) == [(z[:m // 2] + "|" + z[m // 2:], 1)]
            assert seen[-1] == (int, int, xi, si)
    assert len(seen) == 1 << (n + d)


@pytest.mark.parametrize("out", [4, -1, "10", True])
def test_behind_refuses_out_of_range_output(out):
    # 2^m, -1, a str and a bool: a ContractError (exit 2 at the command line), never a
    # ValueError from formatting, read from the bundle or through the tree
    message = re.escape(f"sampler output {out!r} is not an int in [0, 2^2)")
    reader = behind(uniform_prpd(2), assumed_sampler(Sampler(n=0, d=2, m=2,
                                                             sample=lambda x, s: out)))
    with pytest.raises(ContractError, match=message):
        reader.bundle("", "00")
    prpd = build_ck([uniform_prpd(2)], w=2, gamma=Fraction(1, 2), samplers=[reader.reads[1]])
    with pytest.raises(ContractError, match=message):
        measure_robust_error(prpd, random_robp(4, 2, seed=0))


def test_random_trees_have_outer_seeds_and_error():
    # the differential above is not vacuous: the trees read outer seeds and miss the target
    rng = random.Random(5)
    trees = [rand_depth2_tree(rng, 2, 1) for _ in range(4)]
    assert all(t.s_out > 0 for t in trees)
    assert any(measure_robust_error(t, random_robp(t.out_len, 2, seed=1)) > 0 for t in trees)


@pytest.mark.parametrize("n,w,k", PINNED_DUMPS)
def test_pinned_builds_match_flat(n, w, k):
    prpd, _ = recursive_prpd(n, w, params=RecursionParams(k=k))
    for seed in range(3):
        assert_same_forms(prpd, random_robp(n, w, seed=seed))


def test_child_behind_identity_sampler_is_the_child():
    # pass_seed over the whole flat seed, with no outer seed on either side: G(Samp) = G,
    # so a recursive build's merge readers are its table's own generators
    prpd, _ = recursive_prpd(8, 3, params=RecursionParams(k=2))
    for child in (uniform_prpd(4), prpd, prpd.merge.children[1]):
        assert behind(child, enumeration_sampler(child.seed_len)) is child
    assert all(r is c for r, c in zip(prpd.merge.readers, prpd.merge.children))


@pytest.mark.parametrize("case", ["outer input", "child outer seed", "lambda pass"])
def test_reader_is_fresh_unless_identity(case):
    # an outer seed on either side, or a function other than pass_seed itself, keeps the
    # composition a reader of its own, still evaluated as its bundles are
    child = uniform_prpd(2)
    if case == "outer input":
        g = enumeration_sampler(2, n=1)
    elif case == "child outer seed":
        child = RobustPrpd(out_len=2, s_out=1, s_in=2, mu=1, bundle=lambda x, y: [(x + y[1:], 1)])
        g = enumeration_sampler(child.seed_len)
    else:
        g = assumed_sampler(Sampler(n=0, d=2, m=2, sample=lambda x, s: s))
    reader = behind(child, g)
    assert reader is not child and reader.reads[0] is child and reader.reads[1] is g
    program = random_robp(child.out_len, 2, seed=4)
    assert merge_tree_form(reader, program, 0, program.n) == dyadic_form(reader, program, 0,
                                                                        program.n)


def tree_edges(prpd, a, d_step, seen):
    """The reads of the merge tree below (prpd, a), each (generator, start) followed once.

    The pairs reached are added to seen.
    """
    if (id(prpd), a) in seen:
        return 0
    seen.add((id(prpd), a))
    node = prpd.merge
    if node is None:
        return 0
    mid = a + node.children[0].out_len // d_step
    return sum(1 + tree_edges(r, start, d_step, seen) for r in node.readers for start in (a, mid))


def test_verify_unit_plan_pinned(monkeypatch):
    # the verify workload's shape: one step per distinct (generator, start), planned by
    # following each read once, and one budget check on the plan's total
    prpd, _ = recursive_prpd(8, 3, params=RecursionParams(k=2))
    program = random_robp(8, 3, seed=0)
    seen = set()
    edges = tree_edges(prpd, 0, program.d_step, seen)
    calls = []
    plan = _MergeTree.plan
    monkeypatch.setattr(_MergeTree, "plan", lambda self, g, a: calls.append(a) or plan(self, g, a))
    tree = _MergeTree(program)
    top = tree.plan(prpd, 0)
    assert set(tree.steps) == seen and len(seen) == 23 and list(tree.steps)[-1] == top
    assert len(calls) == 1 + edges
    assert sum(cost for cost, _ in tree.steps.values()) == 65
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "64")
    with pytest.raises(CapacityError, match="merge tree evaluation needs 65 evaluations"):
        merge_tree_form(prpd, program, 0, 8)
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "65")
    form = merge_tree_form(prpd, program, 0, 8)
    monkeypatch.delenv("PRPD_ENUM_LIMIT")
    assert form == dyadic_form(prpd, program, 0, 8)


def test_pass_seed_shortcut_matches_behind_reader():
    # the same tree twice: enumeration samplers are averaged through the child's form,
    # the same selection behind another function through the child's behind() reader
    rng = random.Random(3)
    children = [rand_depth1_tree(rng, 2, i, n_max=1) for i in range(2)]
    enumerated = [enumeration_sampler(c.seed_len) for c in children]
    wrapped = [assumed_sampler(Sampler(n=g.n, d=g.d, m=g.m,
                                       sample=lambda x, s, g=g: g.sample(x, s)))
               for g in enumerated]
    trees = [build_ck(children, w=2, gamma=Fraction(1, 2), samplers=samplers)
             for samplers in (enumerated, wrapped)]
    for seed in range(3):
        program = random_robp(trees[0].out_len, 2, seed=seed)
        forms = [fraction_form(t, merge_tree_form(t, program, 0, program.n)) for t in trees]
        assert forms[0] == forms[1] == robust_form(trees[0], program, 0, program.n)


def test_errors_measured_through_tree_equal_flat():
    rng = random.Random(8)
    prpd = rand_depth1_tree(rng, 2, 1)
    flat = replace(prpd, merge=None)        # evaluated from its bundles alone
    for seed in range(3):
        program = random_robp(prpd.out_len, 2, seed=seed)
        assert measure_robust_error(prpd, program) == measure_robust_error(flat, program)
        assert measure_average_error(prpd, program) == measure_average_error(flat, program)


def test_lossy_children_measured_through_tree():
    lossy = [corrupted_uniform_prpd(2, 3, 5), corrupted_uniform_prpd(2, 3, 2, "10")]
    prpd = build_ck(lossy, w=2, gamma=Fraction(1, 2))
    errors = []
    for seed in range(3):
        program = random_robp(4, 2, seed=seed)
        assert_same_forms(prpd, program)
        errors.append(measure_robust_error(prpd, program))
    assert max(errors) > 0


def test_overlapping_layout_refused():
    leaves = [corrupted_uniform_prpd(2, 2), corrupted_uniform_prpd(2, 2)]
    prpd = build_ck(leaves, w=2, gamma=Fraction(1, 2))
    short = replace(prpd, s_in=prpd.s_in - 1)
    with pytest.raises(ContractError, match="inner seed bits"):
        merge_tree_form(short, random_robp(prpd.out_len, 2), 0, prpd.out_len)


def test_capacity_counted_before_evaluation(monkeypatch):
    calls = []

    def bundle(x, y):
        calls.append(y)
        return [(y, 1)]

    leaf = RobustPrpd(out_len=2, s_out=0, s_in=2, mu=1, bundle=bundle)
    g = assumed_sampler(Sampler(n=0, d=2, m=2, sample=lambda x, s: s))
    prpd = build_ck([leaf], w=2, gamma=Fraction(1, 2), samplers=[g])
    program = random_robp(4, 2, seed=0)
    # one product at the top; per side the 4 leaf strings of the leaf behind g
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "8")
    with pytest.raises(CapacityError, match="merge tree evaluation needs 9"):
        merge_tree_form(prpd, program, 0, 4)
    assert calls == []
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "9")
    tree = merge_tree_form(prpd, program, 0, 4)
    monkeypatch.delenv("PRPD_ENUM_LIMIT")
    assert fraction_form(prpd, tree) == robust_form(prpd, program, 0, 4)


def test_pass_seed_reader_capacity_counted_before_evaluation(monkeypatch):
    calls = []

    def bundle(x, y):
        calls.append((x, y))
        return [(x + y[1:], 1)]

    child = RobustPrpd(out_len=2, s_out=1, s_in=2, mu=1, bundle=bundle)
    reader = behind(child, enumeration_sampler(child.seed_len, n=2))
    program = random_robp(2, 2, seed=0)
    # the child's 8 leaf strings, its 2 matrices summed and the reader's 4 entries
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "13")
    with pytest.raises(CapacityError, match="merge tree evaluation needs 14"):
        merge_tree_form(reader, program, 0, 2)
    assert calls == []
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "14")
    tree = merge_tree_form(reader, program, 0, 2)
    monkeypatch.delenv("PRPD_ENUM_LIMIT")
    assert len(calls) == 8 and list(tree) == list(all_bits(2))
    assert fraction_form(reader, tree) == robust_form(reader, program, 0, 2)


@pytest.mark.parametrize("d_step", [1, 2, 3])
def test_uniform_leaf_is_walk_counts_on_every_segment(d_step):
    # the tree reads uniform_prpd as walk_counts; a segment read one step off differs on a
    # random width-3 program
    program = random_robp(4, 3, d_step=d_step, seed=d_step)
    for a in range(program.n + 1):
        for b in range(a, program.n + 1):
            leaf = uniform_prpd((b - a) * d_step)
            assert merge_tree_form(leaf, program, a, b) == dyadic_form(leaf, program, a, b)


def test_uniform_shaped_generators_are_read_from_their_bundles():
    # corrupted_uniform_prpd(m, m) has uniform_prpd's shape but not its bundle function;
    # uniform_bundle at a shape uniform_prpd never builds is refused as its bundles are
    leaf = corrupted_uniform_prpd(2, 2)
    program = random_robp(4, 2, seed=3)
    for prpd in (leaf, behind(leaf, enumeration_sampler(2, n=1)),
                 build_ck([leaf, leaf], w=2, gamma=Fraction(1, 2))):
        b = prpd.out_len
        assert merge_tree_form(prpd, program, 0, b) == dyadic_form(prpd, program, 0, b)
    assert merge_tree_form(leaf, program, 0, 2) != merge_tree_form(uniform_prpd(2), program, 0, 2)
    with pytest.raises(ContractError, match="a 3-bit string"):
        merge_tree_form(replace(uniform_prpd(2), s_in=3), program, 0, 2)


def test_uniform_leaf_capacity_is_its_label_rows(monkeypatch):
    # the leaf's 3 steps of 2 label rows, its 1 matrix summed and the reader's 4 entries
    reader = behind(uniform_prpd(3), enumeration_sampler(3, n=2))
    program = random_robp(3, 2, seed=4)
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "10")
    with pytest.raises(CapacityError, match="merge tree evaluation needs 11 evaluations"):
        merge_tree_form(reader, program, 0, 3)
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "11")
    tree = merge_tree_form(reader, program, 0, 3)
    monkeypatch.delenv("PRPD_ENUM_LIMIT")
    assert tree == dyadic_form(reader, program, 0, 3)


@pytest.mark.parametrize("form", [robust_form, matrix_form, merge_tree_form])
@pytest.mark.parametrize("a,b", [(-1, 1), (-2, 0), (3, 5)])
def test_segment_outside_program_refused(form, a, b):
    # two steps of a four-step program, but not steps the program has
    with pytest.raises(InputError, match="out of range"):
        form(uniform_prpd(2), random_robp(4, 2), a, b)


@pytest.mark.parametrize("form", [robust_form, matrix_form, merge_tree_form])
@pytest.mark.parametrize("emitted", [1, 3])
def test_wrong_length_strings_refused(form, emitted):
    # the segment reads 2 bits: 1-bit strings would walk one step, 3-bit ones past the program
    gen = RobustPrpd(out_len=2, s_out=0, s_in=emitted, mu=1, bundle=lambda x, y: [(y, 1)])
    with pytest.raises(ContractError, match=rf"a {emitted}-bit string on segment \[0, 2\]"):
        form(gen, random_robp(2, 2, seed=1), 0, 2)


@pytest.mark.parametrize("sampler", ["form", "behind"])
def test_wrong_length_child_refused_through_tree(sampler):
    # a child that emits 1 of its 2 bits, read from its form or behind a sampler
    child = RobustPrpd(out_len=2, s_out=0, s_in=1, mu=1, bundle=lambda x, y: [(y, 1)])
    samplers = None if sampler == "form" else [
        assumed_sampler(Sampler(n=0, d=1, m=1, sample=lambda x, s: s))]
    prpd = build_ck([child], w=2, gamma=Fraction(1, 2), samplers=samplers)
    with pytest.raises(ContractError, match=r"a 1-bit string on segment \[0, 2\]"):
        measure_robust_error(prpd, random_robp(4, 2, seed=1))


@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("k", range(9))
def test_factored_term_sum_matches_term_by_term(k, w):
    # int forms under the tree's signs, sign * 2^(unread inner bits), and Fraction matrices
    # under the plain telescoping signs; the entries' types must match too
    rng = random.Random(10 * k + w)

    def draw(entry):
        return [tuple(tuple(entry() for _ in range(w)) for _ in range(w)) for _ in range(k + 1)]

    shifted = [(i, j, sign << rng.randrange(5)) for i, j, sign in merge_terms(k)]
    ints = lambda: rng.randrange(-99, 100)
    fractions = lambda: Fraction(rng.randrange(-99, 100), rng.randrange(1, 50))
    for terms, entry in [(shifted, ints), (merge_terms(k), fractions)]:
        left, right = draw(entry), draw(entry)
        got, expected = _term_sum(terms, left, right), term_by_term_sum(terms, left, right)
        assert got == expected
        assert [type(v) for row in got for v in row] == [type(v) for row in expected for v in row]
    assert telescoping_product(left[0], right[0], left, right, k) == expected


@pytest.mark.parametrize("d_step", [1, 2, 3])
def test_walk_count_table_matches_walk_counts(d_step, monkeypatch):
    # every segment of a random program, and of one whose steps are one repeated object,
    # whose step is then counted once per tree
    repeated = random_robp(1, 3, d_step=d_step, seed=d_step).transitions[0]
    counted = []
    monkeypatch.setattr(recursion, "walk_counts",
                        lambda robp, a, b: counted.append(b - a) or walk_counts(robp, a, b))
    for program, steps_counted in [(random_robp(6, 3, d_step=d_step, seed=d_step), 6),
                                   (Robp(n=6, w=3, d_step=d_step, transitions=(repeated,) * 6), 1)]:
        table, counted[:] = {}, []
        for a in range(program.n + 1):
            for b in range(a, program.n + 1):
                assert _segment_counts(program, table, a, b) == walk_counts(program, a, b)
        assert counted.count(1) == steps_counted and set(counted) == {0, 1}


def test_deep_build_budget_pinned(monkeypatch):
    # the plan's total at n = 64, w = 3, k = 8: a capacity refusal moves if a step's cost does
    prpd, _ = recursive_prpd(64, 3, params=RecursionParams(k=8))
    program = random_robp(64, 3, seed=0)
    tree = _MergeTree(program)
    tree.plan(prpd, 0)
    assert sum(cost for cost, _ in tree.steps.values()) == 1811
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "1810")
    with pytest.raises(CapacityError, match="merge tree evaluation needs 1811 evaluations"):
        measure_robust_error(prpd, program)


def test_measurement_keeps_no_state_between_programs():
    # a uniform leaf and a lossy one: each program's own walk counts feed its leaves and its
    # target, so a table kept past one call would change the other program's error
    prpd = build_ck([uniform_prpd(2), corrupted_uniform_prpd(2, 3, 2, "10")], w=2,
                    gamma=Fraction(1, 2))
    p1, p2 = random_robp(4, 2, seed=1), random_robp(4, 2, seed=2)
    before = measure_robust_error(prpd, p2)
    after_p1 = measure_robust_error(prpd, p1)
    assert measure_robust_error(prpd, p2) == before == fraction_oracle_error(prpd, p2)
    assert after_p1 == fraction_oracle_error(prpd, p1) != before


def test_tree_is_freed_when_its_call_returns():
    # no step refers back to the tree, so reference counting frees it and its walk-count
    # table at once; a cycle would leave every call's tree to the cycle collector
    prpd, _ = recursive_prpd(8, 3, params=RecursionParams(k=2))
    tree = _MergeTree(random_robp(8, 3, seed=0))
    ref = weakref.ref(tree)
    gc.disable()
    try:
        tree.form(prpd, 0, 8)
        assert tree.counts
        del tree
        assert ref() is None
    finally:
        gc.enable()

"""Acceptance suite: one test per criterion, exact oracles throughout.

Each test prints a single PASS line with its measured headline numbers
(visible under pytest -s or -rP). Tolerances are pinned here, not deferred.
"""

import dataclasses
import random
from fractions import Fraction
from math import comb

import pytest

from prpd import (ContractError, SzSchedule, build_ck, certify,
                  enumeration_sampler, expander_walk_sampler,
                  grid_bits, inf_norm, ledger_check, mat_add, mat_mul, mat_scale,
                  mat_sub, matrix_form, max_norm, measure_robust_error, random_robp,
                  recursive_prpd, snap_collision_bound,
                  snap_collision_rate, snap_matrix, snap_value, sz_error_bound, sz_power,
                  telescoping_error_bound, telescoping_product, tv_profile, armoni_pow,
                  mat_pow, RecursionParams)
from prpd.bits import all_bits, int_to_bits

from helpers import (corrupted_uniform_prpd, perturbed, rand_flat_map, rand_pdist,
                     rand_matrix, rand_stochastic, rand_substochastic,
                     rand_table_sampler, weighted_exact_prpd)
from lemmas import (average, bad_fraction, concat, dump_prpd, form_stats, realize,
                    sample_on_bits, sampled_average, scale, snap_error_bound, sz_failure_bound,
                    union)


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


# -- 1 -----------------------------------------------------------------------

def test_c01_algebra_homomorphism():
    rng = random.Random(101)
    instances = 0
    max_product_size = 0
    for trial in range(200):
        w = rng.randint(1, 4)
        half = rng.randint(1, 4)
        if trial < 2:
            size_a = size_b = 64          # push to the 2^12 product cap
        else:
            size_a, size_b = rng.randint(1, 8), rng.randint(1, 8)
        program = random_robp(2 * half, w, seed=trial)
        pa = rand_pdist(rng, half, size_a)
        pb = rand_pdist(rng, half, size_b)
        c = Fraction(rng.randint(-16, 16), 1 << rng.randint(0, 3))
        ra = realize(pa, program, 0, half)
        rb = realize(pb, program, 0, half)
        assert realize(scale(pa, c), program, 0, half) == mat_scale(c, ra)
        assert realize(union(pa, pb), program, 0, half) == mat_add(ra, rb)
        assert realize(concat(pa, pb), program, 0, 2 * half) == mat_mul(
            ra, realize(pb, program, half, 2 * half))
        instances += 1
        max_product_size = max(max_product_size, size_a * size_b)
    assert instances >= 200 and max_product_size == 4096
    _report(1, f"scale/union/concat exact on {instances} instances "
               f"(largest concat size {max_product_size})")


# -- 2 -----------------------------------------------------------------------

def test_c02_norm_chain_and_norm_axioms():
    rng = random.Random(202)
    matrix_pairs = 350
    for _ in range(matrix_pairs):
        w = rng.randint(1, 4)
        a, b = rand_matrix(rng, w), rand_matrix(rng, w)
        assert inf_norm(mat_add(a, b)) <= inf_norm(a) + inf_norm(b)
        assert inf_norm(mat_mul(a, b)) <= inf_norm(a) * inf_norm(b)
        assert max_norm(a) <= inf_norm(a)
        c = Fraction(rng.randint(-8, 8), 1 << rng.randint(0, 3))
        assert inf_norm(mat_scale(c, a)) == abs(c) * inf_norm(a)
    forms = 200
    for _ in range(forms):
        w = rng.randint(1, 3)
        flat = rand_flat_map(rng, rng.randint(1, 3), w)
        stats = form_stats(flat)
        assert stats.norm <= stats.robust_norm <= stats.weight
    _report(2, f"norm axioms on {matrix_pairs} matrix pairs, "
               f"norm<=robust<=weight on {forms} forms, all exact")


# -- 3 -----------------------------------------------------------------------

def _per_x_sup_deviation(g):
    """max over 0/1-valued f of |E_s f(g(x,s)) - E f|, per x, exhaustively."""
    space = 1 << g.m
    sups = []
    for x in all_bits(g.n):
        hist = {}
        for s in all_bits(g.d):
            out = sample_on_bits(g, x, s)
            hist[out] = hist.get(out, 0) + 1
        sup = Fraction(0)
        for mask in range(1 << space):
            est = Fraction(sum(hist.get(y, 0) for i, y in enumerate(all_bits(g.m))
                               if (mask >> i) & 1), 1 << g.d)
            mean = Fraction(bin(mask).count("1"), space)
            sup = max(sup, abs(est - mean))
        sups.append(sup)
    return sups


def test_c03_certification_soundness():
    rng = random.Random(303)
    suite = []
    for n, d, m in [(2, 2, 2), (3, 2, 2), (4, 2, 3), (5, 3, 2), (6, 4, 3),
                    (4, 4, 2), (6, 2, 3), (3, 3, 3), (4, 3, 2), (6, 3, 3)]:
        suite.append(rand_table_sampler(rng, n, d, m))
        suite.append(expander_walk_sampler(n, d, m, seed=n * 100 + d * 10 + m))
    from prpd import Sampler
    suite.append(Sampler(n=3, d=2, m=2, sample=lambda x, s: 0))
    suite.append(enumeration_sampler(3, n=2))
    checked = 0
    for g in suite:
        profile = tv_profile(g)
        sups = _per_x_sup_deviation(g)
        # per-x worst case over 0/1 tests equals the total variation distance
        assert list(sups) == list(profile.per_x)
        for eps in {Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
                    profile.max_tv}:
            for delta in {Fraction(0), Fraction(1, 4), Fraction(1, 2),
                          bad_fraction(profile, eps)}:
                tv_verdict = bad_fraction(profile, eps) <= delta
                f_verdict = Fraction(sum(1 for s in sups if s > eps),
                                     1 << g.n) <= delta
                if tv_verdict:
                    assert f_verdict
                checked += 1
    g0 = enumeration_sampler(3, n=2)
    ok, profile = certify(g0, 0, 0)
    assert ok and profile.max_tv == 0
    _report(3, f"TV verdict implies exhaustive-f verdict on {len(suite)} samplers "
               f"({checked} (eps,delta) points); enumeration certified at (0,0)")


# -- 4 -----------------------------------------------------------------------

def test_c04_matrix_sampler_deviation():
    rng = random.Random(404)
    pairs = 0
    samplers = []
    for n, d, m, seed in [(6, 2, 3, 1), (7, 3, 3, 2), (6, 3, 2, 3), (8, 2, 3, 4)]:
        g = expander_walk_sampler(n, d, m, seed=seed)
        profile = tv_profile(g)
        ordered = sorted(profile.per_x)
        for quantile in (Fraction(1, 2), Fraction(9, 10)):
            eps = ordered[int(len(ordered) * quantile) - 1]
            delta = bad_fraction(profile, eps)
            fresh = expander_walk_sampler(n, d, m, seed=seed)
            assert certify(fresh, eps, delta)[0]
            samplers.append(fresh)
    samplers.append(enumeration_sampler(3, n=4))
    for g in samplers:
        for w in (1, 2, 3):
            flat = rand_flat_map(rng, g.m, w)
            stats = form_stats(flat)
            truth = average(flat)
            eps, delta = g.cert.eps, g.cert.delta
            threshold = 2 * w * stats.weight * eps
            bad = 0
            for x in all_bits(g.n):
                deviation = inf_norm(mat_sub(sampled_average(flat, g, x), truth))
                if deviation > threshold:
                    bad += 1
                else:
                    # corollary on the good set: estimate norm stays bounded
                    assert inf_norm(sampled_average(flat, g, x)) <= stats.norm + threshold
            assert Fraction(bad, 1 << g.n) <= w * w * delta
            pairs += 1
    _report(4, f"bad-x fraction <= w^2*delta and good-x deviation <= 2*w*mu*eps "
               f"on {pairs} (sampler, form) pairs by full enumeration")


# -- 5 -----------------------------------------------------------------------

def test_c05_telescoping_formula():
    rng = random.Random(505)
    instances = 0
    for gamma in (Fraction(1, 16), Fraction(1, 256)):
        for k in range(5):
            for _ in range(10):
                w = rng.randint(2, 3)
                a, b = rand_stochastic(rng, w), rand_stochastic(rng, w)
                approx_a = [perturbed(rng, a, gamma ** (i + 1)) for i in range(k + 1)]
                approx_b = [perturbed(rng, b, gamma ** (i + 1)) for i in range(k + 1)]
                result = telescoping_product(a, b, approx_a, approx_b, k)
                err = inf_norm(mat_sub(result, mat_mul(a, b)))
                assert err <= telescoping_error_bound(k, gamma)
                instances += 1
    assert instances >= 100
    _report(5, f"telescoped product error within (k+2)g^(k+1)+(k+1)g^(k+2) "
               f"on {instances} exact instances, k<=4, gamma in {{1/16, 1/256}}")


# -- 6 -----------------------------------------------------------------------

def test_c06_one_level_construction():
    gamma = Fraction(1, 256)
    rows = []
    # feasible part of the m in {1,2} x k in {0,1,2} grid: the weight
    # hypothesis mu <= binom(m-1, i) admits no generator when the binomial
    # vanishes, so k <= m-1; k=2 is exercised honestly at m=4 below
    for m_bits, k in [(1, 0), (2, 0), (2, 1), (4, 2)]:
        children = [weighted_exact_prpd(m_bits, comb(m_bits - 1, i)) for i in range(k + 1)]
        prpd = build_ck(children, w=2, gamma=gamma)
        assert prpd.mu == comb(2 * m_bits - 1, k)
        bound = (11 * gamma) ** (k + 1)
        worst = Fraction(0)
        for seed in range(20):
            program = random_robp(2 * m_bits, 2, seed=1000 * m_bits + 100 * k + seed)
            err = measure_robust_error(prpd, program)
            assert err <= bound
            worst = max(worst, err)
        for x in all_bits(prpd.s_out):
            for y in all_bits(prpd.s_in):
                for _, sign in prpd.bundle(x, y):
                    assert sign in (1, -1)
        rows.append((m_bits, k, prpd.mu, worst))
    # infeasible grid points refuse, naming the violated inequality
    for m_bits, k in [(1, 1), (1, 2), (2, 2)]:
        children = [weighted_exact_prpd(m_bits, max(1, comb(m_bits - 1, i)))
                    for i in range(k + 1)]
        with pytest.raises(ContractError, match="weight hypothesis"):
            build_ck(children, w=2, gamma=gamma)
    # genuinely lossy children keep the cascade bound with nonzero error
    lossy_gamma = Fraction(1, 16)
    lossy = [corrupted_uniform_prpd(2, 5), corrupted_uniform_prpd(2, 9)]
    prpd = build_ck(lossy, w=2, gamma=lossy_gamma)
    lossy_bound = (11 * lossy_gamma) ** 2
    nonzero = Fraction(0)
    for seed in range(20):
        err = measure_robust_error(prpd, random_robp(4, 2, seed=seed))
        assert err <= lossy_bound
        nonzero = max(nonzero, err)
    assert nonzero > 0
    table = ", ".join(f"(m={m},k={k}: mu={mu}, worst={w})" for m, k, mu, w in rows)
    _report(6, f"merged weight equals binom(2m-1,k), signs all +-1, robust error "
               f"within (11g)^(k+1) over 20 programs each: {table}; "
               f"lossy build worst {nonzero} <= {lossy_bound}")


# -- 7 -----------------------------------------------------------------------

def test_c07_full_recursion_cascade_and_ledger():
    worst_reports = []
    for n in (4, 8):
        for k in (0, 1):
            prpd, ledger = recursive_prpd(n, 2, params=RecursionParams(k=k))
            top_bound = ledger.top.error_bound
            worst = Fraction(0)
            for seed in range(20):
                err = measure_robust_error(prpd, random_robp(n, 2, seed=seed))
                assert err <= top_bound
                worst = max(worst, err)
            # every node of the table satisfies its own cascade bound
            for node in ledger.nodes:
                sub, _ = recursive_prpd(1 << node.h, 2,
                                        params=RecursionParams(k=node.k, gamma=ledger.gamma))
                for seed in range(5):
                    program = random_robp(1 << node.h, 2, seed=7000 + seed)
                    assert measure_robust_error(sub, program) <= node.error_bound
                assert node.mu <= node.mu_cap
            for c in (1, 2):
                report = ledger_check(dataclasses.replace(ledger, c=c))
                assert report.ok, [f"({f.h},{f.k}) {f.name}" for f in report.failures()]
            worst_reports.append((n, k, worst, len(ledger.nodes)))
    # terminal case: 2k >= 2^h at the top gives the exact uniform generator
    prpd, ledger = recursive_prpd(4, 2, params=RecursionParams(k=2))
    assert ledger.top.kind == "terminal"
    assert measure_robust_error(prpd, random_robp(4, 2, seed=1)) == 0
    table = ", ".join(f"(n={n},k={k}: worst={w}, nodes={c})" for n, k, w, c in worst_reports)
    _report(7, f"cascade bound at every node and ledger replay at c=1,2: {table}")


# -- 8 -----------------------------------------------------------------------

def test_c08_oblivious_construction():
    def fresh():
        return recursive_prpd(8, 2, params=RecursionParams(k=1))[0]

    first = fresh()
    dump_before = dump_prpd(first)
    matrix_form(first, random_robp(8, 2, seed=51), 0, 8)
    matrix_form(first, random_robp(8, 2, seed=52), 0, 8)
    assert dump_prpd(first) == dump_before
    assert dump_prpd(fresh()) == dump_before
    _report(8, f"generator dump byte-identical across rebuilds and evaluations "
               f"({len(dump_before.splitlines())} table lines)")


# -- 9 -----------------------------------------------------------------------

def test_c09_snap_suite():
    rng = random.Random(909)
    pairs = 0
    for _ in range(100):
        w = rng.randint(1, 3)
        d = rng.randint(2, 8)
        m = rand_substochastic(rng, w)
        shift = Fraction(rng.randint(0, 6), 1 << rng.randint(4, 10))
        m2 = tuple(tuple(min(e + shift * rng.randint(0, 1), Fraction(1)) for e in row)
                   for row in m)
        eps = max_norm(mat_sub(m, m2))
        assert snap_collision_rate(m, m2, d) <= snap_collision_bound(w, eps, d)
        pairs += 1
    points = 0
    for d in range(1, 7):
        for num in range(0, 1 << 10, 7):
            x = Fraction(num, 1 << 10)
            for y in range(0, 1 << d, max(1, (1 << d) // 8)):
                out = snap_value(x, y, d)
                assert abs(out - x) <= snap_error_bound(d)
                assert (out * (1 << d)).denominator == 1 and out >= 0
                points += 1
    _report(9, f"collision rate within w^2*(2^d*eps+2^-d) on {pairs} pairs under "
               f"full offset enumeration; |snap-x| <= 2^(-d+1) at {points} grid points")


# -- 10 ----------------------------------------------------------------------

def test_c10_saks_zhou_pipeline():
    rng = random.Random(1010)
    # exact approximator: the chain bound holds deterministically
    instances = 0
    for _ in range(50):
        w = rng.randint(1, 3)
        n1 = rng.choice([2, 3, 4])
        n2 = rng.choice([1, 2])
        d = rng.randint(4, 10)
        n = n1 ** n2
        assert n <= 16
        m = rand_substochastic(rng, w)
        offsets = tuple(int_to_bits(rng.randrange(1 << d), d) for _ in range(n2))
        schedule = SzSchedule(n1=n1, n2=n2, d=d, eps=Fraction(0), y="", offsets=offsets)
        result = sz_power(m, schedule, lambda m, y: mat_pow(m, n1))
        assert inf_norm(mat_sub(result, mat_pow(m, n))) <= sz_error_bound(n, w, d)
        instances += 1

    # offline-approximator pipeline with every (y, z_1, z_2) enumerated
    w, n1, n2, d_snap = 1, 2, 2, 4
    eps = Fraction(1, 64)
    n = n1 ** n2
    d_round = grid_bits(n1, w, eps)
    gen = corrupted_uniform_prpd(n1 * d_round, n1 * d_round)
    samp = enumeration_sampler(gen.seed_len, n=0)
    m = ((Fraction(27, 32),),)
    # verify the premise at the matrices the chain actually visits
    from prpd import robp_from_matrix
    cache = {}

    def approx(mat, y):
        key = (mat, y)
        if key not in cache:
            program = robp_from_matrix(snap_matrix(mat, 0, d_round), n1, d_round)
            premise = measure_robust_error(gen, program)
            assert 0 < premise <= eps / 3
            cache[key] = armoni_pow(mat, n1, gen, samp, y, eps)
        return cache[key]

    failure_bound = sz_failure_bound(w, n2, d_snap, eps)
    assert failure_bound < 1
    final_bound = sz_error_bound(n, w, d_snap)
    truth = mat_pow(m, n)
    failures = 0
    tuples = 0
    for z1 in all_bits(d_snap):
        for z2 in all_bits(d_snap):
            schedule = SzSchedule(n1=n1, n2=n2, d=d_snap, eps=eps, y="",
                                  offsets=(z1, z2))
            result = sz_power(m, schedule, approx)
            if inf_norm(mat_sub(result, truth)) > final_bound:
                failures += 1
            tuples += 1
    measured = Fraction(failures, tuples)
    assert measured <= failure_bound
    ratio = float(measured / failure_bound) if failure_bound else 0.0
    _report(10, f"exact chain within n*w*2^(-d+1) on {instances} instances; "
                f"offline pipeline failure {measured} <= union bound "
                f"{failure_bound} over {tuples} enumerated (y,z) tuples "
                f"(measured/bound = {ratio:.3f})")

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import sys
from fractions import Fraction
from math import comb

import pytest

from prpd import (InputError, MODE_EXACT, RecursionParams, Robp, SeedLedger, exact_average,
                  inf_norm, ledger_check, ledger_from_dict, ledger_to_dict, mat_sub,
                  measure_robust_error, random_robp, recursive_prpd, robust_form)
from prpd.recursion import (C_MAX, K_MAX, _parse_frac, cascade_bound, derive_k, frac_str,
                            is_terminal, ledger_plan,
                            next_power_of_two)

from helpers import deadline
from lemmas import (dump_prpd, identity_robp, measure_average_error, reference_ledger_to_dict,
                    reference_reader)


def test_terminal_h0_is_uniform_bit():
    prpd, ledger = recursive_prpd(1, 2, params=RecursionParams(k=0, gamma=Fraction(1, 16)))
    assert (prpd.s_out, prpd.s_in, prpd.mu, prpd.out_len) == (0, 1, 1, 1)
    assert ledger.top.kind == "terminal"
    program = random_robp(1, 2, seed=0)
    assert measure_robust_error(prpd, program) == 0


def test_terminal_when_2k_covers_segment():
    # 2k >= 2^h makes the top node terminal: exact uniform, zero error
    prpd, ledger = recursive_prpd(4, 2, params=RecursionParams(k=2, gamma=Fraction(1, 256)))
    assert ledger.top.kind == "terminal"
    assert prpd.s_out == 0 and prpd.s_in == 4
    program = random_robp(4, 2, seed=1)
    rf = robust_form(prpd, program, 0, 4)
    assert rf[""] == exact_average(program, 0, 4)


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (8, 0), (8, 1)])
def test_enumeration_mode_builds_exactly(n, k):
    prpd, ledger = recursive_prpd(n, 2, params=RecursionParams(k=k))
    assert prpd.out_len == n
    bound = ledger.top.error_bound
    for seed in range(5):
        program = random_robp(n, 2, seed=seed)
        err = measure_robust_error(prpd, program)
        assert err <= bound
        assert err == 0  # exact samplers and exact terminals cancel all error


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (8, 1)])
@pytest.mark.parametrize("c", [1, 2])
def test_ledger_check_passes(n, k, c):
    _, ledger = recursive_prpd(n, 2, params=RecursionParams(k=k, c=c))
    report = ledger_check(ledger)
    assert report.ok, [f"({f.h},{f.k}) {f.name}: lhs={f.lhs} rhs={f.rhs}" for f in report.failures()]


@pytest.mark.parametrize("gamma", [Fraction(1, 1 << 20), Fraction(1, 10 ** 6)])
@pytest.mark.parametrize("w", [1, 3])
def test_replay_does_not_depend_on_c(w, gamma):
    # c scales the used-length budget and nothing else: at every c each replay row is the
    # c = 1 row, and each used row's bound is c times its c = 1 bound
    for n, k in itertools.product((2, 4, 8, 16, 32), range(4)):
        _, ledger = recursive_prpd(n, w, params=RecursionParams(gamma=gamma, k=k))
        base = ledger_check(ledger).checks
        for c in (3, C_MAX - 1, C_MAX):
            checks = ledger_check(dataclasses.replace(ledger, c=c)).checks
            assert [chk.name for chk in checks] == [chk.name for chk in base]
            for chk, chk1 in zip(checks, base):
                if chk.name.startswith("used s_"):
                    assert (chk.lhs, chk.rhs) == (chk1.lhs, c * chk1.rhs)
                else:
                    assert chk == chk1, (n, k, c, chk)


def test_plan_value_past_digit_limit_refused():
    # at n = 1024, k = 52 the top bound has 639 digits, within the smallest limit Python
    # accepts, but the sampler requirement of node (7, 51) has more
    gamma = Fraction(1, 2 ** 40)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert len(str(cascade_bound(10, 52, gamma).denominator)) == 639
        with pytest.raises(InputError, match=r"node \(7,51\).*int-to-str limit"):
            ledger_plan(1024, 52, 2, gamma)
        assert len(ledger_plan(1024, 45, 2, gamma)) > 0
    finally:
        sys.set_int_max_str_digits(previous)


def test_ledger_mu_caps():
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    for node in ledger.nodes:
        assert node.mu <= max(1, comb((1 << node.h) - 1, node.k))
    top = ledger.top
    assert top.mu == comb(7, 1) == 7  # equality along the natural recursion


def test_derive_k():
    gamma = Fraction(1, 4096)  # n = 8 default
    base = Fraction(11 ** 3, 4096)
    assert derive_k(8, gamma, base) == 0
    assert derive_k(8, gamma, base ** 2) == 1
    assert derive_k(8, gamma, base ** 2 * Fraction(999, 1000)) == 2
    with pytest.raises(InputError):
        derive_k(8, Fraction(1, 2), Fraction(1, 10))  # cascade above 1
    # refused at once: eps <= 0, and at n = 8 an eps met only past K_MAX
    with deadline(1):
        for eps in (Fraction(0), Fraction(-1), Fraction(1, 10 ** 3000)):
            with pytest.raises(InputError):
                derive_k(8, gamma, eps)


# derive_k on a grid: rows (n_padded, gamma), columns the eps of DERIVE_K_EPS
DERIVE_K_EPS = (Fraction(1), Fraction(1, 10), Fraction(1, 10 ** 6), Fraction(1, 10 ** 100),
                Fraction(7, 2 ** 1000))
DERIVE_K = {
    (1, Fraction(1, 16)): (0, 0, 4, 83, 249),
    (1, Fraction(1, 2 ** 60)): (0, 0, 0, 5, 16),
    (1, Fraction(3, 2 ** 50)): (0, 0, 0, 6, 20),
    (2, Fraction(1, 16)): (0, 6, 36, 614, 1844),
    (2, Fraction(1, 2 ** 60)): (0, 0, 0, 5, 17),
    (2, Fraction(3, 2 ** 50)): (0, 0, 0, 7, 22),
    (8, Fraction(1, 4096)): (0, 2, 12, 204, 614),
    (8, Fraction(1, 2 ** 60)): (0, 0, 0, 6, 20),
    (8, Fraction(3, 2 ** 50)): (0, 0, 0, 8, 26),
    (64, Fraction(1, 2 ** 24)): (0, 1, 6, 102, 307),
    (64, Fraction(1, 2 ** 60)): (0, 0, 0, 8, 25),
    (64, Fraction(3, 2 ** 50)): (0, 0, 0, 12, 36),
    (1024, Fraction(1, 2 ** 40)): (0, 0, 3, 61, 184),
    (1024, Fraction(1, 2 ** 60)): (0, 0, 0, 13, 39),
    (1024, Fraction(3, 2 ** 50)): (0, 0, 1, 24, 72),
}


@pytest.mark.parametrize("n,gamma", DERIVE_K)
def test_derive_k_pinned(n, gamma):
    ks = tuple(derive_k(n, gamma, eps) for eps in DERIVE_K_EPS)
    assert ks == DERIVE_K[(n, gamma)]
    # the smallest k: its bound meets eps and the one before does not
    for k, eps in zip(ks, DERIVE_K_EPS):
        assert cascade_bound(n.bit_length() - 1, k, gamma) <= eps
        assert k == 0 or cascade_bound(n.bit_length() - 1, k - 1, gamma) > eps


def test_eps_drives_k():
    prpd, ledger = recursive_prpd(8, 2, eps=Fraction(1, 10))
    assert ledger.k == derive_k(8, Fraction(1, 8 ** 4), Fraction(1, 10))
    assert ledger.eps_target == Fraction(1, 10)
    assert ledger.top.error_bound <= Fraction(1, 10)


def test_terminal_predicate():
    assert is_terminal(0, 0) and is_terminal(1, 1) and is_terminal(2, 2)
    assert not is_terminal(1, 0) and not is_terminal(2, 1) and not is_terminal(3, 1)


def test_padding_to_power_of_two():
    assert next_power_of_two(3) == 4
    with pytest.raises(InputError, match="n must be at least 1"):
        next_power_of_two(0)
    prpd, ledger = recursive_prpd(3, 2, params=RecursionParams(k=1))
    assert ledger.n_padded == 4 and prpd.out_len == 4
    # a 3-step program extended with an identity step ignores the padding bit
    base = random_robp(3, 2, seed=5)
    ext = identity_robp(1, 2)
    padded = Robp(n=4, w=2, d_step=1, transitions=base.transitions + ext.transitions)
    err = measure_robust_error(prpd, padded)
    assert err == 0
    assert inf_norm(mat_sub(exact_average(padded, 0, 4), exact_average(base, 0, 3))) == 0


def test_ledger_json_roundtrip():
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    # every merge installs enumeration samplers, certified analytically at (0, 0)
    assert ledger.sampler_mode == MODE_EXACT
    slots = [slot for node in ledger.nodes for slot in node.samplers]
    assert slots and {(s.cert_method, s.cert_eps, s.cert_delta) for s in slots} == {
        ("analytic", 0, 0)}
    data = ledger_to_dict(ledger)
    back = ledger_from_dict(data)
    assert back.nodes == ledger.nodes
    assert (back.n, back.n_padded, back.w, back.gamma, back.k, back.c) == (
        ledger.n, ledger.n_padded, ledger.w, ledger.gamma, ledger.k, ledger.c)
    assert ledger_check(back).ok


def test_every_negative_node_int_refused():
    # each int of a node or sampler slot is a count, a length or an index
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    data = ledger_to_dict(ledger)

    def int_paths(value, path):
        if type(value) is int:
            yield path
        for key, item in (value.items() if isinstance(value, dict) else
                          enumerate(value) if isinstance(value, list) else ()):
            yield from int_paths(item, path + (key,))

    paths = list(int_paths(data["nodes"], ()))
    assert {p[-1] for p in paths} >= {"h", "s_in", "mu_cap", "delta_binding_i", "d", "out_bits"}
    for path in paths:
        edited = copy.deepcopy(data)
        target = edited["nodes"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = -1
        with pytest.raises(InputError, match="negative count, length or index"):
            ledger_from_dict(edited)


def test_every_negative_certificate_refused():
    # cert_eps is a TV distance and cert_delta a failure probability: neither is negative
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    data = ledger_to_dict(ledger)
    slots = [(a, b) for a, node in enumerate(data["nodes"]) for b in range(len(node["samplers"]))]
    assert slots
    for (a, b), field, value in itertools.product(slots, ("cert_eps", "cert_delta"),
                                                  ("-1/2", "-3/1")):
        edited = copy.deepcopy(data)
        edited["nodes"][a]["samplers"][b][field] = value
        with pytest.raises(InputError, match="negative certificate"):
            ledger_from_dict(edited)
    # every slot at once, as a ledger whose every replayed check still holds
    for a, b in slots:
        data["nodes"][a]["samplers"][b].update(cert_eps="-1/2", cert_delta="-3/1")
    with pytest.raises(InputError, match="negative certificate"):
        ledger_from_dict(data)


@pytest.mark.parametrize("text", ["3/", "1_0/3", " 4/ 5", "+1/2", "1/-2", "\u0663/4", "1/0", "x"])
def test_fraction_text_frac_str_never_writes_refused(text):
    with pytest.raises(InputError):
        _parse_frac(text)


def test_fraction_text_round_trips():
    for q in (Fraction(0), Fraction(-3, 4), Fraction(10 ** 50, 3), Fraction(7)):
        assert _parse_frac(frac_str(q)) == q


def test_measure_average_error_zero_for_exact_builds():
    prpd, _ = recursive_prpd(4, 2, params=RecursionParams(k=1))
    assert measure_average_error(prpd, random_robp(4, 2, seed=9)) == 0


def test_bad_params_rejected():
    with pytest.raises(InputError):
        recursive_prpd(4, 2)  # neither eps nor k
    with pytest.raises(InputError):
        recursive_prpd(4, 2, params=RecursionParams(k=1, gamma=Fraction(3, 2)))
    with pytest.raises(InputError):
        recursive_prpd(8, 0, params=RecursionParams(k=1))
    with pytest.raises(InputError):
        recursive_prpd(8, 2, params=RecursionParams(k=1, c=0))
    with pytest.raises(InputError):
        recursive_prpd(8, 2, params=RecursionParams(k=1, c=C_MAX + 1))
    with pytest.raises(InputError):
        recursive_prpd(8, 2, params=RecursionParams(k=K_MAX + 1))
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    # a ledger built in code meets the header domain ledger_from_dict reads a file against
    for header in (dict(w=0), dict(gamma=Fraction(0)), dict(gamma=Fraction(1)), dict(k=-1),
                   dict(k=K_MAX + 1), dict(n=0), dict(n_padded=16), dict(c=0),
                   dict(c=C_MAX + 1)):
        with pytest.raises(InputError, match="out of domain"):
            ledger_check(dataclasses.replace(ledger, **header))
        data = ledger_to_dict(dataclasses.replace(ledger, **header))
        with pytest.raises(InputError, match="out of domain"):
            ledger_from_dict(data)
    with pytest.raises(InputError, match="out of domain"):
        recursive_prpd(8, 0, eps=Fraction(1, 10))
    with pytest.raises(InputError, match="out of domain"):
        recursive_prpd(8, 2, eps=Fraction(1, 10), params=RecursionParams(gamma=Fraction(0)))
    # the largest c keeps every seed bound finite
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=2, c=C_MAX))
    assert all(math.isfinite(chk.rhs) for chk in ledger_check(ledger).checks
               if isinstance(chk.rhs, float))


# sha256 of dump_prpd at fixed builds: a change to any bundle of the table shows here
PINNED_DUMPS = {
    (4, 2, 1): "4765cac7d66d9e9f2bd4a28f5876fc07a4357c07bda29a700ba23db7f75f50ac",
    (8, 2, 1): "36fb327d4fe4a49b78b330b3f5176cdb8d204bd5c787bbe103fffe519adb1df9",
    (8, 3, 2): "ea12a6850685bd7abc7d0b549e2c2caede3b4d1ab669c84a48e66a824e7d5533",
    (8, 2, 0): "8bb554325bf66791656d4a3bf2d8f8461ceacdbec3f94de28c24e038fd49d272",
    (4, 3, 2): "767c1d51062348e543231b08beff4142a204becb59ab471a3dc95d52018fdf20",
}


@pytest.mark.parametrize("n,w,k", PINNED_DUMPS)
def test_dump_prpd_pinned(n, w, k):
    prpd, _ = recursive_prpd(n, w, params=RecursionParams(k=k))
    digest = hashlib.sha256(dump_prpd(prpd).encode()).hexdigest()
    assert digest == PINNED_DUMPS[(n, w, k)]


# sha256 of the ledger's JSON at fixed builds: a change to any recorded field or to
# the serialization shows here
PINNED_LEDGERS = {
    (8, 2, 1): "244eab8664156f91d5815d68097220020f200a25d1387d62968475b55fe1b4c6",
    (8, 3, 2): "d7043f7c66f34949c5c4e9d41f8bd04930781c1c77edd7776f175924a306d367",
    (16, 2, 3): "1a67ed13e523317c01287454a9e62d5a8d3f09e14ad89df1f78afebe1cba002c",
}


@pytest.mark.parametrize("n,w,k", PINNED_LEDGERS)
def test_ledger_json_pinned(n, w, k):
    _, ledger = recursive_prpd(n, w, params=RecursionParams(k=k))
    text = json.dumps(ledger_to_dict(ledger), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LEDGERS[(n, w, k)]


def grid_ledgers():
    """Ledgers at n_padded 2..128, k 0..5, w in {1, 2, 3, 5} and gamma the default, 2^-20
    or 1/1000, in that nesting order."""
    for n, k, w, gamma in itertools.product([1 << h for h in range(1, 8)], range(6), (1, 2, 3, 5),
                                            (None, Fraction(1, 1 << 20), Fraction(1, 1000))):
        yield recursive_prpd(n, w, params=RecursionParams(gamma=gamma, k=k))[1]


# sha256 over repr(tuple(check)) of every ledger_check row on grid_ledgers(): 122,340 rows,
# sixteen of them float ties that pass only through _TOL. A change to any row's name,
# value, float bit or verdict shows here
GRID_CHECKS_SHA256 = "b96d8e1bfe330cb1d944a87fa0a3d3145f840219df29df20acd65a0682e6927a"


def test_ledger_check_rows_pinned_on_grid():
    digest, rows = hashlib.sha256(), 0
    for ledger in grid_ledgers():
        for chk in ledger_check(ledger).checks:
            digest.update(repr(tuple(chk)).encode())
            rows += 1
    assert rows == 122340
    assert digest.hexdigest() == GRID_CHECKS_SHA256


def test_codec_matches_reflective_reference_on_grid():
    # the codec specialised at import against the reflective one: equal dataclasses read,
    # and the same JSON bytes written in the same key order, which build-prpd --out records keep
    read = reference_reader(SeedLedger)
    for ledger in grid_ledgers():
        data = ledger_to_dict(ledger)
        assert json.dumps(data) == json.dumps(reference_ledger_to_dict(ledger))
        assert ledger_from_dict(data) == read(data) == ledger

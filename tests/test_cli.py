import copy
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from prpd import (InputError, RecursionParams, SeedLedger, ledger_check, ledger_from_dict,
                  ledger_to_dict, recursive_prpd)
from prpd.cli import main
from prpd.recursion import _read_ledger

from helpers import deadline
from lemmas import reference_reader


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_build_prpd_emits_ledger_and_passes(tmp_path, capsys):
    out = tmp_path / "ledger.jsonl"
    code = main(["build-prpd", "--n", "8", "--w", "2", "--k", "1", "--out", str(out)])
    assert code == 0
    records = read_records(out)
    kinds = {r["record"] for r in records}
    assert {"config", "node", "ledger", "summary"} <= kinds
    summary = [r for r in records if r["record"] == "summary"][0]
    assert summary["ok"] and summary["failures"] == 0
    assert "ledger check" in capsys.readouterr().out


def test_build_prpd_single_node_for_n2(tmp_path):
    out = tmp_path / "ledger.jsonl"
    assert main(["build-prpd", "--n", "2", "--w", "2", "--k", "1", "--out", str(out)]) == 0
    nodes = [r for r in read_records(out) if r["record"] == "node"]
    # 2k >= 2^h at the top: a one-node, terminal-only ledger
    assert len(nodes) == 1 and nodes[0]["kind"] == "terminal"


def test_build_prpd_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["build-prpd", "--n", "4", "--w", "2", "--k", "1", "--out", str(out1)])
    main(["build-prpd", "--n", "4", "--w", "2", "--k", "1", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()
    assert any(r["record"] == "node" and r["kind"] == "merge" for r in read_records(out1))


def test_ledger_check_roundtrip(tmp_path):
    build_out = tmp_path / "build.jsonl"
    main(["build-prpd", "--n", "8", "--w", "2", "--k", "1", "--out", str(build_out)])
    ledger_record = [r for r in read_records(build_out) if r["record"] == "ledger"][0]
    ledger_path = tmp_path / "ledger.json"
    ledger_path.write_text(json.dumps(ledger_record))
    check_out = tmp_path / "check.jsonl"
    assert main(["ledger-check", "--ledger", str(ledger_path), "--out", str(check_out)]) == 0
    records = read_records(check_out)
    assert records[-1]["record"] == "summary" and records[-1]["ok"]
    ledger_record["ledger"]["c"] = 3          # the header's c scales the used-length bounds
    ledger_path.write_text(json.dumps(ledger_record))
    assert main(["ledger-check", "--ledger", str(ledger_path)]) == 0
    # the records file build-prpd wrote holds exactly one ledger record
    assert main(["ledger-check", "--ledger", str(build_out), "--out", str(check_out)]) == 0
    assert read_records(check_out) == records


def test_ledger_check_at_largest_c_keeps_replay_ties(tmp_path):
    # node (2, 1)'s "d_1+d_0 <= s_in bound" is an exact tie; scaled by c = 2^64 its float
    # sides used to differ by an ulp, failing an honest ledger
    out = tmp_path / "build.jsonl"
    assert main(["build-prpd", "--n", "4", "--w", "3", "--k", "1", "--gamma", "1/1048576",
                 "--c", str(1 << 64), "--out", str(out)]) == 0
    assert main(["ledger-check", "--ledger", str(out)]) == 0


@pytest.mark.parametrize("argv", [["build-prpd", "--k", "0"], ["verify-error", "--eps", "1/2"]])
def test_n1_default_gamma_exits_0(argv):
    # the default gamma 1/max(n, 2)^4 is 1/16 at n = 1, inside (0, 1)
    assert main([*argv, "--n", "1", "--w", "2"]) == 0


@pytest.mark.parametrize("argv", [["build-prpd"], ["verify-error", "--robps", "1"]])
def test_k_meeting_eps_exits_0(argv):
    # at n = 8 the top bound is 1331/4096 at k = 0; eps = 1/10 needs k = 2
    for k, eps in (("0", "1331/4096"), ("2", "1/10"), ("3", "1/10")):
        assert main([*argv, "--n", "8", "--w", "2", "--k", k, "--eps", eps]) == 0


def test_verify_error_within_bound(tmp_path):
    out = tmp_path / "verify.jsonl"
    code = main(["verify-error", "--n", "4", "--w", "2", "--k", "1",
                 "--robps", "5", "--seed", "7", "--out", str(out)])
    assert code == 0
    records = read_records(out)
    worst = [r for r in records if r["record"] == "worst"][0]
    assert worst["robp"].startswith("robp 4 2 1")
    instances = [r for r in records if r["record"] == "instance"]
    assert len(instances) == 5 and all(r["within"] for r in instances)


def test_certify_sampler_enumeration(tmp_path):
    out = tmp_path / "cert.jsonl"
    code = main(["certify-sampler", "--kind", "enumeration", "--m", "4",
                 "--eps", "0", "--delta", "0", "--out", str(out)])
    assert code == 0
    rec = read_records(out)[0]
    assert rec["certified"] and rec["max_tv"] == "0/1" and rec["bad_x_count"] == 0


def test_certify_sampler_refusal():
    code = main(["certify-sampler", "--kind", "expander-walk", "--n", "6", "--d", "2",
                 "--m", "4", "--eps", "1/64", "--delta", "1/64"])
    assert code == 1


def test_sz_demo_exact(tmp_path):
    out = tmp_path / "sz.jsonl"
    code = main(["sz-demo", "--w", "2", "--n1", "2", "--n2", "2", "--d", "8",
                 "--matrices", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    records = read_records(out)
    assert all(r["within"] for r in records if r["record"] == "instance")


def test_sz_demo_armoni(tmp_path):
    out = tmp_path / "sz_armoni.jsonl"
    code = main(["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d", "6",
                 "--approximator", "armoni", "--eps", "1/4", "--matrices", "2",
                 "--seed", "2", "--out", str(out)])
    assert code == 0


def test_sz_demo_refuses_power_past_digit_limit(capsys):
    # n = 10^4300 has 4301 digits; refused before n or its bound is computed
    code = main(["sz-demo", "--w", "2", "--n1", "10", "--n2", "4300", "--d", "6"])
    assert code == 2
    assert "error: n1^n2 has more than 4300 digits" in capsys.readouterr().err


def test_non_integer_enum_limit_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "4M")
    assert main(["build-prpd", "--n", "8", "--w", "2", "--k", "1"]) == 2
    assert "PRPD_ENUM_LIMIT must be an integer, got '4M'" in capsys.readouterr().err


def _write_huge_child_weights(path):
    """An n=8, k=2 ledger with every child weight of merge node (1, 0) at 10^3000."""
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=2))
    data = ledger_to_dict(ledger)
    node = next(nd for nd in data["nodes"] if (nd["h"], nd["k"]) == (1, 0))
    assert node["kind"] == "merge"
    for child in node["children"]:
        child[3] = 10 ** 3000
    path.write_text(json.dumps(data))


def test_ledger_check_refuses_check_value_past_digit_limit(tmp_path, capsys):
    # the mu identity's sum has about 6000 digits, which str(int) refuses, so the check
    # cannot be written
    path, out = tmp_path / "ledger.json", tmp_path / "checks.jsonl"
    _write_huge_child_weights(path)
    assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "mu identity" in capsys.readouterr().err


def test_ledger_check_writes_any_value_without_digit_limit(tmp_path):
    # with the int-to-str limit off (0), the same weight sum, past the default limit of 4300
    # digits, is written as it is
    path, out = tmp_path / "ledger.json", tmp_path / "checks.jsonl"
    _write_huge_child_weights(path)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 1
        failed = [r for r in read_records(out) if r["record"] == "check" and not r["ok"]]
    finally:
        sys.set_int_max_str_digits(previous)
    assert any("mu identity" in r["name"] and r["rhs"] > 10 ** 4300 for r in failed)


def test_cli_reports_capacity_error(monkeypatch, capsys):
    # the ledger plan counts 580 and the random program 256, under the limit; the tree
    # counts 839, each (generator, start) once and its uniform terminals by the label rows
    # walk_counts reads
    monkeypatch.setenv("PRPD_ENUM_LIMIT", "838")
    code = main(["verify-error", "--n", "64", "--w", "2", "--k", "3", "--robps", "1"])
    assert code == 2
    assert "error: merge tree evaluation needs 839 evaluations" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "16", "--w", "2", "--k", "3"],
                                  ["--n", "64", "--w", "2", "--k", "0"],
                                  ["--n", "64", "--w", "2", "--k", "16"]])
def test_verify_error_reaches_past_flat_enumeration(tmp_path, argv):
    # flat enumeration of every (x, y, i) refuses each; the merge tree measures them
    out = tmp_path / "verify.jsonl"
    assert main(["verify-error", *argv, "--robps", "2", "--out", str(out)]) == 0
    assert [r["measured"] for r in read_records(out) if r["record"] == "instance"] == ["0/1"] * 2


# sha256 of verify-error --out files: measuring through the merge tree writes the same records
VERIFY_OUT_SHA256 = {
    ("8", "3", "2", "5"): "c512a01aec4f37dd6b696e039f764bb8aa5f60a4d92807afaa0a9d33573f7305",
    ("8", "2", "1", "20"): "7a026ea4ba0cb1c5e3223723da7127b03a8e87c44e413b1c42ab85109c5114d8",
}


@pytest.mark.parametrize("n,w,k,robps", VERIFY_OUT_SHA256)
def test_verify_error_out_pinned(tmp_path, n, w, k, robps):
    out = tmp_path / "verify.jsonl"
    assert main(["verify-error", "--n", n, "--w", w, "--k", k, "--robps", robps,
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == VERIFY_OUT_SHA256[(n, w, k, robps)]


# sha256 of the certify-sampler --kind expander-walk --out file, keyed by
# (n, d, m, seed, eps, delta): a split verdict, a certified walk and a refused one
CERTIFY_OUT_SHA256 = {
    ("6", "8", "6", "0", "33/64", "1/2"):
        "b7e36cccc629fde0264c883e9000122b8d882a8b41cea2054cd68f648f0dddce",
    ("7", "11", "5", "3", "1/2", "0"):
        "93f2d44821211f7261c1a4d36a9ff9c9780ab070e74c858ced77725dbaf5cf95",
    ("4", "3", "9", "1", "1/4", "1/2"):
        "9255bb601e4d37e3ee95de2f41178a1f499636d610419df47351e43e28566d72",
}


@pytest.mark.parametrize("n,d,m,seed,eps,delta", CERTIFY_OUT_SHA256)
def test_certify_sampler_out_pinned(tmp_path, n, d, m, seed, eps, delta):
    out = tmp_path / "certify.jsonl"
    assert main(["certify-sampler", "--kind", "expander-walk", "--n", n, "--d", d, "--m", m,
                 "--seed", seed, "--eps", eps, "--delta", delta, "--out", str(out)]) in (0, 1)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CERTIFY_OUT_SHA256[(n, d, m, seed, eps, delta)]


# sha256 of sz-demo --out files, keyed by (argv, exit code): the snap chain writes the same
# records whichever arithmetic rounds and powers; the first chain fails its bound
SZ_DEMO_OUT_SHA256 = {
    ("--approximator armoni --w 2 --n1 2 --n2 2 --d 12 --matrices 5", 1):
        "936cca91cfe08f3110ab10762b0c033c455ce720ab130ea98bcee3caff266151",
    ("--approximator armoni --w 3 --n1 4 --n2 2 --d 8 --matrices 3", 0):
        "429f035ccaeefb648d57ac814f644d851c5fa8a4607d91762dfe3d2e0623714c",
    ("--approximator armoni --w 2 --n1 2 --n2 3 --d 7 --eps 1/16 --matrices 6", 0):
        "ef92b288a0479b53202eb73fe2eb91345e46752e12704e6af12acf3f4efab339",
    ("--approximator exact --w 3 --n1 3 --n2 2 --d 9 --matrices 4", 0):
        "80bbc794ab23bfdc91e5f034d8e0dfef191033377d98431737083437acd7d887",
}


@pytest.mark.parametrize("argv,code", SZ_DEMO_OUT_SHA256)
def test_sz_demo_out_pinned(tmp_path, argv, code):
    out = tmp_path / "sz.jsonl"
    assert main(["sz-demo", *argv.split(), "--out", str(out)]) == code
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SZ_DEMO_OUT_SHA256[(argv, code)]


# sha256 of the ledger-check --out file on the PINNED_LEDGERS builds of test_recursion.py,
# exported with "c" set in the header, keyed by (n, w, k, c): the records the checker wrote
# when the scaling c came from a command-line flag instead
LEDGER_CHECK_OUT_SHA256 = {
    (8, 2, 1, 1): "fc869686d5e6b05a3f9999968fc4fd884ab79c5b096d31ae276fe5c5cbf25baf",
    (8, 2, 1, 3): "18f94b657a1e64e55a8a0b46c394a442f42034dab5fc98643c3a89a0fde9fe34",
    (8, 2, 1, 1 << 64): "26a05512d4d74404af0e66e56c5fd57738e25eda0ab54c7a84c0f7e0b7d94a10",
    (8, 3, 2, 1): "54ecd0adfb7e17750cd412708d9f358a2a160b9e1efa51fe2514fb95e83ae563",
    (8, 3, 2, 3): "16240eb29283dd2f7066eb7323872c7a57521a75d76ff1d919f8c0b32c5914aa",
    (8, 3, 2, 1 << 64): "8291e65d8ec2eb9fbbe0c76f0dbcf733eac547e77939baf48bae948a1bfae13b",
    (16, 2, 3, 1): "7e9aadded6a372c52555da722a50c34446f4c73a82afe588c5c6b0b43a8ff9cf",
    (16, 2, 3, 3): "8c286cce2bee3d938a9ba574349854195cb04c00c22d9fb9087b120aad35259a",
    (16, 2, 3, 1 << 64): "57a1386984bc6c0d906f124991b79ec2927dcb2b39e93837badd29cfc20f5585",
}


@pytest.mark.parametrize("n,w,k,c", LEDGER_CHECK_OUT_SHA256)
def test_ledger_check_out_pinned(tmp_path, n, w, k, c):
    _, ledger = recursive_prpd(n, w, params=RecursionParams(k=k))
    data = ledger_to_dict(ledger)
    data["c"] = c
    path, out = tmp_path / "ledger.json", tmp_path / "checks.jsonl"
    path.write_text(json.dumps(data))
    assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == LEDGER_CHECK_OUT_SHA256[(n, w, k, c)]


def test_ledger_check_rejects_cert_delta_just_over_requirement(tmp_path):
    # the required delta at node (3, 2) is about 2.2e-10, far below any float
    # tolerance, so only an exact comparison sees a doubled certificate
    _, ledger = recursive_prpd(16, 2, params=RecursionParams(k=3))
    data = ledger_to_dict(ledger)
    node = [nd for nd in data["nodes"] if (nd["h"], nd["k"]) == (3, 2)][0]
    slot = node["samplers"][0]
    required = Fraction(slot["delta_required"])
    slot["cert_delta"] = str(2 * required)
    report = ledger_check(ledger_from_dict(data))
    assert ledger_check(ledger).ok and not report.ok
    assert [(c.h, c.k, c.name) for c in report.failures()] == [
        (3, 2, "cert delta(g_0) <= required")]
    path, out = tmp_path / "tampered.json", tmp_path / "checks.jsonl"
    path.write_text(json.dumps(data))
    assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 1
    # the check records carry the compared values exactly
    [failed] = [r for r in read_records(out) if r["record"] == "check" and not r["ok"]]
    assert (Fraction(failed["lhs"]), Fraction(failed["rhs"])) == (2 * required, required)
    assert Fraction(failed["slack"]) == -required
    data = ledger_to_dict(ledger)
    _mu_beyond_float_range(data)
    path.write_text(json.dumps(data))
    assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 1
    assert any(r.get("lhs") == 10 ** 400 and type(r["lhs"]) is int for r in read_records(out))


def test_ledger_check_failure_lines(tmp_path, capsys):
    _, ledger = recursive_prpd(16, 2, params=RecursionParams(k=3))
    data = ledger_to_dict(ledger)
    _keep_top_only(data)
    path = tmp_path / "top_only.json"
    path.write_text(json.dumps(data))
    assert main(["ledger-check", "--ledger", str(path)]) == 1
    fail_lines = [line for line in capsys.readouterr().out.splitlines() if "FAIL (" in line]
    assert "  FAIL (0,0) node recorded iff planned: lhs=0 rhs=1" in fail_lines
    assert not [line for line in fail_lines if " > " in line]


def test_records_go_to_stdout_without_out(tmp_path, capsys):
    argv = ["build-prpd", "--n", "4", "--w", "2", "--k", "1"]
    out = tmp_path / "build.jsonl"
    assert main(argv + ["--out", str(out)]) == 0
    lines_with_out = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    stdout = capsys.readouterr().out.splitlines()
    records = out.read_text().splitlines()
    assert records and all(json.loads(line) for line in records)
    assert stdout[:len(records)] == records
    assert stdout[len(records):-1] == lines_with_out[:-1]
    assert stdout[-1].startswith("runtime=") and lines_with_out[-1].startswith("runtime=")


def test_unwritable_out_exits_2(tmp_path, capsys):
    # exit 1 would claim a bound failed; the file is opened only after the command ran
    out = tmp_path / "missing" / "out.jsonl"
    assert main(["verify-error", "--n", "8", "--w", "2", "--k", "1", "--robps", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err
    assert not out.parent.exists()


def _nodes(data, kind=None):
    return [nd for nd in data["nodes"] if kind in (None, nd["kind"])]


def _empty_samplers(data):
    for nd in _nodes(data):
        nd["samplers"] = []


def _relabel_merges(data):
    for nd in _nodes(data, "merge"):
        nd["kind"] = "terminal"


def _keep_top_only(data):
    data["nodes"] = [nd for nd in _nodes(data) if (nd["h"], nd["k"]) == (4, data["k"])]


def _raise_requirements(data):
    # requirements of 1 would let certificates at eps = delta = 1/2 pass
    for nd in _nodes(data, "merge"):
        for slot in nd["samplers"]:
            slot.update(eps_required="1/1", delta_required="1/1", cert_eps="1/2", cert_delta="1/2")


def _raise_mu_caps(data):
    for nd in _nodes(data):
        nd["mu_cap"] = 10 ** 9


def _raise_error_bounds(data):
    for nd in _nodes(data):
        nd["error_bound"] = "1/1"


def _rewrite_merge_gammas(data):
    for nd in _nodes(data, "merge"):
        nd["merge_gamma"] = "1/2"
        nd["delta_binding_i"] += 1


def _shift_child_summary(data):
    # moves one bit of A_0's seed from s_in to s_out: the flat seed length,
    # which the sampler checks see, is unchanged
    top = _nodes(data)[-1]
    top["children"][0][1] += 1
    top["children"][0][2] -= 1


def _mu_beyond_float_range(data):
    _nodes(data)[-1]["mu"] = 10 ** 400


def _s_out_beyond_float_range(data):
    # compared with a float bound from the log2 replay
    _nodes(data)[-1]["s_out"] = 10 ** 400


def _terminal_with_merge_fields(data):
    # terminal (0, 0) given a merge node's children and sampler slots and read lengths
    merge = _nodes(data, "merge")[0]
    terminal = next(nd for nd in _nodes(data, "terminal") if (nd["h"], nd["k"]) == (0, 0))
    terminal.update(children=merge["children"], samplers=merge["samplers"], len_a=[999],
                    len_b=[5])


def _shrink_sampler_seeds(data):
    # every sampled index of the top node reads a 1-bit sampler seed on both halves: the
    # layout stays consistent, but 2 samples cannot certify eps = 0 over a longer output
    top = _nodes(data)[-1]
    for slot in top["samplers"]:
        slot["d"] = 1
        top["len_a"][slot["i"]] = top["len_b"][slot["i"]] = 1


def _eps_target_below_bound(data):
    data["eps_target"] = "1/1000000000000000000000000"


def _eps_target_negative(data):
    data["eps_target"] = "-1/2"


FORGERIES = {f.__name__.lstrip("_"): f for f in (
    _empty_samplers, _relabel_merges, _keep_top_only, _raise_requirements, _raise_mu_caps,
    _raise_error_bounds, _rewrite_merge_gammas, _shift_child_summary, _mu_beyond_float_range,
    _s_out_beyond_float_range, _terminal_with_merge_fields, _shrink_sampler_seeds,
    _eps_target_below_bound, _eps_target_negative)}


@pytest.mark.parametrize("forgery", FORGERIES)
def test_ledger_check_rejects_forged_ledger(tmp_path, forgery):
    _, ledger = recursive_prpd(16, 2, params=RecursionParams(k=3))
    data = ledger_to_dict(ledger)
    FORGERIES[forgery](data)
    assert not ledger_check(ledger_from_dict(data)).ok
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    assert main(["ledger-check", "--ledger", str(path)]) == 1


READ_LENGTH_EDITS = {
    "len_b-pass-through": [("len_b", 2)],
    "len_a-sampled": [("len_a", 0)],
    "len_b-sampled": [("len_b", 0)],
    "slot-d": [("samplers", 0, "d")],
    "both-pass-through": [("len_a", 2), ("len_b", 2)],
}


@pytest.mark.parametrize("edit", READ_LENGTH_EDITS)
def test_ledger_check_rejects_read_length_edit(tmp_path, capsys, edit):
    # lengths a bit shorter at the top node (3, 2), where indices 0 and 1 are sampled
    # and 2 is passed through: both halves must read G_i at its slot's d or its s_in
    built, path = tmp_path / "build.jsonl", tmp_path / "ledger.json"
    assert main(["build-prpd", "--n", "8", "--w", "2", "--k", "2", "--out", str(built)]) == 0
    data = next(rec["ledger"] for rec in map(json.loads, built.read_text().splitlines())
                if rec["record"] == "ledger")
    top = data["nodes"][-1]
    assert (top["h"], top["k"], top["kind"]) == (3, 2, "merge")
    for field in READ_LENGTH_EDITS[edit]:
        target = top
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] -= 1
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["ledger-check", "--ledger", str(path)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL (" in line]
    assert fails[0].startswith("  FAIL (3,2) read lengths")
    # a slot d below its output length also misses the support bound of its eps = 0
    assert [line.split(":")[0] for line in fails[1:]] == (
        ["  FAIL (3,2) support"] if edit == "slot-d" else [])


def _edited_ledger(edit):
    """An exported n=8, k=1 ledger, edited; its last node is the top merge node."""
    _, ledger = recursive_prpd(8, 2, params=RecursionParams(k=1))
    data = ledger_to_dict(ledger)
    edit(data)
    return json.dumps(data)


def _records(*ledger_texts):
    """A records file: a config line, then one ledger record per ledger."""
    lines = [json.dumps({"record": "config", "command": "build-prpd"})]
    lines += [json.dumps({"record": "ledger", "ledger": json.loads(t)}) for t in ledger_texts]
    return "\n".join(lines) + "\n"


def _negative_sampler_seeds(data):
    # sampler seeds of -1 bits, read at -1 on both halves of an s_in of -2: consistent,
    # but no length is negative
    top = data["nodes"][-1]
    for slot in top["samplers"]:
        slot["d"] = -1
    top.update(len_a=[-1, -1], len_b=[-1, -1], s_in=-2)


def _negative_cert_eps(data):
    # a TV distance below 0: below every requirement, but no distance at all
    for node in data["nodes"]:
        for slot in node["samplers"]:
            slot["cert_eps"] = "-1/2"


HONEST_LEDGER = _edited_ledger(lambda data: None)
BAD_FRACTION_LEDGER = json.dumps({"n": 4, "n_padded": 4, "w": 2, "gamma": "1/0", "k": 1,
                                  "c": 1, "sampler_mode": "exact-enumeration", "nodes": []})


BAD_INPUTS = {
    "w-zero": (["verify-error", "--n", "4", "--w", "0", "--k", "1"], None),
    "robps-zero": (["verify-error", "--n", "4", "--w", "2", "--k", "1", "--robps", "0"], None),
    "n-zero": (["build-prpd", "--n", "0", "--w", "2", "--k", "1"], None),
    "n1-zero": (["sz-demo", "--w", "2", "--n1", "0", "--n2", "1", "--d", "6"], None),
    "n2-zero": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "0", "--d", "6"], None),
    "d-zero": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d", "0"], None),
    "matrices-negative": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d", "6",
                           "--matrices", "-1"], None),
    # n1 = 1 chains n2 snaps, each up to w*2^(1-d), against a bound of one snap
    "sz-n1-one-chain": (["sz-demo", "--w", "2", "--n1", "1", "--n2", "2", "--d", "3",
                         "--matrices", "20"], None),
    "sz-exact-eps-ignored": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d", "6",
                              "--eps", "1/4"], None),
    "armoni-eps-zero": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d", "6",
                         "--approximator", "armoni", "--eps", "0"], None),
    # the exact 2048th power has entries past the int-to-str digit limit
    "sz-power-past-digit-limit": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "11", "--d", "6",
                                   "--matrices", "1"], None),
    # the bound 2*n*w/2^d has a denominator of about 6000 digits
    "sz-bound-past-digit-limit": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "1", "--d",
                                   "20000"], None),
    # the exact 2^60th power would take hours: refused once its entries pass the limit
    "sz-power-huge": (["sz-demo", "--w", "2", "--n1", "2", "--n2", "60", "--d", "6"], None),
    # 2^51001 offline seeds: refused before the 2^15-label step program is built, and the
    # refusal's count has more digits than str(int) renders
    "sz-armoni-seed-huge": (["sz-demo", "--w", "2", "--n1", "3000", "--n2", "1", "--d", "6",
                             "--approximator", "armoni", "--eps", "1/4"], None),
    "ledger-missing-file": (["ledger-check", "--ledger", "missing.json"], None),
    "ledger-missing-key": (["ledger-check", "--ledger", "ledger.json"], '{"nodes": [{"h": 0}]}'),
    "ledger-not-json": (["ledger-check", "--ledger", "ledger.json"], "{"),
    "ledger-not-object": (["ledger-check", "--ledger", "ledger.json"], "[1, 2]"),
    "ledger-zero-denominator": (["ledger-check", "--ledger", "ledger.json"], BAD_FRACTION_LEDGER),
    "ledger-len-a-empty": (["ledger-check", "--ledger", "ledger.json"],
                           _edited_ledger(lambda data: data["nodes"][-1].update(len_a=[]))),
    "ledger-lengths-negative": (["ledger-check", "--ledger", "ledger.json"],
                                _edited_ledger(_negative_sampler_seeds)),
    "ledger-s-out-string": (["ledger-check", "--ledger", "ledger.json"],
                            _edited_ledger(lambda data: data["nodes"][-1].update(s_out="x"))),
    "ledger-mu-bool": (["ledger-check", "--ledger", "ledger.json"],
                       _edited_ledger(lambda data: data["nodes"][-1].update(mu=True))),
    "ledger-cert-eps-negative": (["ledger-check", "--ledger", "ledger.json"],
                                 _edited_ledger(_negative_cert_eps)),
    "ledger-w-zero": (["ledger-check", "--ledger", "ledger.json"],
                      _edited_ledger(lambda data: data.update(w=0))),
    "ledger-header-c-zero": (["ledger-check", "--ledger", "ledger.json"],
                             _edited_ledger(lambda data: data.update(c=0))),
    "build-c-negative": (["build-prpd", "--n", "8", "--w", "2", "--k", "1", "--c", "-1"], None),
    "build-c-huge": (["build-prpd", "--n", "8", "--w", "2", "--k", "1", "--c", str(10 ** 400)],
                     None),
    "build-k-huge": (["build-prpd", "--n", "8", "--w", "2", "--k", "4097"], None),
    # the top bound (11^3/4096)^1201 has more digits than str(int) renders
    "build-k-past-digit-limit": (["build-prpd", "--n", "8", "--w", "2", "--k", "1200"], None),
    "ledger-header-c-huge": (["ledger-check", "--ledger", "ledger.json"],
                             _edited_ledger(lambda data: data.update(c=10 ** 400))),
    "ledger-header-k-huge": (["ledger-check", "--ledger", "ledger.json"],
                             _edited_ledger(lambda data: data.update(k=10 ** 6))),
    # three consistent edits: a plan of 2^20 steps at k = 4096
    "ledger-header-plan-huge": (["ledger-check", "--ledger", "ledger.json"],
                                _edited_ledger(lambda data: data.update(
                                    n=1 << 20, n_padded=1 << 20, k=4096))),
    "ledger-records-without-ledger": (["ledger-check", "--ledger", "ledger.json"], _records()),
    "ledger-records-two-ledgers": (["ledger-check", "--ledger", "ledger.json"],
                                   _records(HONEST_LEDGER, HONEST_LEDGER)),
    # a ledger record must hold its ledger, alone or after a config record
    "ledger-record-without-ledger-key": (["ledger-check", "--ledger", "ledger.json"],
                                         '{"record": "ledger"}\n'),
    "ledger-records-without-ledger-key": (["ledger-check", "--ledger", "ledger.json"],
                                          _records() + '{"record": "ledger"}\n'),
    "certify-n-negative": (["certify-sampler", "--kind", "enumeration", "--m", "4", "--n", "-1",
                            "--eps", "0", "--delta", "0"], None),
    # an enumeration sampler has d = m; a --d that differs is not ignored
    "certify-enumeration-d-differs": (["certify-sampler", "--kind", "enumeration", "--m", "3",
                                       "--d", "1", "--eps", "0", "--delta", "0"], None),
    # an eps no k <= K_MAX meets is refused before any cascade bound is built
    "build-eps-negative": (["build-prpd", "--n", "8", "--w", "2", "--eps", "-1"], None),
    "build-eps-not-rational": (["build-prpd", "--n", "8", "--w", "2", "--eps", "x"], None),
    "build-eps-unreachable": (["build-prpd", "--n", "8", "--w", "2", "--eps", "1e-3000"], None),
    "verify-eps-zero": (["verify-error", "--n", "1024", "--w", "2", "--eps", "0"], None),
    # a given k whose top bound, 1331/4096 at k = 0, misses a given eps
    "build-k-misses-eps": (["build-prpd", "--n", "8", "--w", "2", "--k", "0", "--eps", "1e-9"],
                           None),
    "build-k-eps-negative": (["build-prpd", "--n", "8", "--w", "2", "--k", "1", "--eps", "-1"],
                             None),
    "verify-k-misses-eps": (["verify-error", "--n", "8", "--w", "2", "--k", "1", "--eps", "1/10"],
                            None),
    "verify-k-eps-zero": (["verify-error", "--n", "8", "--w", "2", "--k", "1", "--eps", "0"],
                          None),
    # a 27-node plan, but a 2^26-step program: refused before the program is drawn
    "verify-program-huge": (["verify-error", "--n", "67108864", "--w", "2", "--k", "0",
                             "--robps", "1"], None),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2(tmp_path, monkeypatch, case):
    argv, ledger_text = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    if ledger_text is not None:
        (tmp_path / "ledger.json").write_text(ledger_text)
    try:
        with deadline(10):
            code = main(argv)
    except SystemExit as exc:    # argparse rejects bad flags before any command runs
        code = exc.code
    assert code == 2


FUZZ_VALUES = {"0": 0, "-1": -1, "2": 2, "1e6": 10 ** 6, "1e400": 10 ** 400, "-1e400": -10 ** 400,
               "0.5": 0.5, "true": True, "x": "x", "1/0": "1/0", "-1/2": "-1/2", "null": None,
               "[]": [], "{}": {}, "1e3000": 10 ** 3000}


def _fuzz_fields():
    """Every header field of the honest ledger, then a fixed sample of 100 node fields."""
    data = json.loads(HONEST_LEDGER)

    def walk(value, path):
        yield path
        items = (value.items() if isinstance(value, dict) else
                 enumerate(value) if isinstance(value, list) else ())
        for key, item in items:
            yield from walk(item, path + (key,))

    node_fields = list(walk(data["nodes"], ("nodes",)))[1:]
    return [(key,) for key in data] + random.Random(0).sample(node_fields, 100)


FUZZ_FIELDS = _fuzz_fields()


def _fuzzed(edits):
    """The honest ledger's JSON data with each (fields, JSON value) edit made."""
    data = json.loads(HONEST_LEDGER)
    for fields, value in edits:
        target = data
        try:
            for key in fields[:-1]:
                target = target[key]
            target[fields[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass                        # an earlier edit replaced a parent of this field
    return data


def _fuzz_exit_code(tmp_path, edits):
    """ledger-check's exit code on the honest ledger with each (fields, JSON value) edit made."""
    path, out = tmp_path / "ledger.json", tmp_path / "checks.jsonl"
    path.write_text(json.dumps(_fuzzed(edits)))
    with deadline(10):
        return main(["ledger-check", "--ledger", str(path), "--out", str(out)])


def test_specialised_reader_matches_reference_on_fuzz_edits():
    # the ledger reader made once per type at import against the reflective one: on every
    # single edit, equal dataclasses from both, or the same refusal (a missing key raises
    # KeyError, which ledger_from_dict turns into InputError)
    reference = reference_reader(SeedLedger)
    for fields, value in itertools.product(FUZZ_FIELDS, FUZZ_VALUES.values()):
        data = _fuzzed([(fields, value)])
        outcomes = []
        for read in (reference, _read_ledger):
            try:
                outcomes.append(read(data))
            except (InputError, KeyError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (fields, value)


@pytest.mark.parametrize("value", FUZZ_VALUES)
def test_ledger_check_exit_contract_fuzz(tmp_path, value):
    # one value replaced: the verdict is an exit code, in seconds, never a traceback
    for fields in FUZZ_FIELDS:
        assert _fuzz_exit_code(tmp_path, [(fields, FUZZ_VALUES[value])]) in (0, 1, 2), fields


def _multi_edits(count):
    """A fixed sample of `count` edits, each two or three (field, value) pairs at once."""
    rng = random.Random(0)
    return [[(rng.choice(FUZZ_FIELDS), FUZZ_VALUES[rng.choice(list(FUZZ_VALUES))])
             for _ in range(rng.choice((2, 3)))] for _ in range(count)]


def test_ledger_check_exit_contract_multi_edit_fuzz(tmp_path):
    # two or three values replaced at once, as a header edited in several places is:
    # the verdict is still an exit code, in seconds, never a traceback
    for edits in _multi_edits(600):
        assert _fuzz_exit_code(tmp_path, edits) in (0, 1, 2), edits


def test_ledger_check_exit_contract_consistent_headers(tmp_path):
    # n = n_padded and k edited together: a header that parses, so the plan and the checks
    # run on it, alone and with one more value replaced
    rng = random.Random(0)
    headers = [[(("n",), 1 << j), (("n_padded",), 1 << j), (("k",), k)]
               for j in (3, 10, 20) for k in (0, 1, 64, 4096)]
    codes = [_fuzz_exit_code(tmp_path, edits) for edits in headers]
    assert set(codes) == {0, 1, 2}, codes
    for edits in headers:
        edits = edits + [(rng.choice(FUZZ_FIELDS), FUZZ_VALUES[rng.choice(list(FUZZ_VALUES))])]
        assert _fuzz_exit_code(tmp_path, edits) in (0, 1, 2), edits


def test_ledger_check_accepts_any_provenance(tmp_path):
    # the sampler mode and certificate methods are provenance strings: a ledger another
    # builder wrote is judged by its values alone, with the same checks
    data = json.loads(HONEST_LEDGER)
    data["sampler_mode"] = "certified-backend"
    slots = [slot for node in data["nodes"] for slot in node["samplers"]]
    assert slots and {slot["cert_method"] for slot in slots} == {"analytic"}
    for slot in slots:
        slot["cert_method"] = "brute-force"
    checks = []
    for name, text in (("honest", HONEST_LEDGER), ("relabelled", json.dumps(data))):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        path.write_text(text)
        assert main(["ledger-check", "--ledger", str(path), "--out", str(out)]) == 0
        checks.append(out.read_text())
    assert checks[0] == checks[1]

"""Measurements and ledger checks that a fault in the merge layout cannot pass.

Each test holds for build_ck as written and fails if the layout
(1) drops the -1 terms of merge_terms: the exact recursion then measures a
    non-zero error (the ledger derives its weights from the same terms and
    does not see it);
(2) lets a term's A prefix overlap its B suffix: measurement refuses the
    layout or sees correlated halves, and the ledger's non-overlap check fails;
(3) reads a sampled child by pass-through instead of through its sampler:
    only a sampler that does not pass its seed through tells the two reads
    apart, so exact-enumeration builds cannot show it;
(4) is evaluated, behind pass_seed with a seed shorter than the child's flat
    seed, as the sum of the child's form: its bundles select only the child's
    seeds that the seed reaches as an m-bit output, or, at m shorter than the
    child's flat seed, strings of the wrong length.
"""

from fractions import Fraction
from functools import reduce

import pytest

from prpd import (ContractError, RecursionParams, Sampler, build_ck, exact_average, inf_norm,
                  ledger_check, mat_add, mat_sub, measure_robust_error, random_robp, recursive_prpd,
                  uniform_prpd)
from prpd.cli import main
from prpd.bits import all_bits
from prpd.recursion import behind, merge_tree_form
from prpd.sampler import pass_seed

from helpers import assumed_sampler
from lemmas import walk_matrix


@pytest.mark.parametrize("n,w,k", [(8, 2, 1), (8, 3, 2)])
def test_exact_recursion_measures_zero_and_checks(n, w, k):
    prpd, ledger = recursive_prpd(n, w, params=RecursionParams(k=k))
    assert ledger_check(ledger).ok
    for seed in range(3):
        assert measure_robust_error(prpd, random_robp(n, w, seed=seed)) == 0


def test_exact_recursion_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "verify.jsonl"
    assert main(["verify-error", "--n", "8", "--w", "2", "--k", "1", "--robps", "3",
                 "--out", str(out)]) == 0
    assert out.read_text().count('"measured": "0/1"') == 4        # three instances, the worst
    assert main(["build-prpd", "--n", "8", "--w", "2", "--k", "1",
                 "--out", str(tmp_path / "build.jsonl")]) == 0
    assert "0 failures -> ok" in capsys.readouterr().out


def test_sampled_child_is_read_through_its_sampler():
    # g selects 1 whatever its seed, so the sampled child always emits 1; read by
    # pass-through it would emit its uniform inner seed and measure zero error
    leaf = uniform_prpd(1)
    g = assumed_sampler(Sampler(n=1, d=1, m=1, sample=lambda x, s: 1))
    one = build_ck([leaf], w=2, gamma=Fraction(1, 2), samplers=[g])
    # every flat seed of `one` once, behind a function that does not pass seeds through
    g2 = assumed_sampler(Sampler(n=0, d=one.seed_len, m=one.seed_len, sample=lambda x, s: s))
    two = build_ck([one], w=2, gamma=Fraction(1, 2), samplers=[g2])
    errors = []
    for seed in range(4):
        program = random_robp(4, 2, seed=seed)
        for prpd, steps in ((one, 2), (two, 4)):
            ones = walk_matrix(program, 0, steps, "1" * steps)
            expected = inf_norm(mat_sub(ones, exact_average(program, 0, steps)))
            assert measure_robust_error(prpd, program, 0, steps) == expected
            errors.append(expected)
    assert max(errors) > 0


@pytest.mark.parametrize("d,m", [(2, 3), (2, 2)])
def test_pass_seed_shorter_than_child_seed_read_from_bundles(d, m):
    # pass_seed selects a 2-bit seed where the child's flat seed is 3 bits: as a 3-bit
    # output it is one of the 4 seeds 0ss, and as a 2-bit output the reader's bundles emit
    # 2-bit strings; summing the child's form, over all 8 seeds, would hide either
    reader = behind(uniform_prpd(3), Sampler(n=0, d=d, m=m, sample=pass_seed))
    program = random_robp(3, 2, seed=1)
    if m == 2:
        with pytest.raises(ContractError, match=r"a 2-bit string on segment \[0, 3\]"):
            merge_tree_form(reader, program, 0, 3)
        return
    walks = {z: walk_matrix(program, 0, 3, z) for z in all_bits(3)}
    selected = reduce(mat_add, (walks["0" + s] for s in all_bits(2)))
    assert merge_tree_form(reader, program, 0, 3) == {"": selected}
    assert selected != reduce(mat_add, walks.values())

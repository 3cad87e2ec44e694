"""The four benchmark workloads: seeded inputs, one unit of work, exact checks.

Each workload builds a pool of seeded instances in its constructor (the
set-up) and a unit runs one pool instance through the same public calls as
the matching ``prpd`` subcommand. A run is a sequence of whole pool cycles,
so every run of a seed does the same mix of work.

Every call into prpd goes through a module attribute (``recursion.x(...)``,
never a from-import) so the traced run can rebind it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

from prpd.bits import int_to_bits

# by module name: the package re-exports a function called ``pdist``
cli, pdist, recursion, robp, saks_zhou, sampler = (
    importlib.import_module(f"prpd.{name}")
    for name in ("cli", "pdist", "recursion", "robp", "saks_zhou", "sampler"))


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def q(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _read_records(path: Path) -> list:
    """Every non-empty line of a CLI --out file, parsed; raises if one is not JSON."""
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


class Verify:
    """measure_robust_error of one seeded width-3 program against the top bound.

    The verify-error path: generator evaluation, path following and exact
    Fraction accumulation, with the identity sampler.
    """

    name = "verify"
    n, w, k = 8, 3, 2
    pool_size = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.prpd, self.ledger = recursion.recursive_prpd(
            self.n, self.w, params=recursion.RecursionParams(k=self.k))
        self.bound = self.ledger.top.error_bound
        # the program seeds verify-error --seed uses
        self.pool = [robp.random_robp(self.ledger.n_padded, self.w, seed=seed * 100003 + t)
                     for t in range(self.pool_size)]
        strings = (1 << self.prpd.seed_len) * self.prpd.mu
        self.unit_counts = {"pdist.strings": strings,
                            "robp.path_steps": strings * self.w * self.prpd.out_len}
        self.setup_counts = {
            "recursion.merge_nodes": sum(nd.kind == "merge" for nd in self.ledger.nodes)}

    def unit(self, j: int):
        return recursion.measure_robust_error(self.prpd, self.pool[j])

    def check(self, j: int, err):
        within = err <= self.bound
        return digest([q(err), within]), within, {}

    def gen_eval_probe(self):
        """One generator pass with no paths; returns the evaluations made."""
        pdist.to_pseudodist(self.prpd)
        return (1 << self.prpd.seed_len) * self.prpd.mu

    def cli_expected(self) -> tuple:
        return (0,)

    def cli_probe(self, tmp: Path) -> tuple:
        out = tmp / "verify.jsonl"
        code = cli.main(["verify-error", "--n", str(self.n), "--w", str(self.w),
                         "--k", str(self.k), "--robps", "4", "--seed", str(self.seed),
                         "--out", str(out)])
        _read_records(out)
        return (code,)


class Certify:
    """Brute-force certification of one seeded expander-walk sampler.

    Work is in sampler alone: no paths, generators or matrix forms. The
    (eps, delta) pairs straddle the sampler's TV profile (max TV 19/32,
    two x above 9/16), so both verdicts occur.
    """

    name = "certify"
    n, d, m = 6, 8, 6
    pool_size = 8
    EPS = (Fraction(1, 2), Fraction(9, 16), Fraction(19, 32))
    DELTA = (Fraction(0), Fraction(1, 32), Fraction(1, 16))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = []
        for t in range(self.pool_size):
            sampler_seed = seed * 1000 + t
            g = sampler.expander_walk_sampler(self.n, self.d, self.m, seed=sampler_seed)
            self.pool.append((g, sampler_seed, rng.choice(self.EPS), rng.choice(self.DELTA)))
        self.unit_counts = {"sampler.samples": (1 << self.n) * (1 << self.d)}
        self.setup_counts = {}

    def unit(self, j: int):
        g, _, eps, delta = self.pool[j]
        return sampler.certify(g, eps, delta)

    def check(self, j: int, result):
        ok, profile = result
        _, _, eps, delta = self.pool[j]
        # the verdict must be the one the profile implies
        consistent = (len(profile.per_x) == 1 << self.n
                      and ok == (Fraction(profile.bad_count(eps), 1 << self.n) <= delta))
        return (digest([[q(tv) for tv in profile.per_x], ok]), consistent,
                {"sampler.certified": int(ok)})

    def cli_expected(self) -> tuple:
        g, _, eps, delta = self.pool[0]
        return (0 if sampler.certify(g, eps, delta)[0] else 1,)

    def cli_probe(self, tmp: Path) -> tuple:
        _, sampler_seed, eps, delta = self.pool[0]
        out = tmp / "certify.jsonl"
        code = cli.main(["certify-sampler", "--kind", "expander-walk", "--n", str(self.n),
                         "--d", str(self.d), "--m", str(self.m), "--eps", q(eps),
                         "--delta", q(delta), "--seed", str(sampler_seed), "--out", str(out)])
        _read_records(out)
        return (code,)


class Snap:
    """sz_power with the armoni_pow approximator on one seeded 2x2 matrix.

    Path following with integer accumulation and no recursion closures,
    compared exactly against mat_pow under sz_error_bound. With the exact
    uniform generator and enumeration sampler the approximator's only error
    is rounding to the 2^-7 grid, so at snap precision d = 6 the chain bound
    holds for every matrix; at d >= 7 it is only a high-probability bound.
    """

    name = "snap"
    w, n1, n2, d = 2, 2, 2, 6
    eps = Fraction(1, 8)
    pool_size = 8

    def __init__(self, seed: int):
        self.seed = seed
        dd = saks_zhou.grid_bits(self.n1, self.w, self.eps)
        self.gen = pdist.uniform_prpd(self.n1 * dd)
        self.samp = sampler.enumeration_sampler(self.gen.seed_len, n=0)
        self.power = self.n1 ** self.n2
        self.bound = saks_zhou.sz_error_bound(self.power, self.w, self.d)
        rng = random.Random(seed)
        self.pool = []
        for _ in range(self.pool_size):
            mat = self._random_substochastic(rng)
            offsets = tuple(int_to_bits(rng.randrange(1 << self.d), self.d)
                            for _ in range(self.n2))
            self.pool.append((mat, saks_zhou.SzSchedule(
                n1=self.n1, n2=self.n2, d=self.d, eps=self.eps, y="", offsets=offsets)))
        paths = (1 << self.samp.d) * self.gen.mu * self.w * self.n2
        self.unit_counts = {"saks_zhou.armoni_paths": paths,
                            "robp.path_steps": paths * self.n1,
                            "saks_zhou.snap_entries": self.n2 * self.w * self.w}
        self.setup_counts = {}

    def _random_substochastic(self, rng) -> tuple:
        rows = []
        for _ in range(self.w):
            raw = [rng.randrange(0, 64) for _ in range(self.w)]
            den = max(sum(raw), 1) + rng.randrange(0, 32)
            rows.append(tuple(Fraction(v, den) for v in raw))
        return tuple(rows)

    def _approx(self, mat, y):
        return saks_zhou.armoni_pow(mat, self.n1, self.gen, self.samp, y, self.eps)

    def unit(self, j: int):
        mat, schedule = self.pool[j]
        result = saks_zhou.sz_power(mat, schedule, self._approx)
        return result, robp.mat_pow(mat, self.power)

    def check(self, j: int, result):
        snapped, oracle = result
        within = robp.inf_norm(robp.mat_sub(snapped, oracle)) <= self.bound
        return digest([[q(e) for e in row] for row in snapped] + [within]), within, {}

    def cli_expected(self) -> tuple:
        return (0,)

    def cli_probe(self, tmp: Path) -> tuple:
        out = tmp / "snap.jsonl"
        code = cli.main(["sz-demo", "--w", str(self.w), "--n1", str(self.n1),
                         "--n2", str(self.n2), "--d", str(self.d), "--eps", q(self.eps),
                         "--approximator", "armoni", "--matrices", "1",
                         "--seed", str(self.seed), "--out", str(out)])
        _read_records(out)
        return (code,)


class Ledger:
    """recursive_prpd + ledger_check + JSON roundtrip + ledger_check again.

    Construction and bookkeeping with no enumeration, over a sweep of
    (n, w, k, c) up to n = 2^20. The seed draws each n within its power of two
    and the order; the work depends only on the padded n, w, k and c, so every
    seed does the same work. Most of these ledgers are legitimately over the
    inductive budget in exact-enumeration mode; that verdict is output.
    """

    name = "ledger"
    HEIGHTS = range(2, 21, 2)
    KS = (1, 2, 3)
    CS = (1, 2)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = [(rng.randint((1 << (h - 1)) + 1, 1 << h), 2 + (h + k + c) % 3, k, c)
                     for h in self.HEIGHTS for k in self.KS for c in self.CS]
        rng.shuffle(self.pool)
        self.pool_size = len(self.pool)
        self.unit_counts = {}
        self.setup_counts = {}

    def unit(self, j: int):
        n, w, k, c = self.pool[j]
        _, ledger = recursion.recursive_prpd(n, w, params=recursion.RecursionParams(k=k, c=c))
        report = recursion.ledger_check(ledger)
        data, parsed = ledger_roundtrip(ledger)
        return ledger, report, data, parsed, recursion.ledger_check(parsed)

    def check(self, j: int, result):
        ledger, report, data, parsed, parsed_report = result
        verdicts = _node_verdicts(report)
        same = (recursion.ledger_to_dict(parsed) == data
                and _node_verdicts(parsed_report) == verdicts)
        counts = {"recursion.merge_nodes": sum(nd.kind == "merge" for nd in ledger.nodes),
                  "recursion.ledger_checks": len(report.checks) + len(parsed_report.checks)}
        return digest([data, verdicts]), same, counts

    def cli_expected(self) -> tuple:
        n, w, k, c = self.pool[0]
        _, ledger = recursion.recursive_prpd(n, w, params=recursion.RecursionParams(k=k, c=c))
        code = 0 if recursion.ledger_check(ledger).ok else 1
        return (code, code)

    def cli_probe(self, tmp: Path) -> tuple:
        n, w, k, c = self.pool[0]
        built = tmp / "build.jsonl"
        code = cli.main(["build-prpd", "--n", str(n), "--w", str(w), "--k", str(k),
                         "--c", str(c), "--out", str(built)])
        record = [r for r in _read_records(built) if r["record"] == "ledger"][0]
        ledger_path = tmp / "ledger.json"
        ledger_path.write_text(json.dumps(record))
        checked = tmp / "check.jsonl"
        code2 = cli.main(["ledger-check", "--ledger", str(ledger_path), "--out", str(checked)])
        _read_records(checked)
        return (code, code2)


def ledger_roundtrip(ledger):
    """ledger_to_dict -> JSON text -> ledger_from_dict, as ledger-check reads it."""
    data = recursion.ledger_to_dict(ledger)
    return data, recursion.ledger_from_dict(json.loads(json.dumps(data)))


def _node_verdicts(report) -> list:
    """Pass/fail per (h, k) node; the number and names of checks are not pinned."""
    ok = {}
    for chk in report.checks:
        ok[(chk.h, chk.k)] = ok.get((chk.h, chk.k), True) and chk.ok
    return [[h, k, v] for (h, k), v in sorted(ok.items())]


WORKLOADS = {w.name: w for w in (Verify, Certify, Snap, Ledger)}

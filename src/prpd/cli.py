"""Batch command-line driver: build, verify, certify, demo, check.

Every command is a deterministic function of its flags (including seeds).
Reports pair each measurement with the bound it is judged against; exit
code 0 means every bound was met. Records are emitted as JSON lines with
exact rationals rendered as numerator/denominator strings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction

from .bits import int_to_bits
from .errors import InputError, PrpdError, check_renders
from .pdist import uniform_prpd
from .recursion import (RecursionParams, frac_str, inductive_seed_bounds, ledger_check,
                        ledger_from_dict, ledger_to_dict, measure_robust_error, recursive_prpd)
from .robp import inf_norm, mat_pow, mat_sub, random_robp, serialize_robp
from .saks_zhou import SzSchedule, armoni_pow, grid_bits, sz_error_bound, sz_power
from .sampler import certify, enumeration_sampler, expander_walk_sampler


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _build_id(args: argparse.Namespace) -> str:
    """Hash of every flag that determines the records; main has removed the others."""
    blob = json.dumps({k: str(v) for k, v in sorted(vars(args).items())}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _ledger_lines(report) -> list:
    """The ledger check's verdict line, then one line per failed check."""
    failures = report.failures()
    return [f"ledger check: {len(report.checks)} checks, {len(failures)} failures -> "
            f"{'ok' if report.ok else 'FAIL'}"] + [
        f"  FAIL ({f.h},{f.k}) {f.name}: lhs={f.lhs} rhs={f.rhs}" for f in failures]


def cmd_build_prpd(args, emit):
    prpd, ledger = recursive_prpd(args.n, args.w, eps=args.eps,
                                  params=RecursionParams(args.gamma, args.k, args.c))
    report = ledger_check(ledger)
    emit({"record": "config", "command": "build-prpd", "build_id": _build_id(args),
          "n": args.n, "w": args.w, "k": ledger.k, "gamma": frac_str(ledger.gamma),
          "c": ledger.c, "sampler_mode": ledger.sampler_mode})
    lines = [f"build-prpd n={args.n} w={args.w} k={ledger.k} gamma={frac_str(ledger.gamma)} "
             f"mode={ledger.sampler_mode}",
             f"{'h':>3} {'k':>3} {'kind':>8} {'s_out':>6} {'s_in':>6} {'mu':>6} "
             f"{'s_out_bound':>12} {'s_in_bound':>11} {'mu_cap':>7}"]
    for node in ledger.nodes:
        so_b, si_b = (ledger.c * b for b in inductive_seed_bounds(
            node.h, node.k, ledger.n_padded, ledger.w, ledger.gamma))
        emit({"record": "node", "h": node.h, "k": node.k, "kind": node.kind,
              "s_out": node.s_out, "s_in": node.s_in, "mu": node.mu,
              "s_out_bound": round(so_b, 3), "s_in_bound": round(si_b, 3),
              "mu_cap": node.mu_cap, "error_bound": frac_str(node.error_bound)})
        lines.append(f"{node.h:>3} {node.k:>3} {node.kind:>8} {node.s_out:>6} {node.s_in:>6} "
                     f"{node.mu:>6} {so_b:>12.1f} {si_b:>11.1f} {node.mu_cap:>7}")
    emit({"record": "ledger", "ledger": ledger_to_dict(ledger)})
    emit({"record": "summary", "checks": len(report.checks),
          "failures": len(report.failures()), "ok": report.ok,
          "top_s_out": prpd.s_out, "top_s_in": prpd.s_in, "top_mu": prpd.mu})
    return report.ok, lines + _ledger_lines(report)


def cmd_verify_error(args, emit):
    prpd, ledger = recursive_prpd(args.n, args.w, eps=args.eps,
                                  params=RecursionParams(args.gamma, args.k))
    bound = ledger.top.error_bound
    emit({"record": "config", "command": "verify-error", "build_id": _build_id(args),
          "n": args.n, "w": args.w, "k": ledger.k, "gamma": frac_str(ledger.gamma),
          "robps": args.robps, "seed": args.seed, "bound": frac_str(bound)})
    runs = []
    for t in range(args.robps):
        program = random_robp(ledger.n_padded, args.w, seed=args.seed * 100003 + t)
        err = measure_robust_error(prpd, program)
        runs.append((err, program))
        emit({"record": "instance", "index": t, "measured": frac_str(err),
              "bound": frac_str(bound), "within": err <= bound})
    worst, program = max(runs, key=lambda run: run[0])      # the first of the worst
    ok = worst <= bound
    emit({"record": "worst", "measured": frac_str(worst), "robp": serialize_robp(program)})
    emit({"record": "summary", "ok": ok})
    return ok, [f"verify-error n={args.n} w={args.w} k={ledger.k}: {args.robps} programs, "
                f"worst measured {frac_str(worst)} vs bound {frac_str(bound)} -> "
                f"{'ok' if ok else 'FAIL'}"]


def cmd_certify_sampler(args, emit):
    if args.kind == "enumeration":
        if args.d not in (None, args.m):
            raise InputError(f"an enumeration sampler has d = m = {args.m}, got --d {args.d}")
        g = enumeration_sampler(args.m, n=args.n)
    else:
        g = expander_walk_sampler(args.n, args.d if args.d is not None else args.m,
                                  args.m, seed=args.seed)
    ok, profile = certify(g, args.eps, args.delta)
    bad = profile.bad_count(args.eps)
    emit({"record": "certificate", "kind": args.kind, "n": g.n, "d": g.d, "m": g.m,
          "eps": frac_str(args.eps), "delta": frac_str(args.delta),
          "method": g.cert.method if ok else "none",
          "max_tv": frac_str(profile.max_tv),
          "bad_x_count": bad,
          "certified": ok})
    return ok, [f"certify-sampler {args.kind} n={g.n} d={g.d} m={g.m}: "
                f"max TV {frac_str(profile.max_tv)}, bad x {bad}/"
                f"{1 << g.n} at eps={frac_str(args.eps)} delta={frac_str(args.delta)} -> "
                f"{'certified' if ok else 'REFUSED'}"]


def cmd_sz_demo(args, emit):
    if args.approximator == "exact" and args.eps is not None:
        raise InputError(f"the exact approximator has no eps, got --eps {frac_str(args.eps)}")
    rng = random.Random(args.seed)
    limit = sys.get_int_max_str_digits()
    if limit and args.n2 * math.log10(args.n1) >= limit:
        raise InputError(f"n1^n2 has more than {limit} digits, past the int-to-str limit "
                         "of this Python")
    n = args.n1 ** args.n2
    bound = sz_error_bound(n, args.w, args.d)
    emit({"record": "config", "command": "sz-demo", "build_id": _build_id(args),
          "w": args.w, "n1": args.n1, "n2": args.n2, "d": args.d,
          "approximator": args.approximator, "seed": args.seed,
          "matrices": args.matrices, "bound": frac_str(bound)})
    if args.approximator == "exact":
        eps = Fraction(0)
        approx = lambda mat, y: mat_pow(mat, args.n1)
    else:
        eps = args.eps if args.eps is not None else Fraction(1, 64)
        gen = uniform_prpd(args.n1 * grid_bits(args.n1, args.w, eps))
        samp = enumeration_sampler(gen.seed_len, n=0)
        approx = lambda mat, y: armoni_pow(mat, args.n1, gen, samp, y, eps)
    errs = []
    for t in range(args.matrices):
        m = _random_substochastic(rng, args.w)
        offsets = tuple(int_to_bits(rng.randrange(1 << args.d), args.d)
                        for _ in range(args.n2))
        schedule = SzSchedule(n1=args.n1, n2=args.n2, d=args.d, eps=eps, y="", offsets=offsets)
        errs.append(inf_norm(mat_sub(sz_power(m, schedule, approx), mat_pow(m, n))))
        emit({"record": "instance", "index": t, "measured": frac_str(errs[-1]),
              "bound": frac_str(bound), "within": errs[-1] <= bound})
    ok = max(errs) <= bound
    emit({"record": "summary", "ok": ok})
    return ok, [f"sz-demo w={args.w} n={args.n1}^{args.n2} d={args.d} "
                f"({args.approximator}): {args.matrices} matrices vs bound {frac_str(bound)} -> "
                f"{'ok' if ok else 'FAIL'}"]


def _random_substochastic(rng, w: int) -> tuple:
    rows = []
    for _ in range(w):
        raw = [rng.randrange(0, 64) for _ in range(w)]
        den = max(sum(raw), 1) + rng.randrange(0, 32)
        rows.append(tuple(Fraction(v, den) for v in raw))
    return tuple(rows)


def _load_ledger(path: str):
    """A bare ledger, one `ledger` record, or a records file holding exactly one."""
    values, decoder, space = [], json.JSONDecoder(), re.compile(r"\s*")
    try:
        with open(path) as fh:
            text = fh.read()
        pos = space.match(text).end()
        while pos < len(text):
            value, pos = decoder.raw_decode(text, pos)
            values.append(value)
            pos = space.match(text, pos).end()
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read ledger {path}: {exc}") from None
    ledgers = [v for v in values if isinstance(v, dict) and v.get("record") == "ledger"]
    if len(values) == 1 and not ledgers:
        return values[0]
    if len(ledgers) != 1 or "ledger" not in ledgers[0]:
        raise InputError(f"{path} holds {len(ledgers)} ledger records among {len(values)} "
                         "JSON values; need exactly one, holding a 'ledger' key")
    return ledgers[0]["ledger"]


def cmd_ledger_check(args, emit):
    report = ledger_check(ledger_from_dict(_load_ledger(args.ledger)))

    def exact(v):
        return frac_str(v) if type(v) is Fraction else v

    for chk in report.checks:
        check_renders((chk.lhs, chk.rhs, chk.slack),
                      f"check ({chk.h},{chk.k}) {chk.name} has a value")
        emit({"record": "check", "h": chk.h, "k": chk.k, "name": chk.name,
              "lhs": exact(chk.lhs), "rhs": exact(chk.rhs), "ok": chk.ok,
              "slack": exact(chk.slack)})
    emit({"record": "summary", "ok": report.ok, "checks": len(report.checks),
          "failures": len(report.failures())})
    return report.ok, _ledger_lines(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prpd",
        description="exactly-verifiable pseudorandom pseudodistributions, desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def recursion(p):
        """The flags of a recursion: n, w, eps and the RecursionParams gamma and k."""
        p.add_argument("--n", type=_positive, required=True)
        p.add_argument("--w", type=_positive, required=True)
        p.add_argument("--eps", type=_frac, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--gamma", type=_frac, default=None)

    p = sub.add_parser("build-prpd", help="build a generator and check its ledger")
    recursion(p)
    p.add_argument("--c", type=_positive, default=1)
    p.set_defaults(func=cmd_build_prpd)

    p = sub.add_parser("verify-error", help="measure robust error against the cascade bound")
    recursion(p)
    p.add_argument("--robps", type=_positive, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_error)

    p = sub.add_parser("certify-sampler", help="brute-force a sampler certificate")
    p.add_argument("--kind", choices=["enumeration", "expander-walk"], default="expander-walk")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=_frac, required=True)
    p.add_argument("--delta", type=_frac, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify_sampler)

    p = sub.add_parser("sz-demo", help="snap-powering chain against its error bound")
    p.add_argument("--w", type=_positive, required=True)
    p.add_argument("--n1", type=_positive, required=True)
    p.add_argument("--n2", type=_positive, required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--eps", type=_frac, default=None)
    p.add_argument("--approximator", choices=["exact", "armoni"], default="exact")
    p.add_argument("--matrices", type=_positive, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sz_demo)

    p = sub.add_parser("ledger-check", help="re-verify an exported ledger")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=cmd_ledger_check)
    for p in sub.choices.values():
        p.add_argument("--out", help="write JSON-line records to this path, not to stdout")
    return parser


def main(argv=None) -> int:
    """Run one command; its records go to --out, else to stdout before its lines.

    Exit code 0: every bound met, 1: a bound failed, 2: bad input or refused capacity.
    """
    args = build_parser().parse_args(argv)
    start = time.time()
    command, out_path = vars(args).pop("func"), vars(args).pop("out")
    records = []
    try:
        ok, lines = command(args, records.append)
    except PrpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(*lines, f"runtime={time.time() - start:.3f}s", sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Seed-length growth: degenerate exact samplers versus the inductive bounds.

With enumeration samplers the inner seed of each merge is the full child
seed, so the used lengths grow linearly in n (the honest price of exact
sampling); the inductive bounds grow polylogarithmically. The build is
lazy, so large n is cheap as long as nothing is enumerated.
"""

import argparse

from prpd import RecursionParams, ledger_check, recursive_prpd, inductive_seed_bounds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--c", type=int, default=1)
    parser.add_argument("--max-log-n", type=int, default=10)
    args = parser.parse_args()
    print(f"{'n':>6} {'s_out':>6} {'s_in':>8} {'mu':>10} "
          f"{'s_out bound':>12} {'s_in bound':>11} {'checks':>7}")
    crossover = None
    for log_n in range(2, args.max_log_n + 1):
        n = 1 << log_n
        prpd, ledger = recursive_prpd(n, 2, params=RecursionParams(k=args.k, c=args.c))
        report = ledger_check(ledger)
        so_b, si_b = (args.c * b for b in inductive_seed_bounds(
            log_n, args.k, n, 2, ledger.gamma))
        status = "ok" if report.ok else "over budget"
        if not report.ok and crossover is None:
            crossover = n
        print(f"{n:>6} {prpd.s_out:>6} {prpd.s_in:>8} {prpd.mu:>10} "
              f"{so_b:>12.0f} {si_b:>11.0f} {len(report.checks):>5} {status}")
    if crossover is not None:
        print(f"\nfrom n = {crossover} the exact-sampler substitution pays more inner "
              f"seed than the inductive budget allows; honest sampler parameters "
              f"(the replay rows of the ledger) stay within it at every n.")


if __name__ == "__main__":
    main()

"""Scan character line sums against the (n-1)sqrt(q) bound on small fields.

The smallest field scanned is GF(3^2) and the largest build_field's default
cap allows is 2^24, so a --max-order outside [9, 2^24] gets one "error:"
line on stderr and exit status 2 before any field is built.
"""

import argparse
import sys

from cayley_cliques import DEFAULT_CAP, build_field, katz_bound_check
from cayley_cliques.ff import divisors, primerange


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=2500,
                    help="scan every field GF(p^E) up to this order, E >= 2")
    ap.add_argument("--ratio-floor", type=float, default=0.0,
                    help="only print rows with max_ratio above this")
    args = ap.parse_args()
    if not 9 <= args.max_order <= DEFAULT_CAP:
        print(f"error: --max-order {args.max_order} is outside [9, 2^24]: GF(3^2) is the "
              "smallest field scanned and 2^24 the field-size cap", file=sys.stderr)
        return 2

    worst = (0.0, None)
    rows = 0
    for p in primerange(3, int(args.max_order**0.5) + 1):
        e = 2
        while p**e <= args.max_order:
            table = build_field(p, e)
            for r in divisors(e)[:-1]:
                for d in divisors(table.qm1):
                    if d == 1:
                        continue
                    report = katz_bound_check(table, r, d)
                    rows += 1
                    if report.max_ratio > worst[0]:
                        worst = (report.max_ratio, report)
                    if report.max_ratio >= args.ratio_floor:
                        print(f"GF({p}^{e}) r={r} d={d}: max |sum|/bound = "
                              f"{report.max_ratio:.6f} at theta={report.worst_theta}")
                    if not report.bound_satisfied:
                        print(f"BOUND EXCEEDED: GF({p}^{e}) r={r} d={d}", file=sys.stderr)
                        return 1
            e += 1
    ratio, report = worst
    print(f"\n{rows} scans; worst ratio {ratio:.6f} "
          f"(GF({report.p}^{report.E}) r={report.r} d={report.d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

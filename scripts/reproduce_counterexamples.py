"""Rebuild the two known small-field counterexamples, then hunt for more.

The subfield F_3 is a maximal subfield clique of GP*(81,4) yet sits inside
a maximal clique of size 9; F_5 does the same in GP*(15625,62) with size
25.  Both live below every sufficient-condition threshold, which is the
only regime where this can happen.

Each counterexample line also gives the witness pool W (the common
neighbours of the subfield F) and its number of orbits under the maps
x -> ux + f with u in <g^L> and f in F, which the exact extension
searches one orbit at a time.
"""

import argparse
import math
import sys
import time

from cayley_cliques import SweepConfig, find_counterexamples, make_case, verify_case

PINNED = [
    ((3, 1, 4, 4), 9),
    ((5, 1, 6, 62), 25),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=1000,
                    help="also sweep all Peisert cases up to this order")
    args = ap.parse_args()

    for (p, s, n, d), want in PINNED:
        t0 = time.perf_counter()
        report = verify_case(make_case(p, s, n, d, "peisert"))
        dt = time.perf_counter() - t0
        print(f"GP*({p**(s*n)},{d}): verdict={report.verdict} "
              f"extended_size={report.extended_clique_size} "
              f"witnesses={len(report.witnesses)} [{dt:.2f}s]")
        if report.extended_clique_size != want:
            print(f"  expected size {want}!", file=sys.stderr)
            return 1

    print(f"\nsweeping all Peisert cases with order <= {args.max_order} ...")
    found = find_counterexamples(SweepConfig(max_order=args.max_order, kinds=("peisert",)))
    for r in found:
        c = r.case
        step = (c.order - 1) // (c.q - 1)
        group = c.q * (c.order - 1) // math.lcm(step, c.d)
        pool = len(r.witnesses)
        print(f"  p={c.p} s={c.s} n={c.n} d={c.d}: subfield F_{c.q} sits in a "
              f"maximal clique of size {r.extended_clique_size} ({r.regime.name}); "
              f"pool {pool} = {pool // group} orbits of {group}")
    bad = [r for r in found if r.verdict == "VIOLATION"]
    print(f"{len(found)} counterexamples, {len(bad)} violations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

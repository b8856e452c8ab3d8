"""Check every Paley case below the q > (n-1)^2 threshold for clique failures.

For n in 2..5 this covers all prime powers q <= (n-1)^2; n=6 is capped at
q <= 13 by default (q = 17 needs a ~2.4e7-element field; pass --full-n6
and a sufficient --cap to include it: --full-n6 --cap 30000000 takes about
6 s with a 350 MB peak on a 2-core machine).  An empty violation and
counterexample list speaks for this range only: past it, GP(5^8, 3) has the
subfield F_5 inside a maximal clique of size 25.

Every n's bounds are checked before the first sweep: an n whose fields reach
the 2^31 table limit or pass --cap (--n-max 7, say) gets one "error:" line
on stderr and exit status 2, with nothing on stdout.
"""

import argparse
import sys
import time
from pathlib import Path

from cayley_cliques import DEFAULT_CAP, SweepConfig, sweep
from cayley_cliques.verify import report_lines, summary_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--full-n6", action="store_true",
                    help="raise the n=6 base bound from 13 to 17")
    ap.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ap.add_argument("--out", type=Path, default=None, help="JSONL path (CSV lands next to it)")
    args = ap.parse_args()

    plan = []
    try:
        for n in range(2, args.n_max + 1):
            if n == 6:
                base_cap = 17 if args.full_n6 else 13
            else:
                base_cap = (n - 1) ** 2
            plan.append((n, base_cap, SweepConfig(max_order=max(base_cap**n, 9), n_min=n,
                                                  n_max=n, max_base=base_cap,
                                                  kinds=("paley",), cap=args.cap)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_reports = []
    for n, base_cap, config in plan:
        t0 = time.perf_counter()
        reports = sweep(config)
        broken = [r for r in reports if r.maximal_subfield_clique and not r.maximal_clique]
        print(f"n={n} q<={base_cap}: {len(reports)} cases, "
              f"{len(broken)} non-maximal subfield cliques "
              f"[{time.perf_counter() - t0:.1f}s]")
        all_reports.extend(reports)

    if args.out is not None:
        args.out.write_text(report_lines(all_reports))
        args.out.with_suffix(".csv").write_text(summary_csv(all_reports))
        print(f"wrote {len(all_reports)} reports to {args.out}")

    violations = [r for r in all_reports if r.verdict == "VIOLATION"]
    broken = [r for r in all_reports if r.maximal_subfield_clique and not r.maximal_clique]
    print(f"total: {len(all_reports)} cases, {len(broken)} failures, "
          f"{len(violations)} violations")
    return 1 if violations or broken else 0


if __name__ == "__main__":
    sys.exit(main())

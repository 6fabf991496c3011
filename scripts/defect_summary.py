#!/usr/bin/env python3
"""Survey allocation defects across every start state and ensemble.

For each of the forty start states, print the per-class maximum
deviation of the site totals.  No single state balances any class, while
the full forty-state ensemble balances all three; this script makes that
contrast visible in one screen of text.
"""

import argparse

from knot818.allocation import defect_report, ensemble_totals, site_totals
from knot818.traversal import enumerate_all, enumerate_representatives


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", action="store_true", help="also list all forty single states")
    args = parser.parse_args(argv)

    full = enumerate_all()
    if args.states:
        print("state            branch  outer   inner")
        for table in full.tables:
            report = defect_report(site_totals(table))
            devs = {c.site_class.value: c.max_deviation for c in report.classes}
            print(
                f"{table.describe():<16} {devs['branch-center']!s:<7}"
                f" {devs['outer-shoulder']!s:<7} {devs['inner-shoulder']}"
            )
        print()

    for ensemble in (enumerate_representatives(), full):
        report = defect_report(ensemble_totals(ensemble))
        print(f"ensemble {ensemble.label} ({len(ensemble.tables)} tables):")
        for stats in report.classes:
            cells = " ".join(f"{site}={total}" for site, total in stats.entries)
            state = "uneven" if stats.mismatch else "balanced"
            print(f"  {stats.site_class}: {cells}  mean={stats.mean}  {state}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run many randomized-fault cycles and tally outcomes and safety audits.

Each cycle is an independent single-cycle session under the stochastic
fault profile. The sweep reports stage rates, how stacks were lost, and
whether any run produced an invariant violation or an interlock/retry-cap
audit finding (it never should). It exits 1 if one did, so it can gate CI.
"""

import argparse
import collections
import sys

from bagcell.config import CellConfig
from bagcell.report import audit_interlocks, audit_retry_caps, scan_violations
from bagcell.scenarios import randomized_fault_profile
from bagcell.simulate import run_campaign

# Actions whose retries the machine caps at orchestrator.<action>_attempts.
CAPPED = ("pick", "place", "detect", "secure", "remove")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=20_000)
    args = parser.parse_args()

    cfg = CellConfig(seed=args.seed, faults=randomized_fault_profile())
    caps = {action: getattr(cfg.orchestrator, f"{action}_attempts") for action in CAPPED}

    totals = collections.Counter()
    losses = collections.Counter()
    problems = []
    for report, tracer in run_campaign(cfg.validate(), range(args.cycles)):
        totals["offered"] += report.stacks_offered
        totals["detected"] += report.detected
        totals["picked"] += report.picked
        totals["placed"] += report.placed
        totals["delivered"] += report.delivered
        totals["violations"] += report.violations
        totals["stalls"] += report.pusher_stalls
        for rec in tracer.records:
            if rec.kind == "outcome" and rec.data["kind"].endswith("_failed"):
                losses[rec.data["kind"]] += 1
        problems += scan_violations(tracer.records)
        problems += audit_interlocks(tracer.records)
        problems += audit_retry_caps(tracer.records, caps)

    offered = totals["offered"]
    print(f"cycles={args.cycles} offered={offered}")
    for stage in ("detected", "picked", "placed", "delivered"):
        print(f"  {stage:>9}: {totals[stage]:6d}  ({100.0 * totals[stage] / offered:6.2f} %)")
    print(f"  pusher stalls: {totals['stalls']}")
    print("  losses by kind:")
    for kind, n in losses.most_common():
        print(f"    {kind:>15}: {n}")
    print(f"invariant violations: {totals['violations']}")
    print(f"audit findings: {len(problems)}")
    for p in problems[:10]:
        print(f"  {p}")
    return 1 if totals["violations"] or problems else 0


if __name__ == "__main__":
    sys.exit(main())

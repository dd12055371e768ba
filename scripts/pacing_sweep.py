#!/usr/bin/env python3
"""Sweep detection/planning service times against the reference campaign.

The mean test duration is affine in both knobs (a scripted campaign always
serves the same number of detection frames and plan requests), so a small
grid is enough to read off the sensitivity and pick defaults. Prints one
row per grid point with the resulting mean minutes per test.
"""

import argparse
import itertools

from bagcell.config import CellConfig, OrchestratorConfig, PacingConfig
from bagcell.scenarios import build_reference_script
from bagcell.simulate import run_campaign


def mean_minutes(detect_s: float, plan_s: float) -> float:
    pacing = PacingConfig(detect_service_s=detect_s, plan_service_s=plan_s)
    cfg = CellConfig(orchestrator=OrchestratorConfig(pacing=pacing))
    campaign = run_campaign(cfg.validate(), range(10), script=build_reference_script())
    reports = [r for r, _ in campaign]
    return sum(r.duration_s for r in reports) / len(reports) / 60.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--detect", type=float, nargs="+", default=[13.0, 14.0, 15.0, 16.0])
    parser.add_argument("--plan", type=float, nargs="+", default=[3.5, 4.0, 4.5, 5.0])
    args = parser.parse_args()

    print(f"{'detect_s':>9} {'plan_s':>7} {'mean_min':>9}")
    for d, p in itertools.product(args.detect, args.plan):
        print(f"{d:9.2f} {p:7.2f} {mean_minutes(d, p):9.4f}")
    base = CellConfig().orchestrator.pacing
    print(
        f"\ncurrent defaults: detect_s={base.detect_service_s} "
        f"plan_s={base.plan_service_s} -> "
        f"{mean_minutes(base.detect_service_s, base.plan_service_s):.4f} min"
    )


if __name__ == "__main__":
    main()

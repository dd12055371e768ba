#!/usr/bin/env python3
"""Fit the stochastic fault profile whose stage rates match the reference.

The reference campaign detects, picks and places 96.25 / 86.25 / 82.50 % of
the offered stacks. This script finds the three per-attempt failure
probabilities (detection miss, pick grip, place drop) at which simulated
single-cycle sessions reproduce those rates, and writes them as a config
override, by default to scenarios/stage_rates.json.

The fit is deterministic bisection on fixed seeds, one stage at a time in
chain order (detect, pick, place): while a stage is fitted, the stages after
it fail with probability 0, and each fitted probability is rounded before
the next stage is fitted. Every stage rate falls as its own probability
rises, so each bisection keeps the half whose simulated rate brackets the
target. The fit seeds do not overlap the seeds the acceptance gate runs on.
"""

import argparse
import json
from pathlib import Path

from bagcell.config import ENCLOSURE_COUNT, CellConfig, FaultConfig
from bagcell.report import summarize_campaign
from bagcell.scenarios import REFERENCE_CAMPAIGN
from bagcell.simulate import run_campaign

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "scenarios" / "stage_rates.json"
# Fault field fitted for each stage, in chain order.
STAGES = (
    ("detected", "detection_miss_prob"),
    ("picked", "pick_grip_fail_prob"),
    ("placed", "place_drop_fail_prob"),
)
BASE_SEED = 50_000
STEPS = 12
DECIMALS = 4


def reference_rates() -> tuple:
    """Mean detected/picked/placed rates of the reference campaign, in [0, 1]."""
    offered = len(REFERENCE_CAMPAIGN) * ENCLOSURE_COUNT
    return tuple(sum(column) / offered for column in zip(*REFERENCE_CAMPAIGN))


def simulated_rate(stage: str, probs: dict, cycles: int) -> float:
    """One stage's rate, in [0, 1], over single-cycle sessions on the fit seeds."""
    config = CellConfig(seed=BASE_SEED, faults=FaultConfig(**probs))
    reports = [report for report, _ in run_campaign(config.validate(), range(cycles))]
    summary = summarize_campaign(reports, seed=BASE_SEED, digest="")
    return getattr(summary, f"{stage}_rate_pct") / 100.0


def fit(cycles: int) -> dict:
    probs = {field: 0.0 for _, field in STAGES}
    for (stage, field), target in zip(STAGES, reference_rates()):
        lo, hi = 0.0, 1.0
        for _ in range(STEPS):
            mid = (lo + hi) / 2.0
            probs[field] = mid
            if simulated_rate(stage, probs, cycles) > target:
                lo = mid
            else:
                hi = mid
        probs[field] = round((lo + hi) / 2.0, DECIMALS)
        print(f"{field} = {probs[field]}")
    return probs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=300, help="sessions per evaluation")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    text = json.dumps({"faults": fit(args.cycles)}, indent=2, sort_keys=True) + "\n"
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

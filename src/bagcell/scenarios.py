"""Canned scenarios: the reference replay campaign and statistical models.

The reference campaign is a ten-test regression fixture: a fault script that
pins exactly which slots fail at which step, so replaying it must reproduce
the same detected/picked/placed table on any machine. The statistical model
is the outcome-level counterpart: it draws per-stack stage outcomes at the
campaign's mean rates without running the event engine, which makes large
sample-size checks cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from bagcell.config import ENCLOSURE_COUNT, FaultConfig
from bagcell.devices import FaultScript, ScriptEntry

# Per-test (detected, picked, placed) out of 8 offered stacks. Column sums
# 77 / 69 / 66 over 80 give the reference rates 96.25 / 86.25 / 82.50 %.
REFERENCE_CAMPAIGN: Tuple[Tuple[int, int, int], ...] = (
    (8, 7, 5),
    (8, 8, 8),
    (7, 5, 5),
    (8, 6, 6),
    (8, 8, 8),
    (8, 7, 6),
    (6, 6, 6),
    (8, 8, 8),
    (8, 6, 6),
    (8, 8, 8),
)

REFERENCE_TESTS = len(REFERENCE_CAMPAIGN)
REFERENCE_SLOTS = ENCLOSURE_COUNT


def reference_rates() -> Tuple[float, float, float]:
    """Mean detected/picked/placed rates of the reference campaign, in [0, 1]."""
    offered = REFERENCE_TESTS * REFERENCE_SLOTS
    det = sum(r[0] for r in REFERENCE_CAMPAIGN) / offered
    pick = sum(r[1] for r in REFERENCE_CAMPAIGN) / offered
    place = sum(r[2] for r in REFERENCE_CAMPAIGN) / offered
    return det, pick, place


def build_reference_script(
    detect_attempts: int = 3,
    pick_attempts: int = 3,
    place_attempts: int = 3,
) -> FaultScript:
    """Fault script that forces exactly the reference campaign's outcomes.

    Failing slots sit at the tail of each test: after the fully successful
    slots come the place-exhausted ones, then pick-exhausted, then
    detect-exhausted. A step is exhausted by scripting a failure for every
    one of its retry attempts.
    """
    entries: List[ScriptEntry] = []
    for test, (detected, picked, placed) in enumerate(REFERENCE_CAMPAIGN):
        if not (placed <= picked <= detected <= REFERENCE_SLOTS):
            raise ValueError(f"inconsistent row {test}: {(detected, picked, placed)}")
        slot = placed
        exhausted = (
            ("place", picked - placed, place_attempts),
            ("pick", detected - picked, pick_attempts),
            ("detect", REFERENCE_SLOTS - detected, detect_attempts),
        )
        for action, count, attempts in exhausted:
            for _ in range(count):
                for attempt in range(1, attempts + 1):
                    when = {"action": action, "test": test, "slot": slot, "attempt": attempt}
                    entries.append(ScriptEntry(when=when, outcome="fail"))
                slot += 1
    return FaultScript(entries=entries)


# --- outcome-level statistical model --------------------------------------


@dataclass(frozen=True)
class OutcomeTally:
    cycles: int
    offered: int
    detected: int
    picked: int
    placed: int

    @property
    def detected_rate(self) -> float:
        return self.detected / self.offered if self.offered else 0.0

    @property
    def picked_rate(self) -> float:
        return self.picked / self.offered if self.offered else 0.0

    @property
    def placed_rate(self) -> float:
        return self.placed / self.offered if self.offered else 0.0


def statistical_outcomes(
    n_cycles: int,
    seed: int,
    detected_rate: float | None = None,
    picked_rate: float | None = None,
    placed_rate: float | None = None,
    stacks_per_cycle: int = REFERENCE_SLOTS,
) -> OutcomeTally:
    """Draw i.i.d. per-stack stage outcomes at the given marginal rates.

    Stages are chained: a stack can only be picked if detected, and only be
    placed if picked, with conditional probabilities chosen so the marginal
    rates come out as requested. Rates default to the reference campaign's.
    """
    ref = reference_rates()
    p_det = ref[0] if detected_rate is None else detected_rate
    p_pick = ref[1] if picked_rate is None else picked_rate
    p_place = ref[2] if placed_rate is None else placed_rate
    if not (0.0 <= p_place <= p_pick <= p_det <= 1.0):
        raise ValueError("rates must satisfy 0 <= placed <= picked <= detected <= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n_cycles * stacks_per_cycle
    detected = rng.random(n) < p_det
    pick_cond = p_pick / p_det if p_det > 0 else 0.0
    picked = detected & (rng.random(n) < pick_cond)
    place_cond = p_place / p_pick if p_pick > 0 else 0.0
    placed = picked & (rng.random(n) < place_cond)
    return OutcomeTally(
        cycles=n_cycles,
        offered=n,
        detected=int(detected.sum()),
        picked=int(picked.sum()),
        placed=int(placed.sum()),
    )


def randomized_fault_profile() -> FaultConfig:
    """Moderately harsh stochastic profile for robustness/safety sweeps."""
    return FaultConfig(
        pick_grip_fail_prob=0.15,
        place_drop_fail_prob=0.10,
        detection_miss_prob=0.08,
        detection_jitter_sigma_px=2.0,
        spurious_box_prob=0.03,
        confidence_sigma=0.04,
        bottom_suction_fail_prob=0.05,
        pressure_noise_sigma_kpa=0.8,
        ultrasonic_noise_sigma_cm=0.8,
        plan_failure_prob=0.05,
    )

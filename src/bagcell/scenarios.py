"""Canned scenarios: the reference replay campaign and a fault profile.

The reference campaign is a ten-test regression fixture: a fault script that
pins exactly which slots fail at which step, so replaying it must reproduce
the same detected/picked/placed table on any machine. Its mean rates are the
target that the stochastic profile ``scenarios/stage_rates.json`` is fitted
to (``scripts/fit_stage_rates.py``); only the event engine draws outcomes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from bagcell.config import ENCLOSURE_COUNT, CellConfig, FaultConfig

if TYPE_CHECKING:
    from bagcell.devices import FaultScript

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


def build_reference_script(config: Optional[CellConfig] = None) -> FaultScript:
    """Fault script that forces exactly the reference campaign's outcomes.

    Failing slots sit at the tail of each test: after the fully successful
    slots come the place-exhausted ones, then pick-exhausted, then
    detect-exhausted. A step is exhausted by scripting a failure for every
    one of its retry attempts, as ``config`` caps them (``CellConfig()``'s
    caps by default).
    """
    from bagcell.devices import FaultScript, ScriptEntry  # imported here: only a replay needs it

    o = (config or CellConfig()).orchestrator
    entries: List[ScriptEntry] = []
    for test, (detected, picked, placed) in enumerate(REFERENCE_CAMPAIGN):
        if not (placed <= picked <= detected <= ENCLOSURE_COUNT):
            raise ValueError(f"inconsistent row {test}: {(detected, picked, placed)}")
        slot = placed
        exhausted = (
            ("place", picked - placed, o.place_attempts),
            ("pick", detected - picked, o.pick_attempts),
            ("detect", ENCLOSURE_COUNT - detected, o.detect_attempts),
        )
        for action, count, attempts in exhausted:
            for _ in range(count):
                for attempt in range(1, attempts + 1):
                    when = {"action": action, "test": test, "slot": slot, "attempt": attempt}
                    entries.append(ScriptEntry(when=when, outcome="fail"))
                slot += 1
    return FaultScript(entries=entries)


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

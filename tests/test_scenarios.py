"""Tests for the canned reference campaign and the randomized fault profile."""

from bagcell.config import CellConfig, OrchestratorConfig
from bagcell.scenarios import REFERENCE_CAMPAIGN, build_reference_script, randomized_fault_profile


def test_reference_rows_are_internally_consistent():
    for detected, picked, placed in REFERENCE_CAMPAIGN:
        assert 0 <= placed <= picked <= detected <= 8


def test_reference_rates():
    # Of 80 offered stacks: the headline 96.25 / 86.25 / 82.50 %.
    assert len(REFERENCE_CAMPAIGN) == 10
    assert [sum(column) for column in zip(*REFERENCE_CAMPAIGN)] == [77, 69, 66]


def test_reference_script_entry_budget():
    # One script entry per retry attempt of every failed step, cap 3 each.
    script = build_reference_script()
    place_fails = sum(p - q for _, p, q in REFERENCE_CAMPAIGN)
    pick_fails = sum(d - p for d, p, _ in REFERENCE_CAMPAIGN)
    detect_fails = sum(8 - d for d, _, _ in REFERENCE_CAMPAIGN)
    assert (place_fails, pick_fails, detect_fails) == (3, 8, 3)
    assert len(script.entries) == 3 * (place_fails + pick_fails + detect_fails)
    actions = {e.when["action"] for e in script.entries}
    assert actions <= {"detect", "pick", "place"}
    assert all(e.outcome == "fail" for e in script.entries)
    # Every entry pins test, slot and attempt so nothing can misfire.
    for e in script.entries:
        assert set(e.when) == {"action", "test", "slot", "attempt"}
        assert 1 <= e.when["attempt"] <= 3


def test_reference_script_exhausts_the_configs_caps():
    config = CellConfig(
        orchestrator=OrchestratorConfig(detect_attempts=2, pick_attempts=4, place_attempts=5)
    )
    last = {}
    for e in build_reference_script(config).entries:
        last[e.when["action"]] = max(last.get(e.when["action"], 0), e.when["attempt"])
    assert last == {"detect": 2, "pick": 4, "place": 5}


def test_reference_script_failing_slots_sit_at_the_tail():
    script = build_reference_script()
    by_test = {}
    for e in script.entries:
        by_test.setdefault(e.when["test"], set()).add(e.when["slot"])
    # Test 0 is (8, 7, 5): slots 5 and 6 fail placement, slot 7 fails pick.
    assert by_test[0] == {5, 6, 7}
    # Test 6 is (6, 6, 6): slots 6 and 7 fail detection.
    assert by_test[6] == {6, 7}
    # Fully clean tests have no entries at all.
    assert 1 not in by_test and 4 not in by_test


def test_randomized_profile_is_stochastic_but_bounded():
    prof = randomized_fault_profile()
    for name in prof._fields:
        value = getattr(prof, name)
        assert value >= 0.0
        if name.endswith("_prob"):
            assert value <= 1.0
    # It must actually inject something, or the sweep proves nothing.
    assert prof.pick_grip_fail_prob > 0
    assert prof.plan_failure_prob > 0

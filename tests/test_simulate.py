"""End-to-end tests for the event-driven cell simulation."""

import pytest

from bagcell import devices as dv
from bagcell import orchestrator as orc
from bagcell.config import CellConfig
from bagcell.devices import FaultScript
from bagcell.report import (
    audit_interlocks,
    audit_retry_caps,
    scan_violations,
    summarize_campaign,
    config_digest,
)
from bagcell.scenarios import randomized_fault_profile
from bagcell.simulate import DEVICE_EVENTS, Simulation, run_campaign, run_single


def script(*entries) -> FaultScript:
    return FaultScript.from_dict({
        "version": 1,
        "entries": [{"when": dict(when), "outcome": out} for when, out in entries],
    })


def assert_clean_audits(tracer):
    assert scan_violations(tracer.records) == []
    assert audit_interlocks(tracer.records) == []
    assert audit_retry_caps(tracer.records, {"pick": 3, "place": 3, "detect": 3,
                                             "secure": 3, "remove": 3}) == []


# --- fault-free behaviour -------------------------------------------------


def test_fault_free_cycle_delivers_all_eight():
    report, tracer = run_single(CellConfig(), seed=101, cycles=1)
    assert report.cycles == 1
    assert (report.stacks_offered, report.detected, report.picked,
            report.placed, report.delivered) == (8, 8, 8, 8, 8)
    assert report.failed_unhandled == 0
    assert report.violations == 0
    assert report.pusher_stalls == 0
    assert_clean_audits(tracer)


def test_fault_free_session_empties_the_tote():
    # Default cycle count covers the whole 24-stack tote.
    report, _ = run_single(CellConfig(), seed=777)
    assert report.cycles == 3
    assert report.delivered == 24
    assert report.failed_unhandled == 0
    assert report.violations == 0


def test_phase_durations_are_exact_when_fault_free():
    report, _ = run_single(CellConfig(), seed=5, cycles=1)
    phases = report.phase_durations_s
    assert phases["cutting"] == pytest.approx(15.7, abs=1e-6)
    assert phases["delivery"] == pytest.approx(18.4, abs=1e-6)
    assert phases["removal"] == pytest.approx(38.9025, abs=1e-3)
    assert phases["resetting"] == pytest.approx(2.0, abs=1e-6)


# --- dispatch tables and bus messages ------------------------------------


def test_every_action_and_device_event_type_is_dispatched():
    assert set(orc.Action.__subclasses__()) == set(Simulation._EXECUTORS)
    assert set(dv.DeviceEvent.__subclasses__()) == set(DEVICE_EVENTS)


def test_message_seqs_run_from_zero_per_topic():
    _, tracer = run_single(CellConfig(), seed=21, cycles=2)
    seqs = {}
    for rec in tracer.records:
        if rec.kind == "message":
            seqs.setdefault(rec.data["topic"], []).append(rec.data["seq"])
    assert {"ready_for_picking", "system_reset", "drop", "cycle_finished"} <= set(seqs)
    for topic_seqs in seqs.values():
        assert topic_seqs == list(range(len(topic_seqs)))


# --- determinism ----------------------------------------------------------


def test_same_seed_reproduces_trace_and_report():
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    a_report, a_tracer = run_single(cfg, seed=4242, cycles=2)
    b_report, b_tracer = run_single(cfg, seed=4242, cycles=2)
    assert [r.to_line() for r in a_tracer.records] == \
        [r.to_line() for r in b_tracer.records]
    assert a_report.to_dict() == b_report.to_dict()


def test_different_seeds_diverge_under_noise():
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    _, a_tracer = run_single(cfg, seed=1, cycles=1)
    _, b_tracer = run_single(cfg, seed=2, cycles=1)
    assert [r.to_line() for r in a_tracer.records] != \
        [r.to_line() for r in b_tracer.records]


# --- scripted fault outcomes ----------------------------------------------


def test_scripted_pick_exhaustion_skips_one_stack():
    sc = script(*[({"action": "pick", "cycle": 0, "slot": 0}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=11, cycles=1, script=sc)
    assert (report.detected, report.picked, report.placed, report.delivered) == (8, 7, 7, 7)
    assert report.failed_unhandled == 1
    assert sc.unconsumed() == []
    assert_clean_audits(tracer)


def test_scripted_place_exhaustion_skips_one_stack():
    sc = script(*[({"action": "place", "cycle": 0, "slot": 0}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=12, cycles=1, script=sc)
    assert (report.detected, report.picked, report.placed, report.delivered) == (8, 8, 7, 7)
    assert report.failed_unhandled == 1
    assert sc.unconsumed() == []
    assert_clean_audits(tracer)


def test_scripted_detect_exhaustion_skips_one_stack():
    sc = script(*[({"action": "detect", "cycle": 0, "slot": 0}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=13, cycles=1, script=sc)
    assert report.stacks_offered == 8
    assert (report.detected, report.picked, report.placed, report.delivered) == (7, 7, 7, 7)
    assert report.failed_unhandled == 1
    assert_clean_audits(tracer)


def test_persistent_seal_failure_aborts_the_cut():
    # One enclosure that never seals blocks the cutter, so the whole batch
    # is written off rather than cutting with a loose bag.
    sc = script(*[({"action": "secure", "enclosure": 0}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=14, cycles=1, script=sc)
    assert report.placed == 8
    assert report.delivered == 0
    assert report.failed_unhandled == 8
    assert "removal" not in report.phase_durations_s
    assert "delivery" not in report.phase_durations_s
    assert_clean_audits(tracer)


def test_scripted_pusher_stall_loses_one_delivery():
    sc = script(({"action": "push", "enclosure": 3}, "stall"))
    report, tracer = run_single(CellConfig(), seed=15, cycles=1, script=sc)
    assert report.placed == 8
    assert report.delivered == 7
    assert report.failed_unhandled == 1
    assert report.pusher_stalls == 1
    assert_clean_audits(tracer)


def test_scripted_stuck_bag_jams_one_enclosure():
    sc = script(*[({"action": "remove", "enclosure": 2}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=16, cycles=1, script=sc)
    assert report.placed == 8
    assert report.delivered == 7
    assert report.failed_unhandled == 1
    outcomes = [r.data for r in tracer.records if r.kind == "outcome"]
    assert any(o["kind"] == "remove_failed" and o["enclosure"] == 2 for o in outcomes)
    assert_clean_audits(tracer)


def test_script_entries_are_consumed_most_specific_first_match():
    # Two entries can match the same decision; the earlier one wins and is
    # spent, leaving the later one for the next attempt.
    sc = script(
        ({"action": "pick", "cycle": 0, "slot": 0, "attempt": 1}, "fail"),
        ({"action": "pick", "cycle": 0, "slot": 0}, "ok"),
    )
    report, _ = run_single(CellConfig(), seed=17, cycles=1, script=sc)
    assert report.delivered == 8  # second attempt succeeded
    assert sc.unconsumed() == []


# --- campaigns ------------------------------------------------------------


def test_campaign_runs_fresh_cells_on_consecutive_seeds():
    reports, tracers = run_campaign(CellConfig(), 3, base_seed=900)
    assert [r.seed for r in reports] == [900, 901, 902]
    assert [r.test_index for r in reports] == [0, 1, 2]
    assert all(r.delivered == 8 for r in reports)
    assert len(tracers) == 3


def test_campaign_script_test_selector_scopes_faults():
    sc = script(*[({"action": "pick", "test": 1, "cycle": 0, "slot": 0}, "fail")] * 3)
    reports, _ = run_campaign(CellConfig(), 3, script=sc, base_seed=50)
    assert [r.delivered for r in reports] == [8, 7, 8]
    assert sc.unconsumed() == []


def test_campaign_reports_summarize():
    cfg = CellConfig()
    reports, _ = run_campaign(cfg, 2, base_seed=60)
    summary = summarize_campaign(reports, seed=60, digest=config_digest(cfg.to_json()))
    assert summary.picked_rate_pct == pytest.approx(100.0)
    assert summary.placed_rate_pct == pytest.approx(100.0)
    assert summary.unconsumed_script_entries == 0


def test_unmatched_script_entries_are_reported():
    sc = script(({"action": "pick", "test": 5}, "fail"))
    run_campaign(CellConfig(), 2, script=sc, base_seed=70)
    assert len(sc.unconsumed()) == 1

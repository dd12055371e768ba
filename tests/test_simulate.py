"""End-to-end tests for the event-driven cell simulation."""

import contextlib
import copy
import hashlib
import io
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from bagcell import orchestrator as orc
from bagcell.cli import main
from bagcell.config import CellConfig, ConfigInvalid, FaultConfig
from bagcell.devices import DEVICE_EVENTS, FaultScript
from bagcell.motion import move_duration
from bagcell.report import (
    audit_interlocks,
    audit_retry_caps,
    read_trace,
    scan_violations,
    summarize_campaign,
    summarize_run,
    config_digest,
)
from bagcell.scenarios import REFERENCE_TESTS, build_reference_script, randomized_fault_profile
from bagcell.simulate import Simulation, run_campaign, run_single
from bagcell.vision import Box, CameraModel, observe
from bagcell.world import build_world


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
    bank = Simulation(CellConfig().validate()).bank
    _, secured = bank.command("gripper", "open", 0.0)
    bank.apply(secured)
    returned = [
        secured,
        bank.command("gripper", "close", 1.0)[1],  # well below the threshold, so it is lost
        bank.command("door", "extend", 1.0)[1],
        bank.command("door", "retract", 1.0, failed=True)[1],
    ]
    assert {type(ev) for ev in returned} == set(DEVICE_EVENTS)


# --- supersession: a later command or timer drops what is still queued ----


def drive_machine(monkeypatch, answers, config=None, **sim_args):
    """Run a Simulation whose machine answers events from ``answers``.

    ``answers`` maps an event to the actions returned for it; every event the
    machine receives is logged and returned with the simulation and its report.
    """
    seen = []

    def transition(state, event, params):
        seen.append(event)
        return state, list(answers.get(event, ()))

    monkeypatch.setattr(orc, "transition", transition)
    sim = Simulation((config or CellConfig()).validate(), cycles=1, **sim_args)
    report = sim.run()
    return sim, seen, report


def device_events(sim):
    return [(r.time, r.data["device"], r.data["event"], r.data["op"])
            for r in sim.tracer.records if r.kind == "device_event"]


def test_recommand_supersedes_pending_completion(monkeypatch):
    sim, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Command("swing", "extend"), orc.StartTimer("turn", 0.4)],
        orc.TimerFired("turn"): [orc.Command("swing", "retract")],
    })
    assert device_events(sim) == [(pytest.approx(1.4), "swing", "done", "retract")]
    assert orc.ActDone("swing", "extend") not in seen
    assert seen[-1] == orc.ActDone("swing", "retract")
    assert sim.bank.actuators["swing"].position == 0.0


def test_valve_epoch_invalidates_stale_events(monkeypatch):
    sim, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Command("gripper", "open"), orc.StartTimer("vent", 0.2)],
        orc.TimerFired("vent"): [orc.Command("gripper", "close")],  # before the 0.5 s crossing
    })
    assert device_events(sim) == []
    assert seen == [orc.Start(), orc.TimerFired("vent")]
    assert not sim.bank.suction["gripper"].secured


def test_restarted_or_cancelled_timer_fires_at_most_once(monkeypatch):
    sim, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [
            orc.StartTimer("a", 1.0), orc.StartTimer("a", 2.0),
            orc.StartTimer("b", 1.0), orc.CancelTimer("b"),
        ],
    })
    assert seen == [orc.Start(), orc.TimerFired("a")]
    assert sim.now == 2.0


def test_device_event_reaches_the_machine_after_events_due_with_it(monkeypatch):
    # The door finishes as the timer fires. The completion was queued first,
    # yet control sees it behind everything else due at that instant.
    _, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Command("door", "extend"), orc.StartTimer("t", 2.0)],
    })
    assert seen == [orc.Start(), orc.TimerFired("t"), orc.ActDone("door", "extend")]


def events_and_notes(sim):
    return [(r.time, r.kind, r.data.get("text", "")) for r in sim.tracer.records
            if r.kind in ("device_event", "note")]


def test_device_event_due_alone_reaches_the_machine_at_its_own_instant(monkeypatch):
    # Nothing else is due when the door finishes: the machine gets the
    # completion at once, right after it is applied and traced.
    sim, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Command("door", "extend"), orc.StartTimer("t", 2.5)],
        orc.ActDone("door", "extend"): [orc.Note("door_done")],
        orc.TimerFired("t"): [orc.Note("timer")],
    })
    assert seen == [orc.Start(), orc.ActDone("door", "extend"), orc.TimerFired("t")]
    assert events_and_notes(sim) == [
        (2.0, "device_event", ""), (2.0, "note", "door_done"), (2.5, "note", "timer"),
    ]


def test_device_event_due_with_a_stale_entry_still_reaches_the_machine_once(monkeypatch):
    # A cancelled timer leaves its entry in the heap, due as the door
    # finishes: the completion waits behind it, and the entry is dropped.
    sim, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [
            orc.Command("door", "extend"), orc.StartTimer("t", 2.0), orc.CancelTimer("t"),
        ],
        orc.ActDone("door", "extend"): [orc.Note("door_done")],
    })
    assert seen == [orc.Start(), orc.ActDone("door", "extend")]
    assert events_and_notes(sim) == [(2.0, "device_event", ""), (2.0, "note", "door_done")]
    assert sim.now == 2.0


# Drawn schedules: timers never tie a clock instant (whole seconds), while a
# swing or door move can come due exactly as the clock issues the next batch.
_CLOCK_S = 1.0
_VALVES = ("gripper", "bottom_0")
_SCHEDULED = st.one_of(
    st.builds(orc.StartTimer, st.sampled_from("ab"), st.sampled_from([0.05, 0.35, 0.85, 1.55])),
    st.builds(orc.CancelTimer, st.sampled_from("ab")),
    st.builds(orc.Command, st.sampled_from(_VALVES), st.just("open")),
    st.builds(orc.Command, st.sampled_from(_VALVES), st.just("close")),
    st.builds(orc.Command, st.sampled_from(["swing", "door"]), st.sampled_from(["extend", "retract"])),
)


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(st.lists(_SCHEDULED, min_size=1, max_size=3), min_size=1, max_size=8))
def test_epoch_map_drops_exactly_what_a_later_command_supersedes(batches):
    # The machine answers Start and each clock tick with the next drawn batch.
    pending, issued, seen = iter(batches), [], []

    def transition(state, event, params):
        seen.append((sim.now, event))
        batch = next(pending, None) if event in (orc.Start(), orc.TimerFired("clock")) else None
        if batch is None:
            return state, []
        issued.extend((sim.now, action) for action in batch)
        return state, [*batch, orc.StartTimer("clock", _CLOCK_S)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orc, "transition", transition)
        sim = Simulation(CellConfig().validate(), cycles=1)
        sim.run()

    travel = {"swing": sim.config.devices.swing_travel_s, "door": sim.config.devices.door_travel_s}
    want_timers, want_moves = [], []
    for i, (now, action) in enumerate(issued):
        later = issued[i + 1:]
        if type(action) is orc.StartTimer:
            due = now + action.seconds
            if not any(type(b) in (orc.StartTimer, orc.CancelTimer) and b.tag == action.tag
                       and t < due for t, b in later):
                want_timers.append((due, action.tag))
        elif type(action) is orc.Command and action.op in ("extend", "retract"):
            due = now + travel[action.device]
            if not any(type(b) is orc.Command and b.device == action.device
                       and t < due for t, b in later):
                want_moves.append((due, action.device, action.op))
    fired = [(t, e.tag) for t, e in seen if type(e) is orc.TimerFired and e.tag != "clock"]
    assert sorted(fired) == sorted(want_timers)
    done = [(t, e.device, e.op) for t, e in seen if type(e) is orc.ActDone]
    assert sorted(done) == sorted(want_moves)

    latest, applied = {}, []
    for r in sim.tracer.records:
        if r.kind == "device_cmd":
            latest[r.data["device"]] = r.data["op"]
        elif r.kind == "device_event":
            applied.append((r.time, r.data["device"], r.data["event"]))
            if r.data["device"] in _VALVES:
                edge = latest[r.data["device"]], r.data["event"]
                assert edge in {("open", "secured"), ("close", "lost")}
    answered = [(t, e.device, DEVICE_EVENTS[type(e)]) for t, e in seen if type(e) in DEVICE_EVENTS]
    assert sorted(answered) == sorted(applied)


def test_unknown_move_destination_is_refused(monkeypatch):
    with pytest.raises(ValueError, match="unresolvable move destination"):
        drive_machine(monkeypatch, {orc.Start(): [orc.Move("lost", ("nowhere",))]})


def test_run_that_never_finishes_lasts_until_the_final_clock(monkeypatch):
    sim, _, report = drive_machine(monkeypatch, {
        orc.Start(): [orc.PhaseMark("feeding", "start"), orc.StartTimer("t", 2.5)],
    })
    assert report.duration_s == sim.now == 2.5
    assert (report.cycles, report.phase_durations_s) == (0, {})


# --- planning: the runtime decides each planner attempt -------------------


def drive_plan(monkeypatch, prob, *entries):
    """One approach plan at ``plan_failure_prob`` ``prob`` under ``entries``."""
    cfg = CellConfig(faults=FaultConfig(plan_failure_prob=prob))
    sc = script(*entries)
    sim, seen, _ = drive_machine(
        monkeypatch,
        {orc.Start(): [orc.Plan("approach", {"cycle": 0, "slot": 0})]},
        cfg,
        seed=3,
        script=sc,
    )
    (plan,) = [r for r in sim.tracer.records if r.kind == "plan"]
    assert sc.unconsumed() == []
    return sim, seen, plan.data


def untouched(sim):
    """The run's generator is still where a fresh one on its seed starts."""
    return sim.rng.bit_generator.state == np.random.PCG64(sim.seed).state


def test_scripted_plan_attempts_win_over_the_dice(monkeypatch):
    # The attempt selector names the planner's own attempt.
    sim, seen, plan = drive_plan(monkeypatch, 1.0, *[
        ({"action": "plan", "slot": 0, "attempt": n}, out)
        for n, out in ((1, "fail"), (2, "fail"), (3, "ok"))
    ])
    budget = sim.config.motion.planning_time_budget_s
    assert (plan["ok"], plan["attempts"]) == (True, 3)
    assert plan["penalty_s"] == pytest.approx(2 * budget)
    assert seen[-1] == orc.PlanReady("approach", True)
    assert sim.now == pytest.approx(
        sim.config.orchestrator.pacing.plan_service_s + 2 * budget
    )


def test_plan_at_probability_zero_succeeds_first_time_without_a_draw(monkeypatch):
    sim, seen, plan = drive_plan(monkeypatch, 0.0)
    assert (plan["ok"], plan["attempts"], plan["penalty_s"]) == (True, 1, 0.0)
    assert seen[-1] == orc.PlanReady("approach", True)
    assert untouched(sim)


def test_plan_at_probability_one_exhausts_every_attempt_without_a_draw(monkeypatch):
    sim, seen, plan = drive_plan(monkeypatch, 1.0)
    mot = sim.config.motion
    assert (plan["ok"], plan["attempts"]) == (False, mot.max_planning_attempts)
    assert plan["penalty_s"] == pytest.approx(
        mot.max_planning_attempts * mot.planning_time_budget_s
    )
    assert seen[-1] == orc.PlanReady("approach", False)
    assert untouched(sim)


def test_plan_between_zero_and_one_rolls_the_run_dice(monkeypatch):
    sim, _, plan = drive_plan(monkeypatch, 0.5)
    assert not untouched(sim)
    again, _, replayed = drive_plan(monkeypatch, 0.5)
    assert replayed == plan
    assert again.rng.bit_generator.state == sim.rng.bit_generator.state


def test_message_seqs_run_from_zero_per_topic():
    _, tracer = run_single(CellConfig(), seed=21, cycles=2)
    seqs = {}
    for rec in tracer.records:
        if rec.kind == "message":
            seqs.setdefault(rec.data["topic"], []).append(rec.data["seq"])
    assert {"ready_for_picking", "system_reset", "drop", "cycle_finished"} <= set(seqs)
    for topic_seqs in seqs.values():
        assert topic_seqs == list(range(len(topic_seqs)))


# --- per-run geometry: boxes, depths and leg times computed once ----------

_TURNED = [  # the default camera turned 0.1 rad about its axis and shifted
    [math.cos(0.1), math.sin(0.1), 0.0, 0.02],
    [math.sin(0.1), -math.cos(0.1), 0.0, -0.71],
    [0.0, 0.0, -1.0, 1.10],
    [0.0, 0.0, 0.0, 1.0],
]


def bits(values):
    return [float(v).hex() for v in values]


def per_frame_box(config, camera, stack):
    """A stack's ground-truth box as every frame once drew it: the reference.

    The top centre is laid out row by row (zone ``z`` is row ``z - 1``),
    projected, sized at its depth and then tested against the frame.
    """
    lay = config.layout
    row = stack.zone - 1
    x = (stack.col - (lay.zone_sizes[row] - 1) / 2.0) * lay.col_pitch_m
    y = lay.tote_front_y_m - row * lay.row_pitch_m
    z = lay.tote_top_z_m - row * lay.row_pitch_m * math.sin(math.radians(lay.incline_deg))
    cxp, cyp, depth = camera.project((x, y, z))
    if not (depth > 0.0) or math.isnan(cxp):
        return None
    half_w = 0.5 * lay.stack_top_w_m * camera.fx / depth
    half_h = 0.5 * lay.stack_top_d_m * camera.fy / depth
    if not camera.in_frame(cxp, cyp):
        return None
    return Box(cxp - half_w, cyp - half_h, cxp + half_w, cyp + half_h, 1.0, frame_id=0)


def reference_boxes(config):
    camera = CameraModel.from_config(config.camera)
    boxes = {s.id: per_frame_box(config, camera, s) for s in build_world(config).stacks}
    return {sid: box for sid, box in boxes.items() if box is not None}


@pytest.mark.parametrize("extrinsic", [None, _TURNED], ids=["default", "turned"])
def test_run_geometry_is_the_fresh_projection_bit_for_bit(extrinsic):
    config = CellConfig()
    if extrinsic is not None:
        config.camera = config.camera._replace(extrinsic=extrinsic)
    cell = config.validate()
    want = reference_boxes(config)
    assert sorted(cell.boxes) == sorted(want) == [s.id for s in build_world(config).stacks]
    for sid, box in cell.boxes.items():
        assert bits(box[:5]) == bits(want[sid][:5]) and box[5:] == want[sid][5:]
    fresh = CameraModel.from_config(config.camera)
    assert sorted(cell.depths) == [1, 2, 3, 4]
    for zone, depth in cell.depths.items():
        assert bits([depth]) == bits([fresh.to_camera(config.rim_marker_position(zone))[2]])


@pytest.mark.parametrize(
    "section, name, value",
    [("camera", "cy", 5.4), ("layout", "col_pitch_m", 0.6), ("layout", "col_pitch_m", 1.1)],
    ids=["above-the-frame", "beside-the-frame", "wide-columns"],
)
def test_a_stack_top_outside_the_frame_is_rejected(section, name, value):
    # Such a stack has no box, so no frame would ever show it and the run
    # would go on without it, exit 0. validate() names the first one unseen.
    config = CellConfig()
    setattr(config, section, getattr(config, section)._replace(**{name: value}))
    camera = CameraModel.from_config(config.camera)
    unseen = [s for s in build_world(config).stacks if per_frame_box(config, camera, s) is None]
    with pytest.raises(ConfigInvalid) as info:
        config.validate()
    first = unseen[0]
    assert info.value.field_name == "camera.extrinsic"
    assert info.value.reason == (
        f"puts stack {first.id} (zone {first.zone}, column {first.col}) outside the image"
    )


def test_a_mutated_frame_does_not_change_the_next():
    # Every run on a config shares its Cell, so a frame must not alias its boxes.
    faults = FaultConfig(detection_miss_prob=0.2, detection_jitter_sigma_px=2.0,
                         spurious_box_prob=0.5)

    def frame(cell, zone):
        stacks = build_world(cell.config).zone_stacks(zone)
        return observe(stacks, cell.boxes, cell.camera, np.random.default_rng(7), faults)

    cell, clean = CellConfig().validate(), CellConfig().validate()
    for zone in (1, 2, 3, 4):
        first = frame(cell, zone)
        first.detections.clear()
        first.ground_truth.append(first.ground_truth[0])
        first.detection_sources[:] = [-5]
        assert frame(cell, zone) == frame(clean, zone)


def test_a_config_is_validated_once_per_command_and_builds_one_camera(
    monkeypatch, capsys, tmp_path
):
    # The camera that validate() builds to check the config is every run's camera.
    validated, built = [], []
    validate, init = CellConfig.validate, CameraModel.__init__

    def counted_validate(config):
        validated.append(config)
        return validate(config)

    def counted_init(camera, *args):
        built.append(camera)
        init(camera, *args)

    monkeypatch.setattr(CellConfig, "validate", counted_validate)
    monkeypatch.setattr(CameraModel, "__init__", counted_init)
    cell = CellConfig().validate()
    assert len(list(run_campaign(cell, range(REFERENCE_TESTS)))) == REFERENCE_TESTS == 10
    assert (len(validated), len(built)) == (1, 1)
    run_single(CellConfig(), cycles=1)
    assert (len(validated), len(built)) == (2, 2)
    validated.clear()
    assert main(["replay", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(validated) == 1
    # A config file is read and merged, then validated once, like the defaults.
    config = tmp_path / "cell.json"
    config.write_text('{"seed": 7}')
    for argv in (["run", "--cycles", "1"], ["campaign", "--tests", "2"], ["replay"]):
        validated.clear()
        assert main(argv + ["--config", str(config), "--outdir", str(tmp_path)]) == 0, argv
        capsys.readouterr()
        assert len(validated) == 1, argv


def test_leg_times_come_from_the_one_formula():
    sim = Simulation(CellConfig().validate(), cycles=1)
    sim.run()
    mot = sim.config.motion
    assert len(sim._leg_s) > 5
    for d, seconds in sim._leg_s.items():
        want = move_duration(d, mot.effective_max_speed_mps, mot.effective_acceleration_mps2)
        assert seconds.hex() == want.hex()


def _stream_digest(tracer):
    h = hashlib.sha256()
    for rec in tracer.records:
        h.update(rec.to_line().encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def warm_sweep():
    """Seeds 0-199 of the randomized profile on one shared Cell: the Cell and each trace's digest."""
    cell = CellConfig(faults=randomized_fault_profile()).validate()
    return cell, {
        seed: _stream_digest(run_single(cell, seed=seed, cycles=1)[1])
        for seed in range(200)
    }


def test_a_cells_move_memo_leaves_every_byte_as_a_fresh_cell_writes(warm_sweep):
    cell, warm = warm_sweep
    for seed, digest in warm.items():
        sim = Simulation(CellConfig(faults=randomized_fault_profile()).validate(), seed, cycles=1)
        sim.run()
        assert sim.cell is not cell
        assert _stream_digest(sim.tracer) == digest, seed


def test_the_move_memo_holds_only_moves_from_the_config_poses(warm_sweep):
    cell, _ = warm_sweep
    cfg = cell.config
    lay = cfg.layout
    poses = {tuple(p[:3]) for p in (lay.home_pose, lay.reset_pose, lay.safe_mid_pose,
                                    lay.bin_pose)}
    poses |= {cfg.view_pose(zone) for zone in range(1, len(lay.zone_sizes) + 1)}
    poses |= {cfg.enclosure_drop_pose(i) for i in range(lay.enclosure_count)}
    # Bounded by poses x destinations, not by seeds.
    assert 20 <= len(cell.moves) <= 40
    for (start, dest), (end, *_) in cell.moves.items():
        assert start in poses, (start, dest)
        assert dest[0] != "target", (start, dest)
        assert end in poses, (start, dest)


# --- world mutation -------------------------------------------------------


def test_two_stacks_seated_in_one_enclosure_write_one_violation():
    sim = Simulation(CellConfig().validate(), cycles=1)
    for sid in (2, 5):
        sim._set_stack(orc.SetStack(stack=sid, state="in_enclosure", enclosure=3))
    violations = [r.data for r in sim.tracer.records if r.kind == "violation"]
    assert violations == [
        {"code": "occupant_duplicated", "detail": "enclosure 3 holds stacks 2 and 5"}
    ]
    assert summarize_run(sim.tracer.records, 0, sim.seed, sim.now).violations == 1


def test_an_enclosure_occupant_is_read_off_the_seated_stack():
    sim = Simulation(CellConfig().validate(), cycles=1)
    assert sim.world.occupant(3) is None
    sim._set_stack(orc.SetStack(stack=6, state="in_enclosure", enclosure=3))
    assert sim.world.occupant(3) == 6
    sim._set_stack(orc.SetStack(stack=6, state="delivered"))
    assert sim.world.occupant(3) is None
    assert sim.world.stacks[6].enclosure is None


@pytest.mark.parametrize(
    "action, message",
    [
        (orc.SetStack(stack=4, state="in_enclosure"), "in_enclosure requires an enclosure index"),
        (orc.SetStack(stack=4, state="seated", enclosure=2), "unknown stack state 'seated'"),
        (orc.SetStack(stack=-1, state="seated"), "unknown stack state 'seated'"),
        (orc.SetPackaging(stacks=(4, 5), packaging="sliced"), "unknown packaging 'sliced'"),
    ],
    ids=["no_index", "unknown_state", "unknown_state_no_stack", "unknown_packaging"],
)
def test_in_enclosure_without_an_index_is_refused_and_changes_nothing(action, message):
    # Each update is checked before it touches the world or the trace.
    sim = Simulation(CellConfig().validate(), cycles=1)
    before = [copy.copy(s) for s in sim.world.stacks]
    with pytest.raises(ValueError, match=message):
        Simulation._EXECUTORS[type(action)](sim, action)
    assert sim.world.stacks == before
    assert sim.tracer.records == []


# --- determinism ----------------------------------------------------------


def test_same_seed_reproduces_trace_and_report():
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    a_report, a_tracer = run_single(cfg, seed=4242, cycles=2)
    b_report, b_tracer = run_single(cfg, seed=4242, cycles=2)
    assert [r.to_line() for r in a_tracer.records] == \
        [r.to_line() for r in b_tracer.records]
    assert a_report.to_dict() == b_report.to_dict()


# SHA-256 of the default 3-cycle session's trace lines joined by "\n": 1,330
# records, 24 of 24 stacks delivered.
FAULT_FREE_SESSION_SHA256 = "3e8be5018bbba9e8ce49087a1184f6c39daceba08851a363e2da3e99bdba5280"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64))
@example(seed=0)
@example(seed=1)
@example(seed=999)
def test_a_fault_free_session_writes_the_same_trace_on_every_seed(seed):
    # The default config draws nothing that can move an event: every fault
    # probability and noise sigma is 0. Blaming a fault by re-simulating a run
    # without it rests on this.
    cfg = CellConfig()
    assert set(cfg.faults) == {0.0}
    report, tracer = run_single(cfg, seed=seed)
    assert (len(tracer.records), report.delivered, report.cycles) == (1330, 24, 3)
    text = "\n".join(rec.to_line() for rec in tracer.records)
    assert hashlib.sha256(text.encode()).hexdigest() == FAULT_FREE_SESSION_SHA256


def test_different_seeds_diverge_under_noise():
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    _, a_tracer = run_single(cfg, seed=1, cycles=1)
    _, b_tracer = run_single(cfg, seed=2, cycles=1)
    assert [r.to_line() for r in a_tracer.records] != \
        [r.to_line() for r in b_tracer.records]


# SHA-256 of the reference replay's output files and of three randomized
# single cycles (trace lines, then the report), recorded before the device
# bank's events moved onto the runtime's queue. Seeds 32 and 44 each contain
# device events that a later command superseded.
REPLAY_SHA256 = "3646afe1f4ffba75468b892ef491b557bb4106edfa1b90546ab144e6b72c3188"
CYCLE_SHA256 = {
    0: "3650ec83fc2b0ba33b88a0926edf5d7ac4c27ace5419c4685b7a9a236ca3cbaa",
    32: "2373cd311a72da448aa01c5d9512e8cd3617d95a0d8a5cc79d68138c60801b44",
    44: "aa53eefe1780556c8719dde554d95c597652f618e4ede537747a8a8ea68c8f68",
}


def test_outputs_match_recorded_bytes(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["replay", "--outdir", str(tmp_path)]) == 0
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == REPLAY_SHA256
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    for seed, want in CYCLE_SHA256.items():
        report, tracer = run_single(cfg, seed=seed, cycles=1)
        h = hashlib.sha256()
        for rec in tracer.records:
            h.update(rec.to_line().encode() + b"\n")
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == want, seed


def test_replay_report_rows_read_back_off_the_written_traces(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["replay", "--outdir", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["tests"]
    assert len(rows) == REFERENCE_TESTS
    for i, row in enumerate(rows):
        records = read_trace(tmp_path / f"trace_{i:02d}.jsonl")
        report = summarize_run(records, i, CellConfig().seed + i, records[-1].time)
        assert report.to_dict() == row, i


@pytest.mark.parametrize("seed", [0, 32, 44])
def test_cycle_report_is_read_off_its_trace(seed):
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    report, tracer = run_single(cfg, seed=seed, cycles=1)
    records = tracer.records
    assert summarize_run(records, 0, seed, records[-1].time).to_dict() == report.to_dict()


def test_every_device_event_answers_the_latest_command_on_its_device():
    # A device event that a later command superseded must never reach the
    # trace: "secured" follows an open, "lost" a close, and "done" or
    # "stalled" the actuator op last commanded.
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    traces = [run_single(cfg, seed=seed, cycles=1)[1] for seed in (32, 44)]
    cell = CellConfig().validate()
    campaign = run_campaign(cell, range(REFERENCE_TESTS), script=build_reference_script())
    traces += [t for _, t in campaign]
    answers = {"secured": "open", "lost": "close"}
    checked = 0
    for tracer in traces:
        latest = {}
        for rec in tracer.records:
            if rec.kind == "device_cmd":
                latest[rec.data["device"]] = rec.data["op"]
            elif rec.kind == "device_event":
                d = rec.data
                assert latest[d["device"]] == answers.get(d["event"], d["op"]), rec
                checked += 1
    assert checked > 0


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
    sim = Simulation(CellConfig().validate(), seed=12, cycles=1, script=sc)
    report, tracer = sim.run(), sim.tracer
    assert (report.detected, report.picked, report.placed, report.delivered) == (8, 8, 7, 7)
    assert report.failed_unhandled == 1
    assert sc.unconsumed() == []
    assert_clean_audits(tracer)
    assert [s.state for s in sim.world.stacks if not s.seated] == ["failed_unhandled"]


def test_scripted_detect_exhaustion_skips_one_stack():
    sc = script(*[({"action": "detect", "cycle": 0, "slot": 0}, "fail")] * 3)
    report, tracer = run_single(CellConfig(), seed=13, cycles=1, script=sc)
    assert report.stacks_offered == 8
    assert (report.detected, report.picked, report.placed, report.delivered) == (7, 7, 7, 7)
    assert report.failed_unhandled == 1
    assert_clean_audits(tracer)


def test_scripted_detect_ok_pins_a_frame_and_stall_forces_a_miss():
    # A scripted outcome pins its action; any outcome but "ok" is a failure.
    cfg = CellConfig(faults=FaultConfig(detection_miss_prob=1.0))
    sc = script(({"action": "detect", "slot": 0, "attempt": 1}, "ok"))
    report, tracer = run_single(cfg, seed=13, cycles=1, script=sc)
    frame = next(r.data for r in tracer.records if r.kind == "detect")
    assert (frame["boxes"] > 0, frame["found"], frame["forced_miss"]) == (True, True, False)
    assert report.detected == 1
    assert sc.unconsumed() == []

    sc = script(*[({"action": "detect", "cycle": 0, "slot": 0}, "stall")] * 3)
    report, tracer = run_single(CellConfig(), seed=13, cycles=1, script=sc)
    frames = [r.data for r in tracer.records if r.kind == "detect"][:3]
    assert [(f["boxes"], f["forced_miss"]) for f in frames] == [(0, True)] * 3
    assert (report.detected, report.failed_unhandled) == (7, 1)
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


def test_a_reseat_of_a_still_secured_gripper_is_answered(monkeypatch):
    # A scripted place fail sends the machine to reseat once the release
    # settle and the placement window are over (5 s). From -400 kPa the
    # released gripper takes 370 / 60 s to cross the -30 kPa threshold, so
    # the reseat reopens it while it is still secured. That reopen must answer
    # SuctionSecured at once, or the machine waits in RESEAT_GRIPPING on an
    # empty queue.
    cfg = CellConfig.from_dict({"devices": {"vacuum_level_kpa": -400.0}})
    sc = script(({"action": "place", "slot": 0}, "fail"))
    sim = Simulation(cfg.validate(), cycles=1, script=sc)
    seated = []
    device = Simulation._device

    def device_then_note_seating(sim, action):
        device(sim, action)
        if action.fault_action == "place":
            seated.append(sim.world.stacks[action.ctx["stack"]].seated)

    monkeypatch.setitem(Simulation._EXECUTORS, orc.Command, device_then_note_seating)
    report, tracer = sim.run(), sim.tracer
    assert report.cycles == 1
    assert report.placed == 8
    assert tracer.records[-1].data["text"] == "session_done"
    assert_clean_audits(tracer)
    # The failed decision unseats the stack; the reseat's decision seats it again.
    assert seated[:2] == [False, True]
    assert all(s.seated for s in sim.world.stacks)

    records = tracer.records
    retry = next(i for i, r in enumerate(records) if r.data.get("text") == "placement_retry")
    reopen = next(
        i for i in range(retry, len(records))
        if records[i].kind == "device_cmd"
        and records[i].data == {"device": "gripper", "op": "open", "mode": "seal"}
    )
    gripper_edges = [
        r.data["event"] for r in records[:reopen]
        if r.kind == "device_event" and r.data["device"] == "gripper"
    ]
    assert gripper_edges[-1] == "secured"  # the release's SuctionLost never came
    answer = records[reopen + 1]
    assert (answer.time, answer.kind, answer.data["device"], answer.data["event"]) == (
        records[reopen].time, "device_event", "gripper", "secured"
    )


def test_a_placement_window_equal_to_the_ramp_seats_every_stack():
    # The shortest window the config accepts: the bottom line crosses the
    # secure threshold at the instant the verify timer fires, and the rank-0
    # SuctionSecured is applied before the seat is checked.
    cfg = CellConfig.from_dict({"devices": {"placement_window_s": 0.5, "ramp_to_secure_s": 0.5}})
    report, tracer = run_single(cfg, cycles=1)
    assert (report.placed, report.delivered) == (8, 8)
    assert_clean_audits(tracer)
    records = tracer.records
    opened = next(
        r.time for r in records
        if r.kind == "device_cmd" and r.data["device"] == "bottom_0" and r.data["op"] == "open"
    )
    edge = next(
        i for i, r in enumerate(records)
        if r.kind == "device_event" and r.data["device"] == "bottom_0"
    )
    check = next(
        i for i, r in enumerate(records)
        if r.kind == "sensor" and r.data == {"kind": "ultrasonic", "enclosure": 0, "present": True}
    )
    assert records[edge].data["event"] == "secured"
    assert edge < check
    assert records[edge].time == records[check].time == opened + 0.5
    with pytest.raises(ConfigInvalid) as exc:
        CellConfig.from_dict(
            {"devices": {"placement_window_s": math.nextafter(0.5, 0.0)}}
        ).validate()
    assert exc.value.field_name == "devices.placement_window_s"


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
    cell = CellConfig(seed=900).validate()
    reports, tracers = zip(*run_campaign(cell, range(3)))
    assert [r.seed for r in reports] == [900, 901, 902]
    assert [r.test_index for r in reports] == [0, 1, 2]
    assert all(r.delivered == 8 for r in reports)
    assert len(tracers) == 3
    # A share of the tests, in any order, runs each as the whole campaign does.
    assert [r for r, _ in run_campaign(cell, [2, 0])] == [reports[2], reports[0]]


def test_campaign_script_test_selector_scopes_faults():
    sc = script(*[({"action": "pick", "test": 1, "cycle": 0, "slot": 0}, "fail")] * 3)
    reports = [r for r, _ in run_campaign(CellConfig(seed=50).validate(), range(3), script=sc)]
    assert [r.delivered for r in reports] == [8, 7, 8]
    assert sc.unconsumed() == []


def test_campaign_reports_summarize():
    cfg = CellConfig(seed=60)
    reports = [r for r, _ in run_campaign(cfg.validate(), range(2))]
    summary = summarize_campaign(reports, seed=60, digest=config_digest(cfg.to_json()))
    assert summary.picked_rate_pct == pytest.approx(100.0)
    assert summary.placed_rate_pct == pytest.approx(100.0)
    assert summary.unconsumed_script_entries == 0


def test_unmatched_script_entries_are_reported():
    sc = script(({"action": "pick", "test": 5}, "fail"))
    list(run_campaign(CellConfig(seed=70).validate(), range(2), script=sc))
    assert len(sc.unconsumed()) == 1

"""Unit tests for the pure control-logic state machine."""

import ast
import enum
import hashlib
import inspect
import json
import random
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagcell import orchestrator
from bagcell.config import ENCLOSURE_COUNT, CellConfig
from bagcell.orchestrator import (
    ActDone,
    ActStalled,
    Action,
    BusMsg,
    CancelTimer,
    Command,
    Detect,
    DetectReady,
    Event,
    MarkOutcome,
    MotionDone,
    Move,
    Note,
    OrcParams,
    OrcState,
    PhaseMark,
    Plan,
    PlanReady,
    Publish,
    ReadUltrasonic,
    SetPackaging,
    SetStack,
    StartTimer,
    Start,
    STEPS,
    Sub,
    SuctionLost,
    SuctionSecured,
    TimerFired,
    UltrasonicRead,
    transition,
)
from bagcell.motion import Profile
from bagcell.vision import ConfusionCounts, DetectionMetrics
from bagcell.world import PACKAGINGS, STACK_STATES, Violation

PARAMS = OrcParams.from_config(CellConfig(), cycles=1)


def fsm(**kw) -> OrcState:
    return OrcState()._replace(**kw)


def drive(state, events, params=PARAMS):
    """Apply events in order, returning the final state and all actions."""
    actions = []
    for ev in events:
        state, acts = transition(state, ev, params)
        actions.extend(acts)
    return state, actions


def kinds(actions, cls):
    return [a for a in actions if isinstance(a, cls)]


# --- basics ---------------------------------------------------------------


def test_each_param_is_declared_by_exactly_one_config_section():
    # from_config takes the first section that has the name, so a second
    # section declaring it would silently shadow or be shadowed.
    cfg = CellConfig()
    sections = (cfg.devices, cfg.orchestrator.pacing, cfg.orchestrator)
    for name in OrcParams._fields:
        if name in ("zones", "cycles"):
            continue
        owners = [s for s in sections if name in s._fields]
        assert len(owners) == 1, name
        assert getattr(PARAMS, name) == getattr(owners[0], name)


def test_initial_state_is_idle():
    s = OrcState()
    assert s.sub is Sub.IDLE
    assert s.cycle == 0 and s.slot == 0 and s.zone == 1
    assert s.occupants == ()


def test_start_announces_and_waits_for_feed_message():
    s, acts = transition(OrcState(), Start(), PARAMS)
    assert s.sub is Sub.AWAIT_FEED_MSG
    assert acts == [
        Publish(topic="system_ready", payload={}),
        PhaseMark(phase="feeding", edge="start"),
        Publish(topic="ready_for_picking", payload={"cycle": 0}),
    ]


def test_transition_is_pure():
    # Same inputs twice must give identical outputs; the function may not
    # keep hidden state between calls.
    cases = [
        (OrcState(), Start()),
        (fsm(sub=Sub.AWAIT_FEED_MSG), BusMsg(topic="ready_for_picking")),
        (fsm(sub=Sub.GRIPPING, target=5), SuctionSecured(device="gripper")),
        (
            fsm(sub=Sub.VERIFY_CHECK, slot=2, target=9,
                secured=frozenset({"bottom_2"})),
            UltrasonicRead(enclosure=2, present=True),
        ),
    ]
    for state, event in cases:
        first = transition(state, event, PARAMS)
        second = transition(state, event, PARAMS)
        assert first == second


def test_unexpected_events_are_no_ops():
    cases = [
        (OrcState(), TimerFired(tag="grip_timeout")),
        (OrcState(), MotionDone(tag="return")),
        (fsm(sub=Sub.AWAIT_FEED_MSG), BusMsg(topic="drop")),
        (fsm(sub=Sub.AWAIT_DETECT), MotionDone(tag="slot_view")),
        (fsm(sub=Sub.GRIPPING), UltrasonicRead(enclosure=0, present=True)),
        (fsm(sub=Sub.DONE), Start()),
        (fsm(sub=Sub.PUSHING), DetectReady(zone=1, zone_has_stacks=True, found=True)),
    ]
    for state, event in cases:
        new_state, acts = transition(state, event, PARAMS)
        assert new_state == state
        assert acts == []


def test_suction_events_update_seal_bookkeeping_everywhere():
    # Seal state is tracked even in substates that do not react to it.
    s = fsm(sub=Sub.VERIFY_WAIT, slot=0)
    s, acts = transition(s, SuctionSecured(device="bottom_0"), PARAMS)
    assert "bottom_0" in s.secured
    assert acts == []
    s, acts = transition(s, SuctionLost(device="bottom_0"), PARAMS)
    assert "bottom_0" not in s.secured
    assert acts == []


def test_every_sub_state_but_done_has_a_row():
    # A sub-state without a row would be a dead end: no event could leave it.
    assert {sub for sub, _ in STEPS} == set(Sub) - {Sub.DONE}


def test_every_row_awaits_an_event_or_an_event_type():
    for sub, awaited in STEPS:
        assert isinstance(sub, Sub)
        if isinstance(awaited, type):
            assert issubclass(awaited, Event), (sub, awaited)
        else:
            assert isinstance(awaited, Event), (sub, awaited)


# --- events and actions as tuple records ----------------------------------

EVENT_TYPES = [c for c in Event.__subclasses__() if c.__module__ == Event.__module__]
RECORD_TYPES = EVENT_TYPES + Action.__subclasses__()


def example(cls):
    """A record of ``cls`` with placeholder values in its required fields."""
    return cls(*range(len(cls._fields) - len(cls._field_defaults)))


@pytest.mark.parametrize("a, b", [
    (MotionDone("x"), TimerFired("x")),
    (SuctionSecured("d"), SuctionLost("d")),
    (ActDone("d", "op"), ActStalled("d", "op")),
])
def test_records_of_two_types_with_equal_fields_differ(a, b):
    assert tuple(a) == tuple(b)
    assert a != b and b != a
    assert not (a == b or b == a)
    assert len({a, b}) == 2
    assert a == type(a)(*a) and not a != type(a)(*a)


def test_an_exact_row_ignores_another_event_type_with_the_same_fields():
    checked = 0
    for (sub, awaited), _ in STEPS.items():
        if isinstance(awaited, type):
            continue
        for cls in EVENT_TYPES:
            if cls is type(awaited) or cls in sub.rows or len(cls._fields) != len(awaited):
                continue
            state = fsm(sub=sub)
            after, acts = transition(state, cls(*awaited), PARAMS)
            assert acts == [], (sub, cls)
            # Only a seal event's own bookkeeping may move.
            assert after._replace(secured=state.secured) == state, (sub, cls)
            checked += 1
    assert checked > 100


# Every other immutable record in the package is a NamedTuple too.
TUPLE_RECORDS = RECORD_TYPES + [
    OrcState, OrcParams, Violation, ConfusionCounts, DetectionMetrics, Profile,
]


@pytest.mark.parametrize("cls", TUPLE_RECORDS, ids=lambda c: c.__name__)
def test_records_are_immutable_and_keep_no_dict(cls):
    record = example(cls)
    assert not hasattr(record, "__dict__")
    for name in cls._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert record == cls(**record._asdict())
    assert repr(record).startswith(f"{cls.__name__}(")
    # Placeholders in every field, so mapping defaults do not make it unhashable.
    full = cls(*range(len(cls._fields)))
    assert hash(full) == hash(cls(*full))
    for i, name in enumerate(cls._fields):
        copied = full._replace(**{name: "new"})
        assert getattr(copied, name) == "new"
        assert copied[:i] + copied[i + 1:] == full[:i] + full[i + 1:]
        assert full == cls(*range(len(cls._fields)))


def _frozen_dataclasses(source):
    """Names of the classes in ``source`` decorated ``dataclass(frozen=True)``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for deco in node.decorator_list
        if isinstance(deco, ast.Call)
        and getattr(deco.func, "id", getattr(deco.func, "attr", None)) == "dataclass"
        and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value
            for kw in deco.keywords
        )
    ]


def test_no_immutable_record_is_a_frozen_dataclass():
    # One record idiom: an immutable record is a tuple record, never a frozen dataclass.
    assert _frozen_dataclasses("@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n")
    package = Path(orchestrator.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _frozen_dataclasses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


@pytest.mark.parametrize("cls, name", [
    (Publish, "payload"), (Detect, "ctx"), (Plan, "ctx"),
    (Command, "ctx"), (Note, "data"),
])
def test_mapping_defaults_are_read_only_and_empty(cls, name):
    value = getattr(example(cls), name)
    assert isinstance(value, MappingProxyType) and len(value) == 0
    with pytest.raises(TypeError):
        value["k"] = 1
    assert len(getattr(example(cls), name)) == 0


def test_each_sub_state_rows_are_its_steps_rows():
    for sub in Sub:
        want = [(awaited, step) for (s, awaited), step in STEPS.items() if s is sub]
        got = list(sub.rows.items())
        assert len(got) == len(want), sub
        for (got_key, got_step), (want_key, want_step) in zip(got, want):
            assert type(got_key) is type(want_key) and got_key == want_key, sub
            assert got_step is want_step, sub
    assert Sub.DONE.rows == {}


def test_every_stack_word_the_machine_emits_is_the_worlds():
    # Read off the code, so a misspelled word fails here even on a branch no run reaches.
    # Both records take their word as the second field, by keyword or by position.
    words = {"SetStack": ("state", STACK_STATES), "SetPackaging": ("packaging", PACKAGINGS)}
    seen = dict.fromkeys(words, 0)
    for node in ast.walk(ast.parse(inspect.getsource(orchestrator))):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in words):
            continue
        field, allowed = words[node.func.id]
        given = [kw.value for kw in node.keywords if kw.arg == field] + node.args[1:2]
        assert len(given) == 1, ast.unparse(node)
        assert isinstance(given[0], ast.Constant) and given[0].value in allowed, ast.unparse(node)
        seen[node.func.id] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", ["phase", "bogus"])
def test_state_copy_rejects_an_unknown_field(name):
    with pytest.raises(ValueError):
        OrcState()._replace(**{name: 1})
    with pytest.raises(TypeError):
        OrcState(**{name: 1})


# Drawn states. ``sub`` and ``secured`` sit beside fields of other types, so a
# direct copy that splices either in at the wrong index cannot come out equal.
_ENCLOSURE_SETS = st.frozensets(st.integers(0, ENCLOSURE_COUNT - 1))
_SEAL_SETS = st.frozensets(st.sampled_from(["gripper"] + [f"bottom_{i}" for i in range(8)]))
STATES = st.fixed_dictionaries({
    "sub": st.sampled_from(Sub),
    **{name: st.integers(-1, 30) for name in (
        "cycle", "slot", "zone", "target", "detect_attempt", "pick_attempt",
        "place_attempt", "secure_attempt", "remove_attempt", "removal_idx", "verify_idx",
    )},
    "tote_done": st.booleans(),
    "secured": _SEAL_SETS,
    "occupants": st.lists(st.tuples(st.integers(0, 7), st.integers(0, 23)), max_size=8).map(tuple),
    "unbagged": _ENCLOSURE_SETS,
    "stalled": _ENCLOSURE_SETS,
    "push_pending": _ENCLOSURE_SETS,
}).map(lambda fields: OrcState(*(fields[name] for name in OrcState._fields)))


@settings(max_examples=200, deadline=None)
@given(STATES, st.sampled_from(Sub), _SEAL_SETS)
def test_direct_state_copies_equal_their_replace(state, sub, secured):
    at, sealed = orchestrator._at(state, sub), orchestrator._secured(state, secured)
    assert type(at) is type(sealed) is OrcState
    assert at == state._replace(sub=sub)
    assert sealed == state._replace(secured=secured)


# --- feeding: detect ------------------------------------------------------


def test_feed_message_moves_to_view_pose():
    s = fsm(sub=Sub.AWAIT_FEED_MSG, zone=1)
    s, acts = transition(s, BusMsg(topic="ready_for_picking"), PARAMS)
    assert s.sub is Sub.TO_VIEW
    assert acts == [Move(tag="slot_view", dest=("view", 1))]


def test_arrival_at_view_triggers_detection():
    s = fsm(sub=Sub.TO_VIEW, zone=2)
    s, acts = transition(s, MotionDone(tag="slot_view"), PARAMS)
    assert s.sub is Sub.AWAIT_DETECT
    assert s.detect_attempt == 1
    assert len(acts) == 1 and isinstance(acts[0], Detect)
    assert acts[0].zone == 2
    assert acts[0].ctx["attempt"] == 1


def test_detect_retries_then_fails_the_leftmost_stack():
    s = fsm(sub=Sub.TO_VIEW, zone=1)
    miss = DetectReady(zone=1, zone_has_stacks=True, found=False, leftmost_stack_id=2)
    s, _ = transition(s, MotionDone(tag="slot_view"), PARAMS)
    s, acts = transition(s, miss, PARAMS)
    assert s.detect_attempt == 2 and isinstance(acts[0], Detect)
    s, acts = transition(s, miss, PARAMS)
    assert s.detect_attempt == 3
    s, acts = transition(s, miss, PARAMS)
    assert s.sub is Sub.RETURNING
    assert MarkOutcome(kind="detect_failed", stack=2, enclosure=-1) in acts
    assert SetStack(stack=2, state="failed_unhandled") in acts
    assert Move(tag="return", dest=("home_via_mid",)) in acts


def test_empty_zone_advances_and_empty_tote_returns_home():
    s = fsm(sub=Sub.AWAIT_DETECT, zone=1, detect_attempt=1)
    s, acts = transition(s, DetectReady(zone=1, zone_has_stacks=False, found=False), PARAMS)
    assert s.zone == 2 and s.sub is Sub.TO_VIEW and s.detect_attempt == 0
    assert acts == [Move(tag="zone_shift", dest=("view", 2))]

    s = fsm(sub=Sub.AWAIT_DETECT, zone=4, detect_attempt=1)
    s, acts = transition(s, DetectReady(zone=4, zone_has_stacks=False, found=False), PARAMS)
    assert s.tote_done
    assert s.sub is Sub.RETURNING
    assert acts == [Move(tag="return", dest=("home_via_mid",))]


# --- feeding: pick / place ------------------------------------------------

SLOT_EVENTS = [
    BusMsg(topic="ready_for_picking"),
    MotionDone(tag="slot_view"),
    DetectReady(zone=1, zone_has_stacks=True, found=True, stack_id=3),
    PlanReady(tag="approach", ok=True),
    MotionDone(tag="approach"),
    SuctionSecured(device="gripper"),
    TimerFired(tag="grip_settle"),
    PlanReady(tag="transfer", ok=True),
    MotionDone(tag="transfer"),
    TimerFired(tag="release"),
    SuctionSecured(device="bottom_0"),
    TimerFired(tag="verify"),
    UltrasonicRead(enclosure=0, present=True),
]


def test_clean_slot_walkthrough():
    s, acts = drive(fsm(sub=Sub.AWAIT_FEED_MSG), SLOT_EVENTS)
    assert s.sub is Sub.RETURNING
    assert s.occupants == ((0, 3),)
    marks = [a.kind for a in kinds(acts, MarkOutcome)]
    assert marks == ["detected", "picked", "placed"]
    assert Publish(topic="suction_cmd", payload={"device": "gripper", "on": True}) in acts
    assert SetStack(stack=3, state="held") in acts
    assert SetStack(stack=3, state="in_enclosure", enclosure=0) in acts
    assert Publish(topic="drop", payload={"enclosure": 0, "stack": 3}) in acts
    assert Publish(topic="placement_verified", payload={"enclosure": 0, "stack": 3}) in acts
    # The bottom valve opens for seating and closes once verified.
    assert Command(device="bottom_0", op="open", fault_action="place",
                   ctx={"cycle": 0, "slot": 0, "stack": 3, "enclosure": 0, "attempt": 1}) in acts
    assert Command(device="bottom_0", op="close") in acts
    # Then the next slot starts from the same zone.
    s, acts = transition(s, MotionDone(tag="return"), PARAMS)
    assert s.slot == 1 and s.sub is Sub.TO_VIEW
    assert acts == [Move(tag="slot_view", dest=("view", 1))]
    assert s.pick_attempt == 0 and s.place_attempt == 0 and s.detect_attempt == 0


def test_grip_timeout_retries_via_reset_pose():
    s = fsm(sub=Sub.GRIPPING, target=5, pick_attempt=0)
    s, acts = transition(s, TimerFired(tag="grip_timeout"), PARAMS)
    assert s.sub is Sub.TO_RESET and s.pick_attempt == 1
    assert acts == [Command(device="gripper", op="close"), Move(tag="to_reset", dest=("reset",))]
    s, acts = transition(s, MotionDone(tag="to_reset"), PARAMS)
    assert s.sub is Sub.TO_VIEW
    assert acts == [Move(tag="reset_view", dest=("view", 1))]


def test_grip_timeout_exhaustion_fails_the_stack():
    s = fsm(sub=Sub.GRIPPING, target=5, pick_attempt=2)
    s, acts = transition(s, TimerFired(tag="grip_timeout"), PARAMS)
    assert s.sub is Sub.RETURNING
    assert MarkOutcome(kind="pick_failed", stack=5, enclosure=-1) in acts
    assert SetStack(stack=5, state="failed_unhandled") in acts


def test_failed_approach_plan_retries_from_view():
    # The arm never moved, so the retry goes straight to a fresh frame.
    s = fsm(sub=Sub.PLANNING_APPROACH, target=5, pick_attempt=0)
    s, acts = transition(s, PlanReady(tag="approach", ok=False), PARAMS)
    assert s.sub is Sub.AWAIT_DETECT and s.pick_attempt == 1
    assert len(acts) == 1 and isinstance(acts[0], Detect)


def test_failed_transfer_plan_puts_the_stack_back():
    s = fsm(sub=Sub.PLANNING_TRANSFER, target=5, pick_attempt=0)
    s, acts = transition(s, PlanReady(tag="transfer", ok=False), PARAMS)
    assert s.sub is Sub.TO_RESET and s.pick_attempt == 1
    assert SetStack(stack=5, state="in_tote") in acts
    assert Move(tag="to_reset", dest=("reset",)) in acts


def test_unseated_placement_reseats_then_succeeds():
    s = fsm(sub=Sub.VERIFY_CHECK, slot=1, target=7,
            secured=frozenset({"bottom_1"}))
    # Present reading but without a bottom seal would also fail; here the
    # ultrasonic says the enclosure is empty.
    s, acts = transition(s, UltrasonicRead(enclosure=1, present=False), PARAMS)
    assert s.sub is Sub.RESEAT_GRIPPING and s.place_attempt == 1
    assert Note(text="placement_retry", data={"enclosure": 1}) in acts
    assert Command(device="bottom_1", op="close") in acts
    assert Command(device="gripper", op="open") in acts
    s, acts = transition(s, SuctionSecured(device="gripper"), PARAMS)
    assert s.sub is Sub.RESEAT_MOVING
    assert SetStack(stack=7, state="held") in acts
    s, acts = transition(s, MotionDone(tag="reseat"), PARAMS)
    assert s.sub is Sub.RELEASING
    assert SetStack(stack=7, state="in_enclosure", enclosure=1) in acts


def test_placement_exhaustion_fails_the_stack():
    s = fsm(sub=Sub.VERIFY_CHECK, slot=1, target=7, place_attempt=2)
    s, acts = transition(s, UltrasonicRead(enclosure=1, present=False), PARAMS)
    assert s.sub is Sub.RETURNING
    assert MarkOutcome(kind="place_failed", stack=7, enclosure=1) in acts
    assert SetStack(stack=7, state="failed_unhandled") in acts
    assert (1, 7) not in s.occupants


def test_last_slot_return_enters_cutting():
    s = fsm(sub=Sub.RETURNING, slot=7)
    s, acts = transition(s, MotionDone(tag="return"), PARAMS)
    assert s.sub is Sub.CUT_SWING
    assert acts == [
        PhaseMark(phase="feeding", edge="end"),
        PhaseMark(phase="cutting", edge="start"),
        Command(device="swing", op="extend"),
    ]


def test_early_empty_tote_also_enters_cutting():
    s = fsm(sub=Sub.RETURNING, slot=2, tote_done=True)
    s, acts = transition(s, MotionDone(tag="return"), PARAMS)
    assert s.sub is Sub.CUT_SWING
    assert PhaseMark(phase="cutting", edge="start") in acts


# --- cutting --------------------------------------------------------------


def test_swing_down_opens_all_bottom_valves():
    s = fsm(sub=Sub.CUT_SWING, occupants=((0, 0), (1, 4)))
    s, acts = transition(s, ActDone(device="swing", op="extend"), PARAMS)
    assert s.sub is Sub.CUT_SECURING and s.secure_attempt == 1
    opens = [c for c in kinds(acts, Command) if c.op == "open"]
    assert [o.device for o in opens] == [f"bottom_{i}" for i in range(8)]
    # Occupied enclosures can fail to seal against the bag; empty ones cannot.
    assert opens[0].fault_action == "secure" and opens[1].fault_action == "secure"
    assert all(o.fault_action is None for o in opens[2:])
    assert StartTimer(tag="secure_timeout", seconds=2.0) in acts


def test_eighth_seal_releases_the_cutter():
    s = fsm(sub=Sub.CUT_SECURING,
            secured=frozenset(f"bottom_{i}" for i in range(7)))
    s, acts = transition(s, SuctionSecured(device="bottom_5"), PARAMS)
    assert acts == []  # already counted; still only 7 distinct
    s, acts = transition(s, SuctionSecured(device="bottom_7"), PARAMS)
    assert s.sub is Sub.CUT_SLICING
    assert Command(device="cutter", op="extend") in acts
    assert CancelTimer(tag="secure_timeout") in acts
    assert Move(tag="park_bin", dest=("bin",)) in acts


def test_secure_timeout_retries_only_missing_seals():
    s = fsm(sub=Sub.CUT_SECURING, secure_attempt=1,
            occupants=tuple((i, i) for i in range(8)),
            secured=frozenset(f"bottom_{i}" for i in range(6)))
    s, acts = transition(s, TimerFired(tag="secure_timeout"), PARAMS)
    assert s.secure_attempt == 2
    assert Note(text="secure_retry", data={"missing": [6, 7]}) in acts
    commands = [(c.device, c.op) for c in kinds(acts, Command)]
    assert [d for d, op in commands if op == "close"] == ["bottom_6", "bottom_7"]
    assert [d for d, op in commands if op == "open"] == ["bottom_6", "bottom_7"]


def test_secure_exhaustion_aborts_the_cut():
    s = fsm(sub=Sub.CUT_SECURING, secure_attempt=3,
            occupants=((0, 0), (1, 4)), secured=frozenset({"bottom_0"}))
    s, acts = transition(s, TimerFired(tag="secure_timeout"), PARAMS)
    assert s.sub is Sub.RESETTING
    assert s.occupants == ()
    faults = [a for a in kinds(acts, Publish) if a.topic == "fault"]
    assert len(faults) == 1 and faults[0].payload["kind"] == "secure_exhausted"
    marks = kinds(acts, MarkOutcome)
    assert {(m.kind, m.stack) for m in marks} == {("cut_failed", 0), ("cut_failed", 4)}
    assert Command(device="swing", op="retract") in acts
    assert PhaseMark(phase="cutting", edge="end") in acts
    assert PhaseMark(phase="resetting", edge="start") in acts
    assert StartTimer(tag="reset", seconds=2.0) in acts


def test_cut_complete_marks_bags_and_starts_removal():
    s = fsm(sub=Sub.CUT_SLICING, occupants=((0, 10), (3, 13)))
    s, acts = transition(s, ActDone(device="cutter", op="extend"), PARAMS)
    assert s.sub is Sub.REM_APPROACH
    assert s.removal_idx == 0  # the first occupant, enclosure 0
    assert PhaseMark(phase="removal", edge="start") in acts
    assert SetPackaging(stacks=(10, 13), packaging="cut") in acts
    assert Publish(topic="cutting_complete", payload={"cycle": 0}) in acts
    assert Command(device="swing", op="retract") in acts
    assert Command(device="cutter", op="retract") in acts
    assert Publish(topic="removing_bag", payload={"enclosure": 0, "cycle": 0}) in acts
    assert Command(device="bottom_0", op="close") in acts
    assert Move(tag="rem_approach", dest=("rem", "approach")) in acts


# --- removal --------------------------------------------------------------


def test_stuck_bag_is_jammed_and_removal_moves_on():
    s = fsm(sub=Sub.REM_GRIPPING, remove_attempt=3,
            occupants=((0, 5), (2, 7)), removal_idx=0)
    s, acts = transition(s, TimerFired(tag="grip_timeout"), PARAMS)
    assert s.unbagged == frozenset()  # the stuck bag stays on
    assert s.removal_idx == 1 and s.sub is Sub.REM_APPROACH
    assert Note(text="bag_stuck", data={"enclosure": 0, "stack": 5}) in acts
    assert MarkOutcome(kind="remove_failed", stack=5, enclosure=0) in acts
    assert Publish(topic="removing_bag", payload={"enclosure": 2, "cycle": 0}) in acts

    # Walk the remaining bag through to the bin and into delivery.
    s, acts = drive(s, [
        MotionDone(tag="rem_approach"),
        MotionDone(tag="rem_descend"),
        SuctionSecured(device="gripper"),
        MotionDone(tag="rem_lift"),
        MotionDone(tag="rem_bin"),
        TimerFired(tag="rem_release"),
    ])
    assert s.sub is Sub.DOOR_OPENING
    assert PhaseMark(phase="delivery", edge="start") in acts
    assert s.unbagged == frozenset({2})
    assert SetPackaging(stacks=(7,), packaging="removed") in acts
    assert Publish(topic="removal_complete", payload={"cycle": 0}) in acts
    assert Command(device="door", op="extend") in acts


def test_removal_grip_retry_reseats():
    s = fsm(sub=Sub.REM_GRIPPING, remove_attempt=1,
            occupants=((4, 9),), removal_idx=0)
    s, acts = transition(s, TimerFired(tag="grip_timeout"), PARAMS)
    assert s.sub is Sub.REM_RESEAT
    assert acts == [
        Command(device="gripper", op="close"), Move(tag="rem_reseat", dest=("rem", "reseat"))
    ]
    s, acts = transition(s, MotionDone(tag="rem_reseat"), PARAMS)
    assert s.sub is Sub.REM_GRIPPING and s.remove_attempt == 2
    assert (type(acts[0]), acts[0].op, acts[0].fault_action) == (Command, "open", "remove")
    assert acts[0].ctx["attempt"] == 2


# --- delivery -------------------------------------------------------------


def test_delivery_pushes_verifies_and_clears_occupants():
    s = fsm(sub=Sub.DOOR_OPENING,
            occupants=((0, 0), (1, 1), (2, 2)),
            unbagged=frozenset({0, 1}))
    s, acts = drive(s, [
        ActDone(device="door", op="extend"),
        TimerFired(tag="door_settle"),
    ])
    # Enclosure 2 still has its bag on (jammed), so only 0 and 1 get pushed.
    assert s.sub is Sub.PUSHING and s.push_pending == frozenset({0, 1})
    pushes = [c for c in kinds(acts, Command) if c.op == "extend" and c.device != "door"]
    assert [c.device for c in pushes] == ["pusher_0", "pusher_1"]
    assert all(c.fault_action == "push" for c in pushes)

    s, acts = drive(s, [
        ActDone(device="pusher_0", op="extend"),
        ActStalled(device="pusher_1", op="extend"),
        TimerFired(tag="push_hold"),
    ])
    assert s.stalled == frozenset({1})
    assert Publish(topic="fault", payload={"kind": "pusher_stall", "enclosure": 1}) in acts
    assert MarkOutcome(kind="stall_failed", stack=1, enclosure=1) in acts
    assert s.sub is Sub.VERIFYING_DELIVERY

    events = []
    for enc in range(8):
        events.append(TimerFired(tag="dverify"))
        events.append(UltrasonicRead(enclosure=enc, present=enc in (1, 2)))
    s, acts = drive(s, events)
    # 0 left through the door; 1 stalled (no false verify complaint); 2 jammed.
    assert MarkOutcome(kind="delivered", stack=0, enclosure=0) in acts
    assert SetStack(stack=0, state="delivered") in acts
    assert not any(m.kind == "verify_failed" for m in kinds(acts, MarkOutcome))
    assert dict(s.occupants) == {1: 1, 2: 2}
    # Every extended pusher retracts, stalled or not.
    assert s.sub is Sub.RETRACTING
    assert [c.device for c in kinds(acts, Command)] == ["pusher_0", "pusher_1"]

    s, acts = drive(s, [
        ActDone(device="pusher_0", op="retract"),
        ActDone(device="pusher_1", op="retract"),
        TimerFired(tag="retract_settle"),
        ActDone(device="door", op="retract"),
    ])
    assert s.sub is Sub.RESETTING
    assert s.occupants == ()
    assert PhaseMark(phase="resetting", edge="start") in acts
    assert Publish(topic="delivery_complete", payload={"cycle": 0}) in acts
    # Undelivered stacks 1 and 2 are written off during reset.
    sets = kinds(acts, SetStack)
    assert SetStack(stack=1, state="failed_unhandled") in sets
    assert SetStack(stack=2, state="failed_unhandled") in sets


def test_unconfirmed_push_is_noted():
    s = fsm(sub=Sub.VERIFYING_DELIVERY, verify_idx=3,
            occupants=((3, 6),), unbagged=frozenset({3}))
    s, acts = transition(s, UltrasonicRead(enclosure=3, present=True), PARAMS)
    assert MarkOutcome(kind="verify_failed", stack=6, enclosure=3) in acts
    assert dict(s.occupants) == {3: 6}  # still seated


def test_delivery_with_nothing_to_push_skips_to_hold():
    s = fsm(sub=Sub.DOOR_SETTLE, occupants=(), unbagged=frozenset())
    s, acts = transition(s, TimerFired(tag="door_settle"), PARAMS)
    assert s.sub is Sub.PUSH_HOLD
    assert acts == [StartTimer(tag="push_hold", seconds=2.0)]


# --- reset and cycle chaining ---------------------------------------------


def test_reset_finishes_and_next_cycle_starts():
    s = fsm(sub=Sub.RESETTING, cycle=0)
    s, acts = transition(s, TimerFired(tag="reset"), PARAMS)
    assert s.sub is Sub.AWAIT_RESET_MSG
    assert PhaseMark(phase="resetting", edge="end") in acts
    assert Publish(topic="system_reset", payload={"cycle": 0}) in acts

    more_cycles = PARAMS._replace(cycles=3)
    s2, acts = transition(s, BusMsg(topic="system_reset"), more_cycles)
    assert s2.sub is Sub.AWAIT_FEED_MSG and s2.cycle == 1 and s2.slot == 0
    assert PhaseMark(phase="feeding", edge="start") in acts
    assert Publish(topic="cycle_finished", payload={"cycle": 0}) in acts
    assert Publish(topic="ready_for_picking", payload={"cycle": 1}) in acts

    s3, acts = transition(s, BusMsg(topic="system_reset"), PARAMS)  # cycles=1
    assert s3.sub is Sub.DONE
    assert Note(text="session_done", data={"cycles": 1}) in acts


def test_empty_tote_ends_the_session_early():
    s = fsm(sub=Sub.AWAIT_RESET_MSG, cycle=0, tote_done=True)
    params = PARAMS._replace(cycles=5)
    s, _ = transition(s, BusMsg(topic="system_reset"), params)
    assert s.sub is Sub.DONE


# --- totality under arbitrary event streams -------------------------------

_DEVICES = ["gripper", "swing", "cutter", "door"] + \
    [f"bottom_{i}" for i in range(8)] + [f"pusher_{i}" for i in range(8)]
_TAGS = ["slot_view", "zone_shift", "reset_view", "approach", "transfer", "reseat",
         "to_reset", "return", "rem_approach", "rem_descend", "rem_reseat",
         "rem_lift", "rem_bin", "grip_timeout", "grip_settle", "release", "verify",
         "secure_timeout", "rem_release", "door_settle", "push_hold", "dverify",
         "retract_settle", "reset"]

# The events a stream draws from; VOCAB[0] is the Start that opens it.
VOCAB = (
    [Start()]
    + [cls(tag) for cls in (MotionDone, TimerFired) for tag in _TAGS]
    + [DetectReady(zone, has, found, sid, left) for zone in range(1, 5)
       for has in (True, False) for found in (True, False)
       for sid in (-1, 3, 17) for left in (-1, 5)]
    + [PlanReady(tag, ok) for tag in ("approach", "transfer") for ok in (True, False)]
    + [cls(device) for cls in (SuctionSecured, SuctionLost) for device in _DEVICES]
    + [cls(device, op) for cls in (ActDone, ActStalled) for device in _DEVICES
       for op in ("extend", "retract")]
    + [UltrasonicRead(enc, present) for enc in range(8) for present in (True, False)]
    + [BusMsg(topic) for topic in ("ready_for_picking", "system_reset", "drop")]
)


# Per sub-state, the events its rows await, plus a seal: ``transition`` books
# a bottom line's seal in every sub-state, and securing waits on all eight.
ROWS = {sub: [ev for s, ev in STEPS if s is sub] + [SuctionSecured] for sub in Sub}


def awaited_event(state, k):
    """The ``k``-th event the rows of ``state.sub`` await, counted round-robin.

    An exact row gives its event. A row keyed on a type gives an event of that
    type aimed at what the step's guard looks at, its fields taken from ``k``.
    """
    rows = ROWS[state.sub]
    ev, k = rows[k % len(rows)], k // len(rows)
    if not isinstance(ev, type):
        return ev
    if ev is DetectReady:
        return DetectReady(zone=state.zone, zone_has_stacks=k % 4 > 0, found=k % 2 == 0,
                           stack_id=k % 24, leftmost_stack_id=k % 24)
    if ev is SuctionSecured:
        missing = [f"bottom_{e}" for e in range(8) if f"bottom_{e}" not in state.secured]
        missing = missing or ["gripper"]
        return SuctionSecured(device=missing[k % len(missing)])
    if ev is UltrasonicRead:
        return UltrasonicRead(enclosure=(state.slot, state.verify_idx)[k % 2], present=k % 4 > 1)
    pushers = sorted(state.push_pending) or [0]
    return ev(device=f"pusher_{pushers[k % len(pushers)]}", op=("extend", "retract")[k % 2])


# Where a stream starts. Few streams from Start get through all eight slots
# of feeding, so the rest start at the cut: a drawn set of enclosures
# seated, every bottom line sealed, the cutter about to finish.
STARTS = st.one_of(
    st.just(OrcState()),
    st.sets(st.integers(0, 7)).map(lambda encs: fsm(
        sub=Sub.CUT_SLICING,
        occupants=tuple((e, 10 + e) for e in sorted(encs)),
        secured=frozenset(f"bottom_{i}" for i in range(8)),
    )),
)


@settings(max_examples=300, deadline=None)
@given(STARTS, st.lists(st.integers(0, 2 * len(VOCAB) - 1), min_size=50, max_size=200))
def test_machine_is_total_under_arbitrary_streams(start, stream):
    # No event sequence, however out of order, may crash the machine or
    # corrupt its bookkeeping. An entry picks an event of VOCAB, or, in its
    # upper half, one the current sub-state awaits: about half of each
    # stream moves the machine on.
    state = start
    for x in [0] + stream:
        awaited, i = divmod(x, len(VOCAB))
        ev = awaited_event(state, i) if awaited else VOCAB[i]
        state, acts = transition(state, ev, PARAMS)
        assert isinstance(state, OrcState)
        assert isinstance(acts, list)
        assert {c.op for c in kinds(acts, Command)} <= {"open", "close", "extend", "retract"}
        encs = [e for e, _ in state.occupants]
        assert len(encs) == len(set(encs))
        assert 0 <= state.slot < ENCLOSURE_COUNT
        assert 1 <= state.zone <= PARAMS.zones
        # Removal indexes ``occupants``, and pushing extends ``unbagged``:
        # both hold only while the stored facts they derive from agree.
        assert state.removal_idx <= len(state.occupants)
        if state.sub.name.startswith("REM_"):
            assert state.removal_idx < len(state.occupants)
        else:
            assert state.removal_idx == 0
        if state.sub in (Sub.DOOR_OPENING, Sub.DOOR_SETTLE, Sub.PUSHING):
            assert state.unbagged <= set(encs)


# The digest of ``_machine_digest()``, recorded on the dataclass machine.
MACHINE_DIGEST = "2c4351dfbff606f0d3c88b07749720c5413d00761076d824e2bf473dae75d48b"


def _plain(value):
    """JSON for what a state or an action field holds beyond JSON's own types."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(f"cannot encode {value!r}")


def _recorded(action):
    """An action as the digest recorded it: name, then fields.

    The digest was recorded while a valve command was a type of its own,
    ``OpenValve(device, fault_action, ctx)`` or ``CloseValve(device)``, so an
    open or close ``Command`` is spelled that way here.
    """
    if type(action) is Command and action.op == "open":
        return "OpenValve", [action.device, action.fault_action, action.ctx]
    if type(action) is Command and action.op == "close":
        return "CloseValve", [action.device]
    return type(action).__name__, list(action)


def _machine_digest(streams=300):
    """SHA-256 over every step of ``streams`` seeded streams: the state, then each action."""
    digest = hashlib.sha256()
    state_names = OrcState._fields
    for k in range(streams):
        rng = random.Random(k)
        state = OrcState()
        if k % 2:
            encs = sorted(rng.sample(range(8), rng.randint(0, 8)))
            state = fsm(
                sub=Sub.CUT_SLICING,
                occupants=tuple((e, 10 + e) for e in encs),
                secured=frozenset(f"bottom_{i}" for i in range(8)),
            )
        stream = [rng.randrange(2 * len(VOCAB)) for _ in range(rng.randint(50, 200))]
        for x in [0] + stream:
            awaited, i = divmod(x, len(VOCAB))
            ev = awaited_event(state, i) if awaited else VOCAB[i]
            state, acts = transition(state, ev, PARAMS)
            step = [
                [getattr(state, name) for name in state_names],
                [_recorded(a) for a in acts],
            ]
            digest.update(json.dumps(step, sort_keys=True, default=_plain).encode())
    return digest.hexdigest()


def test_machine_reproduces_its_recorded_step_digest():
    # Holds ``transition`` to the event table as it stood when events and
    # actions were frozen dataclasses: 300 seeded streams over VOCAB, each
    # step's state and actions hashed in order.
    assert _machine_digest() == MACHINE_DIGEST

"""Pure control logic for the cell, as a finite-state machine.

``transition(state, event, params)`` is a total, side-effect-free function:
it returns the next state plus a list of actions for the runtime to execute
(moves, device commands, timers, publishes, world updates). All randomness,
geometry and clock handling live outside; the machine only sequences.

One cycle walks phase by phase: feeding fills the eight enclosures from the
tote one slot at a time (view, detect, plan, approach, grip, transfer, drop,
verify), cutting presses and secures all eight bags before the cutter may
traverse, removal lifts each cut bag to the bin, delivery opens the door and
pushes the unpacked stacks out, then the cell resets. Failed steps retry up
to per-action caps; a stack that exhausts its retries is marked unhandled
and play continues.

Events and actions are immutable tuple records whose equality carries the
type as well as the values, so ``MotionDone("x") != TimerFired("x")``. The
machine's state and parameters are NamedTuples: a step copies its state with
``_replace``, and their equality is plain tuple equality. The two copies a
cycle makes most, a new ``sub`` alone (``_at``) and a new ``secured`` set
alone (``_secured``), build the tuple directly at a third of the cost.

``STEPS`` is the machine's whole event graph: each row maps a sub-state and
an event it awaits to the step that handles it. Each ``Sub`` member's
``rows`` are derived from it once, at import, so a transition looks up one
small dict. The phases a run reports are the ``PhaseMark`` edges its steps
return; the state stores no phase of its own. Events with no row in the
current sub-state are consumed as no-ops, which keeps the function total.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from bagcell.config import ENCLOSURE_COUNT, CellConfig


class Sub(enum.Enum):
    """Where the machine is in a cycle.

    ``rows`` maps each event the sub-state awaits to its step: its rows of
    ``STEPS``, filled in once that table is built.
    """

    IDLE = enum.auto()
    AWAIT_FEED_MSG = enum.auto()
    TO_VIEW = enum.auto()
    AWAIT_DETECT = enum.auto()
    PLANNING_APPROACH = enum.auto()
    APPROACHING = enum.auto()
    GRIPPING = enum.auto()
    GRIP_SETTLE = enum.auto()
    PLANNING_TRANSFER = enum.auto()
    TRANSFERRING = enum.auto()
    RELEASING = enum.auto()
    VERIFY_WAIT = enum.auto()
    VERIFY_CHECK = enum.auto()
    RESEAT_GRIPPING = enum.auto()
    RESEAT_MOVING = enum.auto()
    TO_RESET = enum.auto()
    RETURNING = enum.auto()
    CUT_SWING = enum.auto()
    CUT_SECURING = enum.auto()
    CUT_SLICING = enum.auto()
    REM_APPROACH = enum.auto()
    REM_DESCEND = enum.auto()
    REM_GRIPPING = enum.auto()
    REM_RESEAT = enum.auto()
    REM_LIFT = enum.auto()
    REM_TO_BIN = enum.auto()
    REM_RELEASE = enum.auto()
    DOOR_OPENING = enum.auto()
    DOOR_SETTLE = enum.auto()
    PUSHING = enum.auto()
    PUSH_HOLD = enum.auto()
    VERIFYING_DELIVERY = enum.auto()
    RETRACTING = enum.auto()
    RETRACT_SETTLE = enum.auto()
    DOOR_CLOSING = enum.auto()
    RESETTING = enum.auto()
    AWAIT_RESET_MSG = enum.auto()
    DONE = enum.auto()


# --- events (runtime -> machine) and actions (machine -> runtime) --------


class _Record(tuple):
    """A tuple whose equality carries its type: ``MotionDone("x") != TimerFired("x")``."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__ above, not tuple's

    __hash__ = tuple.__hash__


def _record(base: type, name: str, fields: str = "", defaults: tuple = ()) -> type:
    """Record type ``name`` under ``base``: a ``namedtuple`` of ``fields`` with no ``__dict__``.

    It keeps the field order, the ``defaults`` of the last fields, keyword
    construction and a ``Name(field=value)`` repr; building one is a tuple
    allocation and hashing one is ``tuple.__hash__``, both in C.
    """
    fields_type = namedtuple(name, fields, defaults=defaults, module=__name__)
    return type(name, (fields_type, base), {"__slots__": (), "__module__": __name__})


class Event(_Record):
    """What the runtime feeds the machine."""

    __slots__ = ()


Start = _record(Event, "Start")
MotionDone = _record(Event, "MotionDone", "tag")
TimerFired = _record(Event, "TimerFired", "tag")
DetectReady = _record(
    Event, "DetectReady", "zone zone_has_stacks found stack_id leftmost_stack_id", (-1, -1)
)
PlanReady = _record(Event, "PlanReady", "tag ok")
SuctionSecured = _record(Event, "SuctionSecured", "device")
SuctionLost = _record(Event, "SuctionLost", "device")
ActDone = _record(Event, "ActDone", "device op")
ActStalled = _record(Event, "ActStalled", "device op")
UltrasonicRead = _record(Event, "UltrasonicRead", "enclosure present")
BusMsg = _record(Event, "BusMsg", "topic")


class Action(_Record):
    """What the machine returns for the runtime to execute."""

    __slots__ = ()


# The default of every mapping field: read-only, so no record can change
# what another one holds.
_EMPTY: Mapping[str, Any] = MappingProxyType({})

Publish = _record(Action, "Publish", "topic payload", (_EMPTY,))
Move = _record(Action, "Move", "tag dest")
Detect = _record(Action, "Detect", "zone ctx", (_EMPTY,))
Plan = _record(Action, "Plan", "tag ctx", (_EMPTY,))
StartTimer = _record(Action, "StartTimer", "tag seconds")
CancelTimer = _record(Action, "CancelTimer", "tag")
# ``op`` is one of the bank's four: a valve's "open" | "close", an actuator's "extend" | "retract".
Command = _record(Action, "Command", "device op fault_action ctx", (None, _EMPTY))
ReadUltrasonic = _record(Action, "ReadUltrasonic", "enclosure")
# ``state`` is one of ``world.STACK_STATES``, ``packaging`` one of ``world.PACKAGINGS``.
SetStack = _record(Action, "SetStack", "stack state enclosure", (None,))
SetPackaging = _record(Action, "SetPackaging", "stacks packaging")
MarkOutcome = _record(Action, "MarkOutcome", "kind stack enclosure", (-1, -1))
PhaseMark = _record(Action, "PhaseMark", "phase edge")  # edge: "start" | "end"
Note = _record(Action, "Note", "text data", (_EMPTY,))


# --- parameters and state -------------------------------------------------


class OrcParams(NamedTuple):
    zones: int
    cycles: int
    detect_attempts: int
    pick_attempts: int
    place_attempts: int
    remove_attempts: int
    secure_attempts: int
    grip_timeout_s: float
    placement_window_s: float
    grip_settle_s: float
    release_settle_s: float
    removal_release_s: float
    push_hold_s: float
    door_settle_s: float
    delivery_verify_s: float
    reset_settle_s: float

    @classmethod
    def from_config(cls, config: CellConfig, cycles: Optional[int] = None) -> "OrcParams":
        """The machine's caps and timings; ``cycles`` overrides ``cycles_per_test``.

        Every other field is read from the one config section (devices, pacing
        or orchestrator) that declares its name.
        """
        o = config.orchestrator
        values = {**config.devices._asdict(), **o.pacing._asdict(), **o._asdict()}
        values.update(
            zones=len(config.layout.zone_sizes),
            cycles=o.cycles_per_test if cycles is None else cycles,
        )
        return cls(**{name: values[name] for name in cls._fields})


class OrcState(NamedTuple):
    sub: Sub = Sub.IDLE
    cycle: int = 0
    slot: int = 0
    zone: int = 1
    target: int = -1
    detect_attempt: int = 0
    pick_attempt: int = 0
    place_attempt: int = 0
    secure_attempt: int = 0
    remove_attempt: int = 0
    tote_done: bool = False
    secured: frozenset = frozenset()
    # (enclosure, stack) pairs for stacks currently seated in enclosures
    occupants: Tuple[Tuple[int, int], ...] = ()
    # enclosures whose cut bag went to the bin, so the pushers extend them
    unbagged: frozenset = frozenset()
    stalled: frozenset = frozenset()
    # the bag being removed, as an index into ``occupants`` (which holds still
    # from the cut to delivery verification); 0 outside removal
    removal_idx: int = 0
    push_pending: frozenset = frozenset()
    verify_idx: int = 0


Step = Callable[[OrcState, Event, OrcParams], Tuple[OrcState, List[Action]]]


# --- helpers --------------------------------------------------------------


def _at(state: OrcState, sub: Sub) -> OrcState:
    """``state._replace(sub=sub)``, built as one tuple."""
    return tuple.__new__(OrcState, (sub,) + state[1:])


def _secured(state: OrcState, secured: frozenset) -> OrcState:
    """``state._replace(secured=secured)``, built as one tuple."""
    return tuple.__new__(OrcState, (*state[:11], secured, *state[12:]))


def _occ(state: OrcState) -> Dict[int, int]:
    return dict(state.occupants)


def _occ_add(state: OrcState, enc: int, stack: int) -> OrcState:
    pairs = dict(state.occupants)
    pairs[enc] = stack
    return state._replace(occupants=tuple(sorted(pairs.items())))


def _occ_remove(state: OrcState, enc: int) -> OrcState:
    pairs = dict(state.occupants)
    pairs.pop(enc, None)
    return state._replace(occupants=tuple(sorted(pairs.items())))


def _ctx(state: OrcState, **extra) -> Dict[str, Any]:
    ctx: Dict[str, Any] = {"cycle": state.cycle, "slot": state.slot}
    if state.target >= 0:
        ctx["stack"] = state.target
    ctx.update(extra)
    return ctx


def _start_slot(state: OrcState, slot: int) -> Tuple[OrcState, List[Action]]:
    state = state._replace(
        sub=Sub.TO_VIEW,
        slot=slot,
        target=-1,
        detect_attempt=0,
        pick_attempt=0,
        place_attempt=0,
    )
    return state, [Move(tag="slot_view", dest=("view", state.zone))]


def _fail_stack(sid: int, kind: str, enclosure: int = -1) -> List[Action]:
    actions: List[Action] = [MarkOutcome(kind=kind, stack=sid, enclosure=enclosure)]
    if sid >= 0:
        actions.append(SetStack(stack=sid, state="failed_unhandled"))
    return actions


def _return_home(state: OrcState) -> Tuple[OrcState, List[Action]]:
    return _at(state, Sub.RETURNING), [Move(tag="return", dest=("home_via_mid",))]


def _open_bottom_valves(state: OrcState, slots_to_open) -> List[Action]:
    occ = _occ(state)
    actions: List[Action] = []
    for i in sorted(slots_to_open):
        if i in occ:
            # A bag surface has to seal; an empty enclosure seals against the
            # base plate and cannot fail.
            actions.append(
                Command(
                    device=f"bottom_{i}",
                    op="open",
                    fault_action="secure",
                    ctx=_ctx(
                        state,
                        enclosure=i,
                        stack=occ[i],
                        attempt=state.secure_attempt,
                    ),
                )
            )
        else:
            actions.append(Command(device=f"bottom_{i}", op="open"))
    return actions


def _next_bag(state: OrcState, actions: List[Action]) -> Tuple[OrcState, List[Action]]:
    """Start removing the bag at ``removal_idx``, or enter delivery once none is left."""
    if state.removal_idx == len(state.occupants):
        return _enter_delivery(state, actions)
    enc = state.occupants[state.removal_idx][0]
    state = state._replace(sub=Sub.REM_APPROACH, remove_attempt=0)
    actions = actions + [
        Publish(topic="removing_bag", payload={"enclosure": enc, "cycle": state.cycle}),
        Command(device=f"bottom_{enc}", op="close"),
        Move(tag="rem_approach", dest=("rem", "approach")),
    ]
    return state, actions


def _enter_delivery(state: OrcState, actions: List[Action]) -> Tuple[OrcState, List[Action]]:
    actions = actions + [
        PhaseMark(phase="removal", edge="end"),
        Publish(topic="removal_complete", payload={"cycle": state.cycle}),
        PhaseMark(phase="delivery", edge="start"),
        Command(device="door", op="extend"),
        Move(tag="park_home", dest=("home_via_mid",)),
    ]
    return state._replace(sub=Sub.DOOR_OPENING, removal_idx=0), actions


def _enter_reset(
    state: OrcState, params: OrcParams, actions: List[Action]
) -> Tuple[OrcState, List[Action]]:
    # Anything still seated in an enclosure at this point could not be
    # delivered (stuck bag, stalled pusher, failed verification).
    cleanup: List[Action] = []
    for enc, sid in sorted(_occ(state).items()):
        cleanup.append(
            Note(text="reset_clearing_enclosure", data={"enclosure": enc, "stack": sid})
        )
        cleanup.append(SetStack(stack=sid, state="failed_unhandled"))
    for i in range(ENCLOSURE_COUNT):
        cleanup.append(Command(device=f"bottom_{i}", op="close"))
    state = state._replace(
        sub=Sub.RESETTING,
        occupants=(),
        unbagged=frozenset(),
        stalled=frozenset(),
        push_pending=frozenset(),
        verify_idx=0,
    )
    return state, actions + cleanup + [
        PhaseMark(phase="resetting", edge="start"),
        StartTimer(tag="reset", seconds=params.reset_settle_s),
    ]


# --- the transition function ---------------------------------------------


def transition(
    state: OrcState, event: Event, params: OrcParams
) -> Tuple[OrcState, List[Action]]:
    """Advance the machine by one event. Total: an event with no row is a no-op."""

    # Suction events always update the secured set first; some steps then
    # react to the updated picture.
    kind = type(event)
    if kind is SuctionSecured:
        state = _secured(state, state.secured | {event.device})
    elif kind is SuctionLost:
        state = _secured(state, state.secured - {event.device})

    rows = state.sub.rows
    step = rows.get(event) or rows.get(kind)
    if step is None:
        return state, []
    return step(state, event, params)


# --- steps, in cycle order; each is the value of one or more STEPS rows ---


def _start(state, event, params):
    state = _at(state, Sub.AWAIT_FEED_MSG)
    return state, [
        Publish(topic="system_ready", payload={}),
        PhaseMark(phase="feeding", edge="start"),
        Publish(topic="ready_for_picking", payload={"cycle": state.cycle}),
    ]


def _feed(state, event, params):
    return _start_slot(state, state.slot)


def _detect(state, event, params):
    state = state._replace(sub=Sub.AWAIT_DETECT, detect_attempt=state.detect_attempt + 1)
    return state, [
        Detect(zone=state.zone, ctx=_ctx(state, zone=state.zone, attempt=state.detect_attempt))
    ]


def _detected(state, event, params):
    if not event.zone_has_stacks:
        next_zone = state.zone + 1
        if next_zone > params.zones:
            return _return_home(state._replace(tote_done=True))
        state = state._replace(zone=next_zone, sub=Sub.TO_VIEW, detect_attempt=0)
        return state, [Move(tag="zone_shift", dest=("view", next_zone))]
    if event.found:
        state = state._replace(sub=Sub.PLANNING_APPROACH, target=event.stack_id)
        return state, [
            MarkOutcome(kind="detected", stack=event.stack_id),
            Plan(tag="approach", ctx=_ctx(state)),
        ]
    if state.detect_attempt < params.detect_attempts:
        return _detect(state, event, params)
    # Detection exhausted: the stack it should have found is skipped.
    actions = _fail_stack(event.leftmost_stack_id, "detect_failed")
    state, more = _return_home(state)
    return state, actions + more


def _approach(state, event, params):
    return _at(state, Sub.APPROACHING), [Move(tag="approach", dest=("target",))]


def _grip(state, event, params):
    state = _at(state, Sub.GRIPPING)
    return state, [
        Publish(topic="suction_cmd", payload={"device": "gripper", "on": True}),
        Command(
            device="gripper",
            op="open",
            fault_action="pick",
            ctx=_ctx(state, attempt=state.pick_attempt + 1),
        ),
        StartTimer(tag="grip_timeout", seconds=params.grip_timeout_s),
    ]


def _gripped(state, event, params):
    state = _at(state, Sub.GRIP_SETTLE)
    return state, [
        CancelTimer(tag="grip_timeout"),
        MarkOutcome(kind="picked", stack=state.target),
        SetStack(stack=state.target, state="held"),
        StartTimer(tag="grip_settle", seconds=params.grip_settle_s),
    ]


def _pick_attempt_failed(state, event, params):
    """One pick attempt burned (plan failure or grip timeout)."""
    # Only a failed approach plan leaves the arm at the view pose.
    at_view = state.sub is Sub.PLANNING_APPROACH
    attempt = state.pick_attempt + 1
    state = state._replace(pick_attempt=attempt)
    actions: List[Action] = []
    if not at_view:
        actions.append(Command(device="gripper", op="close"))
    if attempt < params.pick_attempts:
        if at_view:
            # Robot never left the view pose; go straight to a fresh frame.
            new_state, more = _detect(state, event, params)
            return new_state, actions + more
        state = _at(state, Sub.TO_RESET)
        return state, actions + [Move(tag="to_reset", dest=("reset",))]
    actions += _fail_stack(state.target, "pick_failed")
    new_state, more = _return_home(state)
    return new_state, actions + more


def _plan_transfer(state, event, params):
    state = _at(state, Sub.PLANNING_TRANSFER)
    return state, [Plan(tag="transfer", ctx=_ctx(state))]


def _transfer(state, event, params):
    move = Move(tag="transfer", dest=("enclosure", state.slot))
    return _at(state, Sub.TRANSFERRING), [move]


def _put_back(state, event, params):
    # Holding the stack but cannot plan: put it back and retry the pick.
    actions = [
        SetStack(stack=state.target, state="in_tote"),
        Command(device="gripper", op="close"),
    ]
    state, more = _pick_attempt_failed(state, event, params)
    return state, actions + more


def _release(state, event, params):
    state = _at(state, Sub.RELEASING)
    return state, [
        Command(device="gripper", op="close"),
        SetStack(stack=state.target, state="in_enclosure", enclosure=state.slot),
        Publish(topic="drop", payload={"enclosure": state.slot, "stack": state.target}),
        StartTimer(tag="release", seconds=params.release_settle_s),
    ]


def _seat(state, event, params):
    state = _at(state, Sub.VERIFY_WAIT)
    return state, [
        Command(
            device=f"bottom_{state.slot}",
            op="open",
            fault_action="place",
            ctx=_ctx(state, enclosure=state.slot, attempt=state.place_attempt + 1),
        ),
        StartTimer(tag="verify", seconds=params.placement_window_s),
    ]


def _check_seat(state, event, params):
    return _at(state, Sub.VERIFY_CHECK), [ReadUltrasonic(enclosure=state.slot)]


def _seat_checked(state, event, params):
    if event.enclosure != state.slot:
        return state, []
    if event.present and f"bottom_{state.slot}" in state.secured:
        state = _occ_add(state, state.slot, state.target)
        actions = [
            MarkOutcome(kind="placed", stack=state.target, enclosure=state.slot),
            Publish(
                topic="placement_verified",
                payload={"enclosure": state.slot, "stack": state.target},
            ),
            Command(device=f"bottom_{state.slot}", op="close"),
        ]
        new_state, more = _return_home(state)
        return new_state, actions + more
    state = state._replace(place_attempt=state.place_attempt + 1)
    if state.place_attempt < params.place_attempts:
        state = _at(state, Sub.RESEAT_GRIPPING)
        return state, [
            Note(text="placement_retry", data={"enclosure": state.slot}),
            Command(device=f"bottom_{state.slot}", op="close"),
            Command(device="gripper", op="open"),
        ]
    actions = [Command(device=f"bottom_{state.slot}", op="close")]
    actions += _fail_stack(state.target, "place_failed", enclosure=state.slot)
    new_state, more = _return_home(state)
    return new_state, actions + more


def _reseat(state, event, params):
    state = _at(state, Sub.RESEAT_MOVING)
    return state, [
        SetStack(stack=state.target, state="held"),
        Move(tag="reseat", dest=("reseat",)),
    ]


def _back_to_view(state, event, params):
    state = _at(state, Sub.TO_VIEW)
    return state, [Move(tag="reset_view", dest=("view", state.zone))]


def _returned(state, event, params):
    next_slot = state.slot + 1
    if next_slot < ENCLOSURE_COUNT and not state.tote_done:
        return _start_slot(state, next_slot)
    state = state._replace(sub=Sub.CUT_SWING, secure_attempt=0)
    return state, [
        PhaseMark(phase="feeding", edge="end"),
        PhaseMark(phase="cutting", edge="start"),
        Command(device="swing", op="extend"),
    ]


def _secure_bags(state, event, params):
    state = state._replace(sub=Sub.CUT_SECURING, secure_attempt=1)
    actions = _open_bottom_valves(state, range(ENCLOSURE_COUNT))
    actions.append(StartTimer(tag="secure_timeout", seconds=params.grip_timeout_s))
    return state, actions


def _bag_secured(state, event, params):
    if not all(f"bottom_{i}" in state.secured for i in range(ENCLOSURE_COUNT)):
        return state, []
    state = _at(state, Sub.CUT_SLICING)
    return state, [
        CancelTimer(tag="secure_timeout"),
        Note(text="tension_rods_engaged", data={}),
        Command(device="cutter", op="extend"),
        Move(tag="park_bin", dest=("bin",)),
    ]


def _secure_timed_out(state, event, params):
    missing = [i for i in range(ENCLOSURE_COUNT) if f"bottom_{i}" not in state.secured]
    if state.secure_attempt < params.secure_attempts:
        state = state._replace(secure_attempt=state.secure_attempt + 1)
        actions: List[Action] = [Note(text="secure_retry", data={"missing": missing})]
        for i in missing:
            actions.append(Command(device=f"bottom_{i}", op="close"))
        actions += _open_bottom_valves(state, missing)
        actions.append(StartTimer(tag="secure_timeout", seconds=params.grip_timeout_s))
        return state, actions
    # Cannot hold all eight bags down: abort the cut for safety.
    occ = _occ(state)
    actions = [
        Publish(topic="fault", payload={"kind": "secure_exhausted", "missing": missing}),
        Note(text="cutting_aborted", data={"missing": missing}),
    ]
    for i in range(ENCLOSURE_COUNT):
        actions.append(Command(device=f"bottom_{i}", op="close"))
    for enc, sid in sorted(occ.items()):
        actions += _fail_stack(sid, "cut_failed", enclosure=enc)
    actions.append(Command(device="swing", op="retract"))
    actions.append(PhaseMark(phase="cutting", edge="end"))
    state = state._replace(occupants=())
    return _enter_reset(state, params, actions)


def _cut(state, event, params):
    actions: List[Action] = [
        SetPackaging(stacks=tuple(sid for _, sid in state.occupants), packaging="cut"),
        PhaseMark(phase="cutting", edge="end"),
        Publish(topic="cutting_complete", payload={"cycle": state.cycle}),
        PhaseMark(phase="removal", edge="start"),
        Command(device="swing", op="retract"),
        Command(device="cutter", op="retract"),
    ]
    return _next_bag(state, actions)


def _descend(state, event, params):
    return _at(state, Sub.REM_DESCEND), [Move(tag="rem_descend", dest=("rem", "descend"))]


def _rem_grip(state, event, params):
    enc, sid = state.occupants[state.removal_idx]
    state = state._replace(sub=Sub.REM_GRIPPING, remove_attempt=state.remove_attempt + 1)
    return state, [
        Command(
            device="gripper",
            op="open",
            fault_action="remove",
            ctx=_ctx(state, enclosure=enc, stack=sid, attempt=state.remove_attempt),
        ),
        StartTimer(tag="grip_timeout", seconds=params.grip_timeout_s),
    ]


def _lift(state, event, params):
    return _at(state, Sub.REM_LIFT), [
        CancelTimer(tag="grip_timeout"),
        Move(tag="rem_lift", dest=("rem", "lift")),
    ]


def _rem_grip_timed_out(state, event, params):
    actions: List[Action] = [Command(device="gripper", op="close")]
    if state.remove_attempt < params.remove_attempts:
        state = _at(state, Sub.REM_RESEAT)
        return state, actions + [Move(tag="rem_reseat", dest=("rem", "reseat"))]
    # Bag stuck on this enclosure: leave it on (never unbagged, so never
    # pushed) and move on.
    enc, sid = state.occupants[state.removal_idx]
    actions.append(Note(text="bag_stuck", data={"enclosure": enc, "stack": sid}))
    actions.append(MarkOutcome(kind="remove_failed", stack=sid, enclosure=enc))
    return _next_bag(state._replace(removal_idx=state.removal_idx + 1), actions)


def _to_bin(state, event, params):
    return _at(state, Sub.REM_TO_BIN), [Move(tag="rem_bin", dest=("rem", "bin"))]


def _drop_bag(state, event, params):
    enc, sid = state.occupants[state.removal_idx]
    state = state._replace(sub=Sub.REM_RELEASE, unbagged=state.unbagged | {enc})
    return state, [
        Command(device="gripper", op="close"),
        SetPackaging(stacks=(sid,), packaging="removed"),
        StartTimer(tag="rem_release", seconds=params.removal_release_s),
    ]


def _bag_dropped(state, event, params):
    return _next_bag(state._replace(removal_idx=state.removal_idx + 1), [])


def _door_opened(state, event, params):
    state = _at(state, Sub.DOOR_SETTLE)
    return state, [
        Note(text="door_limit_switch", data={"open": True}),
        StartTimer(tag="door_settle", seconds=params.door_settle_s),
    ]


def _push(state, event, params):
    # Every unbagged enclosure is still occupied: occupants change again
    # only when verification confirms a delivery.
    occ = _occ(state)
    state = state._replace(sub=Sub.PUSHING, push_pending=state.unbagged)
    actions: List[Action] = []
    for e in sorted(state.unbagged):
        actions.append(
            Command(
                device=f"pusher_{e}",
                op="extend",
                fault_action="push",
                ctx=_ctx(state, enclosure=e, stack=occ[e]),
            )
        )
    if not state.unbagged:
        state = _at(state, Sub.PUSH_HOLD)
        actions.append(StartTimer(tag="push_hold", seconds=params.push_hold_s))
    return state, actions


def _pushed(state, event, params):
    """A pusher finished its stroke (``ActDone``) or stalled on it (``ActStalled``)."""
    if not event.device.startswith("pusher_"):
        return state, []
    e = int(event.device.split("_")[1])
    pending = state.push_pending - {e}
    state = state._replace(push_pending=pending)
    actions: List[Action] = []
    if type(event) is ActStalled:
        sid = _occ(state).get(e, -1)
        state = state._replace(stalled=state.stalled | {e})
        actions.append(Publish(topic="fault", payload={"kind": "pusher_stall", "enclosure": e}))
        actions.append(MarkOutcome(kind="stall_failed", stack=sid, enclosure=e))
    if not pending:
        state = _at(state, Sub.PUSH_HOLD)
        actions.append(StartTimer(tag="push_hold", seconds=params.push_hold_s))
    return state, actions


def _verify_delivery(state, event, params):
    state = state._replace(sub=Sub.VERIFYING_DELIVERY, verify_idx=0)
    return state, [StartTimer(tag="dverify", seconds=params.delivery_verify_s)]


def _read_enclosure(state, event, params):
    return state, [ReadUltrasonic(enclosure=state.verify_idx)]


def _enclosure_read(state, event, params):
    e = event.enclosure
    if e != state.verify_idx:
        return state, []
    occ = _occ(state)
    actions: List[Action] = []
    if not event.present and e in occ:
        # Pushed clear: the stack left through the open door.
        sid = occ[e]
        state = _occ_remove(state, e)
        actions.append(MarkOutcome(kind="delivered", stack=sid, enclosure=e))
        actions.append(SetStack(stack=sid, state="delivered"))
    elif event.present and e in state.unbagged and e not in state.stalled:
        sid = occ.get(e, -1)
        actions.append(Note(text="delivery_not_confirmed", data={"enclosure": e, "stack": sid}))
        actions.append(MarkOutcome(kind="verify_failed", stack=sid, enclosure=e))
    nxt = state.verify_idx + 1
    state = state._replace(verify_idx=nxt)
    if nxt < ENCLOSURE_COUNT:
        return state, actions + [StartTimer(tag="dverify", seconds=params.delivery_verify_s)]
    extended = sorted(state.unbagged | state.stalled)
    if not extended:
        state = _at(state, Sub.RETRACT_SETTLE)
        return state, actions + [StartTimer(tag="retract_settle", seconds=params.door_settle_s)]
    state = state._replace(sub=Sub.RETRACTING, push_pending=frozenset(extended))
    for e in extended:
        actions.append(Command(device=f"pusher_{e}", op="retract"))
    return state, actions


def _retracted(state, event, params):
    if not event.device.startswith("pusher_") or event.op != "retract":
        return state, []
    e = int(event.device.split("_")[1])
    pending = state.push_pending - {e}
    state = state._replace(push_pending=pending)
    if pending:
        return state, []
    state = _at(state, Sub.RETRACT_SETTLE)
    return state, [StartTimer(tag="retract_settle", seconds=params.door_settle_s)]


def _close_door(state, event, params):
    return _at(state, Sub.DOOR_CLOSING), [Command(device="door", op="retract")]


def _door_closed(state, event, params):
    actions: List[Action] = [
        PhaseMark(phase="delivery", edge="end"),
        Publish(topic="delivery_complete", payload={"cycle": state.cycle}),
    ]
    return _enter_reset(state, params, actions)


def _reset_done(state, event, params):
    state = _at(state, Sub.AWAIT_RESET_MSG)
    return state, [
        PhaseMark(phase="resetting", edge="end"),
        Publish(topic="system_reset", payload={"cycle": state.cycle}),
    ]


def _next_cycle(state, event, params):
    next_cycle = state.cycle + 1
    if next_cycle >= params.cycles or state.tote_done:
        state = state._replace(sub=Sub.DONE, cycle=next_cycle)
        return state, [Note(text="session_done", data={"cycles": next_cycle})]
    state = state._replace(
        sub=Sub.AWAIT_FEED_MSG,
        cycle=next_cycle,
        slot=0,
        target=-1,
        detect_attempt=0,
        pick_attempt=0,
        place_attempt=0,
        secure_attempt=0,
        remove_attempt=0,
    )
    return state, [
        Publish(topic="cycle_finished", payload={"cycle": next_cycle - 1}),
        PhaseMark(phase="feeding", edge="start"),
        Publish(topic="ready_for_picking", payload={"cycle": next_cycle}),
    ]


# The machine's whole event graph. A key is (sub-state, awaited event): an
# exact event value, or an event type where the step reads the event's data
# and checks its own guard. Any other event leaves the machine where it is.
STEPS: Dict[Tuple[Sub, Any], Step] = {
    (Sub.IDLE, Start()): _start,
    (Sub.AWAIT_FEED_MSG, BusMsg("ready_for_picking")): _feed,
    (Sub.TO_VIEW, MotionDone("slot_view")): _detect,
    (Sub.TO_VIEW, MotionDone("zone_shift")): _detect,
    (Sub.TO_VIEW, MotionDone("reset_view")): _detect,
    (Sub.AWAIT_DETECT, DetectReady): _detected,
    (Sub.PLANNING_APPROACH, PlanReady("approach", True)): _approach,
    (Sub.PLANNING_APPROACH, PlanReady("approach", False)): _pick_attempt_failed,
    (Sub.APPROACHING, MotionDone("approach")): _grip,
    (Sub.GRIPPING, SuctionSecured("gripper")): _gripped,
    (Sub.GRIPPING, TimerFired("grip_timeout")): _pick_attempt_failed,
    (Sub.GRIP_SETTLE, TimerFired("grip_settle")): _plan_transfer,
    (Sub.PLANNING_TRANSFER, PlanReady("transfer", True)): _transfer,
    (Sub.PLANNING_TRANSFER, PlanReady("transfer", False)): _put_back,
    (Sub.TRANSFERRING, MotionDone("transfer")): _release,
    (Sub.RELEASING, TimerFired("release")): _seat,
    (Sub.VERIFY_WAIT, TimerFired("verify")): _check_seat,
    (Sub.VERIFY_CHECK, UltrasonicRead): _seat_checked,
    (Sub.RESEAT_GRIPPING, SuctionSecured("gripper")): _reseat,
    (Sub.RESEAT_MOVING, MotionDone("reseat")): _release,
    (Sub.TO_RESET, MotionDone("to_reset")): _back_to_view,
    (Sub.RETURNING, MotionDone("return")): _returned,
    (Sub.CUT_SWING, ActDone("swing", "extend")): _secure_bags,
    (Sub.CUT_SECURING, SuctionSecured): _bag_secured,
    (Sub.CUT_SECURING, TimerFired("secure_timeout")): _secure_timed_out,
    (Sub.CUT_SLICING, ActDone("cutter", "extend")): _cut,
    (Sub.REM_APPROACH, MotionDone("rem_approach")): _descend,
    (Sub.REM_DESCEND, MotionDone("rem_descend")): _rem_grip,
    (Sub.REM_GRIPPING, SuctionSecured("gripper")): _lift,
    (Sub.REM_GRIPPING, TimerFired("grip_timeout")): _rem_grip_timed_out,
    (Sub.REM_RESEAT, MotionDone("rem_reseat")): _rem_grip,
    (Sub.REM_LIFT, MotionDone("rem_lift")): _to_bin,
    (Sub.REM_TO_BIN, MotionDone("rem_bin")): _drop_bag,
    (Sub.REM_RELEASE, TimerFired("rem_release")): _bag_dropped,
    (Sub.DOOR_OPENING, ActDone("door", "extend")): _door_opened,
    (Sub.DOOR_SETTLE, TimerFired("door_settle")): _push,
    (Sub.PUSHING, ActDone): _pushed,
    (Sub.PUSHING, ActStalled): _pushed,
    (Sub.PUSH_HOLD, TimerFired("push_hold")): _verify_delivery,
    (Sub.VERIFYING_DELIVERY, TimerFired("dverify")): _read_enclosure,
    (Sub.VERIFYING_DELIVERY, UltrasonicRead): _enclosure_read,
    (Sub.RETRACTING, ActDone): _retracted,
    (Sub.RETRACT_SETTLE, TimerFired("retract_settle")): _close_door,
    (Sub.DOOR_CLOSING, ActDone("door", "retract")): _door_closed,
    (Sub.RESETTING, TimerFired("reset")): _reset_done,
    (Sub.AWAIT_RESET_MSG, BusMsg("system_reset")): _next_cycle,
}

# Each sub-state's own rows: ``transition`` looks up one small dict, keyed by
# the event or by its type, and hashes the event in C.
for _sub in Sub:
    _sub.rows = {}
for (_sub, _awaited), _step in STEPS.items():
    _sub.rows[_awaited] = _step
del _sub, _awaited, _step

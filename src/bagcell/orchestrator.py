"""Pure control logic for the cell, as a finite-state machine.

``transition(state, event, params)`` is a total, side-effect-free function:
it returns the next state plus a list of actions for the runtime to execute
(moves, valve commands, timers, publishes, world updates). All randomness,
geometry and clock handling live outside; the machine only sequences.

One cycle walks phase by phase: feeding fills the eight enclosures from the
tote one slot at a time (view, detect, plan, approach, grip, transfer, drop,
verify), cutting presses and secures all eight bags before the cutter may
traverse, removal lifts each cut bag to the bin, delivery opens the door and
pushes the unpacked stacks out, then the cell resets. Failed steps retry up
to per-action caps; a stack that exhausts its retries is marked unhandled
and play continues. Events the current step is not waiting for are consumed
as no-ops, which keeps the function total.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from bagcell.config import CellConfig


class Phase(enum.Enum):
    IDLE = "idle"
    FEEDING = "feeding"
    CUTTING = "cutting"
    REMOVAL = "removal"
    DELIVERY = "delivery"
    RESET = "reset"
    DONE = "done"


class Sub(enum.Enum):
    NONE = "none"
    AWAIT_FEED_MSG = "await_feed_msg"
    TO_VIEW = "to_view"
    AWAIT_DETECT = "await_detect"
    PLANNING_APPROACH = "planning_approach"
    APPROACHING = "approaching"
    GRIPPING = "gripping"
    GRIP_SETTLE = "grip_settle"
    PLANNING_TRANSFER = "planning_transfer"
    TRANSFERRING = "transferring"
    RELEASING = "releasing"
    VERIFY_WAIT = "verify_wait"
    VERIFY_CHECK = "verify_check"
    RESEAT_GRIPPING = "reseat_gripping"
    RESEAT_MOVING = "reseat_moving"
    TO_RESET = "to_reset"
    RETURNING = "returning"
    CUT_SWING = "cut_swing"
    CUT_SECURING = "cut_securing"
    CUT_SLICING = "cut_slicing"
    REM_APPROACH = "rem_approach"
    REM_DESCEND = "rem_descend"
    REM_GRIPPING = "rem_gripping"
    REM_RESEAT = "rem_reseat"
    REM_LIFT = "rem_lift"
    REM_TO_BIN = "rem_to_bin"
    REM_RELEASE = "rem_release"
    DOOR_OPENING = "door_opening"
    DOOR_SETTLE = "door_settle"
    PUSHING = "pushing"
    PUSH_HOLD = "push_hold"
    VERIFYING_DELIVERY = "verifying_delivery"
    RETRACTING = "retracting"
    RETRACT_SETTLE = "retract_settle"
    DOOR_CLOSING = "door_closing"
    RESETTING = "resetting"
    AWAIT_RESET_MSG = "await_reset_msg"


# --- events (runtime -> machine) -----------------------------------------


@dataclass(frozen=True)
class Event:
    pass


@dataclass(frozen=True)
class Start(Event):
    pass


@dataclass(frozen=True)
class MotionDone(Event):
    tag: str


@dataclass(frozen=True)
class TimerFired(Event):
    tag: str


@dataclass(frozen=True)
class DetectReady(Event):
    zone: int
    zone_has_stacks: bool
    found: bool
    stack_id: int = -1
    leftmost_stack_id: int = -1


@dataclass(frozen=True)
class PlanReady(Event):
    tag: str
    ok: bool


@dataclass(frozen=True)
class SuctionSecured(Event):
    device: str


@dataclass(frozen=True)
class SuctionLost(Event):
    device: str


@dataclass(frozen=True)
class ActDone(Event):
    device: str
    op: str


@dataclass(frozen=True)
class ActStalled(Event):
    device: str
    op: str


@dataclass(frozen=True)
class UltrasonicRead(Event):
    enclosure: int
    present: bool


@dataclass(frozen=True)
class BusMsg(Event):
    topic: str


# Topics the machine publishes and then waits to receive back as a BusMsg.
AWAITED_TOPICS = frozenset({"ready_for_picking", "system_reset"})


# --- actions (machine -> runtime) ----------------------------------------


@dataclass(frozen=True)
class Action:
    pass


@dataclass(frozen=True)
class Publish(Action):
    topic: str
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Move(Action):
    tag: str
    dest: Tuple[Any, ...]


@dataclass(frozen=True)
class Detect(Action):
    zone: int
    ctx: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Plan(Action):
    tag: str
    ctx: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StartTimer(Action):
    tag: str
    seconds: float


@dataclass(frozen=True)
class CancelTimer(Action):
    tag: str


@dataclass(frozen=True)
class OpenValve(Action):
    device: str
    fault_action: Optional[str] = None
    ctx: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CloseValve(Action):
    device: str


@dataclass(frozen=True)
class Command(Action):
    device: str
    op: str
    fault_action: Optional[str] = None
    ctx: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ReadUltrasonic(Action):
    enclosure: int


@dataclass(frozen=True)
class SetStack(Action):
    stack: int
    state: str  # StackState value
    enclosure: Optional[int] = None


@dataclass(frozen=True)
class SetPackaging(Action):
    stacks: Tuple[int, ...]
    packaging: str  # Packaging value


@dataclass(frozen=True)
class MarkOutcome(Action):
    kind: str
    stack: int = -1
    enclosure: int = -1


@dataclass(frozen=True)
class PhaseMark(Action):
    phase: str
    edge: str  # "start" | "end"


@dataclass(frozen=True)
class Note(Action):
    text: str
    data: Dict[str, Any] = field(default_factory=dict)


# --- parameters and state -------------------------------------------------


@dataclass(frozen=True)
class OrcParams:
    slots: int
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
        """The machine's caps and timings; ``cycles`` overrides ``cycles_per_test``."""
        o = config.orchestrator
        p = o.pacing
        d = config.devices
        return cls(
            slots=config.layout.enclosure_count,
            zones=len(config.layout.zone_sizes),
            cycles=o.cycles_per_test if cycles is None else cycles,
            detect_attempts=o.detect_attempts,
            pick_attempts=o.pick_attempts,
            place_attempts=o.place_attempts,
            remove_attempts=o.remove_attempts,
            secure_attempts=o.secure_attempts,
            grip_timeout_s=d.grip_timeout_s,
            placement_window_s=d.placement_window_s,
            grip_settle_s=p.grip_settle_s,
            release_settle_s=p.release_settle_s,
            removal_release_s=p.removal_release_s,
            push_hold_s=p.push_hold_s,
            door_settle_s=p.door_settle_s,
            delivery_verify_s=p.delivery_verify_s,
            reset_settle_s=p.reset_settle_s,
        )


@dataclass(frozen=True)
class OrcState:
    phase: Phase = Phase.IDLE
    sub: Sub = Sub.NONE
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
    unbagged: frozenset = frozenset()
    jammed: frozenset = frozenset()
    stalled: frozenset = frozenset()
    removal_queue: Tuple[int, ...] = ()
    removal_idx: int = 0
    push_targets: frozenset = frozenset()
    push_pending: frozenset = frozenset()
    verify_idx: int = 0


def _r(state: OrcState, **kw) -> OrcState:
    return dataclasses.replace(state, **kw)


def initial_state() -> OrcState:
    return OrcState()


# --- helpers --------------------------------------------------------------


def _occ(state: OrcState) -> Dict[int, int]:
    return dict(state.occupants)


def _occ_add(state: OrcState, enc: int, stack: int) -> OrcState:
    pairs = dict(state.occupants)
    pairs[enc] = stack
    return _r(state, occupants=tuple(sorted(pairs.items())))


def _occ_remove(state: OrcState, enc: int) -> OrcState:
    pairs = dict(state.occupants)
    pairs.pop(enc, None)
    return _r(state, occupants=tuple(sorted(pairs.items())))


def _ctx(state: OrcState, **extra) -> Dict[str, Any]:
    ctx: Dict[str, Any] = {"cycle": state.cycle, "slot": state.slot}
    if state.target >= 0:
        ctx["stack"] = state.target
    ctx.update(extra)
    return ctx


def _start_slot(state: OrcState, slot: int) -> Tuple[OrcState, List[Action]]:
    state = _r(
        state,
        sub=Sub.TO_VIEW,
        slot=slot,
        target=-1,
        detect_attempt=0,
        pick_attempt=0,
        place_attempt=0,
    )
    return state, [Move(tag="slot_view", dest=("view", state.zone))]


def _detect(state: OrcState) -> Tuple[OrcState, List[Action]]:
    state = _r(state, sub=Sub.AWAIT_DETECT, detect_attempt=state.detect_attempt + 1)
    return state, [
        Detect(zone=state.zone, ctx=_ctx(state, zone=state.zone, attempt=state.detect_attempt))
    ]


def _fail_stack(sid: int, kind: str, enclosure: int = -1) -> List[Action]:
    actions: List[Action] = [MarkOutcome(kind=kind, stack=sid, enclosure=enclosure)]
    if sid >= 0:
        actions.append(SetStack(stack=sid, state="failed_unhandled"))
    return actions


def _return_home(state: OrcState) -> Tuple[OrcState, List[Action]]:
    return _r(state, sub=Sub.RETURNING), [Move(tag="return", dest=("home_via_mid",))]


def _enter_cutting(state: OrcState) -> Tuple[OrcState, List[Action]]:
    state = _r(state, phase=Phase.CUTTING, sub=Sub.CUT_SWING, secure_attempt=0)
    return state, [
        PhaseMark(phase="feeding", edge="end"),
        PhaseMark(phase="cutting", edge="start"),
        Command(device="swing", op="extend"),
    ]


def _open_bottom_valves(state: OrcState, slots_to_open) -> List[Action]:
    occ = _occ(state)
    actions: List[Action] = []
    for i in sorted(slots_to_open):
        if i in occ:
            # A bag surface has to seal; an empty enclosure seals against the
            # base plate and cannot fail.
            actions.append(
                OpenValve(
                    device=f"bottom_{i}",
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
            actions.append(OpenValve(device=f"bottom_{i}"))
    return actions


def _bottom_secured_count(state: OrcState, slots: int) -> int:
    return sum(1 for i in range(slots) if f"bottom_{i}" in state.secured)


def _enter_removal(state: OrcState, params: OrcParams) -> Tuple[OrcState, List[Action]]:
    queue = tuple(sorted(_occ(state)))
    actions: List[Action] = [
        PhaseMark(phase="cutting", edge="end"),
        Publish(topic="cutting_complete", payload={"cycle": state.cycle}),
        PhaseMark(phase="removal", edge="start"),
        Command(device="swing", op="retract"),
        Command(device="cutter", op="retract"),
    ]
    state = _r(state, phase=Phase.REMOVAL, removal_queue=queue, removal_idx=0)
    if not queue:
        return _enter_delivery(state, actions)
    return _next_bag(state, actions)


def _next_bag(state: OrcState, actions: List[Action]) -> Tuple[OrcState, List[Action]]:
    enc = state.removal_queue[state.removal_idx]
    state = _r(state, sub=Sub.REM_APPROACH, remove_attempt=0)
    actions = actions + [
        Publish(topic="removing_bag", payload={"enclosure": enc, "cycle": state.cycle}),
        CloseValve(device=f"bottom_{enc}"),
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
    return _r(state, phase=Phase.DELIVERY, sub=Sub.DOOR_OPENING), actions


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
    for i in range(params.slots):
        cleanup.append(CloseValve(device=f"bottom_{i}"))
    state = _r(
        state,
        phase=Phase.RESET,
        sub=Sub.RESETTING,
        occupants=(),
        unbagged=frozenset(),
        jammed=frozenset(),
        stalled=frozenset(),
        removal_queue=(),
        removal_idx=0,
        push_targets=frozenset(),
        push_pending=frozenset(),
        verify_idx=0,
    )
    return state, actions + cleanup + [
        PhaseMark(phase="resetting", edge="start"),
        StartTimer(tag="reset", seconds=params.reset_settle_s),
    ]


def _current_removal_enc(state: OrcState) -> int:
    return state.removal_queue[state.removal_idx]


# --- the transition function ---------------------------------------------


def transition(
    state: OrcState, event: Event, params: OrcParams
) -> Tuple[OrcState, List[Action]]:
    """Advance the machine by one event. Total: unexpected events are no-ops."""

    # Suction events always update the secured set first; some substates then
    # react to the updated picture.
    if isinstance(event, SuctionSecured):
        state = _r(state, secured=state.secured | {event.device})
    elif isinstance(event, SuctionLost):
        state = _r(state, secured=state.secured - {event.device})

    handler = _PHASE_HANDLERS.get(state.phase)
    if handler is None:
        return state, []
    return handler(state, event, params)


def _on_idle(state, event, params):
    if isinstance(event, Start):
        state = _r(state, phase=Phase.FEEDING, sub=Sub.AWAIT_FEED_MSG)
        return state, [
            Publish(topic="system_ready", payload={}),
            PhaseMark(phase="feeding", edge="start"),
            Publish(topic="ready_for_picking", payload={"cycle": state.cycle}),
        ]
    return state, []


def _on_feeding(state, event, params):
    sub = state.sub

    if sub is Sub.AWAIT_FEED_MSG:
        if isinstance(event, BusMsg) and event.topic == "ready_for_picking":
            return _start_slot(state, state.slot)
        return state, []

    if sub is Sub.TO_VIEW:
        if isinstance(event, MotionDone) and event.tag in (
            "slot_view",
            "zone_shift",
            "reset_view",
        ):
            return _detect(state)
        return state, []

    if sub is Sub.AWAIT_DETECT:
        if isinstance(event, DetectReady):
            if not event.zone_has_stacks:
                next_zone = state.zone + 1
                if next_zone > params.zones:
                    state = _r(state, tote_done=True)
                    return _return_home(state)
                state = _r(state, zone=next_zone, sub=Sub.TO_VIEW, detect_attempt=0)
                return state, [Move(tag="zone_shift", dest=("view", next_zone))]
            if event.found:
                state = _r(state, sub=Sub.PLANNING_APPROACH, target=event.stack_id)
                return state, [
                    MarkOutcome(kind="detected", stack=event.stack_id),
                    Plan(
                        tag="approach",
                        ctx=_ctx(state, attempt=state.pick_attempt + 1),
                    ),
                ]
            if state.detect_attempt < params.detect_attempts:
                return _detect(state)
            # Detection exhausted: the stack it should have found is skipped.
            actions = _fail_stack(event.leftmost_stack_id, "detect_failed")
            state, more = _return_home(state)
            return state, actions + more
        return state, []

    if sub is Sub.PLANNING_APPROACH:
        if isinstance(event, PlanReady) and event.tag == "approach":
            if event.ok:
                return _r(state, sub=Sub.APPROACHING), [
                    Move(tag="approach", dest=("target",))
                ]
            return _pick_attempt_failed(state, params, at_view=True)
        return state, []

    if sub is Sub.APPROACHING:
        if isinstance(event, MotionDone) and event.tag == "approach":
            state = _r(state, sub=Sub.GRIPPING)
            return state, [
                Publish(topic="suction_cmd", payload={"device": "gripper", "on": True}),
                OpenValve(
                    device="gripper",
                    fault_action="pick",
                    ctx=_ctx(state, attempt=state.pick_attempt + 1),
                ),
                StartTimer(tag="grip_timeout", seconds=params.grip_timeout_s),
            ]
        return state, []

    if sub is Sub.GRIPPING:
        if isinstance(event, SuctionSecured) and event.device == "gripper":
            state = _r(state, sub=Sub.GRIP_SETTLE)
            return state, [
                CancelTimer(tag="grip_timeout"),
                MarkOutcome(kind="picked", stack=state.target),
                SetStack(stack=state.target, state="held"),
                StartTimer(tag="grip_settle", seconds=params.grip_settle_s),
            ]
        if isinstance(event, TimerFired) and event.tag == "grip_timeout":
            return _pick_attempt_failed(state, params, at_view=False)
        return state, []

    if sub is Sub.GRIP_SETTLE:
        if isinstance(event, TimerFired) and event.tag == "grip_settle":
            state = _r(state, sub=Sub.PLANNING_TRANSFER)
            return state, [
                Plan(tag="transfer", ctx=_ctx(state, attempt=state.pick_attempt + 1))
            ]
        return state, []

    if sub is Sub.PLANNING_TRANSFER:
        if isinstance(event, PlanReady) and event.tag == "transfer":
            if event.ok:
                return _r(state, sub=Sub.TRANSFERRING), [
                    Move(tag="transfer", dest=("enclosure", state.slot))
                ]
            # Holding the stack but cannot plan: put it back and retry the pick.
            actions = [
                SetStack(stack=state.target, state="in_tote"),
                CloseValve(device="gripper"),
            ]
            state, more = _pick_attempt_failed(state, params, at_view=False)
            return state, actions + more
        return state, []

    if sub is Sub.TRANSFERRING:
        if isinstance(event, MotionDone) and event.tag == "transfer":
            return _release(state, params)
        return state, []

    if sub is Sub.RELEASING:
        if isinstance(event, TimerFired) and event.tag == "release":
            state = _r(state, sub=Sub.VERIFY_WAIT)
            return state, [
                OpenValve(
                    device=f"bottom_{state.slot}",
                    fault_action="place",
                    ctx=_ctx(state, enclosure=state.slot, attempt=state.place_attempt + 1),
                ),
                StartTimer(tag="verify", seconds=params.placement_window_s),
            ]
        return state, []

    if sub is Sub.VERIFY_WAIT:
        if isinstance(event, TimerFired) and event.tag == "verify":
            return _r(state, sub=Sub.VERIFY_CHECK), [
                ReadUltrasonic(enclosure=state.slot)
            ]
        return state, []

    if sub is Sub.VERIFY_CHECK:
        if isinstance(event, UltrasonicRead) and event.enclosure == state.slot:
            seated = event.present and f"bottom_{state.slot}" in state.secured
            if seated:
                state = _occ_add(state, state.slot, state.target)
                actions = [
                    MarkOutcome(kind="placed", stack=state.target, enclosure=state.slot),
                    Publish(
                        topic="placement_verified",
                        payload={"enclosure": state.slot, "stack": state.target},
                    ),
                    CloseValve(device=f"bottom_{state.slot}"),
                ]
                new_state, more = _return_home(state)
                return new_state, actions + more
            state = _r(state, place_attempt=state.place_attempt + 1)
            if state.place_attempt < params.place_attempts:
                state = _r(state, sub=Sub.RESEAT_GRIPPING)
                return state, [
                    Note(text="placement_retry", data={"enclosure": state.slot}),
                    CloseValve(device=f"bottom_{state.slot}"),
                    OpenValve(device="gripper"),
                ]
            actions = [CloseValve(device=f"bottom_{state.slot}")]
            actions += _fail_stack(state.target, "place_failed", enclosure=state.slot)
            new_state, more = _return_home(state)
            return new_state, actions + more
        return state, []

    if sub is Sub.RESEAT_GRIPPING:
        if isinstance(event, SuctionSecured) and event.device == "gripper":
            state = _r(state, sub=Sub.RESEAT_MOVING)
            return state, [
                SetStack(stack=state.target, state="held"),
                Move(tag="reseat", dest=("reseat",)),
            ]
        return state, []

    if sub is Sub.RESEAT_MOVING:
        if isinstance(event, MotionDone) and event.tag == "reseat":
            return _release(state, params)
        return state, []

    if sub is Sub.TO_RESET:
        if isinstance(event, MotionDone) and event.tag == "to_reset":
            state = _r(state, sub=Sub.TO_VIEW)
            return state, [Move(tag="reset_view", dest=("view", state.zone))]
        return state, []

    if sub is Sub.RETURNING:
        if isinstance(event, MotionDone) and event.tag == "return":
            next_slot = state.slot + 1
            if next_slot >= params.slots or state.tote_done:
                return _enter_cutting(state)
            return _start_slot(state, next_slot)
        return state, []

    return state, []


def _release(state: OrcState, params: OrcParams) -> Tuple[OrcState, List[Action]]:
    state = _r(state, sub=Sub.RELEASING)
    return state, [
        CloseValve(device="gripper"),
        SetStack(stack=state.target, state="in_enclosure", enclosure=state.slot),
        Publish(topic="drop", payload={"enclosure": state.slot, "stack": state.target}),
        StartTimer(tag="release", seconds=params.release_settle_s),
    ]


def _pick_attempt_failed(
    state: OrcState, params: OrcParams, at_view: bool
) -> Tuple[OrcState, List[Action]]:
    """One pick attempt burned (plan failure or grip timeout)."""
    attempt = state.pick_attempt + 1
    state = _r(state, pick_attempt=attempt)
    actions: List[Action] = []
    if not at_view:
        actions.append(CloseValve(device="gripper"))
    if attempt < params.pick_attempts:
        if at_view:
            # Robot never left the view pose; go straight to a fresh frame.
            new_state, more = _detect(state)
            return new_state, actions + more
        state = _r(state, sub=Sub.TO_RESET)
        return state, actions + [Move(tag="to_reset", dest=("reset",))]
    actions += _fail_stack(state.target, "pick_failed")
    new_state, more = _return_home(state)
    return new_state, actions + more


def _on_cutting(state, event, params):
    sub = state.sub

    if sub is Sub.CUT_SWING:
        if isinstance(event, ActDone) and event.device == "swing" and event.op == "extend":
            state = _r(state, sub=Sub.CUT_SECURING, secure_attempt=1)
            actions = _open_bottom_valves(state, range(params.slots))
            actions.append(StartTimer(tag="secure_timeout", seconds=params.grip_timeout_s))
            return state, actions
        return state, []

    if sub is Sub.CUT_SECURING:
        if isinstance(event, SuctionSecured):
            if _bottom_secured_count(state, params.slots) == params.slots:
                state = _r(state, sub=Sub.CUT_SLICING)
                return state, [
                    CancelTimer(tag="secure_timeout"),
                    Note(text="tension_rods_engaged", data={}),
                    Command(device="cutter", op="extend"),
                    Move(tag="park_bin", dest=("bin",)),
                ]
            return state, []
        if isinstance(event, TimerFired) and event.tag == "secure_timeout":
            missing = [
                i for i in range(params.slots) if f"bottom_{i}" not in state.secured
            ]
            if state.secure_attempt < params.secure_attempts:
                state = _r(state, secure_attempt=state.secure_attempt + 1)
                actions: List[Action] = [
                    Note(text="secure_retry", data={"missing": missing})
                ]
                for i in missing:
                    actions.append(CloseValve(device=f"bottom_{i}"))
                actions += _open_bottom_valves(state, missing)
                actions.append(
                    StartTimer(tag="secure_timeout", seconds=params.grip_timeout_s)
                )
                return state, actions
            # Cannot hold all eight bags down: abort the cut for safety.
            occ = _occ(state)
            actions = [
                Publish(
                    topic="fault",
                    payload={"kind": "secure_exhausted", "missing": missing},
                ),
                Note(text="cutting_aborted", data={"missing": missing}),
            ]
            for i in range(params.slots):
                actions.append(CloseValve(device=f"bottom_{i}"))
            for enc, sid in sorted(occ.items()):
                actions += _fail_stack(sid, "cut_failed", enclosure=enc)
            actions.append(Command(device="swing", op="retract"))
            actions.append(PhaseMark(phase="cutting", edge="end"))
            state = _r(state, occupants=())
            return _enter_reset(state, params, actions)
        return state, []

    if sub is Sub.CUT_SLICING:
        if isinstance(event, ActDone) and event.device == "cutter" and event.op == "extend":
            occ = _occ(state)
            actions: List[Action] = [
                SetPackaging(stacks=tuple(occ[e] for e in sorted(occ)), packaging="cut")
            ]
            new_state, more = _enter_removal(state, params)
            return new_state, actions + more
        return state, []

    return state, []


def _on_removal(state, event, params):
    sub = state.sub

    if sub is Sub.REM_APPROACH:
        if isinstance(event, MotionDone) and event.tag == "rem_approach":
            return _r(state, sub=Sub.REM_DESCEND), [
                Move(tag="rem_descend", dest=("rem", "descend"))
            ]
        return state, []

    if sub is Sub.REM_DESCEND:
        if isinstance(event, MotionDone) and event.tag == "rem_descend":
            return _rem_grip(state, params)
        return state, []

    if sub is Sub.REM_GRIPPING:
        if isinstance(event, SuctionSecured) and event.device == "gripper":
            return _r(state, sub=Sub.REM_LIFT), [
                CancelTimer(tag="grip_timeout"),
                Move(tag="rem_lift", dest=("rem", "lift")),
            ]
        if isinstance(event, TimerFired) and event.tag == "grip_timeout":
            enc = _current_removal_enc(state)
            actions: List[Action] = [CloseValve(device="gripper")]
            if state.remove_attempt < params.remove_attempts:
                state = _r(state, sub=Sub.REM_RESEAT)
                return state, actions + [Move(tag="rem_reseat", dest=("rem", "reseat"))]
            # Bag stuck on this enclosure: leave it jammed and move on.
            sid = _occ(state)[enc]
            actions.append(Note(text="bag_stuck", data={"enclosure": enc, "stack": sid}))
            actions.append(MarkOutcome(kind="remove_failed", stack=sid, enclosure=enc))
            state = _r(state, jammed=state.jammed | {enc})
            return _advance_removal(state, params, actions)
        return state, []

    if sub is Sub.REM_RESEAT:
        if isinstance(event, MotionDone) and event.tag == "rem_reseat":
            return _rem_grip(state, params)
        return state, []

    if sub is Sub.REM_LIFT:
        if isinstance(event, MotionDone) and event.tag == "rem_lift":
            return _r(state, sub=Sub.REM_TO_BIN), [Move(tag="rem_bin", dest=("rem", "bin"))]
        return state, []

    if sub is Sub.REM_TO_BIN:
        if isinstance(event, MotionDone) and event.tag == "rem_bin":
            enc = _current_removal_enc(state)
            sid = _occ(state)[enc]
            state = _r(state, sub=Sub.REM_RELEASE, unbagged=state.unbagged | {enc})
            return state, [
                CloseValve(device="gripper"),
                SetPackaging(stacks=(sid,), packaging="removed"),
                StartTimer(tag="rem_release", seconds=params.removal_release_s),
            ]
        return state, []

    if sub is Sub.REM_RELEASE:
        if isinstance(event, TimerFired) and event.tag == "rem_release":
            return _advance_removal(state, params, [])
        return state, []

    return state, []


def _rem_grip(state: OrcState, params: OrcParams) -> Tuple[OrcState, List[Action]]:
    enc = _current_removal_enc(state)
    state = _r(state, sub=Sub.REM_GRIPPING, remove_attempt=state.remove_attempt + 1)
    return state, [
        OpenValve(
            device="gripper",
            fault_action="remove",
            ctx=_ctx(state, enclosure=enc, stack=_occ(state)[enc], attempt=state.remove_attempt),
        ),
        StartTimer(tag="grip_timeout", seconds=params.grip_timeout_s),
    ]


def _advance_removal(
    state: OrcState, params: OrcParams, actions: List[Action]
) -> Tuple[OrcState, List[Action]]:
    nxt = state.removal_idx + 1
    state = _r(state, removal_idx=nxt)
    if nxt < len(state.removal_queue):
        return _next_bag(state, actions)
    return _enter_delivery(state, actions)


def _on_delivery(state, event, params):
    sub = state.sub

    if sub is Sub.DOOR_OPENING:
        if isinstance(event, ActDone) and event.device == "door" and event.op == "extend":
            state = _r(state, sub=Sub.DOOR_SETTLE)
            return state, [
                Note(text="door_limit_switch", data={"open": True}),
                StartTimer(tag="door_settle", seconds=params.door_settle_s),
            ]
        return state, []

    if sub is Sub.DOOR_SETTLE:
        if isinstance(event, TimerFired) and event.tag == "door_settle":
            occ = _occ(state)
            targets = frozenset(
                e for e in occ if e in state.unbagged and e not in state.jammed
            )
            state = _r(state, sub=Sub.PUSHING, push_targets=targets, push_pending=targets)
            actions: List[Action] = []
            for e in sorted(targets):
                actions.append(
                    Command(
                        device=f"pusher_{e}",
                        op="extend",
                        fault_action="push",
                        ctx=_ctx(state, enclosure=e, stack=occ[e]),
                    )
                )
            if not targets:
                state = _r(state, sub=Sub.PUSH_HOLD)
                actions.append(StartTimer(tag="push_hold", seconds=params.push_hold_s))
            return state, actions
        return state, []

    if sub is Sub.PUSHING:
        if isinstance(event, (ActDone, ActStalled)) and event.device.startswith("pusher_"):
            e = int(event.device.split("_")[1])
            pending = state.push_pending - {e}
            state = _r(state, push_pending=pending)
            actions: List[Action] = []
            if isinstance(event, ActStalled):
                sid = _occ(state).get(e, -1)
                state = _r(state, stalled=state.stalled | {e})
                actions.append(
                    Publish(topic="fault", payload={"kind": "pusher_stall", "enclosure": e})
                )
                actions.append(MarkOutcome(kind="stall_failed", stack=sid, enclosure=e))
            if not pending:
                state = _r(state, sub=Sub.PUSH_HOLD)
                actions.append(StartTimer(tag="push_hold", seconds=params.push_hold_s))
            return state, actions
        return state, []

    if sub is Sub.PUSH_HOLD:
        if isinstance(event, TimerFired) and event.tag == "push_hold":
            state = _r(state, sub=Sub.VERIFYING_DELIVERY, verify_idx=0)
            return state, [StartTimer(tag="dverify", seconds=params.delivery_verify_s)]
        return state, []

    if sub is Sub.VERIFYING_DELIVERY:
        if isinstance(event, TimerFired) and event.tag == "dverify":
            return state, [ReadUltrasonic(enclosure=state.verify_idx)]
        if isinstance(event, UltrasonicRead) and event.enclosure == state.verify_idx:
            e = event.enclosure
            occ = _occ(state)
            actions: List[Action] = []
            if not event.present and e in occ:
                # Pushed clear: the stack left through the open door.
                sid = occ[e]
                state = _occ_remove(state, e)
                actions.append(MarkOutcome(kind="delivered", stack=sid, enclosure=e))
                actions.append(SetStack(stack=sid, state="delivered"))
            elif event.present and e in state.push_targets and e not in state.stalled:
                sid = occ.get(e, -1)
                actions.append(
                    Note(text="delivery_not_confirmed", data={"enclosure": e, "stack": sid})
                )
                actions.append(MarkOutcome(kind="verify_failed", stack=sid, enclosure=e))
            nxt = state.verify_idx + 1
            state = _r(state, verify_idx=nxt)
            if nxt < params.slots:
                return state, actions + [
                    StartTimer(tag="dverify", seconds=params.delivery_verify_s)
                ]
            extended = sorted(state.push_targets | state.stalled)
            if not extended:
                state = _r(state, sub=Sub.RETRACT_SETTLE)
                return state, actions + [
                    StartTimer(tag="retract_settle", seconds=params.door_settle_s)
                ]
            state = _r(state, sub=Sub.RETRACTING, push_pending=frozenset(extended))
            for e in extended:
                actions.append(Command(device=f"pusher_{e}", op="retract"))
            return state, actions
        return state, []

    if sub is Sub.RETRACTING:
        if (
            isinstance(event, ActDone)
            and event.device.startswith("pusher_")
            and event.op == "retract"
        ):
            e = int(event.device.split("_")[1])
            pending = state.push_pending - {e}
            state = _r(state, push_pending=pending, stalled=state.stalled - {e})
            if not pending:
                state = _r(state, sub=Sub.RETRACT_SETTLE)
                return state, [
                    StartTimer(tag="retract_settle", seconds=params.door_settle_s)
                ]
            return state, []
        return state, []

    if sub is Sub.RETRACT_SETTLE:
        if isinstance(event, TimerFired) and event.tag == "retract_settle":
            state = _r(state, sub=Sub.DOOR_CLOSING)
            return state, [Command(device="door", op="retract")]
        return state, []

    if sub is Sub.DOOR_CLOSING:
        if isinstance(event, ActDone) and event.device == "door" and event.op == "retract":
            actions: List[Action] = [
                PhaseMark(phase="delivery", edge="end"),
                Publish(topic="delivery_complete", payload={"cycle": state.cycle}),
            ]
            return _enter_reset(state, params, actions)
        return state, []

    return state, []


def _on_reset(state, event, params):
    sub = state.sub

    if sub is Sub.RESETTING:
        if isinstance(event, TimerFired) and event.tag == "reset":
            state = _r(state, sub=Sub.AWAIT_RESET_MSG)
            return state, [
                PhaseMark(phase="resetting", edge="end"),
                Publish(topic="system_reset", payload={"cycle": state.cycle}),
            ]
        return state, []

    if sub is Sub.AWAIT_RESET_MSG:
        if isinstance(event, BusMsg) and event.topic == "system_reset":
            next_cycle = state.cycle + 1
            if next_cycle >= params.cycles or state.tote_done:
                state = _r(state, phase=Phase.DONE, sub=Sub.NONE, cycle=next_cycle)
                return state, [Note(text="session_done", data={"cycles": next_cycle})]
            state = _r(
                state,
                phase=Phase.FEEDING,
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
        return state, []

    return state, []


_PHASE_HANDLERS = {
    Phase.IDLE: _on_idle,
    Phase.FEEDING: _on_feeding,
    Phase.CUTTING: _on_cutting,
    Phase.REMOVAL: _on_removal,
    Phase.DELIVERY: _on_delivery,
    Phase.RESET: _on_reset,
}

"""Discrete-event runtime that executes the control machine.

The simulation owns the clock, an event heap, the world, the device bank,
the bus and the tracer. It feeds events to ``orchestrator.transition`` and
executes the returned actions: resolving move geometry into profile
durations, taking synthetic camera frames, consulting the fault injector,
mutating the world, and scheduling timers. Device events computed in closed
form by the bank are merged into the same timeline (bank events win ties, so
sensor state settles before control reacts to anything at the same instant).

Nothing here reads a wall clock and all randomness flows through one seeded
generator, so a given (config, seed, script) triple always produces the same
trace, byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bagcell import devices as dv
from bagcell import orchestrator as orc
from bagcell.bus import Bus
from bagcell.config import CellConfig
from bagcell.motion import PlanFailure, leg_lengths, move_duration, plan_with_retries
from bagcell.report import RunReport, Tracer
from bagcell.vision import (
    CameraModel,
    estimate_zone_depth,
    observe,
    pixel_to_robot,
    select_pick_target,
)
from bagcell.world import (
    Packaging,
    StackState,
    World,
    build_world,
    check_invariants,
)

_SIM_TIME_LIMIT_S = 48.0 * 3600.0

_FAULT_PROBS = {
    "pick": "pick_grip_fail_prob",
    "remove": "pick_grip_fail_prob",
    "place": "place_drop_fail_prob",
    "secure": "bottom_suction_fail_prob",
}


@dataclass(frozen=True)
class _DetectDue(orc.Event):
    zone: int
    ctx: Tuple[Tuple[str, Any], ...]


def params_from_config(config: CellConfig, cycles: Optional[int] = None) -> orc.OrcParams:
    o = config.orchestrator
    p = o.pacing
    d = config.devices
    return orc.OrcParams(
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


class Simulation:
    """One seeded run of the cell for a fixed number of cycles."""

    def __init__(
        self,
        config: CellConfig,
        seed: Optional[int] = None,
        script: Optional[dv.FaultScript] = None,
        cycles: Optional[int] = None,
        test_index: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        config.validate()
        self.config = config
        self.seed = config.seed if seed is None else seed
        self.test_index = test_index
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.world: World = build_world(config)
        self.injector = dv.FaultInjector(config.faults, self.rng, script)
        self.bank = dv.DeviceBank(
            config.devices,
            self.injector,
            occupied_distance_cm=config.layout.occupied_distance_cm,
            empty_distance_cm=config.layout.back_wall_cm,
        )
        self.camera = CameraModel.from_config(config.camera)
        self.tracer = tracer if tracer is not None else Tracer()
        self.bus = Bus(extra_topics=tuple(config.extra_topics), on_publish=self._on_publish)
        self.params = params_from_config(config, cycles)
        self.state = orc.initial_state()

        self.now = 0.0
        self._queue: List[Tuple[float, int, orc.Event, Optional[Tuple[str, int]]]] = []
        self._qseq = 0
        self._timer_epoch: Dict[str, int] = {}

        lay = config.layout
        self.home = tuple(lay.home_pose[:3])
        self.reset_pose = tuple(lay.reset_pose[:3])
        self.safe_mid = tuple(lay.safe_mid_pose[:3])
        self.bin_pose = tuple(lay.bin_pose[:3])
        self.robot_pos: Tuple[float, float, float] = self.home
        self.pending_target: Optional[Tuple[float, float, float]] = None

        self._seated: Dict[int, bool] = {}
        self._pushed_out: set[int] = set()
        self._frame_counter = 0
        self._marks: Dict[str, set[int]] = {}
        self._phase_open: Dict[str, float] = {}
        self._phase_spans: Dict[str, List[float]] = {}
        self.violation_count = 0
        self.stall_count = 0
        self._done_time: Optional[float] = None

    # -- event plumbing ----------------------------------------------------

    def _push(
        self, time: float, event: orc.Event, guard: Optional[Tuple[str, int]] = None
    ) -> None:
        self._qseq += 1
        heapq.heappush(self._queue, (time, self._qseq, event, guard))

    def _on_publish(self, msg) -> None:
        self.tracer.record(
            "message",
            msg.time,
            {"topic": msg.topic, "seq": msg.seq, "payload": msg.payload},
        )

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunReport:
        self._push(0.0, orc.Start())
        while True:
            t_bank = self.bank.next_event_time()
            t_queue = self._queue[0][0] if self._queue else None
            if t_bank is None and t_queue is None:
                break
            if t_bank is not None and (t_queue is None or t_bank <= t_queue):
                for dev_ev in self.bank.advance_to(t_bank):
                    name, convert = DEVICE_EVENTS[type(dev_ev)]
                    self.tracer.record(
                        "device_event",
                        dev_ev.time,
                        {"device": dev_ev.device, "event": name, "op": getattr(dev_ev, "op", "")},
                    )
                    self._push(dev_ev.time, convert(dev_ev))
                continue
            time, _, event, guard = heapq.heappop(self._queue)
            if guard is not None:
                tag, epoch = guard
                if self._timer_epoch.get(tag, 0) != epoch:
                    continue
            if time > _SIM_TIME_LIMIT_S:
                raise RuntimeError("simulation exceeded time limit; control loop stuck")
            self.now = time
            self.bank.advance_to(time)
            self._dispatch(event)
        return self._build_report()

    def _dispatch(self, event: orc.Event) -> None:
        if isinstance(event, _DetectDue):
            self._complete_detection(event)
            return
        self.state, actions = orc.transition(self.state, event, self.params)
        if self.state.phase is orc.Phase.DONE and self._done_time is None:
            self._done_time = self.now
        for action in actions:
            self._execute(action)

    # -- action execution --------------------------------------------------

    def _execute(self, action: orc.Action) -> None:
        executor = self._EXECUTORS.get(type(action))
        if executor is None:
            raise TypeError(f"unknown action {action!r}")
        executor(self, action)

    def _publish(self, action: orc.Publish) -> None:
        self.bus.publish(action.topic, action.payload, self.now)
        if action.topic in orc.AWAITED_TOPICS:
            self._push(self.now, orc.BusMsg(topic=action.topic))

    def _detect(self, action: orc.Detect) -> None:
        due = self.now + self.config.orchestrator.pacing.detect_service_s
        self._push(due, _DetectDue(zone=action.zone, ctx=tuple(sorted(action.ctx.items()))))

    def _start_timer(self, action: orc.StartTimer) -> None:
        epoch = self._timer_epoch.get(action.tag, 0) + 1
        self._timer_epoch[action.tag] = epoch
        self._push(
            self.now + action.seconds,
            orc.TimerFired(tag=action.tag),
            guard=(action.tag, epoch),
        )

    def _cancel_timer(self, action: orc.CancelTimer) -> None:
        self._timer_epoch[action.tag] = self._timer_epoch.get(action.tag, 0) + 1

    def _note(self, action: orc.Note) -> None:
        self.tracer.record("note", self.now, {"text": action.text, **action.data})

    # -- geometry ----------------------------------------------------------

    def _resolve_path(self, dest: Tuple[Any, ...]) -> Optional[List[Tuple[float, float, float]]]:
        kind = dest[0]
        cur = self.robot_pos
        if kind == "view":
            return [cur, self.config.view_pose(dest[1])]
        if kind == "target":
            target = self.pending_target if self.pending_target else cur
            return [cur, target]
        if kind == "enclosure":
            drop = self.config.enclosure_drop_pose(dest[1])
            lift = (cur[0], cur[1], cur[2] + 0.22)
            above = (drop[0], drop[1], drop[2] + 0.15)
            return [cur, lift, self.safe_mid, above, drop]
        if kind == "home_via_mid":
            return [cur, self.safe_mid, self.home]
        if kind == "reset":
            return [cur, self.reset_pose]
        if kind == "bin":
            return [cur, self.safe_mid, self.bin_pose]
        if kind == "reseat":
            up = (cur[0], cur[1], cur[2] + 0.06)
            return [cur, up, cur]
        return None

    def _start_move(self, action: orc.Move) -> None:
        mot = self.config.motion
        v = mot.effective_max_speed_mps
        a = mot.effective_acceleration_mps2
        pac = self.config.orchestrator.pacing
        if action.dest[0] == "rem":
            # Bag-removal legs run on fixed clearance distances around the
            # enclosure tops; the bin rides alongside the enclosure row.
            leg = action.dest[1]
            dist = {
                "approach": pac.removal_approach_m,
                "descend": pac.removal_descend_m,
                "lift": pac.removal_lift_m,
                "bin": pac.removal_bin_m,
                "reseat": 2.0 * pac.removal_descend_m,
            }[leg]
            duration = (
                move_duration(dist, v, a)
                if leg != "reseat"
                else 2.0 * move_duration(pac.removal_descend_m, v, a)
            )
            distance = dist
        else:
            path = self._resolve_path(action.dest)
            if path is None:
                raise ValueError(f"unresolvable move destination {action.dest!r}")
            legs = leg_lengths(path)
            # The arm stops at every waypoint, so each leg is its own profile.
            duration = sum(move_duration(d, v, a) for d in legs)
            distance = sum(legs)
            self.robot_pos = tuple(path[-1])
        self.tracer.record(
            "motion",
            self.now,
            {
                "tag": action.tag,
                "distance_m": round(distance, 6),
                "duration_s": round(duration, 6),
            },
        )
        self._push(self.now + duration, orc.MotionDone(tag=action.tag))

    # -- detection ---------------------------------------------------------

    def _complete_detection(self, due: _DetectDue) -> None:
        zone = due.zone
        ctx = dict(due.ctx)
        ctx["test"] = self.test_index
        pickable = self.world.zone_stacks(zone)
        if not pickable:
            self.tracer.record(
                "detect", self.now, {"zone": zone, "gt": 0, "boxes": 0, "found": False}
            )
            self._push(
                self.now,
                orc.DetectReady(zone=zone, zone_has_stacks=False, found=False),
            )
            return
        leftmost = min(pickable, key=lambda s: (s.col, s.id)).id
        scripted = self.injector.scripted("detect", ctx)
        force_miss = scripted == "fail"
        obs = observe(
            self.world,
            self.camera,
            zone,
            self.rng,
            self.config.faults,
            frame_id=self._frame_counter,
            force_miss=force_miss,
        )
        self._frame_counter += 1
        found = bool(obs.detections)
        stack_id = -1
        if found:
            idx = select_pick_target(obs.detections)
            box = obs.detections[idx]
            stack_id = obs.detection_sources[idx]
            depth = estimate_zone_depth(self.camera, self.world.tote.anchors, zone)
            cx, cy = box.center
            self.pending_target = pixel_to_robot(self.camera, cx, cy, depth)
        self.tracer.record(
            "detect",
            self.now,
            {
                "zone": zone,
                "gt": len(obs.ground_truth),
                "boxes": len(obs.detections),
                "found": found,
                "target": stack_id,
                "forced_miss": force_miss,
            },
        )
        self._push(
            self.now,
            orc.DetectReady(
                zone=zone,
                zone_has_stacks=True,
                found=found,
                stack_id=stack_id,
                leftmost_stack_id=leftmost,
                n_boxes=len(obs.detections),
            ),
        )

    # -- planning ----------------------------------------------------------

    def _start_plan(self, action: orc.Plan) -> None:
        mot = self.config.motion
        ctx = dict(action.ctx)
        ctx["test"] = self.test_index
        # "attempt" in script selectors refers to the planner's own attempt
        # loop, not the surrounding pick round.
        base_ctx = {k: v for k, v in ctx.items() if k != "attempt"}

        def forced(attempt: int) -> Optional[bool]:
            out = self.injector.scripted("plan", {**base_ctx, "attempt": attempt})
            if out is None:
                return None
            return out == "ok"

        try:
            result = plan_with_retries(
                failure_prob=self.config.faults.plan_failure_prob,
                budget_s=mot.planning_time_budget_s,
                max_attempts=mot.max_planning_attempts,
                rng=self.rng,
                forced_outcomes=forced,
            )
            ok, attempts, penalty = True, result.attempts, result.penalty_s
        except PlanFailure as exc:
            ok, attempts, penalty = False, exc.attempts, exc.penalty_s
        duration = self.config.orchestrator.pacing.plan_service_s + penalty
        self.tracer.record(
            "plan",
            self.now,
            {"tag": action.tag, "ok": ok, "attempts": attempts, "penalty_s": penalty},
        )
        self._push(self.now + duration, orc.PlanReady(tag=action.tag, ok=ok))

    # -- devices -----------------------------------------------------------

    def _open_valve(self, action: orc.OpenValve) -> None:
        mode = dv.SuctionMode.SEAL
        if action.fault_action is not None:
            ctx = dict(action.ctx)
            ctx["test"] = self.test_index
            if action.fault_action == "pick" and "stack" not in ctx:
                # Suction on a phantom detection can never seal.
                outcome = "fail"
                self.tracer.record(
                    "fault_decision",
                    self.now,
                    {"action": "pick", "outcome": "fail", "source": "phantom", **ctx},
                )
            else:
                prob = getattr(self.injector.profile, _FAULT_PROBS[action.fault_action])
                outcome = self.injector.decide(action.fault_action, ctx, prob)
                self.tracer.record(
                    "fault_decision",
                    self.now,
                    {"action": action.fault_action, "outcome": outcome, **ctx},
                )
            if outcome != "ok":
                mode = dv.SuctionMode.LEAK
            if action.fault_action == "place":
                self._seated[ctx.get("enclosure", -1)] = outcome == "ok"
        self.tracer.record(
            "device_cmd",
            self.now,
            {"device": action.device, "op": "open", "mode": mode.value},
        )
        self.bank.open_valve(action.device, mode)

    def _close_valve(self, action: orc.CloseValve) -> None:
        self.tracer.record("device_cmd", self.now, {"device": action.device, "op": "close"})
        self.bank.close_valve(action.device)

    def _command(self, action: orc.Command) -> None:
        stall = False
        if action.fault_action is not None:
            ctx = dict(action.ctx)
            ctx["test"] = self.test_index
            outcome = self.injector.decide(action.fault_action, ctx, 0.0)
            self.tracer.record(
                "fault_decision",
                self.now,
                {"action": action.fault_action, "outcome": outcome, **ctx},
            )
            if outcome in ("fail", "stall"):
                stall = True
                self.stall_count += 1
        self.tracer.record(
            "device_cmd", self.now, {"device": action.device, "op": action.op}
        )
        self.bank.command(action.device, action.op, stall=stall)
        if action.device.startswith("pusher_") and action.op == "extend" and not stall:
            self._pushed_out.add(int(action.device.split("_")[1]))

    def _read_ultrasonic(self, action: orc.ReadUltrasonic) -> None:
        enclosure = action.enclosure
        enc = self.world.enclosures[enclosure]
        physically_present = (
            enc.occupant is not None
            and enclosure not in self._pushed_out
            and self._seated.get(enclosure, True)
        )
        present = self.bank.presence(physically_present, self.rng)
        self.tracer.record(
            "sensor",
            self.now,
            {"kind": "ultrasonic", "enclosure": enclosure, "present": present},
        )
        self._push(self.now, orc.UltrasonicRead(enclosure=enclosure, present=present))

    # -- world mutation ----------------------------------------------------

    def _set_stack(self, action: orc.SetStack) -> None:
        if action.stack < 0:
            return
        stack = self.world.stacks[action.stack]
        new_state = StackState(action.state)
        if stack.enclosure is not None:
            enc = self.world.enclosures[stack.enclosure]
            if enc.occupant == stack.id:
                enc.occupant = None
            stack.enclosure = None
        stack.state = new_state
        if new_state is StackState.IN_ENCLOSURE:
            if action.enclosure is None:
                raise ValueError("in_enclosure requires an enclosure index")
            stack.enclosure = action.enclosure
            self.world.enclosures[action.enclosure].occupant = stack.id
        self.tracer.record(
            "stack",
            self.now,
            {"stack": stack.id, "state": new_state.value, "enclosure": stack.enclosure},
        )
        self._check_world()

    def _set_packaging(self, action: orc.SetPackaging) -> None:
        for sid in action.stacks:
            if sid < 0:
                continue
            self.world.stacks[sid].packaging = Packaging(action.packaging)
        self.tracer.record(
            "packaging",
            self.now,
            {"stacks": [s for s in action.stacks if s >= 0], "packaging": action.packaging},
        )
        self._check_world()

    def _check_world(self) -> None:
        violations = check_invariants(self.world)
        for v in violations:
            self.violation_count += 1
            self.tracer.record(
                "violation", self.now, {"code": v.code, "detail": v.detail}
            )

    # -- bookkeeping -------------------------------------------------------

    def _mark(self, action: orc.MarkOutcome) -> None:
        if action.stack >= 0:
            self._marks.setdefault(action.kind, set()).add(action.stack)
        self.tracer.record(
            "outcome",
            self.now,
            {"kind": action.kind, "stack": action.stack, "enclosure": action.enclosure},
        )

    def _phase_mark(self, action: orc.PhaseMark) -> None:
        self.tracer.record(
            "phase", self.now, {"phase": action.phase, "edge": action.edge}
        )
        if action.edge == "start":
            self._phase_open[action.phase] = self.now
            if action.phase == "resetting":
                self._seated.clear()
                self._pushed_out.clear()
        else:
            start = self._phase_open.pop(action.phase, None)
            if start is not None:
                self._phase_spans.setdefault(action.phase, []).append(self.now - start)

    def mark_count(self, kind: str) -> int:
        return len(self._marks.get(kind, ()))

    def _build_report(self) -> RunReport:
        detected = self._marks.get("detected", set())
        engaged = detected | self._marks.get("detect_failed", set())
        counts = self.world.counts()
        phase_means = {
            name: sum(spans) / len(spans) for name, spans in sorted(self._phase_spans.items())
        }
        duration = self._done_time if self._done_time is not None else self.now
        return RunReport(
            test_index=self.test_index,
            seed=self.seed,
            cycles=self.state.cycle,
            stacks_offered=len(engaged),
            detected=len(detected),
            picked=self.mark_count("picked"),
            placed=self.mark_count("placed"),
            delivered=self.mark_count("delivered"),
            failed_unhandled=counts[StackState.FAILED_UNHANDLED.value],
            duration_s=duration,
            phase_durations_s=phase_means,
            violations=self.violation_count,
            pusher_stalls=self.stall_count,
        )

    _EXECUTORS = {
        orc.Publish: _publish,
        orc.Move: _start_move,
        orc.Detect: _detect,
        orc.Plan: _start_plan,
        orc.StartTimer: _start_timer,
        orc.CancelTimer: _cancel_timer,
        orc.OpenValve: _open_valve,
        orc.CloseValve: _close_valve,
        orc.Command: _command,
        orc.ReadUltrasonic: _read_ultrasonic,
        orc.SetStack: _set_stack,
        orc.SetPackaging: _set_packaging,
        orc.MarkOutcome: _mark,
        orc.PhaseMark: _phase_mark,
        orc.Note: _note,
    }


# Device-event type -> (trace name, machine event built from it).
DEVICE_EVENTS = {
    dv.Secured: ("secured", lambda ev: orc.SuctionSecured(device=ev.device)),
    dv.Lost: ("lost", lambda ev: orc.SuctionLost(device=ev.device)),
    dv.ActuatorStalled: ("stalled", lambda ev: orc.ActStalled(device=ev.device, op=ev.op)),
    dv.ActuatorDone: ("done", lambda ev: orc.ActDone(device=ev.device, op=ev.op)),
}


def run_single(
    config: CellConfig,
    seed: Optional[int] = None,
    cycles: Optional[int] = None,
    script: Optional[dv.FaultScript] = None,
    test_index: int = 0,
) -> Tuple[RunReport, Tracer]:
    sim = Simulation(config, seed=seed, script=script, cycles=cycles, test_index=test_index)
    report = sim.run()
    return report, sim.tracer


def run_campaign(
    config: CellConfig,
    n_tests: int,
    script: Optional[dv.FaultScript] = None,
    base_seed: Optional[int] = None,
    cycles_per_test: int = 1,
) -> Tuple[List[RunReport], List[Tracer]]:
    """Sequential campaign: each test is a fresh cell on seed base+index.

    A shared fault script is consumed across tests (its entries carry test
    selectors), mirroring how one scripted bench session spans many runs.
    """
    base = config.seed if base_seed is None else base_seed
    reports: List[RunReport] = []
    tracers: List[Tracer] = []
    for i in range(n_tests):
        sim = Simulation(
            config, seed=base + i, script=script, cycles=cycles_per_test, test_index=i
        )
        reports.append(sim.run())
        tracers.append(sim.tracer)
    return reports, tracers

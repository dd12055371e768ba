"""Discrete-event runtime that executes the control machine.

The simulation owns the clock, the one event heap, the world, the device
bank and the tracer. It feeds events to ``orchestrator.transition`` and
hands each returned action to its executor, picked by the action's type:
resolving move geometry into profile durations, taking camera frames (a
``Detect`` is queued itself and completes when it comes due), deciding each
fallible occurrence by one rule in ``Simulation._outcome``, which adds the
run's test index to its context, sending every device command through one
executor, mutating the world, and scheduling timers. It builds only what a
run changes: the camera, each zone's pick depth and each stack's box come
from the config's one ``Cell`` (``CellConfig.validate``). So does each
move that starts at a pose the config fixes and does not go to the detected
pick point: the ``Cell``'s move memo keeps its end pose, its traced distance
and duration, and every run on the ``Cell`` looks it up. A move the memo
does not hold times each leg length once per run. The device bank decides what
a failed command does and what an ultrasonic read sees, and names each
device event.
A publish is traced as a ``message`` numbered per topic; a topic that the
machine awaits in a ``BusMsg`` row of ``orchestrator.STEPS`` comes back to
it as that ``BusMsg`` at the same instant. The event a device command
returns joins the same heap at rank 0, so it wins ties: it is applied to the
bank and traced under the name the bank gives it, then re-queued at rank 1,
behind everything already due at that instant. Due alone, it would be the
next pop, so it goes to the machine at once. Every timer start or cancel
and every device command bumps one epoch map, keyed by timer tag or device
name; a popped entry whose epoch is behind was superseded and is dropped.

Nothing here reads a wall clock and all randomness flows through one seeded
generator, so a given (config, seed, script) triple always produces the same
trace, byte for byte. That generator is numpy's ``Generator(PCG64(seed))``,
and numpy is imported in ``Simulation.__init__`` where it is built, not at
module level, so that importing the CLI (and scoring with ``bagcell eval``)
does not load numpy.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from bagcell import devices as dv
from bagcell import orchestrator as orc
from bagcell.bus import TOPICS
from bagcell.config import Cell, CellConfig, RunAborted
from bagcell.motion import leg_lengths, move_duration
from bagcell.report import RunReport, Tracer, summarize_run
from bagcell.vision import observe, select_pick_target
from bagcell.world import PACKAGINGS, STACK_STATES, World, build_world, check_invariants

_SIM_TIME_LIMIT_S = 48.0 * 3600.0

# The topics the machine waits to receive back, read off its event graph.
_AWAITED_TOPICS = frozenset(ev.topic for (_, ev) in orc.STEPS if type(ev) is orc.BusMsg)


class SimulationStuck(RunAborted):
    """The run passed its simulated-time limit: the control loop never finished."""


class Simulation:
    """One seeded run on a ``Cell`` for a fixed number of cycles."""

    def __init__(
        self,
        cell: Cell,
        seed: Optional[int] = None,
        script: Optional[dv.FaultScript] = None,
        cycles: Optional[int] = None,
        test_index: int = 0,
    ):
        self.cell = cell
        self.config = config = cell.config
        self.seed = config.seed if seed is None else seed
        self.test_index = test_index
        import numpy as np

        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.world: World = build_world(config)
        self.script = script
        self.bank = dv.DeviceBank(config)
        self.tracer = Tracer()
        self._topic_seq = dict.fromkeys(TOPICS, 0)
        self.params = orc.OrcParams.from_config(config, cycles)
        self.state = orc.OrcState()

        self.now = 0.0
        # (time, rank, seq, event, guard): rank 0 is a device event not yet
        # applied; guard is (key, epoch) for an entry a later command may
        # supersede.
        self._queue: List[Tuple[float, int, int, orc.Event, Optional[Tuple[str, int]]]] = []
        self._qseq = 0
        # Timer tags and device names share one key space; they never collide.
        self._epoch: Dict[str, int] = {}

        lay = config.layout
        self.home = tuple(lay.home_pose[:3])
        self.reset_pose = tuple(lay.reset_pose[:3])
        self.safe_mid = tuple(lay.safe_mid_pose[:3])
        self.bin_pose = tuple(lay.bin_pose[:3])
        self.robot_pos: Tuple[float, float, float] = self.home
        # Whether the arm stands at a pose the config fixes: every move but
        # one to ``target`` ends at one, and a removal leg or a reseat leaves
        # the arm where it was.
        self._posed = True
        self.pending_target: Optional[Tuple[float, float, float]] = None
        mot = config.motion
        self._limits = mot.effective_max_speed_mps, mot.effective_acceleration_mps2
        # Leg length -> its move time under this run's limits, for the moves
        # the Cell's move memo does not hold.
        self._leg_s: Dict[float, float] = {}

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, event: orc.Event) -> None:
        """Queue ``event`` at rank 1, under no guard."""
        self._qseq += 1
        heapq.heappush(self._queue, (time, 1, self._qseq, event, None))

    def _supersede(self, key: str, due: dv.Due = None, rank: int = 0) -> None:
        """Drop every entry queued under ``key``, then queue ``due`` under it."""
        epoch = self._epoch[key] = self._epoch.get(key, 0) + 1
        if due is not None:
            self._qseq += 1
            heapq.heappush(self._queue, (due[0], rank, self._qseq, due[1], (key, epoch)))

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunReport:
        self._push(0.0, orc.Start())
        queue, epochs = self._queue, self._epoch
        while queue:
            time, rank, _, event, guard = heapq.heappop(queue)
            if guard is not None and epochs[guard[0]] != guard[1]:
                continue
            if time > _SIM_TIME_LIMIT_S:
                raise SimulationStuck("simulation exceeded time limit; control loop stuck")
            if rank == 0:
                name = self.bank.apply(event)
                self.tracer.record(
                    "device_event",
                    time,
                    {"device": event.device, "event": name, "op": getattr(event, "op", "")},
                )
                if queue and queue[0][0] <= time:  # others are due with it: they go first
                    self._push(time, event)
                    continue
            self.now = time
            self._dispatch(event)
        return summarize_run(self.tracer.records, self.test_index, self.seed, self.now)

    def _dispatch(self, event: orc.Event) -> None:
        if type(event) is orc.Detect:  # a detection frame the runtime queued, now due
            self._complete_detection(event)
            return
        self.state, actions = orc.transition(self.state, event, self.params)
        executors = self._EXECUTORS
        for action in actions:
            executor = executors.get(type(action))
            if executor is None:
                raise TypeError(f"unknown action {action!r}")
            executor(self, action)

    # -- action execution --------------------------------------------------

    def _publish(self, action: orc.Publish) -> None:
        topic = action.topic
        seq = self._topic_seq[topic]  # a topic outside TOPICS is a KeyError
        self._topic_seq[topic] = seq + 1
        self.tracer.record(
            "message", self.now, {"topic": topic, "seq": seq, "payload": dict(action.payload)}
        )
        if topic in _AWAITED_TOPICS:
            self._push(self.now, orc.BusMsg(topic=topic))

    def _detect(self, action: orc.Detect) -> None:
        self._push(self.now + self.config.orchestrator.pacing.detect_service_s, action)

    def _start_timer(self, action: orc.StartTimer) -> None:
        fire = (self.now + action.seconds, orc.TimerFired(tag=action.tag))
        self._supersede(action.tag, fire, rank=1)

    def _cancel_timer(self, action: orc.CancelTimer) -> None:
        self._supersede(action.tag)

    def _note(self, action: orc.Note) -> None:
        self.tracer.record("note", self.now, {"text": action.text, **action.data})

    # -- geometry ----------------------------------------------------------

    def _via(self, *points: Tuple[float, float, float]) -> List[float]:
        """Leg lengths from the arm's position through ``points``; the arm ends at the last."""
        path = [self.robot_pos, *points]
        self.robot_pos = tuple(points[-1])
        return leg_lengths(path)

    def _to_enclosure(self, index: int) -> List[float]:
        x, y, z = self.robot_pos
        dx, dy, dz = drop = self.config.enclosure_drop_pose(index)
        return self._via((x, y, z + 0.22), self.safe_mid, (dx, dy, dz + 0.15), drop)

    def _reseat(self) -> List[float]:
        x, y, z = self.robot_pos
        return self._via((x, y, z + 0.06), self.robot_pos)

    def _removal(self, leg: str) -> List[float]:
        # Bag-removal leg ``x`` runs the fixed clearance ``pacing.removal_x_m``
        # around the enclosure tops; the bin rides alongside the enclosure row.
        # A reseat lowers the bag and lifts it again, and the arm's pose stays.
        pac = self.config.orchestrator.pacing
        if leg == "reseat":
            return [pac.removal_descend_m, pac.removal_descend_m]
        return [getattr(pac, f"removal_{leg}_m")]

    # Move destination kind -> the move's leg lengths, given the destination's arguments.
    _DESTINATIONS = {
        "view": lambda self, zone: self._via(self.config.view_pose(zone)),
        "target": lambda self: self._via(self.pending_target or self.robot_pos),
        "enclosure": _to_enclosure,
        "home_via_mid": lambda self: self._via(self.safe_mid, self.home),
        "reset": lambda self: self._via(self.reset_pose),
        "bin": lambda self: self._via(self.safe_mid, self.bin_pose),
        "reseat": _reseat,
        "rem": _removal,
    }

    def _start_move(self, action: orc.Move) -> None:
        dest = action.dest
        kind = dest[0]
        posed = self._posed
        key = (self.robot_pos, dest)
        move = self.cell.moves.get(key) if posed else None
        if move is None:
            move = self._plan_move(dest)
            if posed and kind != "target":
                self.cell.moves[key] = move
        self.robot_pos, distance, rounded, duration = move
        if kind == "target":
            self._posed = False
        elif kind not in ("rem", "reseat"):
            self._posed = True
        self.tracer.record(
            "motion", self.now, {"tag": action.tag, "distance_m": distance, "duration_s": rounded}
        )
        self._push(self.now + duration, orc.MotionDone(tag=action.tag))

    def _plan_move(self, dest: Tuple) -> Tuple:
        """(end pose, rounded distance, rounded duration, duration) of a move from here."""
        kind, *args = dest
        build = self._DESTINATIONS.get(kind)
        if build is None:
            raise ValueError(f"unresolvable move destination {dest!r}")
        legs = build(self, *args)
        # The arm stops at every waypoint, so each leg is its own profile.
        leg_s = self._leg_s
        for d in legs:
            if d not in leg_s:
                leg_s[d] = move_duration(d, *self._limits)
        duration = sum([leg_s[d] for d in legs])
        return self.robot_pos, round(sum(legs), 6), round(duration, 6), duration

    # -- detection ---------------------------------------------------------

    def _complete_detection(self, action: orc.Detect) -> None:
        zone = action.zone
        pickable = self.world.zone_stacks(zone)
        record = {"zone": zone, "gt": 0, "boxes": 0, "found": False}
        found, stack_id, leftmost = False, -1, -1
        if pickable:
            leftmost = pickable[0].id  # zone_stacks comes in (col, id) order
            # Like every scripted action, any outcome but "ok" is a failure.
            scripted = self._outcome("detect", action.ctx)
            miss = None if scripted is None else scripted != "ok"
            cell = self.cell
            obs = observe(pickable, cell.boxes, cell.camera, self.rng, self.config.faults, miss)
            found = bool(obs.detections)
            if found:
                idx = select_pick_target(obs.detections)
                stack_id = obs.detection_sources[idx]
                cx, cy = obs.detections[idx].center
                self.pending_target = cell.camera.back_project(cx, cy, cell.depths[zone])
            record.update(
                gt=len(obs.ground_truth),
                boxes=len(obs.detections),
                found=found,
                target=stack_id,
                forced_miss=bool(miss),
            )
        self.tracer.record("detect", self.now, record)
        self._push(self.now, orc.DetectReady(zone, bool(pickable), found, stack_id, leftmost))

    # -- planning ----------------------------------------------------------

    def _start_plan(self, action: orc.Plan) -> None:
        """Run the planner's attempts; each failed one burns the whole budget.

        Each attempt is one fallible occurrence (``_outcome``); a ``plan``
        script entry's ``attempt`` selector names the planner's own attempt.
        """
        mot = self.config.motion
        penalty = 0.0
        for attempts in range(1, mot.max_planning_attempts + 1):
            ok = self._outcome("plan", {**action.ctx, "attempt": attempts}) == "ok"
            if ok:
                break
            penalty += mot.planning_time_budget_s
        duration = self.config.orchestrator.pacing.plan_service_s + penalty
        self.tracer.record(
            "plan",
            self.now,
            {"tag": action.tag, "ok": ok, "attempts": attempts, "penalty_s": penalty},
        )
        self._push(self.now + duration, orc.PlanReady(tag=action.tag, ok=ok))

    # -- devices -----------------------------------------------------------

    def _outcome(self, action: str, ctx: Dict[str, Any]) -> Optional[str]:
        """One fallible occurrence's outcome: a matching script entry's, else the dice's.

        Of the action's failure probability (``devices.FAULT_PROBS``), 0 passes
        and 1 fails without a draw; one draw decides anything strictly between.
        An action with no probability gets None.
        """
        if self.script is not None:
            scripted = self.script.consume({"action": action, **ctx, "test": self.test_index})
            if scripted is not None:
                return scripted
        prob_name = dv.FAULT_PROBS[action]
        if prob_name is None:
            return None
        prob = getattr(self.config.faults, prob_name)
        return "fail" if prob >= 1.0 or (prob > 0.0 and self.rng.random() < prob) else "ok"

    def _decide(self, action: str, ctx: Dict[str, Any]) -> str:
        """Outcome of one fallible device action, traced as a fault decision."""
        source = {}
        if action == "pick" and "stack" not in ctx:
            # Suction on a phantom detection can never seal.
            outcome, source = "fail", {"source": "phantom"}
        else:
            outcome = self._outcome(action, ctx) or "ok"
        self.tracer.record(
            "fault_decision",
            self.now,
            {"action": action, "outcome": outcome, **source, **ctx, "test": self.test_index},
        )
        return outcome

    def _device(self, action: orc.Command) -> None:
        """Send one device command; a failed fault decision fails the command."""
        device, op, fault = action.device, action.op, action.fault_action
        failed = fault is not None and self._decide(fault, action.ctx) != "ok"
        if fault == "place":
            self.world.stacks[action.ctx["stack"]].seated = not failed
        record = {"device": device, "op": op}
        if op == "open":
            record["mode"] = "leak" if failed else "seal"
        self.tracer.record("device_cmd", self.now, record)
        self._supersede(device, self.bank.command(device, op, self.now, failed))

    def _read_ultrasonic(self, action: orc.ReadUltrasonic) -> None:
        enclosure = action.enclosure
        occupant = self.world.occupant(enclosure)
        seated = occupant is not None and self.world.stacks[occupant].seated
        present = self.bank.presence(enclosure, seated, self.rng)
        self.tracer.record(
            "sensor",
            self.now,
            {"kind": "ultrasonic", "enclosure": enclosure, "present": present},
        )
        self._push(self.now, orc.UltrasonicRead(enclosure=enclosure, present=present))

    # -- world mutation ----------------------------------------------------

    def _set_stack(self, action: orc.SetStack) -> None:
        if action.state not in STACK_STATES:
            raise ValueError(f"unknown stack state {action.state!r}")
        if action.stack < 0:
            return
        if action.state == "in_enclosure" and action.enclosure is None:
            raise ValueError("in_enclosure requires an enclosure index")
        stack = self.world.stacks[action.stack]
        stack.state = action.state
        stack.enclosure = action.enclosure
        self.tracer.record("stack", self.now, action._asdict())
        self._check_world()

    def _set_packaging(self, action: orc.SetPackaging) -> None:
        if action.packaging not in PACKAGINGS:
            raise ValueError(f"unknown packaging {action.packaging!r}")
        stacks = [sid for sid in action.stacks if sid >= 0]
        for sid in stacks:
            self.world.stacks[sid].packaging = action.packaging
        self.tracer.record("packaging", self.now, {"stacks": stacks, "packaging": action.packaging})
        self._check_world()

    def _check_world(self) -> None:
        for v in check_invariants(self.world):
            self.tracer.record(
                "violation", self.now, {"code": v.code, "detail": v.detail}
            )

    # -- bookkeeping -------------------------------------------------------

    def _trace(self, action: orc.Action) -> None:
        """Trace a bookkeeping action as a record of its own fields."""
        self.tracer.record(self._TRACED[type(action)], self.now, action._asdict())

    _TRACED = {orc.MarkOutcome: "outcome", orc.PhaseMark: "phase"}

    _EXECUTORS = {
        orc.Publish: _publish,
        orc.Move: _start_move,
        orc.Detect: _detect,
        orc.Plan: _start_plan,
        orc.StartTimer: _start_timer,
        orc.CancelTimer: _cancel_timer,
        orc.Command: _device,
        orc.ReadUltrasonic: _read_ultrasonic,
        orc.SetStack: _set_stack,
        orc.SetPackaging: _set_packaging,
        orc.MarkOutcome: _trace,
        orc.PhaseMark: _trace,
        orc.Note: _note,
    }


def run_single(
    config: CellConfig | Cell,
    seed: Optional[int] = None,
    cycles: Optional[int] = None,
    script: Optional[dv.FaultScript] = None,
) -> Tuple[RunReport, Tracer]:
    """One run, on ``config``'s ``Cell``: a config is validated first, a ``Cell`` is used as it is.

    ``cli run`` passes the ``Cell`` it validated before it cleaned its outdir.
    """
    cell = config if isinstance(config, Cell) else config.validate()
    sim = Simulation(cell, seed=seed, script=script, cycles=cycles)
    return sim.run(), sim.tracer


def run_campaign(
    cell: Cell,
    tests: Iterable[int],
    script: Optional[dv.FaultScript] = None,
) -> Iterator[Tuple[RunReport, Tracer]]:
    """Campaign tests in the order given: test i is a fresh single-cycle run on the config's seed + i.

    A whole campaign passes ``range(n)``; ``cli`` passes each worker its share.
    Every test runs on the one ``cell``. Yields each test's report and tracer
    as its run ends, so a caller can write a trace out before the next run
    starts. A shared fault script is consumed across tests (its entries carry
    test selectors), mirroring how one scripted bench session spans many runs.
    """
    for i in tests:
        sim = Simulation(cell, seed=cell.config.seed + i, script=script, cycles=1, test_index=i)
        yield sim.run(), sim.tracer

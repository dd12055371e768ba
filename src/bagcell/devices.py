"""Device bank: suction lines, linear actuators, rangefinders, and faults.

All device dynamics are piecewise linear, so the bank never ticks: every
command computes its threshold crossings and completion times in closed form
and queues them as timed events. ``advance_to`` releases events up to a given
time and updates analog state; ``next_event_time`` lets an event loop sleep
precisely until something happens.

Fault injection is two-layered: a :class:`FaultProfile` gives stochastic
per-action failure probabilities, and a :class:`FaultScript` pins specific
(action, context) occurrences to fixed outcomes. Script entries are consumed
in file order, first match wins, and always take precedence over the dice.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bagcell.config import ENCLOSURE_COUNT, DeviceConfig, FaultConfig

# The stochastic fault knobs live in the config tree; the runtime name is the
# same structure.
FaultProfile = FaultConfig


class InterlockViolation(Exception):
    """A device command was issued while its safety precondition was false."""

    def __init__(self, device: str, op: str, reason: str):
        self.device = device
        self.op = op
        self.reason = reason
        super().__init__(f"{device}.{op}: {reason}")


class MalformedFaultScript(ValueError):
    def __init__(self, path: str, index: Optional[int], reason: str):
        self.path = path
        self.index = index
        where = f"{path}" if index is None else f"{path} entry {index}"
        super().__init__(f"{where}: {reason}")


# --- fault script ---------------------------------------------------------

SCRIPT_VERSION = 1
_OUTCOMES = ("ok", "fail", "stall")
_SELECTOR_KEYS = (
    "action",
    "test",
    "cycle",
    "slot",
    "attempt",
    "stack",
    "enclosure",
    "zone",
)


@dataclass
class ScriptEntry:
    when: Dict[str, Any]
    outcome: str
    consumed: bool = False

    def matches(self, context: Dict[str, Any]) -> bool:
        if self.consumed:
            return False
        for key, want in self.when.items():
            if context.get(key) != want:
                return False
        return True


@dataclass
class FaultScript:
    entries: List[ScriptEntry] = field(default_factory=list)

    def consume(self, context: Dict[str, Any]) -> Optional[str]:
        """First unconsumed entry matching ``context``, marked consumed."""
        for entry in self.entries:
            if entry.matches(context):
                entry.consumed = True
                return entry.outcome
        return None

    def unconsumed(self) -> List[ScriptEntry]:
        return [e for e in self.entries if not e.consumed]

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = "<dict>") -> "FaultScript":
        if data.get("version") != SCRIPT_VERSION:
            raise MalformedFaultScript(
                path, None, f"unsupported version {data.get('version')!r}"
            )
        raw = data.get("entries")
        if not isinstance(raw, list):
            raise MalformedFaultScript(path, None, "entries must be a list")
        entries: List[ScriptEntry] = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise MalformedFaultScript(path, i, "entry must be an object")
            when = item.get("when")
            outcome = item.get("outcome")
            if not isinstance(when, dict) or not when:
                raise MalformedFaultScript(path, i, "missing non-empty 'when'")
            bad = [k for k in when if k not in _SELECTOR_KEYS]
            if bad:
                raise MalformedFaultScript(path, i, f"unknown selector keys {bad}")
            if outcome not in _OUTCOMES:
                raise MalformedFaultScript(path, i, f"outcome must be one of {_OUTCOMES}")
            entries.append(ScriptEntry(when=dict(when), outcome=outcome))
        return cls(entries=entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultScript":
        p = Path(path)
        try:
            data = json.loads(p.read_text())
        except FileNotFoundError:
            raise MalformedFaultScript(str(p), None, "file not found")
        except json.JSONDecodeError as exc:
            raise MalformedFaultScript(str(p), None, f"invalid JSON: {exc}")
        return cls.from_dict(data, path=str(p))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SCRIPT_VERSION,
            "entries": [{"when": e.when, "outcome": e.outcome} for e in self.entries],
        }


class FaultInjector:
    """Single decision point for every fallible action in a run."""

    def __init__(
        self,
        profile: FaultProfile,
        rng: np.random.Generator,
        script: Optional[FaultScript] = None,
    ):
        self.profile = profile
        self.rng = rng
        self.script = script

    def decide(self, action: str, context: Dict[str, Any], prob: float = 0.0) -> str:
        """Outcome for one action occurrence: scripted first, then dice."""
        scripted = self.scripted(action, context)
        if scripted is not None:
            return scripted
        if prob > 0.0 and self.rng.random() < prob:
            return "fail"
        return "ok"

    def scripted(self, action: str, context: Dict[str, Any]) -> Optional[str]:
        """Scripted outcome for this occurrence, or None; never rolls dice."""
        if self.script is None:
            return None
        return self.script.consume({"action": action, **context})


# --- analog/timed devices -------------------------------------------------


class SuctionMode(enum.Enum):
    SEAL = "seal"  # pulls down to the steady-state vacuum level
    LEAK = "leak"  # bad seal: plateaus above the secure threshold


@dataclass
class DeviceEvent:
    time: float
    device: str


@dataclass
class Secured(DeviceEvent):
    pass


@dataclass
class Lost(DeviceEvent):
    pass


@dataclass
class ActuatorDone(DeviceEvent):
    op: str = ""


@dataclass
class ActuatorStalled(DeviceEvent):
    op: str = ""


@dataclass
class _Segment:
    """Linear analog trajectory: value(t) = clamp(v0 + rate*(t - t0) -> target)."""

    t0: float
    v0: float
    rate: float
    target: float

    def value_at(self, t: float) -> float:
        if self.rate == 0.0:
            return self.v0
        v = self.v0 + self.rate * (t - self.t0)
        if self.rate < 0.0:
            return max(v, self.target)
        return min(v, self.target)

    def crossing_time(self, level: float) -> Optional[float]:
        """Time the segment reaches ``level``, None if it never does."""
        if self.rate == 0.0 or self.v0 == level:
            return None
        t = self.t0 + (level - self.v0) / self.rate
        if t <= self.t0:
            return None
        # must reach level before plateauing at target
        if self.rate < 0.0 and level < self.target:
            return None
        if self.rate > 0.0 and level > self.target:
            return None
        return t


@dataclass
class SuctionLine:
    name: str
    valve_open: bool = False
    secured: bool = False
    mode: SuctionMode = SuctionMode.SEAL
    segment: _Segment = field(default_factory=lambda: _Segment(0.0, 0.0, 0.0, 0.0))
    epoch: int = 0

    def pressure_at(self, t: float) -> float:
        return self.segment.value_at(t)


@dataclass
class Actuator:
    """Linear actuator with normalized position 0 (retracted) .. 1 (extended)."""

    name: str
    travel_s: float
    position: float = 0.0
    moving: bool = False
    stalled: bool = False
    epoch: int = 0


class DeviceBank:
    """All cell devices, advanced together on one closed-form event queue."""

    def __init__(
        self,
        devcfg: DeviceConfig,
        injector: FaultInjector,
        occupied_distance_cm: float = 5.0,
        empty_distance_cm: float = 30.0,
    ):
        self.cfg = devcfg
        self.injector = injector
        self.occupied_distance_cm = occupied_distance_cm
        self.empty_distance_cm = empty_distance_cm
        self.now = 0.0
        self._pending: List[Tuple[float, int, int, DeviceEvent]] = []
        self._seq = 0

        self.suction: Dict[str, SuctionLine] = {"gripper": SuctionLine("gripper")}
        self.actuators: Dict[str, Actuator] = {
            "door": Actuator("door", devcfg.door_travel_s),
            "swing": Actuator("swing", devcfg.swing_travel_s),
            "cutter": Actuator("cutter", devcfg.cutter_traverse_s),
        }
        for i in range(ENCLOSURE_COUNT):
            self.suction[f"bottom_{i}"] = SuctionLine(f"bottom_{i}")
            self.actuators[f"pusher_{i}"] = Actuator(f"pusher_{i}", devcfg.pusher_travel_s)

        # Safety interlocks: device name -> predicate checked at command time.
        self.interlocks: Dict[str, Any] = {}

    # -- internal scheduling ----------------------------------------------

    def _push(self, event: DeviceEvent, epoch: int) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (event.time, self._seq, epoch, event))

    def next_event_time(self) -> Optional[float]:
        while self._pending:
            t, _, epoch, ev = self._pending[0]
            if self._stale(ev, epoch):
                heapq.heappop(self._pending)
                continue
            return t
        return None

    def _stale(self, ev: DeviceEvent, epoch: int) -> bool:
        if isinstance(ev, (Secured, Lost)):
            return self.suction[ev.device].epoch != epoch
        return self.actuators[ev.device].epoch != epoch

    def advance_to(self, t: float) -> List[DeviceEvent]:
        """Release all device events up to time ``t`` and advance the clock."""
        if t < self.now:
            raise ValueError(f"cannot advance backwards: {t} < {self.now}")
        out: List[DeviceEvent] = []
        while self._pending and self._pending[0][0] <= t:
            _, _, epoch, ev = heapq.heappop(self._pending)
            if self._stale(ev, epoch):
                continue
            self._apply(ev)
            out.append(ev)
        self.now = t
        return out

    def step(self, dt: float) -> List[DeviceEvent]:
        if dt < 0.0:
            raise ValueError("dt must be >= 0")
        return self.advance_to(self.now + dt)

    def _apply(self, ev: DeviceEvent) -> None:
        if isinstance(ev, Secured):
            self.suction[ev.device].secured = True
        elif isinstance(ev, Lost):
            self.suction[ev.device].secured = False
        elif isinstance(ev, ActuatorDone):
            act = self.actuators[ev.device]
            act.moving = False
            act.position = 1.0 if ev.op == "extend" else 0.0
        elif isinstance(ev, ActuatorStalled):
            act = self.actuators[ev.device]
            act.moving = False
            act.stalled = True
            act.position = 0.5

    # -- suction commands --------------------------------------------------

    def _ramp_rate(self) -> float:
        # Crosses the secure threshold exactly at the configured ramp time.
        return abs(self.cfg.secure_threshold_kpa) / self.cfg.ramp_to_secure_s

    def open_valve(self, name: str, mode: SuctionMode = SuctionMode.SEAL) -> None:
        line = self.suction[name]
        p_now = line.pressure_at(self.now)
        line.valve_open = True
        line.mode = mode
        line.epoch += 1
        target = (
            self.cfg.vacuum_level_kpa if mode is SuctionMode.SEAL else self.cfg.leak_level_kpa
        )
        line.segment = _Segment(self.now, p_now, -self._ramp_rate(), target)
        if not line.secured:
            t_cross = line.segment.crossing_time(self.cfg.secure_threshold_kpa)
            if t_cross is not None:
                self._push(Secured(time=t_cross, device=name), line.epoch)

    def close_valve(self, name: str) -> None:
        line = self.suction[name]
        p_now = line.pressure_at(self.now)
        line.valve_open = False
        line.epoch += 1
        line.segment = _Segment(self.now, p_now, self._ramp_rate(), 0.0)
        if line.secured:
            t_cross = line.segment.crossing_time(self.cfg.secure_threshold_kpa)
            if t_cross is not None:
                self._push(Lost(time=t_cross, device=name), line.epoch)
            else:
                line.secured = False

    def pressure(self, name: str) -> float:
        return self.suction[name].pressure_at(self.now)

    def secured_count(self, prefix: str = "bottom_") -> int:
        return sum(
            1 for n, line in self.suction.items() if n.startswith(prefix) and line.secured
        )

    # -- actuator commands -------------------------------------------------

    def command(self, name: str, op: str, stall: bool = False) -> None:
        """Start an actuator move; completion (or stall) is queued as an event."""
        if op not in ("extend", "retract"):
            raise ValueError(f"unknown actuator op {op!r}")
        guard = self.interlocks.get((name, op)) or self.interlocks.get(name)
        if guard is not None:
            ok, reason = guard()
            if not ok:
                raise InterlockViolation(name, op, reason)
        act = self.actuators[name]
        act.epoch += 1
        act.moving = True
        act.stalled = False
        if stall:
            t_done = self.now + act.travel_s + self.cfg.actuator_stall_margin_s
            self._push(ActuatorStalled(time=t_done, device=name, op=op), act.epoch)
        else:
            self._push(ActuatorDone(time=self.now + act.travel_s, device=name, op=op), act.epoch)

    def door_open(self) -> bool:
        door = self.actuators["door"]
        return door.position >= 1.0 and not door.moving

    # -- rangefinders ------------------------------------------------------

    def read_distance(self, occupied: bool, rng: np.random.Generator) -> float:
        """Ultrasonic distance to the nearest face inside an enclosure, in cm."""
        base = self.occupied_distance_cm if occupied else self.empty_distance_cm
        sigma = self.injector.profile.ultrasonic_noise_sigma_cm
        if sigma > 0.0:
            base += float(rng.normal(0.0, sigma))
        return max(0.0, base)

    def read_pressure(self, name: str, rng: np.random.Generator) -> float:
        p = self.pressure(name)
        sigma = self.injector.profile.pressure_noise_sigma_kpa
        if sigma > 0.0:
            p += float(rng.normal(0.0, sigma))
        return p

    def presence(self, occupied: bool, rng: np.random.Generator) -> bool:
        return self.read_distance(occupied, rng) < self.cfg.presence_threshold_cm

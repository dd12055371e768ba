"""Device bank: suction lines, linear actuators, rangefinders, and fault scripts.

All device dynamics are piecewise linear, so the bank never ticks: its one
``command`` takes an op a ``device_cmd`` record names (``open``, ``close``,
``extend``, ``retract``) and whether the command failed (a failed ``open``
leaks, a failed move stalls), and returns, in closed form, when the machine
event it answers fires and that event (or None when nothing will). Every
valve command is one ramp: the line moves at a fixed rate from its pressure
now toward the command's target. A ramp that settles at or below the secure
threshold answers ``SuctionSecured``; one that settles above answers
``SuctionLost`` if the line is secured, else nothing. Either comes due as
the ramp crosses the threshold, or now if the line is already past it. The
runtime queues the event, decides whether a later command superseded it,
and calls ``apply`` when it comes due; only ``apply`` changes a device, and
it names the event for the trace. The bank keeps no clock: each command
takes the runtime's ``now``. It is built from the ``CellConfig``, whose
devices, faults and enclosure distances it reads. The bank enforces the two
safety interlocks itself: it refuses to extend the cutter before every
bottom line is secured, or a pusher while the door is not fully open and at
rest. An enclosure's sensor reads a stack only if the runtime says one is
seated there and the bank's pusher is not out.

Fault injection is two-layered: :class:`FaultConfig` gives stochastic
per-action failure probabilities, and a :class:`FaultScript` pins specific
(action, context) occurrences to fixed outcomes. Script entries are consumed
in file order, first match wins, and always take precedence over the dice,
which the runtime rolls. A script indexes its entries once by their ``test``
selector, so an occurrence is matched only against its test's bucket (the
entries that select its test, and those that select no test), in file order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from bagcell import orchestrator as orc
from bagcell.config import ENCLOSURE_COUNT, CellConfig, MalformedInput, RunAborted
from bagcell.config import parse_json, read_text

if TYPE_CHECKING:
    import numpy as np


class InterlockViolation(RunAborted):
    """The bank refused a command whose safety precondition was false."""


class MalformedFaultScript(MalformedInput):
    def __init__(self, path: str, index: Optional[int], reason: str):
        self.index = index
        super().__init__(path, None, reason if index is None else f"entry {index}: {reason}")


# --- fault script ---------------------------------------------------------

SCRIPT_VERSION = 1
_OUTCOMES = ("ok", "fail", "stall")
# Fallible action -> the name of its failure probability in FaultConfig, or
# None. Detection draws its misses per box in ``vision.observe``; a pusher
# stalls only when a script says so.
FAULT_PROBS = {
    "detect": None,
    "plan": "plan_failure_prob",
    "pick": "pick_grip_fail_prob",
    "place": "place_drop_fail_prob",
    "secure": "bottom_suction_fail_prob",
    "remove": "pick_grip_fail_prob",
    "push": None,
}
_ACTIONS = tuple(FAULT_PROBS)
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
    # test index -> the entries that can match a context of that test, in file
    # order; ``_any_test`` holds the entries with no ``test`` selector.
    _by_test: Dict[Any, List[ScriptEntry]] = field(init=False, repr=False, compare=False)
    _any_test: List[ScriptEntry] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_test = {}
        self._any_test = []
        for entry in self.entries:
            if "test" in entry.when:
                test = entry.when["test"]
                if test not in self._by_test:
                    self._by_test[test] = list(self._any_test)
                self._by_test[test].append(entry)
            else:
                self._any_test.append(entry)
                for bucket in self._by_test.values():
                    bucket.append(entry)

    def consume(self, context: Dict[str, Any]) -> Optional[str]:
        """First unconsumed entry matching ``context``, marked consumed."""
        for entry in self._by_test.get(context.get("test"), self._any_test):
            if entry.matches(context):
                entry.consumed = True
                return entry.outcome
        return None

    def unconsumed(self) -> List[ScriptEntry]:
        return [e for e in self.entries if not e.consumed]

    @classmethod
    def from_dict(cls, data: Dict[str, Any], path: str = "<dict>") -> "FaultScript":
        if not isinstance(data, dict):
            raise MalformedFaultScript(path, None, "script root must be a JSON object")
        if data.get("version") != SCRIPT_VERSION or type(data["version"]) is not int:
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
            for key, want in when.items():
                if key == "action" and want not in _ACTIONS:
                    raise MalformedFaultScript(path, i, f"'action' must be one of {_ACTIONS}")
                if key != "action" and type(want) is not int:  # a bool is not a count
                    raise MalformedFaultScript(path, i, f"{key!r} must be an integer: {want!r}")
            if outcome not in _OUTCOMES:
                raise MalformedFaultScript(path, i, f"outcome must be one of {_OUTCOMES}")
            entries.append(ScriptEntry(when=dict(when), outcome=outcome))
        return cls(entries=entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultScript":
        fail = functools.partial(MalformedFaultScript, str(path), None)
        return cls.from_dict(parse_json(read_text(path, fail), fail), path=str(path))


# --- analog/timed devices -------------------------------------------------


@dataclass
class SuctionLine:
    """A line ramping linearly from ``p0`` at ``t0`` and holding at ``target``."""

    secured: bool = False
    t0: float = 0.0
    p0: float = 0.0
    rate: float = 0.0
    target: float = 0.0

    def pressure_at(self, t: float) -> float:
        p = self.p0 + self.rate * (t - self.t0)
        return max(p, self.target) if self.rate < 0.0 else min(p, self.target)


@dataclass
class Actuator:
    """Linear actuator with normalized position 0 (retracted) .. 1 (extended)."""

    travel_s: float
    position: float = 0.0
    moving: bool = False


# A device command's closed-form outcome: when its event fires, and the event.
Due = Optional[Tuple[float, orc.Event]]


# Device-event type -> its trace name.
DEVICE_EVENTS = {
    orc.SuctionSecured: "secured",
    orc.SuctionLost: "lost",
    orc.ActStalled: "stalled",
    orc.ActDone: "done",
}


class DeviceBank:
    """All cell devices; commands return their closed-form events."""

    def __init__(self, config: CellConfig):
        devcfg = self.cfg = config.devices
        self.faults = config.faults
        self.layout = config.layout

        self.suction: Dict[str, SuctionLine] = {"gripper": SuctionLine()}
        self.actuators: Dict[str, Actuator] = {
            "door": Actuator(devcfg.door_travel_s),
            "swing": Actuator(devcfg.swing_travel_s),
            "cutter": Actuator(devcfg.cutter_traverse_s),
        }
        for i in range(ENCLOSURE_COUNT):
            self.suction[f"bottom_{i}"] = SuctionLine()
            self.actuators[f"pusher_{i}"] = Actuator(devcfg.pusher_travel_s)

    def apply(self, event: orc.Event) -> str:
        """Update the line or actuator ``event`` concerns, as it comes due; its trace name."""
        kind = type(event)
        if kind is orc.SuctionSecured or kind is orc.SuctionLost:
            self.suction[event.device].secured = kind is orc.SuctionSecured
        else:
            act = self.actuators[event.device]
            act.moving = False
            act.position = 0.5 if kind is orc.ActStalled else float(event.op == "extend")
        return DEVICE_EVENTS[kind]

    # -- commands ----------------------------------------------------------

    def command(self, name: str, op: str, now: float, failed: bool = False) -> Due:
        """Start ``op`` on device ``name`` at ``now``; answer the event it will fire."""
        cfg = self.cfg
        if op == "open":
            return self._ramp(name, now, cfg.leak_level_kpa if failed else cfg.vacuum_level_kpa)
        if op == "close":
            return self._ramp(name, now, 0.0)
        if op == "extend":
            self._interlock(name)
        elif op != "retract":
            raise ValueError(f"unknown device op {op!r}")
        act = self.actuators[name]
        act.moving = True
        if failed:
            t_stall = now + act.travel_s + cfg.actuator_stall_margin_s
            return t_stall, orc.ActStalled(device=name, op=op)
        return now + act.travel_s, orc.ActDone(device=name, op=op)

    def _ramp(self, name: str, now: float, target: float) -> Due:
        """Ramp ``name`` from its pressure at ``now`` toward ``target``; answer its edge."""
        line = self.suction[name]
        p0 = line.pressure_at(now)
        threshold = self.cfg.secure_threshold_kpa
        # Crosses the secure threshold from 0 kPa exactly at the configured ramp time.
        rate = abs(threshold) / self.cfg.ramp_to_secure_s
        line.t0, line.p0, line.rate, line.target = now, p0, -rate if target < p0 else rate, target
        if target <= threshold:
            event: orc.Event = orc.SuctionSecured(device=name)
        elif line.secured:
            event = orc.SuctionLost(device=name)
        else:
            return None
        if (p0 > threshold) == (target > threshold):
            return now, event
        return now + (threshold - p0) / line.rate, event

    def _interlock(self, name: str) -> None:
        """Refuse to extend the cutter or a pusher while it would be unsafe."""
        if name == "cutter":
            loose = [i for i in range(ENCLOSURE_COUNT) if not self.suction[f"bottom_{i}"].secured]
            if loose:
                raise InterlockViolation(f"cutter.extend: bottom lines {loose} not secured")
        elif name.startswith("pusher_"):
            door = self.actuators["door"]
            if door.moving or door.position != 1.0:
                raise InterlockViolation(f"{name}.extend: door not open")

    # -- rangefinders ------------------------------------------------------

    def presence(self, enclosure: int, seated: bool, rng: np.random.Generator) -> bool:
        """Whether ``enclosure``'s sensor reads a stack: one is ``seated``, not pushed out."""
        # Every read comes while the pushers are at rest, so never mid-stroke.
        occupied = seated and self.actuators[f"pusher_{enclosure}"].position != 1.0
        distance = self.layout.occupied_distance_cm if occupied else self.layout.back_wall_cm
        sigma = self.faults.ultrasonic_noise_sigma_cm
        if sigma > 0.0:
            distance += float(rng.normal(0.0, sigma))
        return max(0.0, distance) < self.cfg.presence_threshold_cm

"""The closed-form device bank against a reference that ticks at a fixed dt.

``TickingBank`` knows nothing of crossing times: it steps every line's
pressure and every actuator's remaining travel by ``DT`` and reports an
edge at the first tick where its condition holds. Driven through the same
timed commands, both must report the same edges in the same order, each
within one tick, and refuse the same commands.
"""

import math

import hypothesis.strategies as st
from hypothesis import given, settings

from bagcell import orchestrator as orc
from bagcell.config import CellConfig, DeviceConfig
from bagcell.devices import DeviceBank, InterlockViolation

DT = 0.01
GRID = 0.05  # commands fall on multiples of this
# Ramp and travel times off the command grid, so that no crossing or
# completion coincides with a command and each is a whole tick from one.
DEVCFG = DeviceConfig(
    ramp_to_secure_s=0.4937,
    door_travel_s=0.731,
    swing_travel_s=0.5173,
    cutter_traverse_s=0.8291,
    pusher_travel_s=0.6619,
    actuator_stall_margin_s=0.2213,
)
BOTTOMS = [f"bottom_{i}" for i in range(8)]
LINES = ["gripper", *BOTTOMS]
ACTUATORS = ["door", "swing", "cutter", "pusher_0", "pusher_1"]
DRAWN_LINES = ["gripper", "bottom_0", "bottom_1"]  # few, so each sees many commands
TRAVEL = {
    "door": DEVCFG.door_travel_s,
    "swing": DEVCFG.swing_travel_s,
    "cutter": DEVCFG.cutter_traverse_s,
    "pusher_0": DEVCFG.pusher_travel_s,
    "pusher_1": DEVCFG.pusher_travel_s,
}


class TickingBank:
    """Steps each line toward its target and each actuator toward its end."""

    def __init__(self, cfg: DeviceConfig):
        self.cfg = cfg
        self.rate = abs(cfg.secure_threshold_kpa) / cfg.ramp_to_secure_s
        self.pressure = dict.fromkeys(LINES, 0.0)
        self.target = dict.fromkeys(LINES, 0.0)
        self.secured = dict.fromkeys(LINES, False)
        self.left = dict.fromkeys(ACTUATORS, 0.0)  # seconds until the armed edge
        self.moving = dict.fromkeys(ACTUATORS, False)
        self.position = dict.fromkeys(ACTUATORS, 0.0)
        self.armed = {}  # device -> the one edge its latest command awaits
        self.now = 0.0
        self.edges = []

    def valve(self, name, target):
        thr = self.cfg.secure_threshold_kpa
        self.target[name] = target
        self.armed.pop(name, None)
        if target <= thr:
            self.armed[name] = orc.SuctionSecured(device=name)
        elif self.secured[name]:
            self.armed[name] = orc.SuctionLost(device=name)

    def command(self, name, op, stall):
        if op == "extend" and name == "cutter" and not all(self.secured[b] for b in BOTTOMS):
            raise InterlockViolation(name)
        if op == "extend" and name.startswith("pusher_"):
            if self.moving["door"] or self.position["door"] != 1.0:
                raise InterlockViolation(name)
        self.moving[name] = True
        self.left[name] = TRAVEL[name] + (self.cfg.actuator_stall_margin_s if stall else 0.0)
        self.armed.pop(name, None)
        kind = orc.ActStalled if stall else orc.ActDone
        self.armed[name] = kind(device=name, op=op)

    def advance(self, until):
        """Tick to ``until``, reporting each edge at the first tick it holds."""
        while True:
            self._report()
            if self.now >= until:
                return
            h = min(DT, until - self.now)
            for name in LINES:
                p, goal = self.pressure[name], self.target[name]
                if p > goal:
                    self.pressure[name] = max(p - self.rate * h, goal)
                elif p < goal:
                    self.pressure[name] = min(p + self.rate * h, goal)
            for name in ACTUATORS:
                self.left[name] -= h
            self.now = until if h == until - self.now else self.now + h

    def _report(self):
        thr = self.cfg.secure_threshold_kpa
        for name, event in list(self.armed.items()):
            if type(event) is orc.SuctionSecured:
                holds = self.pressure[name] <= thr
            elif type(event) is orc.SuctionLost:
                holds = self.pressure[name] >= thr
            else:
                holds = self.left[name] <= 0.0
            if not holds:
                continue
            del self.armed[name]
            self.edges.append((self.now, event))
            if name in self.secured:
                self.secured[name] = type(event) is orc.SuctionSecured
            else:
                self.moving[name] = False
                stalled = type(event) is orc.ActStalled
                self.position[name] = 0.5 if stalled else float(event.op == "extend")


def run_closed_form(calls):
    """Drive a ``DeviceBank`` as the runtime does: an edge due by a command's
    time is applied before it, and a command drops its device's pending edge."""
    bank = DeviceBank(CellConfig(devices=DEVCFG))
    pending, edges, refused, seq = {}, [], [], 0

    def deliver(until):
        while pending:
            name = min(pending, key=lambda n: pending[n][:2])
            time, _, event = pending[name]
            if time > until:
                return
            del pending[name]
            bank.apply(event)
            edges.append((time, event))

    for i, (now, call) in enumerate(calls):
        deliver(now)
        name = call[1]
        try:
            if call[0] == "open":
                due = bank.command(name, "open", now, call[2])
            elif call[0] == "close":
                due = bank.command(name, "close", now)
            else:
                due = bank.command(name, call[2], now, call[3])
        except InterlockViolation:
            refused.append(i)
            continue
        pending.pop(name, None)
        if due is not None:
            seq += 1
            pending[name] = (due[0], seq, due[1])
    deliver(math.inf)
    return edges, refused


def run_ticking(calls):
    ref = TickingBank(DEVCFG)
    refused = []
    for i, (now, call) in enumerate(calls):
        ref.advance(now)
        try:
            if call[0] == "open":
                leak = call[2]
                ref.valve(call[1], DEVCFG.leak_level_kpa if leak else DEVCFG.vacuum_level_kpa)
            elif call[0] == "close":
                ref.valve(call[1], 0.0)
            else:
                ref.command(*call[1:])
        except InterlockViolation:
            refused.append(i)
    last = calls[-1][0] if calls else 0.0
    ref.advance(last + max(TRAVEL.values()) + DEVCFG.actuator_stall_margin_s + 2.0)
    assert not ref.armed
    return ref.edges, refused


_CALLS = st.one_of(
    st.tuples(st.just("open"), st.sampled_from(DRAWN_LINES), st.booleans()),
    st.tuples(st.just("close"), st.sampled_from(DRAWN_LINES)),
    st.tuples(
        st.just("command"),
        st.sampled_from(ACTUATORS),
        st.sampled_from(["extend", "retract"]),
        st.booleans(),
    ),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 12), _CALLS), max_size=40))
def test_closed_form_bank_reports_what_a_ticking_bank_reports(steps):
    calls, tick = [], 0
    for gap, call in steps:
        tick += gap
        calls.append((tick * GRID, call))
    want, want_refused = run_ticking(calls)
    got, got_refused = run_closed_form(calls)
    assert got_refused == want_refused
    # The same edges, each due within one tick before the reference reports
    # it; and in the same order, except that edges inside one tick are
    # reported in no particular order by the reference.
    assert len(got) == len(want)
    queues = {}
    for t_want, event in want:
        queues.setdefault(event.device, []).append((t_want, event))
    matched = []
    for t_got, event in got:
        t_want, expected = queues[event.device].pop(0)
        assert event == expected
        assert t_got - 1e-9 <= t_want <= t_got + DT + 1e-9, (event, t_got, t_want)
        matched.append(t_want)
    assert matched == sorted(matched)

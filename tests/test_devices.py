import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bagcell.cli import main
from bagcell.config import CellConfig, DeviceConfig, FaultConfig
from bagcell.devices import (
    DeviceBank,
    FaultScript,
    InterlockViolation,
    MalformedFaultScript,
    ScriptEntry,
)
from bagcell.orchestrator import ActDone, ActStalled, SuctionLost, SuctionSecured
from bagcell.simulate import Simulation, run_single


def make_bank():
    return DeviceBank(CellConfig())


def settle(bank, due):
    """Apply a returned event; returns the time it came due."""
    time, event = due
    bank.apply(event)
    return time


# --- suction ramps --------------------------------------------------------


def test_seal_crosses_threshold_at_ramp_time():
    bank = make_bank()
    time, event = bank.command("gripper", "open", 0.0)
    assert time == pytest.approx(0.5)
    assert event == SuctionSecured(device="gripper")
    assert not bank.suction["gripper"].secured
    bank.apply(event)
    assert bank.suction["gripper"].secured


def test_seal_pressure_trajectory():
    bank = make_bank()
    bank.command("gripper", "open", 0.0)
    line = bank.suction["gripper"]
    assert line.pressure_at(0.25) == pytest.approx(-15.0)
    assert line.pressure_at(1.0) == pytest.approx(-60.0)
    assert line.pressure_at(5.0) == pytest.approx(-60.0)  # plateaued


def test_leak_never_secures():
    bank = make_bank()
    assert bank.command("gripper", "open", 0.0, failed=True) is None
    assert not bank.suction["gripper"].secured
    assert bank.suction["gripper"].pressure_at(10.0) == pytest.approx(-10.0)


def test_vent_emits_lost_on_threshold_recross():
    bank = make_bank()
    settle(bank, bank.command("gripper", "open", 0.0))
    time, event = bank.command("gripper", "close", 1.0)
    assert event == SuctionLost(device="gripper")
    # From -60 kPa at +60 kPa/s the -30 threshold is recrossed after 0.5 s.
    assert time == pytest.approx(1.5)
    bank.apply(event)
    assert not bank.suction["gripper"].secured
    assert bank.suction["gripper"].pressure_at(3.0) == pytest.approx(0.0)


def test_close_before_the_threshold_returns_nothing():
    bank = make_bank()
    bank.command("gripper", "open", 0.0)
    assert bank.command("gripper", "close", 0.2) is None  # never secured, nothing to lose
    assert not bank.suction["gripper"].secured


def test_sealing_open_of_a_secured_line_answers_at_once():
    bank = make_bank()
    settle(bank, bank.command("gripper", "open", 0.0))
    assert bank.command("gripper", "open", 1.0) == (1.0, SuctionSecured(device="gripper"))


def test_leaking_open_of_a_secured_line_ramps_up_and_is_lost():
    bank = make_bank()
    assert settle(bank, bank.command("gripper", "open", 0.0)) == pytest.approx(0.5)
    time, event = bank.command("gripper", "open", 1.0, failed=True)
    assert (time, event) == (pytest.approx(1.5), SuctionLost(device="gripper"))
    line = bank.suction["gripper"]
    assert line.secured  # until the edge is applied
    assert line.pressure_at(1.2) == pytest.approx(-48.0)
    assert line.pressure_at(3.0) == pytest.approx(-10.0)
    bank.apply(event)
    assert not line.secured


def test_a_crossing_within_one_ulp_of_now_is_answered():
    bank = DeviceBank(CellConfig(devices=DeviceConfig(ramp_to_secure_s=1e-300)))
    assert bank.command("gripper", "open", 700.0) == (700.0, SuctionSecured(device="gripper"))


_VALVE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["seal", "leak", "close"]),
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),  # gaps that land on crossings
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(ops=_VALVE_OPS)
def test_secured_changes_only_when_a_returned_edge_is_applied(ops):
    # Drive one line like the runtime does: a due edge is applied before a
    # command at the same instant, and each command drops the pending one.
    bank = make_bank()
    line = bank.suction["gripper"]
    cfg = bank.cfg
    settles_at = {"seal": cfg.vacuum_level_kpa, "leak": cfg.leak_level_kpa, "close": 0.0}
    now, pending, target = 0.0, None, 0.0
    for op, gap in ops:
        now += gap
        if pending is not None and pending[0] <= now:
            bank.apply(pending[1])
            pending = None
        before, target = line.secured, settles_at[op]
        if op == "close":
            pending = bank.command("gripper", "close", now)
        else:
            pending = bank.command("gripper", "open", now, failed=op == "leak")
        assert line.secured == before
        assert pending is None or pending[0] >= now
    if pending is not None:
        bank.apply(pending[1])
    # Once every edge is in, the flag says where the line settles.
    assert line.secured == (target <= cfg.secure_threshold_kpa)


def test_bottom_lines_ramp_in_parallel():
    bank = make_bank()
    dues = [bank.command(f"bottom_{i}", "open", 0.0) for i in range(8)]
    assert [time for time, _ in dues] == [pytest.approx(0.5)] * 8
    for due in dues:
        settle(bank, due)
    assert all(bank.suction[f"bottom_{i}"].secured for i in range(8))


# --- actuators ------------------------------------------------------------


def test_actuator_completes_at_travel_time():
    bank = make_bank()
    time, event = bank.command("door", "extend", 0.0)
    assert bank.actuators["door"].moving
    assert (time, event) == (pytest.approx(2.0), ActDone(device="door", op="extend"))
    bank.apply(event)
    door = bank.actuators["door"]
    assert door.position == 1.0 and not door.moving
    time, event = bank.command("door", "retract", time)
    assert time == pytest.approx(4.0)
    bank.apply(event)
    assert door.position == 0.0 and not door.moving


def test_actuator_stall_fires_late_and_sticks_midway():
    bank = make_bank()
    bank.apply(bank.command("door", "extend", 0.0)[1])  # pushers extend only through an open door
    time, event = bank.command("pusher_3", "extend", 0.0, failed=True)
    assert event == ActStalled(device="pusher_3", op="extend")
    assert time == pytest.approx(2.0 + 1.0)  # travel + stall margin
    bank.apply(event)
    act = bank.actuators["pusher_3"]
    assert not act.moving and act.position == pytest.approx(0.5)


def test_unknown_actuator_op_rejected():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.command("door", "wiggle", 0.0)


def test_cutter_refused_until_every_bottom_line_is_secured():
    bank = make_bank()
    dues = [bank.command(f"bottom_{i}", "open", 0.0) for i in range(8)]
    for due in dues[:7]:
        settle(bank, due)
    with pytest.raises(InterlockViolation, match=r"bottom lines \[7\] not secured"):
        bank.command("cutter", "extend", 0.5)
    assert not bank.actuators["cutter"].moving
    settle(bank, dues[7])
    bank.command("cutter", "extend", 0.5)  # now allowed
    bank.command("cutter", "retract", 0.5)  # retracting is never refused


def test_pusher_refused_unless_the_door_is_open_and_at_rest():
    bank = make_bank()
    with pytest.raises(InterlockViolation, match="door not open"):
        bank.command("pusher_0", "extend", 0.0)
    door_open = bank.command("door", "extend", 0.0)
    with pytest.raises(InterlockViolation):  # still travelling
        bank.command("pusher_0", "extend", 1.0)
    now = settle(bank, door_open)
    bank.command("pusher_0", "extend", now)  # now allowed
    bank.command("door", "retract", now)
    with pytest.raises(InterlockViolation):  # closing again
        bank.command("pusher_1", "extend", now)
    bank.command("pusher_0", "retract", now)  # retracting is never refused


# --- sensors --------------------------------------------------------------


def test_distance_and_presence_noise_free():
    bank = make_bank()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert bank.presence(0, True, rng) is True
    assert bank.presence(0, False, rng) is False
    # A pusher at full stroke has pushed its enclosure's stack out.
    settle(bank, bank.command("door", "extend", 0.0))
    settle(bank, bank.command("pusher_0", "extend", 2.0))
    assert bank.presence(0, True, rng) is False
    assert bank.presence(1, True, rng) is True
    # A zero sigma takes no draw, so the run's later draws do not shift.
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("devices", [
    {"vacuum_level_kpa": -30.0},  # the steady vacuum equals the secure threshold
    {"presence_threshold_cm": 30.0},  # the threshold equals the empty reading
], ids=["vacuum_at_secure_threshold", "presence_at_back_wall"])
def test_boundary_config_delivers_every_stack(devices):
    cfg = CellConfig.from_dict({"devices": devices})
    report, _ = run_single(cfg, cycles=1)
    assert (report.stacks_offered, report.delivered) == (8, 8)


# --- fault scripts --------------------------------------------------------


def script_dict(entries):
    return {"version": 1, "entries": entries}


def test_script_parses_and_consumes_in_order():
    script = FaultScript.from_dict(
        script_dict(
            [
                {"when": {"action": "pick", "slot": 0}, "outcome": "fail"},
                {"when": {"action": "pick"}, "outcome": "ok"},
            ]
        )
    )
    assert script.consume({"action": "pick", "slot": 0, "attempt": 1}) == "fail"
    # First entry is consumed; the catch-all now matches.
    assert script.consume({"action": "pick", "slot": 0, "attempt": 2}) == "ok"
    assert script.consume({"action": "pick", "slot": 0, "attempt": 3}) is None
    assert script.unconsumed() == []


def test_script_selector_must_match_every_key():
    script = FaultScript(entries=[ScriptEntry(when={"action": "place", "slot": 2}, outcome="fail")])
    assert script.consume({"action": "place", "slot": 1}) is None
    assert script.consume({"action": "place"}) is None
    assert script.consume({"action": "place", "slot": 2, "cycle": 0}) == "fail"


_WHENS = st.fixed_dictionaries(
    {"action": st.sampled_from(["pick", "place"])},
    optional={"test": st.integers(0, 3), "slot": st.integers(0, 2), "attempt": st.integers(1, 2)},
)
_CONTEXTS = st.fixed_dictionaries(
    {"action": st.sampled_from(["pick", "place"]), "slot": st.integers(0, 2),
     "attempt": st.integers(1, 2)},
    optional={"test": st.integers(0, 4)},
)


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(st.tuples(_WHENS, st.sampled_from(["ok", "fail", "stall"])), max_size=12),
    contexts=st.lists(_CONTEXTS, max_size=30),
)
def test_script_consumes_as_a_linear_first_match_scan(entries, contexts):
    # Entries with and without a test selector, against contexts with and
    # without a test: the per-test index must pick what a scan of every entry
    # in file order picks, and leave the same entries unconsumed.
    script = FaultScript(entries=[ScriptEntry(when=dict(w), outcome=o) for w, o in entries])
    used = [False] * len(entries)

    def linear(context):
        for i, (when, outcome) in enumerate(entries):
            if not used[i] and all(context.get(k) == v for k, v in when.items()):
                used[i] = True
                return outcome
        return None

    assert [script.consume(c) for c in contexts] == [linear(c) for c in contexts]
    left = [e for e, was_used in zip(script.entries, used) if not was_used]
    assert [id(e) for e in script.unconsumed()] == [id(e) for e in left]


def test_replay_matches_each_script_entry_only_within_its_test(tmp_path, monkeypatch, capsys):
    # The shipped replay makes 630 script lookups against 42 entries; a scan of
    # the whole script on each one made 25,599 matches calls, the per-test
    # index about 2,500.
    calls = 0
    matches = ScriptEntry.matches

    def counted(entry, context):
        nonlocal calls
        calls += 1
        return matches(entry, context)

    monkeypatch.setattr(ScriptEntry, "matches", counted)
    assert main(["replay", "--outdir", str(tmp_path)]) == 0
    assert 0 < calls <= 3000


def test_script_round_trip_and_file_io(tmp_path):
    entries = [{"when": {"action": "push", "enclosure": 4}, "outcome": "stall"}]
    path = tmp_path / "faults.json"
    path.write_text(__import__("json").dumps(script_dict(entries)))
    loaded = FaultScript.from_file(path)
    assert loaded == FaultScript(entries=[ScriptEntry(when=entries[0]["when"], outcome="stall")])


def test_script_validation_errors(tmp_path):
    for version in (2, True, 1.0):  # only the int 1 is version 1
        with pytest.raises(MalformedFaultScript, match="unsupported version"):
            FaultScript.from_dict({"version": version, "entries": []})
    for root in ([], "x", 1, None):
        with pytest.raises(MalformedFaultScript, match="root must be a JSON object"):
            FaultScript.from_dict(root)
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict({"version": 1, "entries": "nope"})
    with pytest.raises(MalformedFaultScript, match="entry 0: entry must be an object"):
        FaultScript.from_dict({"version": 1, "entries": [5]})
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {}, "outcome": "fail"}]))
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {"oops": 1}, "outcome": "fail"}]))
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {"action": "pick"}, "outcome": "explode"}]))
    # Selector values are typed: a value of the wrong type could never match.
    typo_cases = {
        "'action'": {"action": "grab"},
        "'test'": {"action": "pick", "test": "0"},
        "'attempt'": {"action": "pick", "attempt": True},
        "'slot'": {"action": "pick", "slot": 1.0},
    }
    for key, when in typo_cases.items():
        entries = [{"when": {"action": "pick"}, "outcome": "ok"}, {"when": when, "outcome": "fail"}]
        with pytest.raises(MalformedFaultScript, match=f"entry 1: {key}"):
            FaultScript.from_dict(script_dict(entries))
    missing = tmp_path / "nope.json"
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_file(bad)


# --- fault decisions (Simulation._decide) --------------------------------


def decider(seed=0, script=None, pick_prob=0.0):
    """A fresh run whose pick actions fail with ``pick_prob`` unless scripted."""
    cfg = CellConfig(faults=FaultConfig(pick_grip_fail_prob=pick_prob))
    return Simulation(cfg.validate(), seed=seed, script=script)


def decide_picks(sim, n):
    return [sim._decide("pick", {"slot": i, "stack": i}) for i in range(n)]


def fresh_draw(sim):
    """The next draw of a new generator on ``sim``'s seed."""
    return np.random.Generator(np.random.PCG64(sim.seed)).random()


def test_injector_prob_zero_and_one():
    sim = decider(pick_prob=0.0)
    assert decide_picks(sim, 20) == ["ok"] * 20
    assert sim.rng.random() == fresh_draw(sim)  # prob 0 rolls no dice
    assert decide_picks(decider(pick_prob=1.0), 20) == ["fail"] * 20
    # Prob 1 fails and, like prob 0, rolls no dice.
    probs = {
        "pick": "pick_grip_fail_prob",
        "remove": "pick_grip_fail_prob",
        "place": "place_drop_fail_prob",
        "secure": "bottom_suction_fail_prob",
    }
    for action, prob in probs.items():
        cfg = CellConfig(faults=FaultConfig(**{prob: 1.0}))
        sim = Simulation(cfg.validate(), seed=0)
        decided = [sim._decide(action, {"slot": i, "stack": i}) for i in range(20)]
        assert decided == ["fail"] * 20, action
        assert sim.rng.random() == fresh_draw(sim), action


def test_injector_script_overrides_dice():
    script = FaultScript(entries=[ScriptEntry(when={"action": "pick", "slot": 0}, outcome="ok")])
    sim = decider(script=script, pick_prob=1.0)
    assert sim._decide("pick", {"slot": 0, "stack": 0}) == "ok"
    # Script exhausted: the dice (prob 1) decide again.
    assert sim._decide("pick", {"slot": 0, "stack": 0}) == "fail"


def test_injector_seeded_replay():
    seqs = [decide_picks(decider(seed=77, pick_prob=0.5), 30) for _ in range(2)]
    assert seqs[0] == seqs[1]
    assert set(seqs[0]) == {"ok", "fail"}


def test_injector_scripted_never_rolls_dice():
    script = FaultScript(entries=[ScriptEntry(when={"action": "pick", "slot": 0}, outcome="fail")])
    sim = decider(script=script, pick_prob=0.5)
    assert sim._decide("pick", {"slot": 0, "stack": 0}) == "fail"
    assert sim.script.consume({"action": "pick", "slot": 1}) is None
    # The generator was not advanced: its next draw is a fresh generator's first.
    assert sim.rng.random() == fresh_draw(sim)

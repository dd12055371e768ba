import numpy as np
import pytest

from bagcell.config import DeviceConfig, FaultConfig
from bagcell.devices import (
    ActuatorDone,
    ActuatorStalled,
    DeviceBank,
    FaultInjector,
    FaultScript,
    InterlockViolation,
    Lost,
    MalformedFaultScript,
    ScriptEntry,
    Secured,
    SuctionMode,
)


def make_bank(profile=None, script=None, seed=0):
    injector = FaultInjector(profile or FaultConfig(), np.random.default_rng(seed), script)
    return DeviceBank(DeviceConfig(), injector)


# --- suction ramps --------------------------------------------------------


def test_seal_crosses_threshold_at_ramp_time():
    bank = make_bank()
    bank.open_valve("gripper", SuctionMode.SEAL)
    assert bank.next_event_time() == pytest.approx(0.5)
    events = bank.advance_to(0.5)
    assert len(events) == 1 and isinstance(events[0], Secured)
    assert events[0].device == "gripper"
    assert bank.suction["gripper"].secured


def test_seal_pressure_trajectory():
    bank = make_bank()
    bank.open_valve("gripper", SuctionMode.SEAL)
    bank.advance_to(0.25)
    assert bank.pressure("gripper") == pytest.approx(-15.0)
    bank.advance_to(1.0)
    assert bank.pressure("gripper") == pytest.approx(-60.0)
    bank.advance_to(5.0)
    assert bank.pressure("gripper") == pytest.approx(-60.0)  # plateaued


def test_leak_never_secures():
    bank = make_bank()
    bank.open_valve("gripper", SuctionMode.LEAK)
    assert bank.next_event_time() is None
    bank.advance_to(10.0)
    assert not bank.suction["gripper"].secured
    assert bank.pressure("gripper") == pytest.approx(-10.0)


def test_vent_emits_lost_on_threshold_recross():
    bank = make_bank()
    bank.open_valve("gripper")
    bank.advance_to(1.0)
    bank.close_valve("gripper")
    events = bank.advance_to(2.0)
    assert len(events) == 1 and isinstance(events[0], Lost)
    # From -60 kPa at +60 kPa/s the -30 threshold is recrossed after 0.5 s.
    assert events[0].time == pytest.approx(1.5)
    assert not bank.suction["gripper"].secured
    bank.advance_to(3.0)
    assert bank.pressure("gripper") == pytest.approx(0.0)


def test_valve_epoch_invalidates_stale_events():
    bank = make_bank()
    bank.open_valve("gripper")
    bank.advance_to(0.2)
    bank.close_valve("gripper")  # before the 0.5 s crossing
    events = bank.advance_to(5.0)
    assert events == []
    assert not bank.suction["gripper"].secured


def test_bottom_lines_ramp_in_parallel():
    bank = make_bank()
    for i in range(8):
        bank.open_valve(f"bottom_{i}")
    events = bank.advance_to(0.5)
    assert len(events) == 8
    assert bank.secured_count("bottom_") == 8


# --- actuators ------------------------------------------------------------


def test_actuator_completes_at_travel_time():
    bank = make_bank()
    bank.command("door", "extend")
    assert bank.actuators["door"].moving
    events = bank.advance_to(2.0)
    assert len(events) == 1 and isinstance(events[0], ActuatorDone)
    assert events[0].op == "extend"
    assert bank.actuators["door"].position == 1.0
    assert bank.door_open()
    bank.command("door", "retract")
    bank.advance_to(4.0)
    assert bank.actuators["door"].position == 0.0
    assert not bank.door_open()


def test_actuator_stall_fires_late_and_sticks_midway():
    bank = make_bank()
    bank.command("pusher_3", "extend", stall=True)
    events = bank.advance_to(10.0)
    assert len(events) == 1 and isinstance(events[0], ActuatorStalled)
    assert events[0].time == pytest.approx(2.0 + 1.0)  # travel + stall margin
    act = bank.actuators["pusher_3"]
    assert act.stalled and act.position == pytest.approx(0.5)


def test_recommand_supersedes_pending_completion():
    bank = make_bank()
    bank.command("swing", "extend")
    bank.advance_to(0.4)
    bank.command("swing", "retract")
    events = bank.advance_to(5.0)
    assert [e.op for e in events] == ["retract"]
    assert bank.actuators["swing"].position == 0.0


def test_unknown_actuator_op_rejected():
    bank = make_bank()
    with pytest.raises(ValueError):
        bank.command("door", "wiggle")


def test_interlock_hook_blocks_command():
    bank = make_bank()
    bank.interlocks[("cutter", "extend")] = lambda: (False, "bottom lines not secured")
    with pytest.raises(InterlockViolation):
        bank.command("cutter", "extend")
    bank.interlocks[("cutter", "extend")] = lambda: (True, "")
    bank.command("cutter", "extend")  # now allowed


def test_advance_backwards_rejected():
    bank = make_bank()
    bank.advance_to(1.0)
    with pytest.raises(ValueError):
        bank.advance_to(0.5)


def test_fixed_step_and_event_driven_agree():
    def run(drive):
        bank = make_bank()
        bank.open_valve("gripper")
        bank.command("door", "extend")
        bank.command("pusher_0", "extend", stall=True)
        seen = []
        drive(bank, seen)
        return [(type(e).__name__, e.device, round(e.time, 9)) for e in seen]

    def fixed(bank, seen):
        for _ in range(50):
            seen.extend(bank.step(0.1))

    def event_driven(bank, seen):
        while True:
            t = bank.next_event_time()
            if t is None or t > 5.0:
                break
            seen.extend(bank.advance_to(t))

    assert run(fixed) == run(event_driven)


# --- sensors --------------------------------------------------------------


def test_distance_and_presence_noise_free():
    bank = make_bank()
    rng = np.random.default_rng(0)
    assert bank.read_distance(True, rng) == pytest.approx(5.0)
    assert bank.read_distance(False, rng) == pytest.approx(30.0)
    assert bank.presence(True, rng) is True
    assert bank.presence(False, rng) is False


def test_pressure_noise_sample_mean():
    profile = FaultConfig(pressure_noise_sigma_kpa=1.0)
    bank = make_bank(profile=profile)
    bank.open_valve("gripper")
    bank.advance_to(2.0)  # steady at -60
    rng = np.random.default_rng(123)
    samples = np.array([bank.read_pressure("gripper", rng) for _ in range(10_000)])
    assert abs(samples.mean() + 60.0) < 0.05
    assert abs(samples.std() - 1.0) < 0.05


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


def test_script_round_trip_and_file_io(tmp_path):
    script = FaultScript(entries=[ScriptEntry(when={"action": "push", "enclosure": 4}, outcome="stall")])
    path = tmp_path / "faults.json"
    path.write_text(__import__("json").dumps(script.to_dict()))
    loaded = FaultScript.from_file(path)
    assert loaded.to_dict() == script.to_dict()


def test_script_validation_errors(tmp_path):
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict({"version": 2, "entries": []})
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict({"version": 1, "entries": "nope"})
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {}, "outcome": "fail"}]))
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {"oops": 1}, "outcome": "fail"}]))
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_dict(script_dict([{"when": {"action": "pick"}, "outcome": "explode"}]))
    missing = tmp_path / "nope.json"
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedFaultScript):
        FaultScript.from_file(bad)


# --- injector -------------------------------------------------------------


def test_injector_prob_zero_and_one():
    inj = FaultInjector(FaultConfig(), np.random.default_rng(0))
    assert all(inj.decide("pick", {"slot": i}, prob=0.0) == "ok" for i in range(20))
    assert all(inj.decide("pick", {"slot": i}, prob=1.0) == "fail" for i in range(20))


def test_injector_script_overrides_dice():
    script = FaultScript(entries=[ScriptEntry(when={"action": "pick", "slot": 0}, outcome="ok")])
    inj = FaultInjector(FaultConfig(), np.random.default_rng(0), script)
    assert inj.decide("pick", {"slot": 0}, prob=1.0) == "ok"
    # Script exhausted: the dice (prob 1) decide again.
    assert inj.decide("pick", {"slot": 0}, prob=1.0) == "fail"


def test_injector_seeded_replay():
    seqs = []
    for _ in range(2):
        inj = FaultInjector(FaultConfig(), np.random.default_rng(77))
        seqs.append([inj.decide("pick", {"i": i}, prob=0.5) for i in range(30)])
    assert seqs[0] == seqs[1]
    assert set(seqs[0]) == {"ok", "fail"}


def test_injector_scripted_never_rolls_dice():
    script = FaultScript(entries=[ScriptEntry(when={"action": "pick", "slot": 0}, outcome="fail")])
    inj = FaultInjector(FaultConfig(), np.random.default_rng(0), script)
    assert inj.scripted("pick", {"slot": 0}) == "fail"
    assert inj.scripted("pick", {"slot": 1}) is None
    # The generator was not advanced: its next draw is a fresh generator's first.
    assert inj.rng.random() == np.random.default_rng(0).random()

"""The topic table, and how the runtime numbers and traces each publish."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bagcell import orchestrator as orc
from bagcell.bus import TOPICS
from bagcell.config import CellConfig
from bagcell.simulate import Simulation
from test_simulate import drive_machine


def messages(sim):
    return [r.data for r in sim.tracer.records if r.kind == "message"]


def test_awaited_topics_are_the_ones_the_machine_waits_on(monkeypatch):
    awaited = {ev.topic for (_, ev) in orc.STEPS if type(ev) is orc.BusMsg}
    assert awaited <= set(TOPICS)
    _, seen, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Publish("drop", {}), orc.Publish("system_reset", {})],
    })
    assert seen == [orc.Start(), orc.BusMsg("system_reset")]


def test_unknown_topic_rejected(monkeypatch):
    with pytest.raises(KeyError, match="no_such_topic"):
        drive_machine(monkeypatch, {orc.Start(): [orc.Publish("no_such_topic", {})]})


def test_per_topic_sequences_are_independent(monkeypatch):
    sim, _, _ = drive_machine(monkeypatch, {
        orc.Start(): [orc.Publish(t, {}) for t in ("drop", "fault", "drop")],
    })
    assert [(m["topic"], m["seq"]) for m in messages(sim)] == [
        ("drop", 0), ("fault", 0), ("drop", 1),
    ]


def test_payload_copied_at_publish(monkeypatch):
    payload = {"value": 1}
    sim, _, _ = drive_machine(monkeypatch, {orc.Start(): [orc.Publish("drop", payload)]})
    payload["value"] = 999
    assert messages(sim)[0]["payload"] == {"value": 1}


@given(topics=st.lists(st.sampled_from(["drop", "fault", "system_reset"]), max_size=40))
@settings(max_examples=200, deadline=None)
def test_subscribers_see_gap_free_increasing_seqs(topics):
    # The trace is the messages' one reader.
    sim = Simulation(CellConfig().validate())
    for topic in topics:
        sim._publish(orc.Publish(topic, {}))
    for topic in set(topics):
        seqs = [m["seq"] for m in messages(sim) if m["topic"] == topic]
        assert seqs == list(range(len(seqs)))

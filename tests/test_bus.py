import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bagcell.bus import DEFAULT_TOPICS, Bus, Message, UnknownTopic


def test_unknown_topic_rejected():
    bus = Bus()
    with pytest.raises(UnknownTopic):
        bus.publish("no_such_topic", {}, time=0.0)


def test_extra_topics_registered():
    with pytest.raises(UnknownTopic):
        Bus().publish("custom_alert", {}, time=0.0)
    bus = Bus(extra_topics=("custom_alert",))
    assert bus.publish("custom_alert", {}, time=0.0).seq == 0
    for topic in DEFAULT_TOPICS:
        assert bus.publish(topic, {}, time=0.0).seq == 0


def test_per_topic_sequences_are_independent():
    bus = Bus()
    seqs = [bus.publish(t, {}, time=0.0).seq for t in ("drop", "fault", "drop")]
    assert seqs == [0, 0, 1]


def test_payload_copied_at_publish():
    seen = []
    bus = Bus(on_publish=seen.append)
    payload = {"value": 1}
    bus.publish("drop", payload, time=0.0)
    payload["value"] = 999
    assert seen[0].payload["value"] == 1


def test_on_publish_mirror_sees_everything():
    seen = []
    bus = Bus(on_publish=seen.append)
    bus.publish("drop", {"n": 0}, time=0.0)
    bus.publish("fault", {"n": 1}, time=1.0)
    assert [(m.topic, m.seq) for m in seen] == [("drop", 0), ("fault", 0)]
    assert all(isinstance(m, Message) for m in seen)


@given(topics=st.lists(st.sampled_from(["drop", "fault", "system_reset"]), max_size=40))
@settings(max_examples=200, deadline=None)
def test_subscribers_see_gap_free_increasing_seqs(topics):
    # The on_publish mirror is the bus's one subscriber.
    seen = []
    bus = Bus(on_publish=seen.append)
    for i, topic in enumerate(topics):
        bus.publish(topic, {}, time=float(i))
    for topic in set(topics):
        seqs = [m.seq for m in seen if m.topic == topic]
        assert seqs == list(range(len(seqs)))

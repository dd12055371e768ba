"""Topic registry and sequence stamping for cross-phase coordination messages.

Topics must be registered before use. Each publish stamps a per-topic
monotone sequence number and hands the message to the optional
``on_publish`` hook, which mirrors it (typically into the run trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

DEFAULT_TOPICS = (
    "system_ready",
    "ready_for_picking",
    "drop",
    "placement_verified",
    "cycle_finished",
    "removing_bag",
    "suction_cmd",
    "cutting_complete",
    "removal_complete",
    "delivery_complete",
    "system_reset",
    "fault",
)


class UnknownTopic(KeyError):
    def __init__(self, topic: str):
        self.topic = topic
        super().__init__(f"topic not registered: {topic!r}")


@dataclass(frozen=True)
class Message:
    topic: str
    seq: int
    time: float
    payload: Dict[str, Any]


class Bus:
    def __init__(
        self,
        extra_topics: tuple[str, ...] | list[str] = (),
        on_publish: Optional[Callable[[Message], None]] = None,
    ):
        self._topic_seq: Dict[str, int] = dict.fromkeys((*DEFAULT_TOPICS, *extra_topics), 0)
        self.on_publish = on_publish

    def publish(self, topic: str, payload: Dict[str, Any], time: float) -> Message:
        if topic not in self._topic_seq:
            raise UnknownTopic(topic)
        seq = self._topic_seq[topic]
        self._topic_seq[topic] = seq + 1
        msg = Message(topic=topic, seq=seq, time=time, payload=dict(payload))
        if self.on_publish is not None:
            self.on_publish(msg)
        return msg

"""The topics of the cross-phase coordination messages.

``TOPICS`` names each topic the machine may publish. The runtime numbers
each topic's messages from 0 and traces them; publishing a topic outside
the tuple is a ``KeyError``. Which topics come back to the machine as a
``BusMsg`` is read off the ``BusMsg`` rows of ``orchestrator.STEPS``.
"""

TOPICS = (
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

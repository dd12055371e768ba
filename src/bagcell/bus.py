"""The topics of the cross-phase coordination messages.

``TOPICS`` maps each topic the machine publishes to whether the machine
waits to receive it back as a ``BusMsg``. The runtime numbers each topic's
messages from 0 and traces them; publishing a topic outside the table is
a ``KeyError``.
"""

TOPICS = {
    "system_ready": False,
    "ready_for_picking": True,
    "drop": False,
    "placement_verified": False,
    "cycle_finished": False,
    "removing_bag": False,
    "suction_cmd": False,
    "cutting_complete": False,
    "removal_complete": False,
    "delivery_complete": False,
    "system_reset": True,
    "fault": False,
}

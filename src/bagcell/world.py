"""Physical state of the cell: the stacks, by tote zone or enclosure.

A stack is numbered by its zone and column; where its top sits is the
config's to say (``CellConfig.stack_top_position``). A stack's ``enclosure``
is the one record of where it sits: set while it is ``in_enclosure``, None
otherwise. Its ``seated`` is whether its latest place decision seated it
(True before any), which is what an ultrasonic read sees. The world is plain
mutable state; all transitions are applied by the simulation loop.
``check_invariants`` is the single source of truth for the structural
safety properties (single occupancy, at most one held stack, an enclosure
index exactly while seated, packaging per state); the simulation re-checks
them after each stack or packaging update, the only actions that change
what they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from bagcell.config import ENCLOSURE_COUNT, CellConfig


# A stack's states and packagings, in life-cycle order: the words the machine
# emits (``SetStack``, ``SetPackaging``) and the trace records.
STACK_STATES = ("in_tote", "held", "in_enclosure", "delivered", "failed_unhandled")
PACKAGINGS = ("bagged", "cut", "removed")


@dataclass
class Stack:
    """One transparent-bagged stack of containers, numbered by zone and column."""

    id: int
    zone: int
    col: int
    state: str = "in_tote"
    packaging: str = "bagged"
    enclosure: Optional[int] = None
    seated: bool = True


class Violation(NamedTuple):
    """A structural or safety invariant that was broken."""

    code: str
    detail: str


@dataclass
class World:
    stacks: list[Stack]

    def zone_stacks(self, zone: int) -> list[Stack]:
        """A zone's pickable stacks, in ``(col, id)`` order: ``build_world`` numbers them so."""
        return [s for s in self.stacks if s.zone == zone and s.state == "in_tote"]

    def occupant(self, enclosure: int) -> Optional[int]:
        """The id of the stack seated in ``enclosure``, or None if it is empty."""
        for s in self.stacks:
            if s.enclosure == enclosure:
                return s.id
        return None


def build_world(config: CellConfig) -> World:
    """The initial world: every stack bagged in the tote, numbered by zone and column."""
    cells = [(zone, col) for zone, n in enumerate(config.layout.zone_sizes, 1) for col in range(n)]
    stacks = [Stack(id=i, zone=zone, col=col) for i, (zone, col) in enumerate(cells)]
    return World(stacks=stacks)


def check_invariants(world: World) -> list[Violation]:
    """Return all structural violations present in ``world`` (empty list if sound).

    One pass over the stacks: ``multiple_held`` first, then each stack's
    violations in id order.
    """
    out: list[Violation] = []
    held: list[int] = []
    seated: dict[int, int] = {}
    for s in world.stacks:
        state = s.state
        enclosure = s.enclosure
        if state == "in_enclosure":
            if enclosure is None or not (0 <= enclosure < ENCLOSURE_COUNT):
                detail = f"stack {s.id} is in_enclosure with enclosure={enclosure}"
                out.append(Violation("orphan_in_enclosure", detail))
            elif enclosure in seated:
                detail = f"enclosure {enclosure} holds stacks {seated[enclosure]} and {s.id}"
                out.append(Violation("occupant_duplicated", detail))
            else:
                seated[enclosure] = s.id
            continue
        if enclosure is not None:
            detail = f"stack {s.id} in state {state} still points at enclosure {enclosure}"
            out.append(Violation("stale_enclosure_reference", detail))
        if state == "held":
            held.append(s.id)
        elif state == "in_tote" and s.packaging != "bagged":
            detail = f"stack {s.id} in the tote has packaging {s.packaging}"
            out.append(Violation("packaging_mismatch", detail))
        elif state == "delivered" and s.packaging != "removed":
            detail = f"stack {s.id} delivered with packaging {s.packaging}"
            out.append(Violation("delivered_still_bagged", detail))
    if len(held) > 1:
        out.insert(0, Violation("multiple_held", f"stacks {held} held simultaneously"))
    return out

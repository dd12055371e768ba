"""Physical state of the cell: the stacks, by tote zone or enclosure.

A stack is numbered by its zone and column; where its top sits is the
config's to say (``CellConfig.stack_top_position``). A stack's ``enclosure``
is the one record of where it is seated: set while it is ``in_enclosure``,
None otherwise. The world is plain mutable state; all transitions are
applied by the simulation loop. ``check_invariants`` is the single source of
truth for the structural safety properties (single occupancy, at most one
held stack, an enclosure index exactly while seated, packaging per state);
the simulation re-checks them after each stack or packaging update, the only
actions that change the world.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from bagcell.config import ENCLOSURE_COUNT, CellConfig


class StackState(enum.Enum):
    IN_TOTE = "in_tote"
    HELD = "held"
    IN_ENCLOSURE = "in_enclosure"
    DELIVERED = "delivered"
    FAILED_UNHANDLED = "failed_unhandled"


class Packaging(enum.Enum):
    BAGGED = "bagged"
    CUT = "cut"
    REMOVED = "removed"


@dataclass
class Stack:
    """One transparent-bagged stack of containers, numbered by zone and column."""

    id: int
    zone: int
    col: int
    state: StackState = StackState.IN_TOTE
    packaging: Packaging = Packaging.BAGGED
    enclosure: Optional[int] = None


@dataclass(frozen=True)
class Violation:
    """A structural or safety invariant that was broken."""

    code: str
    detail: str


@dataclass
class World:
    stacks: list[Stack]

    def zone_stacks(self, zone: int) -> list[Stack]:
        """A zone's pickable stacks, in ``(col, id)`` order: ``build_world`` numbers them so."""
        return [s for s in self.stacks if s.zone == zone and s.state is _IN_TOTE]

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


# Bound once: on Python 3.11 each lookup of a member on its enum class costs
# about 0.2 us, and the scan below would make ~150 of them after every stack update.
_IN_TOTE = StackState.IN_TOTE
_HELD = StackState.HELD
_IN_ENCLOSURE = StackState.IN_ENCLOSURE
_DELIVERED = StackState.DELIVERED
_BAGGED = Packaging.BAGGED
_REMOVED = Packaging.REMOVED


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
        if state is _IN_ENCLOSURE:
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
            detail = f"stack {s.id} in state {state.value} still points at enclosure {enclosure}"
            out.append(Violation("stale_enclosure_reference", detail))
        if state is _HELD:
            held.append(s.id)
        elif state is _IN_TOTE and s.packaging is not _BAGGED:
            detail = f"stack {s.id} in the tote has packaging {s.packaging.value}"
            out.append(Violation("packaging_mismatch", detail))
        elif state is _DELIVERED and s.packaging is not _REMOVED:
            detail = f"stack {s.id} delivered with packaging {s.packaging.value}"
            out.append(Violation("delivered_still_bagged", detail))
    if len(held) > 1:
        out.insert(0, Violation("multiple_held", f"stacks {held} held simultaneously"))
    return out

"""Physical state of the cell: stacks, tote zones, enclosures.

A stack is numbered by its zone and column; where its top sits is the
config's to say (``CellConfig.stack_top_position``). The world is plain
mutable state; all transitions are applied by the simulation loop.
``check_invariants`` is the single source of truth for the structural safety
properties (single occupancy, at most one held stack, stack/enclosure
cross-reference consistency, packaging per state); the simulation re-checks
them after each stack or packaging update, the only actions that change the
world.
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


@dataclass
class Enclosure:
    index: int
    occupant: Optional[int] = None


@dataclass(frozen=True)
class Violation:
    """A structural or safety invariant that was broken."""

    code: str
    detail: str


@dataclass
class World:
    stacks: list[Stack]
    enclosures: list[Enclosure]

    def zone_stacks(self, zone: int) -> list[Stack]:
        """Pickable stacks currently presented in a zone, in one pass over the stacks."""
        return [s for s in self.stacks if s.zone == zone and s.state is _IN_TOTE]


def build_world(config: CellConfig) -> World:
    """The initial world: every stack bagged in the tote, numbered by zone and column."""
    cells = [(zone, col) for zone, n in enumerate(config.layout.zone_sizes, 1) for col in range(n)]
    stacks = [Stack(id=i, zone=zone, col=col) for i, (zone, col) in enumerate(cells)]
    return World(stacks=stacks, enclosures=[Enclosure(i) for i in range(ENCLOSURE_COUNT)])


# Bound once: on Python 3.11 each lookup of a member on its enum class costs
# about 0.2 us, and the scan below would make ~150 of them after every stack update.
_IN_TOTE = StackState.IN_TOTE
_HELD = StackState.HELD
_IN_ENCLOSURE = StackState.IN_ENCLOSURE
_DELIVERED = StackState.DELIVERED
_BAGGED = Packaging.BAGGED
_REMOVED = Packaging.REMOVED


def check_invariants(world: World) -> list[Violation]:
    """Return all structural violations present in ``world`` (empty list if sound)."""
    out: list[Violation] = []
    stacks = world.stacks
    enclosures = world.enclosures

    held = [s for s in stacks if s.state is _HELD]
    if len(held) > 1:
        out.append(
            Violation(
                "multiple_held",
                f"stacks {sorted(s.id for s in held)} held simultaneously",
            )
        )

    seen_occupants: dict[int, int] = {}
    for enc in enclosures:
        occupant = enc.occupant
        if occupant is None:
            continue
        if occupant in seen_occupants:
            out.append(
                Violation(
                    "occupant_duplicated",
                    f"stack {occupant} listed in enclosures "
                    f"{seen_occupants[occupant]} and {enc.index}",
                )
            )
        seen_occupants[occupant] = enc.index
        stack = stacks[occupant]
        if stack.state is not _IN_ENCLOSURE:
            out.append(
                Violation(
                    "occupant_state_mismatch",
                    f"enclosure {enc.index} holds stack {stack.id} "
                    f"whose state is {stack.state.value}",
                )
            )
        if stack.enclosure != enc.index:
            out.append(
                Violation(
                    "cross_reference_mismatch",
                    f"enclosure {enc.index} points at stack {stack.id} but the "
                    f"stack points at {stack.enclosure}",
                )
            )

    for s in stacks:
        state = s.state
        if state is _IN_ENCLOSURE:
            if s.enclosure is None or not (0 <= s.enclosure < len(enclosures)):
                out.append(
                    Violation(
                        "orphan_in_enclosure",
                        f"stack {s.id} is in_enclosure with enclosure={s.enclosure}",
                    )
                )
            elif enclosures[s.enclosure].occupant != s.id:
                out.append(
                    Violation(
                        "cross_reference_mismatch",
                        f"stack {s.id} claims enclosure {s.enclosure} which holds "
                        f"{enclosures[s.enclosure].occupant}",
                    )
                )
        elif (state is _IN_TOTE or state is _HELD) and s.enclosure is not None:
            out.append(
                Violation(
                    "stale_enclosure_reference",
                    f"stack {s.id} in state {state.value} still points at "
                    f"enclosure {s.enclosure}",
                )
            )
        if state is _IN_TOTE and s.packaging is not _BAGGED:
            out.append(
                Violation(
                    "packaging_mismatch",
                    f"stack {s.id} in the tote has packaging {s.packaging.value}",
                )
            )
        if state is _DELIVERED and s.packaging is not _REMOVED:
            out.append(
                Violation(
                    "delivered_still_bagged",
                    f"stack {s.id} delivered with packaging {s.packaging.value}",
                )
            )
    return out

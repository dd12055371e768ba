"""Physical state of the cell: stacks, tote zones, enclosures.

The world is plain mutable state; all transitions are applied by the
simulation loop. ``check_invariants`` is the single source of truth for the
structural safety properties (single occupancy, at most one held stack,
stack/enclosure cross-reference consistency, packaging per state) and is
re-checked after every event during simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional

from bagcell.config import CellConfig


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
class Pose3:
    x: float
    y: float
    z: float

    def xyz(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass
class Stack:
    """One transparent-bagged stack of containers."""

    id: int
    zone: int
    row: int
    col: int
    pose: Pose3
    state: StackState = StackState.IN_TOTE
    packaging: Packaging = Packaging.BAGGED
    enclosure: Optional[int] = None
    top_w_m: float = 0.10
    top_d_m: float = 0.15


@dataclass
class QRAnchor:
    """Zone marker on the tote rim; anchors per-zone pick depth."""

    zone: int
    pose: Pose3
    depth_offset_m: float = 0.0


@dataclass
class Tote:
    incline_deg: float
    zone_sizes: list[int]
    anchors: list[QRAnchor]


@dataclass
class Enclosure:
    index: int
    occupant: Optional[int] = None


class Violation(Exception):
    """A structural or safety invariant was broken."""

    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}")


@dataclass
class World:
    stacks: list[Stack]
    tote: Tote
    enclosures: list[Enclosure]

    def held_stack(self) -> Optional[Stack]:
        held = [s for s in self.stacks if s.state is StackState.HELD]
        return held[0] if held else None

    def in_tote(self) -> list[Stack]:
        return [s for s in self.stacks if s.state is StackState.IN_TOTE]

    def zone_stacks(self, zone: int) -> list[Stack]:
        """Pickable stacks currently presented in a zone."""
        return [s for s in self.in_tote() if s.zone == zone]

    def counts(self) -> dict[str, int]:
        out = {state.value: 0 for state in StackState}
        for s in self.stacks:
            out[s.state.value] += 1
        return out


def build_world(config: CellConfig) -> World:
    """Construct the initial world from layout config, all stacks bagged in the tote."""
    lay = config.layout
    stacks: list[Stack] = []
    sid = 0
    for zone_idx, n in enumerate(lay.zone_sizes):
        zone = zone_idx + 1
        for col in range(n):
            x, y, z = config.stack_top_position(zone, zone_idx, col)
            stacks.append(
                Stack(
                    id=sid,
                    zone=zone,
                    row=zone_idx,
                    col=col,
                    pose=Pose3(x, y, z),
                    top_w_m=lay.stack_top_w_m,
                    top_d_m=lay.stack_top_d_m,
                )
            )
            sid += 1

    anchors = []
    for zone_idx in range(len(lay.zone_sizes)):
        zone = zone_idx + 1
        # Anchor sits on the tote rim at the zone row's stack-top plane, so
        # its depth in the camera frame matches the pick plane directly.
        _, y, z = config.stack_top_position(zone, zone_idx, 0)
        edge_x = -(max(lay.zone_sizes) / 2.0 + 0.5) * lay.col_pitch_m
        anchors.append(QRAnchor(zone=zone, pose=Pose3(edge_x, y, z)))

    tote = Tote(incline_deg=lay.incline_deg, zone_sizes=list(lay.zone_sizes), anchors=anchors)
    enclosures = [Enclosure(i) for i in range(lay.enclosure_count)]
    return World(stacks=stacks, tote=tote, enclosures=enclosures)


def check_invariants(world: World) -> list[Violation]:
    """Return all structural violations present in ``world`` (empty list if sound)."""
    out: list[Violation] = []

    held = [s for s in world.stacks if s.state is StackState.HELD]
    if len(held) > 1:
        out.append(
            Violation(
                "multiple_held",
                f"stacks {sorted(s.id for s in held)} held simultaneously",
            )
        )

    seen_occupants: dict[int, int] = {}
    for enc in world.enclosures:
        if enc.occupant is None:
            continue
        if enc.occupant in seen_occupants:
            out.append(
                Violation(
                    "occupant_duplicated",
                    f"stack {enc.occupant} listed in enclosures "
                    f"{seen_occupants[enc.occupant]} and {enc.index}",
                )
            )
        seen_occupants[enc.occupant] = enc.index
        stack = world.stacks[enc.occupant]
        if stack.state is not StackState.IN_ENCLOSURE:
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

    for s in world.stacks:
        if s.state is StackState.IN_ENCLOSURE:
            if s.enclosure is None or not (0 <= s.enclosure < len(world.enclosures)):
                out.append(
                    Violation(
                        "orphan_in_enclosure",
                        f"stack {s.id} is in_enclosure with enclosure={s.enclosure}",
                    )
                )
            elif world.enclosures[s.enclosure].occupant != s.id:
                out.append(
                    Violation(
                        "cross_reference_mismatch",
                        f"stack {s.id} claims enclosure {s.enclosure} which holds "
                        f"{world.enclosures[s.enclosure].occupant}",
                    )
                )
        elif s.state in (StackState.IN_TOTE, StackState.HELD) and s.enclosure is not None:
            out.append(
                Violation(
                    "stale_enclosure_reference",
                    f"stack {s.id} in state {s.state.value} still points at "
                    f"enclosure {s.enclosure}",
                )
            )
        if s.state is StackState.IN_TOTE and s.packaging is not Packaging.BAGGED:
            out.append(
                Violation(
                    "packaging_mismatch",
                    f"stack {s.id} in the tote has packaging {s.packaging.value}",
                )
            )
        if s.state is StackState.DELIVERED and s.packaging is not Packaging.REMOVED:
            out.append(
                Violation(
                    "delivered_still_bagged",
                    f"stack {s.id} delivered with packaging {s.packaging.value}",
                )
            )
    return out


def assert_invariants(world: World) -> None:
    violations = check_invariants(world)
    if violations:
        raise violations[0]


def terminal_accounting(world: World) -> dict[str, int]:
    """Delivered / failed split; at the end of a campaign these sum to the total."""
    counts = world.counts()
    return {
        "delivered": counts[StackState.DELIVERED.value],
        "failed_unhandled": counts[StackState.FAILED_UNHANDLED.value],
        "pending": len(world.stacks)
        - counts[StackState.DELIVERED.value]
        - counts[StackState.FAILED_UNHANDLED.value],
    }

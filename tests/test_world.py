import pytest

from bagcell.config import default_config
from bagcell.world import (
    Packaging,
    StackState,
    assert_invariants,
    build_world,
    check_invariants,
    terminal_accounting,
)


def fresh_world():
    return build_world(default_config())


def test_build_world_default_layout():
    world = fresh_world()
    assert len(world.stacks) == 24
    assert len(world.enclosures) == 8
    assert [len(world.zone_stacks(z)) for z in (1, 2, 3, 4)] == [4, 6, 6, 8]
    assert all(s.state is StackState.IN_TOTE for s in world.stacks)
    assert all(s.packaging is Packaging.BAGGED for s in world.stacks)
    assert all(e.occupant is None for e in world.enclosures)
    assert len(world.tote.anchors) == 4


def test_build_world_is_deterministic():
    assert fresh_world() == fresh_world()


def test_incline_lowers_successive_rows():
    world = fresh_world()
    z_by_zone = [world.zone_stacks(z)[0].pose.z for z in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(z_by_zone, z_by_zone[1:]))


def test_zone_rows_recede_from_the_front():
    world = fresh_world()
    y_by_zone = [world.zone_stacks(z)[0].pose.y for z in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(y_by_zone, y_by_zone[1:]))


def test_anchor_sits_on_each_zone_plane():
    world = fresh_world()
    for anchor in world.tote.anchors:
        stack = world.zone_stacks(anchor.zone)[0]
        assert anchor.pose.z == pytest.approx(stack.pose.z)
        assert anchor.depth_offset_m == 0.0


def test_fresh_world_has_no_violations():
    assert check_invariants(fresh_world()) == []
    assert_invariants(fresh_world())


def test_two_held_stacks_flagged():
    world = fresh_world()
    world.stacks[0].state = StackState.HELD
    world.stacks[1].state = StackState.HELD
    codes = [v.code for v in check_invariants(world)]
    assert "multiple_held" in codes


def test_duplicate_occupant_flagged():
    world = fresh_world()
    world.stacks[0].state = StackState.IN_ENCLOSURE
    world.stacks[0].enclosure = 0
    world.enclosures[0].occupant = 0
    world.enclosures[1].occupant = 0
    codes = [v.code for v in check_invariants(world)]
    assert "occupant_duplicated" in codes


def test_occupant_state_mismatch_flagged():
    world = fresh_world()
    world.enclosures[2].occupant = 5  # stack 5 still claims to be in the tote
    codes = [v.code for v in check_invariants(world)]
    assert "occupant_state_mismatch" in codes


def test_cross_reference_mismatch_flagged():
    world = fresh_world()
    world.stacks[3].state = StackState.IN_ENCLOSURE
    world.stacks[3].enclosure = 4
    world.enclosures[4].occupant = 7
    world.stacks[7].state = StackState.IN_ENCLOSURE
    world.stacks[7].enclosure = 4
    codes = [v.code for v in check_invariants(world)]
    assert "cross_reference_mismatch" in codes


def test_orphan_in_enclosure_flagged():
    world = fresh_world()
    world.stacks[0].state = StackState.IN_ENCLOSURE
    world.stacks[0].enclosure = None
    codes = [v.code for v in check_invariants(world)]
    assert "orphan_in_enclosure" in codes


def test_stale_enclosure_reference_flagged():
    world = fresh_world()
    world.stacks[0].enclosure = 3  # still in the tote
    codes = [v.code for v in check_invariants(world)]
    assert "stale_enclosure_reference" in codes


def test_packaging_rules_flagged():
    world = fresh_world()
    world.stacks[0].packaging = Packaging.CUT  # cut while still in the tote
    world.stacks[1].state = StackState.DELIVERED
    world.stacks[1].packaging = Packaging.BAGGED
    codes = [v.code for v in check_invariants(world)]
    assert "packaging_mismatch" in codes
    assert "delivered_still_bagged" in codes


def test_assert_invariants_raises_first_violation():
    world = fresh_world()
    world.stacks[0].state = StackState.HELD
    world.stacks[1].state = StackState.HELD
    with pytest.raises(Exception) as info:
        assert_invariants(world)
    assert "multiple_held" in str(info.value)


def test_terminal_accounting_partitions_stacks():
    world = fresh_world()
    world.stacks[0].state = StackState.DELIVERED
    world.stacks[0].packaging = Packaging.REMOVED
    world.stacks[1].state = StackState.FAILED_UNHANDLED
    acc = terminal_accounting(world)
    assert acc == {"delivered": 1, "failed_unhandled": 1, "pending": 22}


def test_held_stack_lookup():
    world = fresh_world()
    assert world.held_stack() is None
    world.stacks[9].state = StackState.HELD
    assert world.held_stack().id == 9
    assert len(world.in_tote()) == 23

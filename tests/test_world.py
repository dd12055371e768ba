import pytest

from bagcell.config import CellConfig
from bagcell.world import build_world, check_invariants


def fresh_world():
    return build_world(CellConfig())


def test_build_world_default_layout():
    world = fresh_world()
    assert len(world.stacks) == 24
    assert [len(world.zone_stacks(z)) for z in (1, 2, 3, 4)] == [4, 6, 6, 8]
    assert all(s.state == "in_tote" for s in world.stacks)
    assert all(s.packaging == "bagged" for s in world.stacks)
    assert all(s.seated for s in world.stacks)
    assert [s.id for s in world.stacks] == list(range(24))
    assert [(s.zone, s.col) for s in world.zone_stacks(2)] == [(2, c) for c in range(6)]


def test_build_world_is_deterministic():
    assert fresh_world() == fresh_world()


def test_incline_lowers_successive_rows():
    cfg = CellConfig()
    z_by_zone = [cfg.stack_top_position(z, 0)[2] for z in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(z_by_zone, z_by_zone[1:]))


def test_zone_rows_recede_from_the_front():
    cfg = CellConfig()
    y_by_zone = [cfg.stack_top_position(z, 0)[1] for z in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(y_by_zone, y_by_zone[1:]))


def test_anchor_sits_on_each_zone_plane():
    cfg = CellConfig()
    for zone in (1, 2, 3, 4):
        assert cfg.rim_marker_position(zone)[2] == pytest.approx(cfg.stack_top_position(zone, 0)[2])


def test_fresh_world_has_no_violations():
    assert check_invariants(fresh_world()) == []


def test_two_held_stacks_flagged():
    world = fresh_world()
    world.stacks[0].state = "held"
    world.stacks[1].state = "held"
    codes = [v.code for v in check_invariants(world)]
    assert "multiple_held" in codes


def test_duplicate_occupant_flagged():
    world = fresh_world()
    for sid in (0, 5):
        world.stacks[sid].state = "in_enclosure"
        world.stacks[sid].enclosure = 0
    codes = [v.code for v in check_invariants(world)]
    assert codes == ["occupant_duplicated"]


def test_orphan_in_enclosure_flagged():
    world = fresh_world()
    world.stacks[0].state = "in_enclosure"
    world.stacks[0].enclosure = None
    codes = [v.code for v in check_invariants(world)]
    assert "orphan_in_enclosure" in codes


def test_enclosure_index_out_of_range_flagged_as_orphan():
    world = fresh_world()
    world.stacks[0].state = "in_enclosure"
    world.stacks[0].enclosure = 99
    codes = [v.code for v in check_invariants(world)]
    assert codes == ["orphan_in_enclosure"]


def test_stale_enclosure_reference_flagged():
    world = fresh_world()
    world.stacks[0].enclosure = 3  # still in the tote
    codes = [v.code for v in check_invariants(world)]
    assert "stale_enclosure_reference" in codes


def test_delivered_stack_still_pointing_at_an_enclosure_flagged():
    world = fresh_world()
    world.stacks[4].state = "delivered"
    world.stacks[4].packaging = "removed"
    world.stacks[4].enclosure = 2
    assert [(v.code, v.detail) for v in check_invariants(world)] == [
        ("stale_enclosure_reference", "stack 4 in state delivered still points at enclosure 2"),
    ]


def test_packaging_rules_flagged():
    world = fresh_world()
    world.stacks[0].packaging = "cut"  # cut while still in the tote
    world.stacks[1].state = "delivered"
    world.stacks[1].packaging = "bagged"
    codes = [v.code for v in check_invariants(world)]
    assert "packaging_mismatch" in codes
    assert "delivered_still_bagged" in codes


def test_held_stack_lookup():
    world = fresh_world()
    world.stacks[9].state = "held"
    assert sum(len(world.zone_stacks(z)) for z in (1, 2, 3, 4)) == 23
    assert 9 not in [s.id for s in world.zone_stacks(2)]


def test_invariant_scan_reports_every_violation_in_a_fixed_order():
    # Violations are written to the trace, so their codes, details and order
    # are output bytes; this world breaks every rule the scan knows.
    world = fresh_world()
    s = world.stacks
    s[0].state = "held"
    s[1].state = "held"
    s[1].enclosure = 6
    s[2].state = "in_enclosure"
    s[2].enclosure = 0
    s[3].state = "in_enclosure"
    s[3].enclosure = 4
    s[7].state = "in_enclosure"
    s[7].enclosure = 4
    s[8].state = "in_enclosure"
    s[9].enclosure = 3
    s[10].packaging = "cut"
    s[11].state = "delivered"
    s[12].state = "in_enclosure"
    s[12].enclosure = 99
    s[13].state = "delivered"
    s[13].packaging = "removed"
    s[13].enclosure = 5
    s[14].state = "failed_unhandled"
    s[14].enclosure = 2
    assert [(v.code, v.detail) for v in check_invariants(world)] == [
        ("multiple_held", "stacks [0, 1] held simultaneously"),
        ("stale_enclosure_reference", "stack 1 in state held still points at enclosure 6"),
        ("occupant_duplicated", "enclosure 4 holds stacks 3 and 7"),
        ("orphan_in_enclosure", "stack 8 is in_enclosure with enclosure=None"),
        ("stale_enclosure_reference", "stack 9 in state in_tote still points at enclosure 3"),
        ("packaging_mismatch", "stack 10 in the tote has packaging cut"),
        ("delivered_still_bagged", "stack 11 delivered with packaging bagged"),
        ("orphan_in_enclosure", "stack 12 is in_enclosure with enclosure=99"),
        ("stale_enclosure_reference", "stack 13 in state delivered still points at enclosure 5"),
        (
            "stale_enclosure_reference",
            "stack 14 in state failed_unhandled still points at enclosure 2",
        ),
    ]

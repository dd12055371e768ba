import copy
import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bagcell.cli import main
from bagcell.config import DEFAULT_SEED, CellConfig, ConfigInvalid
from bagcell.config import CameraConfig, DeviceConfig, FaultConfig, LayoutConfig
from bagcell.config import MotionConfig, OrchestratorConfig, PacingConfig


def test_defaults_validate():
    cfg = CellConfig()
    assert cfg.validate().config is cfg
    assert cfg.seed == DEFAULT_SEED
    assert sum(cfg.layout.zone_sizes) == cfg.layout.total_stacks == 24
    assert cfg.layout.enclosure_count == 8


def test_effective_motion_limits():
    mot = CellConfig().motion
    assert mot.effective_max_speed_mps == pytest.approx(0.56, abs=1e-12)
    assert mot.effective_acceleration_mps2 == pytest.approx(0.39, abs=1e-12)


def test_json_round_trip(tmp_path):
    cfg = CellConfig()
    path = tmp_path / "cell.json"
    path.write_text(cfg.to_json())
    again = CellConfig.from_file(path)
    assert again.to_dict() == cfg.to_dict()


def test_partial_overlay_keeps_other_defaults():
    cfg = CellConfig.from_dict({"seed": 7, "motion": {"velocity_scaling": 0.5}})
    assert cfg.seed == 7
    assert cfg.motion.velocity_scaling == 0.5
    assert cfg.motion.robot_max_speed_mps == 2.0  # untouched default


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigInvalid) as info:
        CellConfig.from_dict({"motion": {"warp_speed": 9}})
    assert info.value.field_name == "motion.warp_speed"


def test_zone_sizes_must_sum_to_total():
    with pytest.raises(ConfigInvalid) as info:
        CellConfig.from_dict({"layout": {"zone_sizes": [4, 6, 6, 7]}}).validate()
    assert info.value.field_name == "layout.zone_sizes"


def test_zone_count_fixed_at_four():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"layout": {"zone_sizes": [12, 12], "total_stacks": 24}}).validate()


def test_enclosure_count_fixed_at_eight():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"layout": {"enclosure_count": 6}}).validate()


def test_scaling_bounds_enforced():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"motion": {"velocity_scaling": 0.0}}).validate()
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"motion": {"acceleration_scaling": 1.5}}).validate()


def test_vacuum_levels_must_be_negative_and_ordered():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"devices": {"secure_threshold_kpa": 10.0}}).validate()
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict(
            {"devices": {"vacuum_level_kpa": -20.0, "secure_threshold_kpa": -30.0}}
        ).validate()


def test_probabilities_and_sigmas_bounded():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"faults": {"pick_grip_fail_prob": 1.5}}).validate()
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"faults": {"ultrasonic_noise_sigma_cm": -1.0}}).validate()


def test_attempt_caps_and_pacing_bounds():
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"orchestrator": {"pick_attempts": 0}}).validate()
    with pytest.raises(ConfigInvalid):
        CellConfig.from_dict({"orchestrator": {"pacing": {"detect_service_s": -1.0}}}).validate()


def test_non_finite_numbers_rejected_with_dotted_field(tmp_path):
    # Python's json accepts NaN and Infinity; a NaN pacing value used to hang
    # the event loop and an infinite travel time to end it in a traceback.
    cases = {
        '{"orchestrator": {"pacing": {"detect_service_s": NaN}}}':
            "orchestrator.pacing.detect_service_s",
        '{"devices": {"door_travel_s": Infinity}}': "devices.door_travel_s",
        '{"layout": {"home_pose": [0.0, -Infinity, 0.6]}}': "layout.home_pose[1]",
    }
    path = tmp_path / "cell.json"
    for text, field_name in cases.items():
        path.write_text(text)
        with pytest.raises(ConfigInvalid) as info:
            CellConfig.from_file(path).validate()
        assert info.value.field_name == field_name
        assert "finite" in info.value.reason


def test_stall_margin_must_not_be_negative():
    # A negative margin would schedule a stall before the command that caused it.
    with pytest.raises(ConfigInvalid) as info:
        CellConfig.from_dict({"devices": {"actuator_stall_margin_s": -5}}).validate()
    assert info.value.field_name == "devices.actuator_stall_margin_s"
    CellConfig.from_dict({"devices": {"actuator_stall_margin_s": 0.0}}).validate()


@pytest.mark.parametrize(
    "layout, field_name",
    [
        ({"stack_top_w_m": -0.1, "stack_top_d_m": 0}, "layout.stack_top_w_m"),
        ({"stack_top_w_m": 0}, "layout.stack_top_w_m"),
        ({"stack_top_d_m": 0}, "layout.stack_top_d_m"),
        ({"stack_top_d_m": -0.15}, "layout.stack_top_d_m"),
    ],
)
def test_a_stack_top_without_area_is_a_usage_error(tmp_path, capsys, layout, field_name):
    # A run reads only each box's centre, so such a config delivered every stack.
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({"layout": layout}))
    argv = ["run", "--cycles", "1", "--config", str(path), "--outdir", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {field_name}: must be > 0\n"


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigInvalid):
        CellConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigInvalid):
        CellConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigInvalid):
        CellConfig.from_file(arr)


def test_to_json_is_stable_and_parseable():
    a = CellConfig().to_json()
    b = CellConfig().to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["layout"]["zone_sizes"] == [4, 6, 6, 8]


# One value off its default in each section: a pose, the zone sizes, an
# extrinsic row and the capture metadata among them.
OVERLAY = {
    "seed": 7,
    "layout": {"zone_sizes": [6, 6, 6, 6], "home_pose": [0.0, 0.05, 0.6]},
    "camera": {
        "extrinsic": [[1.0, 0.0, 0.0, 0.01], [0.0, -1.0, 0.0, -0.69],
                      [0.0, 0.0, -1.0, 1.05], [0.0, 0.0, 0.0, 1.0]],
        "capture_metadata": {"contrast": 40},
    },
    "motion": {"velocity_scaling": 0.3},
    "devices": {"door_travel_s": 3},
    "faults": {"pick_grip_fail_prob": 0.1},
    "orchestrator": {"pick_attempts": 4, "pacing": {"detect_service_s": 12.5}},
    "extra_topics": ["a"],
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_config_bytes_are_pinned(capsys):
    # Recorded when the sections were dataclasses holding lists: the config
    # digest in every report.json hashes these bytes.
    assert main(["dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert sha256(dumped) == "85d528366d4133db693573ab3c85f073f8f8c2269f5aa29cb26ef96268a8c742"
    overlaid = CellConfig.from_dict(OVERLAY)
    overlaid.validate()
    assert sha256(overlaid.to_json()) == (
        "3bc0ebc271447d9486c6dc4c943aa6dfc682a027fad2a0b4533d9d52543f9020"
    )


@pytest.mark.parametrize(
    "section",
    [LayoutConfig, CameraConfig, MotionConfig, DeviceConfig, FaultConfig, PacingConfig,
     OrchestratorConfig],
)
def test_a_section_field_cannot_be_assigned(section):
    record = section()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_a_cell_cannot_go_stale_under_a_changed_section():
    # A run on this Cell used the boxes of the old pitch and the poses of the new.
    cfg = CellConfig()
    cfg.validate()
    with pytest.raises(AttributeError):
        cfg.layout.col_pitch_m = 1.1


def test_an_unchanged_config_validates_to_its_one_cell():
    cfg = CellConfig()
    assert cfg.validate() is cfg.validate()
    twin = copy.copy(cfg)  # the same field objects, but its Cell must name the twin
    assert twin.validate().config is twin


@pytest.mark.parametrize(
    "assign",
    [
        lambda cfg: setattr(cfg, "seed", cfg.seed + 1),
        lambda cfg: setattr(cfg, "layout", cfg.layout._replace()),
        lambda cfg: setattr(cfg, "faults", cfg.faults._replace(pick_grip_fail_prob=0.5)),
        lambda cfg: setattr(cfg, "extra_topics", ()),
    ],
    ids=["seed", "equal-section", "changed-section", "extra-topics"],
)
def test_a_reassigned_root_field_is_validated_afresh(assign):
    cfg = CellConfig(seed=1000, extra_topics=("a",))
    cell = cfg.validate()
    assign(cfg)
    fresh = cfg.validate()
    assert fresh is not cell and fresh.config is cfg
    assert fresh.camera is not cell.camera and fresh.moves == {}
    assert cfg.validate() is fresh


@pytest.mark.parametrize("section", ["layout", "camera", "motion", "devices", "faults",
                                     "orchestrator"])
def test_an_equal_plain_tuple_in_place_of_a_section_is_rejected(section):
    cfg = CellConfig()
    cfg.validate()
    setattr(cfg, section, tuple(getattr(cfg, section)))
    assert getattr(cfg, section) == getattr(CellConfig(), section)
    with pytest.raises(ConfigInvalid, match=f"^{section}: expected an object$"):
        cfg.validate()


@pytest.mark.parametrize(
    "sections, change, path",
    [
        ({"layout": LayoutConfig(zone_sizes=[4, 6, 6, 8])},
         lambda cfg: cfg.layout.zone_sizes.append(6), "layout.zone_sizes"),
        ({"layout": LayoutConfig(zone_sizes=[4, 6, 6, 8])},
         lambda cfg: cfg.layout.zone_sizes.__setitem__(0, 4.0), r"layout.zone_sizes\[0\]"),
        ({"camera": CameraConfig(capture_metadata={"contrast": 50})},
         lambda cfg: cfg.camera.capture_metadata.update(contrast=None),
         "camera.capture_metadata.contrast"),
        ({"extra_topics": ["a"]}, lambda cfg: cfg.extra_topics.append(1), r"extra_topics\[1\]"),
    ],
    ids=["list-grown", "equal-list-item", "dict-item", "root-list"],
)
def test_a_list_or_dict_changed_in_place_is_validated_afresh(sections, change, path):
    # A section cannot change, but a list or dict in it can: the next
    # validate() checks it again, and an equal item of another type fails.
    cfg = CellConfig(**sections)
    cfg.validate()
    change(cfg)
    with pytest.raises(ConfigInvalid, match=f"^{path}: "):
        cfg.validate()


def test_a_config_that_fails_validation_raises_on_every_call():
    cfg = CellConfig()
    cell = cfg.validate()
    cfg.orchestrator = cfg.orchestrator._replace(pick_attempts=0)
    for _ in range(2):
        with pytest.raises(ConfigInvalid, match="orchestrator.pick_attempts"):
            cfg.validate()
    bad = CellConfig.from_dict({"layout": {"zone_sizes": [4, 6, 6, 7]}})
    for _ in range(2):
        with pytest.raises(ConfigInvalid, match="layout.zone_sizes"):
            bad.validate()
    # Back to the very objects last validated: the memo kept that success only.
    cfg.orchestrator = CellConfig().orchestrator
    assert cfg.validate() is cell


def _sequences(node, path=""):
    """(dotted path, value) of every list or tuple in a config tree."""
    if hasattr(node, "_fields"):
        node = node._asdict()
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, (list, tuple)):
        yield path, node
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return
    for sub_path, value in items:
        yield from _sequences(value, sub_path)


def test_overlaid_sequences_are_tuples_and_the_tree_round_trips():
    cfg = CellConfig.from_dict(OVERLAY)
    fields = {name: getattr(cfg, name) for name in CellConfig.__annotations__}
    found = dict(_sequences(fields))
    assert {"layout.zone_sizes", "layout.home_pose", "camera.extrinsic", "camera.extrinsic[0]",
            "extra_topics"} <= set(found)
    assert all(type(value) is tuple for value in found.values()), found
    assert cfg.camera.capture_metadata == {"contrast": 40}  # a dict is set whole
    default = CellConfig()
    assert CellConfig.from_dict(default.to_dict()).to_json() == default.to_json()


def test_geometry_helpers_consistent():
    cfg = CellConfig()
    x, y, z = cfg.stack_top_position(1, 0)
    assert y == pytest.approx(cfg.layout.tote_front_y_m)
    assert z == pytest.approx(cfg.layout.tote_top_z_m)
    vx, vy, vz = cfg.view_pose(2)
    assert vy == pytest.approx(cfg.zone_row_y(2))
    assert vz == cfg.layout.view_z_m
    ex, ey, _ = cfg.enclosure_drop_pose(3)
    assert ex == pytest.approx(cfg.layout.enclosure_first_x_m + 3 * cfg.layout.enclosure_spacing_m)
    assert ey == cfg.layout.enclosure_y_m


# The CLI tests feed the malformed values a hand-edited file is likeliest to
# hold; these are the rest of the shapes the walk checks.
@pytest.mark.parametrize(
    "overlay, field_name",
    [
        ({"devices": {"door_travel_s": 10**400}}, "devices.door_travel_s"),
        ({"camera": {"extrinsic": [[1.0] * 4] * 3 + [[1.0] * 3]}}, "camera.extrinsic"),
        ({"camera": {"capture_metadata": {"contrast": None}}}, "camera.capture_metadata.contrast"),
        ({"extra_topics": ["ok", 7]}, "extra_topics[1]"),
    ],
)
def test_wrong_types_rejected_with_dotted_field(overlay, field_name):
    with pytest.raises(ConfigInvalid) as info:
        CellConfig.from_dict(overlay).validate()
    assert info.value.field_name == field_name


# The merge descends only into objects; any other value replaces the section
# whole and the type walk rejects it there.
@pytest.mark.parametrize(
    "overlay, field_name",
    [
        ({"layout": 5}, "layout"),
        ({"orchestrator": {"pacing": []}}, "orchestrator.pacing"),
        ({"camera": {"capture_metadata": 5}}, "camera.capture_metadata"),
    ],
)
def test_a_section_that_is_not_an_object_is_rejected_at_its_path(overlay, field_name):
    with pytest.raises(ConfigInvalid) as info:
        CellConfig.from_dict(overlay).validate()
    assert (info.value.field_name, info.value.reason) == (field_name, "expected an object")


def test_numbers_are_never_converted():
    # An int where a float is declared stays an int, so to_json() and the
    # config digest keep the bytes the file gave.
    cfg = CellConfig.from_dict({"devices": {"door_travel_s": 3}})
    assert json.loads(cfg.to_json())["devices"]["door_travel_s"] == 3
    assert '"door_travel_s": 3,' in cfg.to_json()


def _leaves(node, path=""):
    """(dotted path, key path) of every scalar in a config dict."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", i, v) for i, v in enumerate(node))
    else:
        yield path, ()
        return
    for sub_path, key, value in items:
        for leaf_path, keys in _leaves(value, sub_path):
            yield leaf_path, (key, *keys)


LEAVES = sorted(_leaves(CellConfig().to_dict()))

# Values a hand-edited file might put anywhere: the wrong JSON type, a
# non-finite or negative number, or a float where an int is declared.
DRAWN_VALUES = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)

# A rule that spans fields names one of them, which may not be the one changed.
SPANNED_BY = {
    "devices.secure_threshold_kpa": {"devices.vacuum_level_kpa", "devices.leak_level_kpa"},
    "devices.ramp_to_secure_s": {"devices.placement_window_s", "devices.grip_timeout_s"},
    "layout.occupied_distance_cm": {"devices.presence_threshold_cm"},
    "layout.back_wall_cm": {"devices.presence_threshold_cm"},
    # The camera must see every stack top, which the intrinsics project.
    **{f"camera.{name}": {"camera.extrinsic"} for name in ("fx", "fy", "cx", "cy")},
    "camera.width_px": {"camera.cx", "camera.extrinsic"},
    "camera.height_px": {"camera.cy", "camera.extrinsic"},
    **{f"camera.extrinsic[{i}][{j}]": {"camera.extrinsic"} for i in range(4) for j in range(4)},
    # The camera must face each zone's rim marker and see each stack top,
    # which the tote geometry places.
    **{f"layout.{name}": {"camera.extrinsic"} for name in (
        "tote_top_z_m", "tote_front_y_m", "row_pitch_m", "col_pitch_m", "incline_deg")},
}


@settings(max_examples=300, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=DRAWN_VALUES)
# An int past int64 in a matrix that numpy inverts.
@example(leaf=("camera.extrinsic[0][0]", ("camera", "extrinsic", 0, 0)), value=-(2**63) - 1)
def test_one_bad_leaf_is_rejected_at_its_path(leaf, value):
    path, keys = leaf
    data = copy.deepcopy(CellConfig().to_dict())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    # Every leaf of the default config is a number, so nothing else may pass.
    not_a_number = isinstance(value, bool) or not isinstance(value, (int, float))
    never_valid = not_a_number or (isinstance(value, float) and not math.isfinite(value))
    try:
        CellConfig.from_dict(data).validate()
    except ConfigInvalid as exc:
        assert exc.field_name in {path} | SPANNED_BY.get(path, set()), (exc, value)
    else:
        assert not never_valid, f"{path} accepted {value!r}"

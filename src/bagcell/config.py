"""Cell configuration: dataclass tree, JSON round trip, validation.

A single ``CellConfig`` describes everything a simulation needs: tote and
enclosure geometry, camera model, motion limits, device timings, fault
probabilities and orchestrator pacing. Defaults are embedded here and can be
dumped with ``bagcell dump-config``; a config file only needs the keys it
wants to override.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

DEFAULT_SEED = 12345
# Enclosures in the bulk loader; every per-enclosure loop and audit reads it here.
ENCLOSURE_COUNT = 8


class ConfigInvalid(ValueError):
    """Raised when a config value violates its documented bounds."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        self.reason = reason
        super().__init__(f"{field_name}: {reason}")


@dataclass
class LayoutConfig:
    """Tote, enclosure and fixed-pose geometry, in the robot base frame."""

    zone_sizes: list[int] = field(default_factory=lambda: [4, 6, 6, 8])
    total_stacks: int = 24
    incline_deg: float = 12.0
    row_pitch_m: float = 0.16
    col_pitch_m: float = 0.11
    stack_top_w_m: float = 0.10
    stack_top_d_m: float = 0.15
    tote_front_y_m: float = -0.45
    tote_top_z_m: float = 0.30
    enclosure_count: int = ENCLOSURE_COUNT
    enclosure_first_x_m: float = -0.42
    enclosure_spacing_m: float = 0.12
    enclosure_y_m: float = 0.72
    drop_z_m: float = 0.38
    back_wall_cm: float = 30.0
    occupied_distance_cm: float = 5.0
    home_pose: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.60])
    reset_pose: list[float] = field(default_factory=lambda: [0.20, -0.30, 0.60])
    safe_mid_pose: list[float] = field(default_factory=lambda: [0.0, 0.10, 0.60])
    bin_pose: list[float] = field(default_factory=lambda: [0.75, 0.30, 0.45])
    view_z_m: float = 0.58


def _default_extrinsic() -> list[list[float]]:
    # Camera 1.05 m above the tote, optical axis straight down, image x
    # aligned with base x. Rows: camera axes expressed in the base frame.
    return [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, -0.69],
        [0.0, 0.0, -1.0, 1.05],
        [0.0, 0.0, 0.0, 1.0],
    ]


@dataclass
class CameraConfig:
    width_px: int = 1920
    height_px: int = 1080
    fx: float = 1000.0
    fy: float = 1000.0
    cx: float = 960.0
    cy: float = 540.0
    extrinsic: list[list[float]] = field(default_factory=_default_extrinsic)
    # Capture settings kept as metadata only; they do not affect simulation.
    capture_metadata: dict[str, float] = field(
        default_factory=lambda: {
            "brightness": 0,
            "contrast": 50,
            "saturation": 64,
            "white_balance_temperature": 4600,
        }
    )


@dataclass
class MotionConfig:
    robot_max_speed_mps: float = 2.0
    velocity_scaling: float = 0.28
    acceleration_scaling: float = 0.03
    base_acceleration_mps2: float = 13.0
    planning_time_budget_s: float = 5.0
    max_planning_attempts: int = 10

    @property
    def effective_max_speed_mps(self) -> float:
        return self.robot_max_speed_mps * self.velocity_scaling

    @property
    def effective_acceleration_mps2(self) -> float:
        return self.base_acceleration_mps2 * self.acceleration_scaling


@dataclass
class DeviceConfig:
    """Thresholds and travel times for suction lines, sensors and actuators."""

    secure_threshold_kpa: float = -30.0
    vacuum_level_kpa: float = -60.0
    leak_level_kpa: float = -10.0
    ramp_to_secure_s: float = 0.5
    grip_timeout_s: float = 2.0
    placement_window_s: float = 3.0
    presence_threshold_cm: float = 10.0
    pusher_travel_s: float = 2.0
    door_travel_s: float = 2.0
    swing_travel_s: float = 1.0
    cutter_traverse_s: float = 14.2
    actuator_stall_margin_s: float = 1.0


@dataclass
class FaultConfig:
    """Stochastic fault probabilities and sensor noise levels."""

    pick_grip_fail_prob: float = 0.0
    place_drop_fail_prob: float = 0.0
    detection_miss_prob: float = 0.0
    detection_jitter_sigma_px: float = 0.0
    spurious_box_prob: float = 0.0
    confidence_sigma: float = 0.0
    bottom_suction_fail_prob: float = 0.0
    pressure_noise_sigma_kpa: float = 0.0
    ultrasonic_noise_sigma_cm: float = 0.0
    plan_failure_prob: float = 0.0


@dataclass
class PacingConfig:
    """Per-action service times and dwells that pace the orchestrator.

    Defaults are calibrated so that a fault-free cycle reproduces the bench
    phase durations (cutting 15.7 s, removal 38.9 s, delivery 18.4 s) and a
    feeding cycle paces out to roughly eight minutes.
    """

    detect_service_s: float = 15.0
    plan_service_s: float = 4.5
    grip_settle_s: float = 2.0
    release_settle_s: float = 2.0
    removal_approach_m: float = 0.164
    removal_descend_m: float = 0.06
    removal_lift_m: float = 0.06
    removal_bin_m: float = 0.164
    removal_release_s: float = 0.2
    push_hold_s: float = 2.0
    door_settle_s: float = 3.0
    delivery_verify_s: float = 0.3
    reset_settle_s: float = 2.0


@dataclass
class OrchestratorConfig:
    cycles_per_test: int = 3
    detect_attempts: int = 3
    pick_attempts: int = 3
    place_attempts: int = 3
    remove_attempts: int = 3
    secure_attempts: int = 3
    pacing: PacingConfig = field(default_factory=PacingConfig)


@dataclass
class CellConfig:
    seed: int = DEFAULT_SEED
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    motion: MotionConfig = field(default_factory=MotionConfig)
    devices: DeviceConfig = field(default_factory=DeviceConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    orchestrator: OrchestratorConfig = field(default_factory=OrchestratorConfig)
    extra_topics: list[str] = field(default_factory=list)

    def validate(self) -> None:
        bad = _non_finite(self)
        if bad is not None:
            raise ConfigInvalid(bad.lstrip("."), "must be a finite number")
        lay = self.layout
        if len(lay.zone_sizes) != 4:
            raise ConfigInvalid("layout.zone_sizes", "exactly 4 zones required")
        if any(n < 0 for n in lay.zone_sizes):
            raise ConfigInvalid("layout.zone_sizes", "zone sizes must be >= 0")
        if sum(lay.zone_sizes) != lay.total_stacks:
            raise ConfigInvalid(
                "layout.zone_sizes",
                f"zone sizes sum to {sum(lay.zone_sizes)}, "
                f"expected total_stacks={lay.total_stacks}",
            )
        if lay.enclosure_count != ENCLOSURE_COUNT:
            raise ConfigInvalid("layout.enclosure_count", f"must be {ENCLOSURE_COUNT}")
        if lay.back_wall_cm <= 0:
            raise ConfigInvalid("layout.back_wall_cm", "must be > 0")

        cam = self.camera
        if cam.fx <= 0 or cam.fy <= 0:
            raise ConfigInvalid("camera.fx/fy", "focal lengths must be > 0")
        if len(cam.extrinsic) != 4 or any(len(row) != 4 for row in cam.extrinsic):
            raise ConfigInvalid("camera.extrinsic", "must be a 4x4 matrix")

        mot = self.motion
        if not (0.0 < mot.velocity_scaling <= 1.0):
            raise ConfigInvalid("motion.velocity_scaling", "must be in (0, 1]")
        if not (0.0 < mot.acceleration_scaling <= 1.0):
            raise ConfigInvalid("motion.acceleration_scaling", "must be in (0, 1]")
        if mot.robot_max_speed_mps <= 0:
            raise ConfigInvalid("motion.robot_max_speed_mps", "must be > 0")
        if mot.base_acceleration_mps2 <= 0:
            raise ConfigInvalid("motion.base_acceleration_mps2", "must be > 0")
        if mot.planning_time_budget_s <= 0:
            raise ConfigInvalid("motion.planning_time_budget_s", "must be > 0")
        if mot.max_planning_attempts < 1:
            raise ConfigInvalid("motion.max_planning_attempts", "must be >= 1")

        dev = self.devices
        if dev.secure_threshold_kpa >= 0 or dev.vacuum_level_kpa >= 0:
            raise ConfigInvalid(
                "devices.secure_threshold_kpa", "vacuum levels are negative kPa"
            )
        if dev.vacuum_level_kpa > dev.secure_threshold_kpa:
            raise ConfigInvalid(
                "devices.vacuum_level_kpa",
                "steady-state vacuum must be at or below the secure threshold",
            )
        for name in (
            "ramp_to_secure_s",
            "grip_timeout_s",
            "placement_window_s",
            "pusher_travel_s",
            "door_travel_s",
            "swing_travel_s",
            "cutter_traverse_s",
        ):
            if getattr(dev, name) <= 0:
                raise ConfigInvalid(f"devices.{name}", "must be > 0")
        if dev.actuator_stall_margin_s < 0:
            raise ConfigInvalid("devices.actuator_stall_margin_s", "must be >= 0")

        flt = self.faults
        for name in (
            "pick_grip_fail_prob",
            "place_drop_fail_prob",
            "detection_miss_prob",
            "spurious_box_prob",
            "bottom_suction_fail_prob",
            "plan_failure_prob",
        ):
            p = getattr(flt, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigInvalid(f"faults.{name}", "probability must be in [0, 1]")
        for name in (
            "detection_jitter_sigma_px",
            "confidence_sigma",
            "pressure_noise_sigma_kpa",
            "ultrasonic_noise_sigma_cm",
        ):
            if getattr(flt, name) < 0:
                raise ConfigInvalid(f"faults.{name}", "sigma must be >= 0")

        orc = self.orchestrator
        if orc.cycles_per_test < 1:
            raise ConfigInvalid("orchestrator.cycles_per_test", "must be >= 1")
        for name in (
            "detect_attempts",
            "pick_attempts",
            "place_attempts",
            "remove_attempts",
            "secure_attempts",
        ):
            if getattr(orc, name) < 1:
                raise ConfigInvalid(f"orchestrator.{name}", "must be >= 1")
        for f in dataclasses.fields(orc.pacing):
            if getattr(orc.pacing, f.name) < 0:
                raise ConfigInvalid(f"orchestrator.pacing.{f.name}", "must be >= 0")

    # --- geometry helpers -------------------------------------------------

    def stack_top_position(self, zone: int, row: int, col: int) -> tuple[float, float, float]:
        """Base-frame position of a stack's top centre.

        ``zone`` is 1-based and equals ``row + 1`` in the default layout; the
        tote incline lowers each successive row.
        """
        lay = self.layout
        n = lay.zone_sizes[zone - 1]
        x = (col - (n - 1) / 2.0) * lay.col_pitch_m
        y = lay.tote_front_y_m - row * lay.row_pitch_m
        z = lay.tote_top_z_m - row * lay.row_pitch_m * math.sin(
            math.radians(lay.incline_deg)
        )
        return (x, y, z)

    def zone_row_y(self, zone: int) -> float:
        return self.layout.tote_front_y_m - (zone - 1) * self.layout.row_pitch_m

    def view_pose(self, zone: int) -> tuple[float, float, float]:
        return (0.0, self.zone_row_y(zone), self.layout.view_z_m)

    def enclosure_drop_pose(self, index: int) -> tuple[float, float, float]:
        lay = self.layout
        x = lay.enclosure_first_x_m + index * lay.enclosure_spacing_m
        return (x, lay.enclosure_y_m, lay.drop_z_m)

    # --- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellConfig":
        cfg = cls()
        _merge_dataclass(cfg, data, prefix="")
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "CellConfig":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigInvalid(str(path), "config file not found")
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(str(path), f"invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigInvalid(str(path), "config root must be a JSON object")
        return cls.from_dict(data)


def _non_finite(value: Any) -> str | None:
    """Path (".a.b[2]") to the first NaN or infinity under ``value``, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ""
    if isinstance(value, list):
        for i, item in enumerate(value):
            bad = _non_finite(item)
            if bad is not None:
                return f"[{i}]{bad}"
    elif isinstance(value, dict) or dataclasses.is_dataclass(value):
        for key, item in (value if isinstance(value, dict) else vars(value)).items():
            bad = _non_finite(item)
            if bad is not None:
                return f".{key}{bad}"
    return None


def _merge_dataclass(obj: Any, data: dict[str, Any], prefix: str) -> None:
    """Overlay ``data`` onto dataclass ``obj``, rejecting unknown keys."""
    names = {f.name: f for f in dataclasses.fields(obj)}
    for key, value in data.items():
        if key not in names:
            raise ConfigInvalid(prefix + key, "unknown config key")
        current = getattr(obj, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigInvalid(prefix + key, "expected an object")
            _merge_dataclass(current, value, prefix=f"{prefix}{key}.")
        else:
            setattr(obj, key, value)


def default_config() -> CellConfig:
    cfg = CellConfig()
    cfg.validate()
    return cfg

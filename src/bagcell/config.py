"""Cell configuration: a tree of records, JSON round trip, validation.

A single ``CellConfig`` describes everything a simulation needs: tote and
enclosure geometry, camera model, motion limits, device timings, fault
probabilities and orchestrator pacing. Defaults are embedded here and can be
dumped with ``bagcell dump-config``; a config file only needs the keys it
wants to override.

The seven sections are NamedTuples, so a section read once cannot change
under the ``Cell`` derived from it: a new value is a new record
(``_replace``), and every sequence in them is a tuple. The root ``CellConfig``
is a plain class whose fields, the sections among them, can be assigned.

Each field's annotation states its type and, through an ``Annotated`` alias,
its bound; ``validate`` walks the annotations, checks the few rules that span
fields, and returns the ``Cell`` they derive: the camera, each zone's pick
depth and each stack's box, which every run on the config shares.
``from_dict`` overlays a JSON object on the defaults, record by record, and
reads each JSON array where a field holds a sequence as a tuple. A value that
is not an object replaces a section whole, for ``validate`` to reject.
"""

# No ``from __future__ import annotations`` here, nor in report or vision: a
# NamedTuple compiles each string annotation it is given, at import.
import functools
import json
import math
import operator
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Annotated, Any, Callable, Iterator, NamedTuple
from typing import get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from bagcell.vision import Box, CameraModel

DEFAULT_SEED = 12345
# Enclosures in the bulk loader; every per-enclosure loop and audit reads it here.
ENCLOSURE_COUNT = 8


class MalformedInput(ValueError):
    """Rejected input: ``path`` (a file, or a config field), the line at fault if one, and why."""

    def __init__(self, path: str, line_no: int | None, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path if line_no is None else f'{path}:{line_no}'}: {reason}")


class RunAborted(RuntimeError):
    """Exit 2: a refused interlock, a stuck loop, safety violations, unmatched replay entries."""


def read_text(path: str | Path, fail: Callable[[str], MalformedInput]) -> str:
    """``path``'s UTF-8 text, or ``fail``'s error naming why it cannot be read.

    Every ``\\r\\n`` and ``\\r`` reads as ``\\n``, so a line reader splits at
    ``"\\n"`` alone and names the line an editor shows. ``str.splitlines``
    would also break at form feeds and other separators inside a line.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise fail(f"cannot read: {exc}")


def parse_json(text: str, fail: Callable[[str], MalformedInput]) -> Any:
    """``text`` as ``json.loads`` reads it, or ``fail``'s error naming why it cannot."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise fail(f"invalid JSON: {exc}")
    except RecursionError:
        raise fail("invalid JSON: nested too deeply")


class ConfigInvalid(MalformedInput):
    """Raised when a config value has the wrong type or breaks its bound."""

    def __init__(self, field_name: str, reason: str):
        self.field_name = field_name
        super().__init__(field_name, None, reason)


class Bound(NamedTuple):
    """A field's bound: ``ok(value)`` must hold, else ``reason`` is reported."""

    ok: Callable[[Any], bool]
    reason: str


Positive = Annotated[float, Bound(lambda v: v > 0, "must be > 0")]
NonNegative = Annotated[float, Bound(lambda v: v >= 0, "must be >= 0")]
Probability = Annotated[float, Bound(lambda v: 0 <= v <= 1, "must be in [0, 1]")]
Scaling = Annotated[float, Bound(lambda v: 0 < v <= 1, "must be in (0, 1]")]
Vacuum = Annotated[float, Bound(lambda v: v < 0, "vacuum levels are negative kPa")]
Count = Annotated[int, Bound(lambda v: v >= 0, "must be >= 0")]
AtLeastOne = Annotated[int, Bound(lambda v: v >= 1, "must be >= 1")]
# Retries can all run at one simulated instant (planning inside one event, or
# detection with no service time), so no clock stops them and their count is capped.
Attempts = Annotated[int, Bound(lambda v: 1 <= v <= 1000, "must be in [1, 1000]")]
Pose = Annotated[tuple[float, ...], Bound(lambda v: len(v) >= 3, "needs at least x, y and z")]


class LayoutConfig(NamedTuple):
    """Tote, enclosure and fixed-pose geometry, in the robot base frame."""

    zone_sizes: tuple[Count, ...] = (4, 6, 6, 8)
    total_stacks: Count = 24
    incline_deg: float = 12.0
    row_pitch_m: float = 0.16
    col_pitch_m: float = 0.11
    stack_top_w_m: Positive = 0.10
    stack_top_d_m: Positive = 0.15
    tote_front_y_m: float = -0.45
    tote_top_z_m: float = 0.30
    enclosure_count: int = ENCLOSURE_COUNT  # validate() pins it; kept for the config digest
    enclosure_first_x_m: float = -0.42
    enclosure_spacing_m: float = 0.12
    enclosure_y_m: float = 0.72
    drop_z_m: float = 0.38
    back_wall_cm: Positive = 30.0
    occupied_distance_cm: float = 5.0
    home_pose: Pose = (0.0, 0.0, 0.60)
    reset_pose: Pose = (0.20, -0.30, 0.60)
    safe_mid_pose: Pose = (0.0, 0.10, 0.60)
    bin_pose: Pose = (0.75, 0.30, 0.45)
    view_z_m: float = 0.58


class CameraConfig(NamedTuple):
    width_px: AtLeastOne = 1920
    height_px: AtLeastOne = 1080
    fx: Positive = 1000.0
    fy: Positive = 1000.0
    cx: float = 960.0
    cy: float = 540.0
    # Camera 1.05 m above the tote, optical axis straight down, image x
    # aligned with base x. Rows: camera axes expressed in the base frame.
    extrinsic: tuple[tuple[float, ...], ...] = (
        (1.0, 0.0, 0.0, 0.0),
        (0.0, -1.0, 0.0, -0.69),
        (0.0, 0.0, -1.0, 1.05),
        (0.0, 0.0, 0.0, 1.0),
    )
    # Capture settings kept as metadata only; they do not affect simulation.
    # A dict, so that it stays a JSON object; every CameraConfig that keeps
    # the default shares this one, so nothing may mutate it.
    capture_metadata: dict[str, float] = {
        "brightness": 0,
        "contrast": 50,
        "saturation": 64,
        "white_balance_temperature": 4600,
    }


class MotionConfig(NamedTuple):
    robot_max_speed_mps: Positive = 2.0
    velocity_scaling: Scaling = 0.28
    acceleration_scaling: Scaling = 0.03
    base_acceleration_mps2: Positive = 13.0
    planning_time_budget_s: Positive = 5.0
    max_planning_attempts: Attempts = 10

    @property
    def effective_max_speed_mps(self) -> float:
        return self.robot_max_speed_mps * self.velocity_scaling

    @property
    def effective_acceleration_mps2(self) -> float:
        return self.base_acceleration_mps2 * self.acceleration_scaling


class DeviceConfig(NamedTuple):
    """Thresholds and travel times for suction lines, sensors and actuators."""

    secure_threshold_kpa: Vacuum = -30.0
    vacuum_level_kpa: Vacuum = -60.0
    leak_level_kpa: float = -10.0
    ramp_to_secure_s: Positive = 0.5
    grip_timeout_s: Positive = 2.0
    placement_window_s: Positive = 3.0
    presence_threshold_cm: float = 10.0
    pusher_travel_s: Positive = 2.0
    door_travel_s: Positive = 2.0
    swing_travel_s: Positive = 1.0
    cutter_traverse_s: Positive = 14.2
    actuator_stall_margin_s: NonNegative = 1.0


class FaultConfig(NamedTuple):
    """Stochastic fault probabilities and sensor noise levels."""

    pick_grip_fail_prob: Probability = 0.0
    place_drop_fail_prob: Probability = 0.0
    detection_miss_prob: Probability = 0.0
    detection_jitter_sigma_px: NonNegative = 0.0
    spurious_box_prob: Probability = 0.0
    confidence_sigma: NonNegative = 0.0
    bottom_suction_fail_prob: Probability = 0.0
    pressure_noise_sigma_kpa: NonNegative = 0.0  # unread; kept for the config digest
    ultrasonic_noise_sigma_cm: NonNegative = 0.0
    plan_failure_prob: Probability = 0.0


class PacingConfig(NamedTuple):
    """Per-action service times and dwells that pace the orchestrator.

    Defaults are calibrated so that a fault-free cycle reproduces the bench
    phase durations (cutting 15.7 s, removal 38.9 s, delivery 18.4 s) and a
    feeding cycle paces out to roughly eight minutes.
    """

    detect_service_s: NonNegative = 15.0
    plan_service_s: NonNegative = 4.5
    grip_settle_s: NonNegative = 2.0
    release_settle_s: NonNegative = 2.0
    removal_approach_m: NonNegative = 0.164
    removal_descend_m: NonNegative = 0.06
    removal_lift_m: NonNegative = 0.06
    removal_bin_m: NonNegative = 0.164
    removal_release_s: NonNegative = 0.2
    push_hold_s: NonNegative = 2.0
    door_settle_s: NonNegative = 3.0
    delivery_verify_s: NonNegative = 0.3
    reset_settle_s: NonNegative = 2.0


class OrchestratorConfig(NamedTuple):
    cycles_per_test: AtLeastOne = 3
    detect_attempts: Attempts = 3
    pick_attempts: Attempts = 3
    place_attempts: Attempts = 3
    remove_attempts: Attempts = 3
    secure_attempts: Attempts = 3
    pacing: PacingConfig = PacingConfig()


class CellConfig:
    """The seed and the seven sections; the one config record whose fields can be assigned."""

    seed: Count
    layout: LayoutConfig
    camera: CameraConfig
    motion: MotionConfig
    devices: DeviceConfig
    faults: FaultConfig
    orchestrator: OrchestratorConfig
    extra_topics: tuple[str, ...]  # unread; kept for the config digest

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        layout: LayoutConfig = LayoutConfig(),
        camera: CameraConfig = CameraConfig(),
        motion: MotionConfig = MotionConfig(),
        devices: DeviceConfig = DeviceConfig(),
        faults: FaultConfig = FaultConfig(),
        orchestrator: OrchestratorConfig = OrchestratorConfig(),
        extra_topics: tuple[str, ...] = (),
    ):
        self.seed = seed
        self.layout = layout
        self.camera = camera
        self.motion = motion
        self.devices = devices
        self.faults = faults
        self.orchestrator = orchestrator
        self.extra_topics = extra_topics
        # The root fields the last successful validate() read, each list or
        # dict in them with its repr then, and the Cell it returned.
        self._validated = None

    def validate(self) -> "Cell":
        """Check each field's type and bound, then the rules that span fields.

        Returns the ``Cell`` that the camera rules derive. While every root
        field is the same object that the last successful call read, and
        every list or dict in them has the repr it had then, that call's
        ``Cell`` is returned without a check: a section cannot change, so
        only an assigned field or a container changed in place can. Fields
        are compared by identity and containers by repr, so an equal value of
        another type, such as a plain tuple for a section or ``4.0`` for
        ``4`` in a list, is still checked and rejected.
        """
        fields = (self.seed, self.layout, self.camera, self.motion, self.devices, self.faults,
                  self.orchestrator, self.extra_topics)
        if self._validated is not None:
            read, held, cell = self._validated
            if (
                cell.config is self
                and all(map(operator.is_, fields, read))
                and all(repr(box) == text for box, text in held)
            ):
                return cell
        check(self, CellConfig)
        lay = self.layout
        if len(lay.zone_sizes) != 4:
            raise ConfigInvalid("layout.zone_sizes", "exactly 4 zones required")
        if sum(lay.zone_sizes) != lay.total_stacks:
            raise ConfigInvalid(
                "layout.zone_sizes",
                f"zone sizes sum to {sum(lay.zone_sizes)}, "
                f"expected total_stacks={lay.total_stacks}",
            )
        if lay.enclosure_count != ENCLOSURE_COUNT:
            raise ConfigInvalid("layout.enclosure_count", f"must be {ENCLOSURE_COUNT}")
        cam = self.camera
        if not 0 <= cam.cx < cam.width_px:
            raise ConfigInvalid("camera.cx", f"must be in [0, width_px={cam.width_px})")
        if not 0 <= cam.cy < cam.height_px:
            raise ConfigInvalid("camera.cy", f"must be in [0, height_px={cam.height_px})")
        ext = cam.extrinsic
        if len(ext) != 4 or any(len(row) != 4 for row in ext):
            raise ConfigInvalid("camera.extrinsic", "must be a 4x4 matrix")
        import numpy as np  # imported here so that `bagcell eval` never loads it

        from bagcell.vision import CameraModel, ground_truth_boxes  # both import this module
        from bagcell.world import build_world

        try:
            camera = CameraModel.from_config(cam)
        except np.linalg.LinAlgError:
            raise ConfigInvalid("camera.extrinsic", "must be invertible") from None
        depths = {}  # a zone's pick depth is its rim marker's depth in the camera frame
        with np.errstate(all="ignore"):  # an overflow only puts a marker or a top out of reach
            for zone in range(1, len(lay.zone_sizes) + 1):
                x, y, z = marker = self.rim_marker_position(zone)
                infinite = f"gives the zone {zone} rim marker an infinite position"
                if not math.isfinite(x):
                    raise ConfigInvalid("layout.col_pitch_m", infinite)
                if not (math.isfinite(y) and math.isfinite(z)):
                    raise ConfigInvalid("layout.row_pitch_m", infinite)
                depths[zone] = float(camera.to_camera(marker)[2])
                if not depths[zone] > 0.0:
                    raise ConfigInvalid(
                        "camera.extrinsic", f"puts the zone {zone} rim marker behind the camera"
                    )
            # A stack top outside the image, or behind the camera, has no box and is never seen.
            stacks = build_world(self).stacks
            tops = {s.id: self.stack_top_position(s.zone, s.col) for s in stacks}
            boxes = ground_truth_boxes(camera, tops, lay.stack_top_w_m, lay.stack_top_d_m)
        for s in stacks:
            where, box = f"stack {s.id} (zone {s.zone}, column {s.col})", boxes.get(s.id)
            if box is None:
                raise ConfigInvalid("camera.extrinsic", f"puts {where} outside the image")
            # A box too large for a float has an infinite extent and a NaN centre.
            if not math.isfinite(box.x_max - box.x_min):
                raise ConfigInvalid("layout.stack_top_w_m", f"gives {where} an infinite box width")
            if not math.isfinite(box.y_max - box.y_min):
                raise ConfigInvalid("layout.stack_top_d_m", f"gives {where} an infinite box depth")
        dev = self.devices
        if dev.vacuum_level_kpa > dev.secure_threshold_kpa:
            raise ConfigInvalid(
                "devices.vacuum_level_kpa",
                "steady-state vacuum must be at or below the secure threshold",
            )
        # A rate of inf or 0 would put a NaN or a division by zero into an event time.
        if not 0.0 < abs(dev.secure_threshold_kpa) / dev.ramp_to_secure_s < math.inf:
            raise ConfigInvalid(
                "devices.ramp_to_secure_s",
                "|secure_threshold_kpa| / ramp_to_secure_s must be a finite, nonzero ramp rate",
            )
        # The verify timer would always fire before a bottom line could secure.
        if dev.placement_window_s < dev.ramp_to_secure_s:
            raise ConfigInvalid(
                "devices.placement_window_s",
                f"must be at least ramp_to_secure_s={dev.ramp_to_secure_s}",
            )
        # The grip and secure timers start with the valve; at equality the
        # timer comes due ahead of the re-queued SuctionSecured.
        if dev.grip_timeout_s <= dev.ramp_to_secure_s:
            raise ConfigInvalid(
                "devices.grip_timeout_s",
                f"must be longer than ramp_to_secure_s={dev.ramp_to_secure_s}",
            )
        # An occupied enclosure must read present and an empty one absent.
        if not lay.occupied_distance_cm < dev.presence_threshold_cm <= lay.back_wall_cm:
            raise ConfigInvalid(
                "devices.presence_threshold_cm",
                f"must be in (layout.occupied_distance_cm={lay.occupied_distance_cm}, "
                f"layout.back_wall_cm={lay.back_wall_cm}]",
            )
        # A leaking line that still seals would make every fault decision a no-op.
        if dev.leak_level_kpa <= dev.secure_threshold_kpa:
            raise ConfigInvalid(
                "devices.leak_level_kpa",
                f"must be above secure_threshold_kpa={dev.secure_threshold_kpa}",
            )
        cell = Cell(self, camera, depths, boxes, {})
        self._validated = fields, [(box, repr(box)) for box in _containers(fields)], cell
        return cell

    # --- geometry helpers -------------------------------------------------

    def stack_top_position(self, zone: int, col: int) -> tuple[float, float, float]:
        """Base-frame position of a stack's top centre; ``zone`` is 1-based.

        Each zone is one row of the tote, and the incline lowers each
        successive row.
        """
        lay = self.layout
        n = lay.zone_sizes[zone - 1]
        x = (col - (n - 1) / 2.0) * lay.col_pitch_m
        z = lay.tote_top_z_m - (zone - 1) * lay.row_pitch_m * math.sin(
            math.radians(lay.incline_deg)
        )
        return (x, self.zone_row_y(zone), z)

    def rim_marker_position(self, zone: int) -> tuple[float, float, float]:
        """Base-frame position of a zone's marker on the tote rim.

        It sits left of the widest row, in the plane of the zone row's stack
        tops, so its depth in the camera frame is the zone's pick depth.
        """
        lay = self.layout
        _, y, z = self.stack_top_position(zone, 0)
        return (-(max(lay.zone_sizes) / 2.0 + 0.5) * lay.col_pitch_m, y, z)

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
        """The tree as plain JSON values: a dict per record and a list per sequence."""
        return _plain({name: getattr(self, name) for name in CellConfig.__annotations__})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CellConfig":
        """The defaults overlaid with ``data``, unchecked: ``validate()`` is the one check."""
        return cls(**_overlay(cls(), data, prefix=""))

    @classmethod
    def from_file(cls, path: str | Path) -> "CellConfig":
        fail = functools.partial(ConfigInvalid, str(path))
        data = parse_json(read_text(path, fail), fail)
        if not isinstance(data, dict):
            raise ConfigInvalid(str(path), "config root must be a JSON object")
        return cls.from_dict(data)


class Cell(NamedTuple):
    """What a config fixes for every run on it, derived once by ``CellConfig.validate``.

    A config changed after ``validate()`` needs a new ``Cell``, and its next
    ``validate()`` gives it.
    """

    config: CellConfig
    camera: "CameraModel"
    depths: dict[int, float]  # zone -> pick depth: its rim marker's depth in the camera frame
    boxes: "dict[int, Box]"  # stack id -> its top face in the image
    # (start pose, move destination) -> (end pose, rounded distance, rounded
    # duration, duration) of each move that starts at a pose the config fixes;
    # filled by the runs on this Cell (``Simulation._start_move``).
    moves: dict[tuple, tuple]


# A leaf's type -> (the Python types it accepts, the reason for any other).
_SCALARS = {
    float: ((int, float), "expected a number"),
    int: (int, "expected an integer"),
    str: (str, "expected a string"),
}


@functools.cache
def _schema(hint: Any) -> tuple:
    """``hint`` resolved once: (type, its item or (field, schema) parts, its bound)."""
    bound = None
    if get_origin(hint) is Annotated:
        hint, bound = get_args(hint)
    if isinstance(hint, type) and hasattr(hint, "__annotations__"):  # a config record
        hints = get_type_hints(hint, include_extras=True)
        return hint, tuple((name, _schema(h)) for name, h in hints.items()), bound
    return get_origin(hint) or hint, tuple(_schema(arg) for arg in get_args(hint)), bound


def check(value: Any, hint: Any, path: str = "") -> None:
    """Raise ConfigInvalid at ``path`` unless ``value`` has type ``hint`` and its bound."""
    _check(value, _schema(hint), path)


def _check(value: Any, schema: tuple, path: str) -> None:
    """Raise ConfigInvalid at ``path`` unless ``value`` fits ``schema``.

    Never converts: an int passes as a float, but a bool is neither, and a
    float must be finite.
    """
    kind, parts, bound = schema
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        types, expected = scalar
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigInvalid(path, expected)
        # False for NaN, infinity and an int too large for a float.
        if kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigInvalid(path, "must be a finite number")
    elif kind is tuple:  # a sequence: from_dict reads a JSON array as a tuple
        if not isinstance(value, (list, tuple)):
            raise ConfigInvalid(path, "expected a list")
        for i, item in enumerate(value):
            _check(item, parts[0], f"{path}[{i}]")
    elif kind is dict:
        if not isinstance(value, dict):
            raise ConfigInvalid(path, "expected an object")
        for key, item in value.items():
            _check(item, parts[1], f"{path}.{key}")
    else:  # a config record
        if not isinstance(value, kind):
            raise ConfigInvalid(path, "expected an object")
        for name, sub in parts:
            _check(getattr(value, name), sub, f"{path}.{name}" if path else name)
    if bound is not None and not bound.ok(value):
        raise ConfigInvalid(path, bound.reason)


def _containers(node: Any) -> Iterator[Any]:
    """Each list and dict in ``node`` that no other one holds: what can change in place."""
    if isinstance(node, (list, dict)):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _containers(item)


def _overlay(record: Any, data: dict[str, Any], prefix: str) -> dict[str, Any]:
    """The fields of ``record`` that ``data`` sets, each a new value; unknown keys are rejected.

    An object overlays a section field by field into a new record, and an
    array where the field holds a sequence becomes a tuple. Anything else is
    taken whole; validate() rejects it in place.
    """
    parts = dict(_schema(type(record))[1])
    changes = {}
    for key, value in data.items():
        if key not in parts:
            raise ConfigInvalid(prefix + key, "unknown config key")
        current = getattr(record, key)
        if hasattr(current, "_fields") and isinstance(value, dict):
            value = current._replace(**_overlay(current, value, f"{prefix}{key}."))
        changes[key] = _frozen(value, parts[key])
    return changes


def _frozen(value: Any, schema: tuple) -> Any:
    """``value`` with each list where ``schema`` holds a sequence made a tuple."""
    kind, parts, _ = schema
    if kind is tuple and isinstance(value, list):
        return tuple(_frozen(item, parts[0]) for item in value)
    return value


def _plain(value: Any) -> Any:
    """``value`` as JSON values: a dict for each section or dict, a list for each sequence."""
    if hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value

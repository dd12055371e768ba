"""Spans around calls into bagcell's layers, recorded from outside the program.

A traced run replaces public functions and methods of ``bagcell`` modules
with wrappers. Each call records one span: name, start, end and parent (the
innermost wrapped call still open when it began). Spans stay in memory until
the run ends. A layer's self time is its spans' duration minus the time
covered by their direct child spans; calls are single-threaded and strictly
nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Units = Optional[Callable[[tuple, Any], int]]


def _len_arg0(args: tuple, result: Any) -> int:
    return len(args[0])


def _len_arg1(args: tuple, result: Any) -> int:
    return len(args[1])


def _len_result(args: tuple, result: Any) -> int:
    return len(result)


# span name -> patch points (module, attribute path, work units counted per call).
# A module that binds a function with ``from ... import`` keeps its own
# reference, so the name is replaced there as well as where it is defined.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str, Units], ...]], ...] = (
    ("cli.main", (("bagcell.cli", "main", None),)),
    ("simulate.init", (("bagcell.simulate", "Simulation.__init__", None),)),
    ("simulate.run", (("bagcell.simulate", "Simulation.run", None),)),
    ("orchestrator.transition", (("bagcell.orchestrator", "transition", None),)),
    ("world.check_invariants", (
        ("bagcell.world", "check_invariants", None),
        ("bagcell.simulate", "check_invariants", None),
    )),
    ("motion.path_duration", (
        ("bagcell.motion", "path_duration", None),
        ("bagcell.simulate", "path_duration", None),
    )),
    ("motion.move_duration", (
        ("bagcell.motion", "move_duration", None),
        ("bagcell.simulate", "move_duration", None),
    )),
    ("motion.plan_with_retries", (
        ("bagcell.motion", "plan_with_retries", None),
        ("bagcell.simulate", "plan_with_retries", None),
    )),
    ("vision.observe", (
        ("bagcell.vision", "observe", None),
        ("bagcell.simulate", "observe", None),
    )),
    ("devices.script_consume", (("bagcell.devices", "FaultScript.consume", None),)),
    ("report.record", (("bagcell.report", "Tracer.record", None),)),
    ("report.write_trace", (
        ("bagcell.report", "write_trace", _len_arg1),
        ("bagcell.cli", "write_trace", _len_arg1),
    )),
    ("report.read_trace", (("bagcell.report", "read_trace", _len_result),)),
    # The three audits make one pass each over the same records; counting the
    # records on one of them gives time per record for the whole audit.
    ("report.audit", (
        ("bagcell.report", "scan_violations", _len_arg0),
        ("bagcell.report", "audit_interlocks", None),
        ("bagcell.report", "audit_retry_caps", None),
    )),
    ("bus.publish", (("bagcell.bus", "Bus.publish", None),)),
    ("config.validate", (("bagcell.config", "CellConfig.validate", None),)),
    ("vision.load_boxes", (
        ("bagcell.vision", "load_boxes", _len_result),
        ("bagcell.cli", "load_boxes", _len_result),
    )),
    ("vision.evaluate", (
        ("bagcell.vision", "evaluate", None),
        ("bagcell.cli", "evaluate", None),
    )),
    ("vision.match_detections", (("bagcell.vision", "match_detections", None),)),
    ("vision.ap_at_threshold", (("bagcell.vision", "ap_at_threshold", None),)),
)


@dataclass
class Total:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """In-memory spans plus per-layer work counters for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []  # layer id -> span name
        # One entry per span, in start order; arrays keep a long run compact.
        self.layer = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.units: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._open: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, units: Units = None) -> Callable:
        """``fn`` with a span recorded around every call; results pass through."""
        if name not in self.names:
            self.names.append(name)
        layer_id = self.names.index(name)
        layer, starts, ends, parents, open_ = (
            self.layer, self.starts, self.ends, self.parents, self._open
        )
        unit_totals = self.units
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if units is not None:
                unit_totals[name] += units(args, result)
            return result

        return traced

    def _count_plans(self, fn: Callable) -> Callable:
        from bagcell.motion import PlanFailure

        counts = self.counts

        @functools.wraps(fn)
        def plan(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except PlanFailure as exc:
                counts["motion.plan.retries"] += exc.attempts - 1
                counts["motion.plan.failures"] += 1
                raise
            counts["motion.plan.retries"] += result.attempts - 1
            return result

        return plan

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Replace every patch point in ``LAYERS`` for the duration of the block.

        A patch point that no longer exists is listed in ``missing`` and
        skipped, so a refactored program still runs traced.
        """
        try:
            for name, points in LAYERS:
                for module_name, attr_path, units in points:
                    owner: Any = importlib.import_module(module_name)
                    *owner_path, attr = attr_path.split(".")
                    for part in owner_path:
                        owner = getattr(owner, part, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if not callable(original):
                        self.missing.append(f"{module_name}.{attr_path}")
                        continue
                    fn = original
                    if name == "motion.plan_with_retries":
                        fn = self._count_plans(fn)
                    setattr(owner, attr, self.wrap(name, fn, units))
                    self._undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def totals(self) -> Dict[str, Total]:
        """Calls, inclusive time and self time per span name."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parents):
            if parent >= 0:
                covered[parent] += duration
        out: Dict[str, Total] = defaultdict(Total)
        for i, duration in enumerate(durations):
            t = out[self.names[self.layer[i]]]
            t.calls += 1
            t.incl_s += duration
            t.self_s += duration - covered[i]
        return out

    def dump(self, path: Path) -> None:
        """Write spans as TSV: index, name, start and end in ns from the first span, parent."""
        t0 = self.starts[0] if self.starts else 0.0
        with path.open("w") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, layer_id in enumerate(self.layer):
                out.write(
                    f"{i}\t{self.names[layer_id]}\t{round((self.starts[i] - t0) * 1e9)}"
                    f"\t{round((self.ends[i] - t0) * 1e9)}\t{self.parents[i]}\n"
                )

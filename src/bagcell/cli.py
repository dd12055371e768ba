"""Command-line interface.

Subcommands:
  run          one simulation session (default: a full tote, three cycles)
  campaign     N independent single-cycle tests with optional fault script
  replay       the shipped ten-test reference campaign
  eval         score a predicted box file against a ground-truth box file
  dump-config  print the default configuration as JSON

Outputs (traces, reports, tables) land in --outdir, or $BAGCELL_OUTDIR, or
./out, which holds one command's outputs: once its inputs are read and
checked, and before it runs, a command removes the traces, report and table
an earlier one left there, and leaves other files alone. So a usage error
leaves them in place and an aborted run leaves none of them. report.json is
written last, whole or not at all.

Exit codes: 0 success, 1 bad usage or malformed input files, 2 run aborted
(safety violations, a refused interlock, a stuck control loop, or replay
script entries that never matched). Only run, campaign and replay
import the simulator; eval, dump-config, --help and usage errors start
without it, and without numpy. campaign and replay run their tests on one
process per usable CPU, and no output byte depends on how many.

A command runs with the cyclic garbage collector paused, and main puts it
back as the caller had it. A run builds no reference cycles, so a collection
during one finds nothing to free: it only walks the command's live records
(an eval holds thousands of boxes and matches, which CPython keeps tracked).
The few cycles a command leaves, such as a config and its validated Cell,
are freed at the first collection after it. Forked campaign workers inherit
the pause and leave through os._exit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple, get_args

from bagcell.config import AtLeastOne, Cell, CellConfig, ConfigInvalid, Count, MalformedInput
from bagcell.config import Probability, RunAborted, check
from bagcell.report import CampaignReport, RunReport, config_digest, render_table
from bagcell.report import summarize_campaign, write_trace
from bagcell.scenarios import REFERENCE_TESTS, build_reference_script
from bagcell.vision import EmptyGroundTruth, evaluate, load_boxes

if TYPE_CHECKING:
    from bagcell.devices import FaultScript

_UNMATCHED = "{} fault script entries were never matched"
_TEST_TRACE = "trace_{:02d}.jsonl"


def _flag(hint: Any) -> Callable[[str], Any]:
    """argparse type: the text read as ``hint``'s number and held to its bound."""

    def parse(text: str) -> Any:
        try:
            value = get_args(hint)[0](text)
        except ValueError:
            value = text  # check() rejects it as not a number
        try:
            check(value, hint)
        except ConfigInvalid as exc:
            raise argparse.ArgumentTypeError(f"{exc.reason}, got {text!r}") from None
        return value

    return parse


def _load_config(args) -> CellConfig:
    config = CellConfig.from_file(args.config) if args.config else CellConfig()
    if args.seed is not None:
        config.seed = args.seed
    return config


def _outdir(arg: Optional[str]) -> Path:
    """The output directory, made if missing, without the outputs an earlier command left."""
    path = Path(arg or os.environ.get("BAGCELL_OUTDIR", "out"))
    path.mkdir(parents=True, exist_ok=True)
    for pattern in ("trace*.jsonl", "report.json", "table.*"):
        for old in path.glob(pattern):
            old.unlink()
    return path


def _load_script(path: Optional[str]) -> Optional[FaultScript]:
    from bagcell.devices import FaultScript  # imported here: only a run loads the device bank

    return FaultScript.from_file(path) if path else None


def _summarize(config: CellConfig, reports, script) -> CampaignReport:
    """A command's runs, and the script entries they left, as one report."""
    digest = config_digest(config.to_json())
    unconsumed = len(script.unconsumed()) if script else 0
    return summarize_campaign(reports, config.seed, digest, unconsumed)


def _write_report(outdir: Path, campaign: CampaignReport) -> None:
    """Write ``report.json`` through a temporary file, so that it is never seen half-written."""
    part = outdir / "report.json.part"
    part.write_text(campaign.to_json())
    os.replace(part, outdir / "report.json")


def cmd_run(args) -> int:
    from bagcell.simulate import run_single  # imported here: only a run loads the simulator

    config = _load_config(args)
    cell = config.validate()
    script = _load_script(args.script)
    outdir = _outdir(args.outdir)
    report, tracer = run_single(cell, cycles=args.cycles, script=script)
    write_trace(outdir / "trace.jsonl", tracer.records)
    campaign = _summarize(config, [report], script)
    _write_report(outdir, campaign)
    unconsumed = campaign.unconsumed_script_entries
    if unconsumed:
        print(f"warning: {_UNMATCHED.format(unconsumed)}", file=sys.stderr)
    print(
        f"cycles={report.cycles} detected={report.detected} picked={report.picked} "
        f"placed={report.placed} delivered={report.delivered} "
        f"duration={report.duration_min:.1f}min violations={report.violations}"
    )
    if report.violations:
        raise RunAborted(f"run finished with {report.violations} safety violations")
    return 0


def _workers(n_tests: int, script: Optional[FaultScript]) -> int:
    """How many processes a campaign's tests run on: one per usable CPU, at most one per test.

    A script entry without a ``test`` selector can match in any test, and the
    tests consume it in order, so such a script keeps every test in one process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if script is not None and any("test" not in entry.when for entry in script.entries):
        return 1
    return min(n_tests, len(os.sched_getaffinity(0)))


def _run_share(
    cell: Cell, tests: range, script: Optional[FaultScript], outdir: Path
) -> Tuple[List[RunReport], Optional[Exception]]:
    """Run ``tests`` in order, writing each trace as its run ends.

    Returns the reports of the tests that ended and the exception that stopped
    the share, if one did: it was raised in test ``tests[len(reports)]``.
    """
    from bagcell.simulate import run_campaign  # imported here: only a run loads the simulator

    reports = []
    try:
        for report, tracer in run_campaign(cell, tests, script=script):
            write_trace(outdir / _TEST_TRACE.format(report.test_index), tracer.records)
            reports.append(report)
    except Exception as exc:  # the command reports only the lowest failed test's
        return reports, exc
    return reports, None


def _run_tests(
    cell: Cell, n_tests: int, script: Optional[FaultScript], outdir: Path
) -> List[RunReport]:
    """Every test's report in test order, each test's trace written as its run ends.

    The tests are independent replications, so they are dealt round-robin to
    ``_workers`` processes: the parent runs share 0 and forks one child per
    other share. A child sends its reports, the indices of the script entries
    it consumed and its exception through a pipe, then exits at once. If a
    test failed, the lowest failed test's exception is raised and the traces
    of later tests are deleted, so the outdir and the error are those of one
    process running the tests in order.
    """
    import pickle  # imported here: only a campaign sends results between processes

    workers = _workers(n_tests, script)
    children = []  # (share, pid, the pipe's read end)
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()  # Python runs on one thread; OpenBLAS stops its pool at a fork
            if pid == 0:  # the child: nothing may run after its share but the send
                status = 1
                try:
                    os.close(read)
                    reports, exc = _run_share(cell, range(share, n_tests, workers), script, outdir)
                    entries = script.entries if script else []
                    consumed = [k for k, entry in enumerate(entries) if entry.consumed]
                    payload = pickle.dumps((reports, consumed, exc))
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((share, pid, open(read, "rb")))
        reports, exc = _run_share(cell, range(0, n_tests, workers), script, outdir)
        failed = [] if exc is None else [(len(reports) * workers, exc)]
        for share, pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"campaign worker {share} exited without its results")
            got, consumed, exc = pickle.loads(data)
            reports += got
            if exc is not None:
                failed.append((share + len(got) * workers, exc))
            for k in consumed:
                script.entries[k].consumed = True
    finally:
        for _, pid, pipe in children:
            pipe.close()  # a child still sending gets a broken pipe, not a hang
            os.waitpid(pid, 0)
    if failed:
        first, exc = min(failed)  # each test is in one share, so no two indices tie
        for report in reports:
            if report.test_index > first:
                (outdir / _TEST_TRACE.format(report.test_index)).unlink()
        raise exc
    return sorted(reports, key=lambda r: r.test_index)


def cmd_campaign(args) -> int:
    """``campaign`` and ``replay``: single-cycle tests, a report and a table.

    A replay runs the reference campaign, by default on its built-in script,
    and must consume every script entry; a campaign only warns.
    """
    config = _load_config(args)
    cell = config.validate()  # before the reference script reads its caps
    replay = args.command == "replay"
    script = _load_script(args.script)
    if replay and script is None:
        script = build_reference_script(config)
    outdir = _outdir(args.outdir)
    reports = _run_tests(cell, args.tests, script, outdir)
    campaign = _summarize(config, reports, script)
    unconsumed = campaign.unconsumed_script_entries
    if unconsumed and not replay:
        print(f"warning: {_UNMATCHED.format(unconsumed)}", file=sys.stderr)
    ext = "csv" if args.table == "csv" else "md"
    table = render_table(campaign, args.table)
    (outdir / f"table.{ext}").write_text(table)
    _write_report(outdir, campaign)
    print(table, end="")
    if unconsumed and replay:
        raise RunAborted(_UNMATCHED.format(unconsumed))
    if any(r.violations for r in reports):
        raise RunAborted(f"{args.command} finished with safety violations")
    return 0


def cmd_eval(args) -> int:
    preds = load_boxes(args.preds)
    gts = load_boxes(args.gts)
    metrics = evaluate(preds, gts, iou_threshold=args.iou)
    out = {
        "precision": round(metrics.precision, 6),
        "recall": round(metrics.recall, 6),
        "f1": round(metrics.f1, 6),
        "ap": round(metrics.ap50, 6) if metrics.ap50 is not None else None,
        "tp": metrics.counts.tp,
        "fp": metrics.counts.fp,
        "fn": metrics.counts.fn,
        "iou_threshold": args.iou,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_dump_config(args) -> int:
    text = CellConfig().to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bagcell",
        description="Deterministic simulator of a bag-cutting and unpacking cell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults embedded)")
    common.add_argument("--seed", type=_flag(Count), help="override the config seed")
    common.add_argument("--outdir", help="output directory (or $BAGCELL_OUTDIR)")

    p_run = sub.add_parser("run", parents=[common], help="run one session")
    p_run.add_argument(
        "--cycles", type=_flag(AtLeastOne), help="feeding cycles (default from config)"
    )
    p_run.add_argument("--fault-script", dest="script", help="fault script JSON")
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign", parents=[common], help="run N single-cycle tests")
    p_camp.add_argument("--tests", type=_flag(AtLeastOne), default=10)
    p_camp.add_argument("--fault-script", dest="script", help="fault script JSON")
    p_camp.add_argument("--table", choices=("markdown", "csv"), default="markdown")
    p_camp.set_defaults(func=cmd_campaign)

    p_rep = sub.add_parser("replay", parents=[common], help="replay the reference campaign")
    p_rep.add_argument(
        "--fault-script", dest="script", help="override the built-in fault script"
    )
    p_rep.add_argument("--table", choices=("markdown", "csv"), default="markdown")
    p_rep.set_defaults(func=cmd_campaign, tests=REFERENCE_TESTS)

    p_eval = sub.add_parser("eval", help="score box files")
    p_eval.add_argument("--preds", required=True, help="predicted boxes file")
    p_eval.add_argument("--gts", required=True, help="ground-truth boxes file")
    p_eval.add_argument("--iou", type=_flag(Probability), default=0.5)
    p_eval.set_defaults(func=cmd_eval)

    p_dump = sub.add_parser("dump-config", help="print default config JSON")
    p_dump.add_argument("--out", help="write to file instead of stdout")
    p_dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code in (0, None) else 1
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (MalformedInput, OSError) as exc:
        # A reader names its unreadable input; an OSError is an unwritable output.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EmptyGroundTruth as exc:  # only eval scores, so the empty file is --gts
        print(f"error: {args.gts}: {exc}", file=sys.stderr)
        return 1
    except RunAborted as exc:
        print(f"error: run aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

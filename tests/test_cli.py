"""Command-line interface tests, driven through main() in-process."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from bagcell.cli import build_parser, main
from bagcell.config import CellConfig, RunAborted
from bagcell.devices import DeviceBank, InterlockViolation
from bagcell.scenarios import REFERENCE_CAMPAIGN, randomized_fault_profile
from bagcell.simulate import Simulation
from bagcell.vision import save_boxes
from bagcell.world import Violation
from test_vision import seeded_box_pair

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGE_RATES = ROOT / "scenarios" / "stage_rates.json"
GT_LINES = "\n".join(
    f"0 stack 1.0 {100 + 200 * i} 100 {220 + 200 * i} 240" for i in range(4)
)


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    # Keep stray ./out directories inside the test sandbox.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BAGCELL_OUTDIR", raising=False)
    return tmp_path


def test_dump_config_round_trips(capsys):
    assert main(["dump-config"]) == 0
    text = capsys.readouterr().out
    cfg = CellConfig.from_dict(json.loads(text))
    assert cfg.layout.total_stacks == 24


def test_dump_config_to_file(tmp_path):
    out = tmp_path / "cfg.json"
    assert main(["dump-config", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 12345


def test_eval_perfect_match(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_LINES + "\n")
    assert main(["eval", "--preds", str(gt), "--gts", str(gt)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["precision"] == 1.0
    assert scores["recall"] == 1.0
    assert scores["f1"] == 1.0
    assert scores["tp"] == 4 and scores["fp"] == 0 and scores["fn"] == 0


def test_eval_with_a_missed_box(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_LINES + "\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("\n".join(GT_LINES.splitlines()[:3]) + "\n")
    assert main(["eval", "--preds", str(pred), "--gts", str(gt)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["recall"] == 0.75
    assert scores["precision"] == 1.0
    assert scores["fn"] == 1


def test_eval_iou_threshold_is_respected(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("0 stack 1.0 100 100 200 200\n")
    pred = tmp_path / "pred.txt"
    pred.write_text("0 stack 1.0 110 100 210 200\n")  # IoU ~0.82
    assert main(["eval", "--preds", str(pred), "--gts", str(gt)]) == 0
    assert json.loads(capsys.readouterr().out)["tp"] == 1
    assert main(["eval", "--preds", str(pred), "--gts", str(gt), "--iou", "0.9"]) == 0
    assert json.loads(capsys.readouterr().out)["tp"] == 0


def test_one_parser_serves_each_call_its_own_arguments(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text(GT_LINES + "\n")
    assert main(["eval", "--preds", str(gt), "--gts", str(gt), "--iou", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["iou_threshold"] == 0.3
    assert main(["eval", "--preds", str(gt), "--gts", str(gt)]) == 0
    assert json.loads(capsys.readouterr().out)["iou_threshold"] == 0.5
    assert build_parser() is build_parser()


def test_eval_against_empty_ground_truth_is_a_usage_error(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text(GT_LINES + "\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("# no boxes\n")
    assert main(["eval", "--preds", str(pred), "--gts", str(gt)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {gt}: ")
    assert "Traceback" not in err


def test_eval_of_two_empty_files_scores_all_ones_with_no_ap(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no boxes\n")
    assert main(["eval", "--preds", str(empty), "--gts", str(empty)]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["precision"] == scores["recall"] == scores["f1"] == 1.0
    assert scores["ap"] is None and scores["tp"] == 0


def test_eval_of_a_box_whose_area_overflows_is_a_usage_error(tmp_path, capsys):
    # The area 1e400 is inf, so the union inf - inf would be NaN and the box
    # would not even match itself.
    (tmp_path / "b.txt").write_text("0 stack 0.9 0 0 1e200 1e200\n")
    assert main(["eval", "--preds", "b.txt", "--gts", "b.txt"]) == 1
    assert capsys.readouterr().err == "error: b.txt:1: box area overflows\n"


def test_eval_help_and_dump_config_never_load_numpy_or_the_simulator(tmp_path):
    # numpy is imported only to simulate: the run's generator, the camera's
    # matrices and the config's extrinsic check. Only the commands that run
    # import the simulator's modules. Scoring a box file, the help, the
    # default config and a usage error start without any of them, and
    # without logging or hashlib: nothing logs, and only a run hashes. No
    # record they build is a dataclass, so dataclasses and inspect stay out.
    program = """
import sys
import bagcell.cli, bagcell.scenarios, bagcell.vision
from bagcell import cli, vision
boxes = [vision.Box(100.0 + 200 * i, 100.0, 220.0 + 200 * i, 240.0) for i in range(4)]
vision.save_boxes("gt.txt", boxes)
vision.save_boxes("pred.txt", boxes[:3])
assert cli.main(["eval", "--preds", "pred.txt", "--gts", "gt.txt"]) == 0
assert cli.main(["eval", "--preds", "pred.txt", "--gts", "gt.txt", "--iou", "2"]) == 1
assert cli.main(["--help"]) == 0
assert cli.main(["dump-config"]) == 0
heavy = ["numpy", "bagcell.orchestrator", "bagcell.devices", "bagcell.simulate",
         "bagcell.motion", "bagcell.bus", "bagcell.world", "logging", "hashlib",
         "dataclasses", "inspect"]
print([name for name in heavy if name in sys.modules])
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", program],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report, _ = json.JSONDecoder().raw_decode(proc.stdout)  # eval's, printed first
    assert report["fn"] == 1
    assert "error: argument --iou: must be in [0, 1], got '2'" in proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_run_writes_trace_and_report(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", "--cycles", "1", "--outdir", str(out)]) == 0
    assert "delivered=8" in capsys.readouterr().out
    assert (out / "trace.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["tests"][0]["delivered"] == 8


def test_campaign_prints_and_writes_table(tmp_path, capsys):
    out = tmp_path / "camp"
    assert main(["campaign", "--tests", "2", "--outdir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "| Test " in stdout and "| Mean " in stdout
    assert (out / "table.md").read_text() == stdout
    assert (out / "trace_00.jsonl").exists()
    assert (out / "trace_01.jsonl").exists()


def usable_cpus(monkeypatch, count):
    """Make a campaign see ``count`` usable CPUs, so it runs on up to that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_campaign_writes_each_trace_as_its_run_ends(tmp_path, monkeypatch, capsys):
    # Only the reports outlive a run, so a campaign's memory does not grow
    # with --tests.
    usable_cpus(monkeypatch, 1)
    out = tmp_path / "camp"
    started = []
    run = Simulation.run

    def run_after_earlier_traces(sim):
        written = sorted(p.name for p in out.glob("trace_*.jsonl"))
        assert written == [f"trace_{i:02d}.jsonl" for i in range(sim.test_index)]
        started.append(sim.test_index)
        return run(sim)

    monkeypatch.setattr(Simulation, "run", run_after_earlier_traces)
    assert main(["campaign", "--tests", "3", "--outdir", str(out)]) == 0
    capsys.readouterr()
    assert started == [0, 1, 2]


def test_campaign_workers_write_each_trace_as_its_run_ends(tmp_path, monkeypatch, capsys):
    # Each of W workers holds one run at a time: before it starts test i it
    # has written the trace of its previous test, i - W. A failed assertion
    # in a child comes back as the command's exception.
    usable_cpus(monkeypatch, 2)
    out, starts = tmp_path / "camp", tmp_path / "starts"
    starts.mkdir()
    run = Simulation.run

    def run_after_previous_trace(sim):
        i = sim.test_index
        assert i < 2 or (out / f"trace_{i - 2:02d}.jsonl").exists(), i
        (starts / str(i)).write_text(str(os.getpid()))
        return run(sim)

    monkeypatch.setattr(Simulation, "run", run_after_previous_trace)
    assert main(["campaign", "--tests", "5", "--outdir", str(out)]) == 0
    capsys.readouterr()
    pids = [int((starts / str(i)).read_text()) for i in range(5)]
    assert pids[0] == pids[2] == pids[4] == os.getpid() != pids[1] == pids[3]


def _all_named_script(tmp_path):
    # Test 1 exhausts a pick and test 2 retries one; the test-9 entry never matches.
    entries = (
        [{"when": {"action": "pick", "test": 1, "cycle": 0, "slot": 0}, "outcome": "fail"}] * 3
        + [{"when": {"action": "pick", "test": 2, "slot": 3, "attempt": 1}, "outcome": "fail"}]
        + [{"when": {"action": "pick", "test": 9}, "outcome": "fail"}]
    )
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    return str(path)


@pytest.mark.parametrize(
    "argv, unconsumed",
    [
        (["replay"], 0),
        (["campaign", "--config", str(STAGE_RATES), "--tests", "5"], 0),
        (["campaign", "--tests", "5", "--fault-script", "{named}"], 1),
    ],
    ids=["replay", "stage-rates", "named-script"],
)
def test_campaign_outdir_is_the_same_on_one_worker_or_two(
    tmp_path, monkeypatch, capsys, argv, unconsumed
):
    argv = [arg.format(named=_all_named_script(tmp_path)) for arg in argv]
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    outputs = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        assert main([*argv, "--outdir", str(out)]) == 0
        outputs.append(({p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()))
        assert len(forks) == cpus - 1
    (one, printed_one), (two, printed_two) = outputs
    assert one == two and printed_one == printed_two
    assert json.loads(one["report.json"])["unconsumed_script_entries"] == unconsumed
    assert len([name for name in one if name.startswith("trace_")]) == len(
        json.loads(one["report.json"])["tests"]
    )


def test_a_script_entry_without_a_test_keeps_the_campaign_in_one_process(
    tmp_path, monkeypatch, capsys
):
    # Entries without a test selector are consumed across tests in order.
    script = tmp_path / "shared.json"
    script.write_text(json.dumps({"version": 1, "entries": [
        {"when": {"action": "pick", "test": 1}, "outcome": "fail"},
        {"when": {"action": "pick", "slot": 0, "attempt": 1}, "outcome": "fail"},
    ]}))

    def no_fork():
        raise AssertionError("forked")

    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "out"
    assert main(["campaign", "--tests", "5", "--fault-script", str(script),
                 "--outdir", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "report.json").read_text())["unconsumed_script_entries"] == 0


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "aborted", [{2}, {3}, {1, 2}], ids=["in-parent-share", "in-child-share", "in-both"]
)
def test_an_aborted_test_leaves_the_earlier_traces_only(
    tmp_path, monkeypatch, capsys, cpus, aborted
):
    # With two workers the other share runs past the aborted test; its later
    # traces go, and the lowest aborted test names the error, so the outdir
    # and the error are those of one process stopping at the first abort.
    usable_cpus(monkeypatch, cpus)
    run = Simulation.run

    def abort_some_tests(sim):
        if sim.test_index in aborted:
            raise RunAborted(f"injected in test {sim.test_index}")
        return run(sim)

    monkeypatch.setattr(Simulation, "run", abort_some_tests)
    out = tmp_path / "out"
    assert main(["campaign", "--tests", "5", "--outdir", str(out)]) == 2
    printed = capsys.readouterr()
    first = min(aborted)
    assert printed.out == ""
    assert _aborted_with_one_line(printed.err) == f"error: run aborted: injected in test {first}"
    assert sorted(p.name for p in out.iterdir()) == [f"trace_{i:02d}.jsonl" for i in range(first)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_outdir_holds_one_commands_outputs(tmp_path, capsys):
    # The third trace of a 3-test campaign sat beside a later 2-test report,
    # which nothing tied it to. Files of other kinds stay.
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    assert main(["campaign", "--tests", "3", "--seed", "1", "--outdir", str(out)]) == 0
    assert main(["campaign", "--tests", "2", "--seed", "2", "--outdir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "notes.txt", "report.json", "table.md", "trace_00.jsonl", "trace_01.jsonl"
    ]
    report = json.loads((out / "report.json").read_text())
    assert (report["seed"], len(report["tests"])) == (2, 2)
    assert main(["run", "--cycles", "1", "--outdir", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "report.json", "trace.jsonl"]
    assert (out / "notes.txt").read_text() == "kept"


def test_an_aborted_run_leaves_no_earlier_outputs(tmp_path, capsys):
    # The earlier run's report.json and trace.jsonl used to survive an
    # aborted run and read as its clean success.
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    stuck = tmp_path / "stuck.json"
    stuck.write_text('{"orchestrator": {"pacing": {"door_settle_s": 90000}}}')
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"orchestrator": {"pick_attempts": 0}}')
    run = ["run", "--cycles", "1", "--outdir", str(out)]
    assert main(run) == 0
    earlier = {name: (out / name).read_bytes() for name in ("report.json", "trace.jsonl")}
    # A config that fails validation is a usage error, and the outdir is untouched.
    assert main(run + ["--config", str(invalid)]) == 1
    assert {name: (out / name).read_bytes() for name in earlier} == earlier
    assert main(run + ["--config", str(stuck)]) == 2
    assert "control loop stuck" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"


def test_a_campaign_worker_runs_nothing_after_its_share(tmp_path):
    # A child leaves through os._exit: no exit handler runs in it, and the
    # stdout buffer it inherited is not flushed a second time.
    program = """
import atexit, os, sys
from bagcell import cli
os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(lambda: print("exit handler ran"))
sys.stdout.write("buffered before the fork ")
sys.exit(cli.main(["campaign", "--tests", "2", "--table", "csv", "--outdir", "out"]))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", program],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("buffered before the fork ") == 1
    assert proc.stdout.count("exit handler ran") == 1
    assert proc.stderr == ""


def test_campaign_csv_table(tmp_path, capsys):
    out = tmp_path / "camp"
    assert main(["campaign", "--tests", "2", "--table", "csv",
                 "--outdir", str(out)]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",") == ["Test", "Detected", "Picked", "Placed", "Time (min)"]
    assert (out / "table.csv").exists()


def test_campaign_runs_on_the_shipped_stage_rate_profile(tmp_path, capsys):
    out = tmp_path / "camp"
    assert main(["campaign", "--config", str(STAGE_RATES), "--tests", "5",
                 "--seed", "31415", "--outdir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 31415
    assert [run["seed"] for run in report["tests"]] == list(range(31415, 31420))


def test_replay_reproduces_reference_rates(tmp_path, capsys):
    out = tmp_path / "replay"
    assert main(["replay", "--outdir", str(out)]) == 0
    stdout = capsys.readouterr().out
    for rate in ("96.25", "86.25", "82.50"):
        assert rate in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["unconsumed_script_entries"] == 0


def test_replay_scripts_the_configured_retry_caps(tmp_path, capsys):
    # The built-in script exhausts a failing step with one failure per
    # configured attempt, so raised caps still give the reference rows.
    caps = {f"{step}_attempts": 4 for step in ("detect", "pick", "place")}
    config = tmp_path / "caps.json"
    config.write_text(json.dumps({"orchestrator": caps}))
    out = tmp_path / "replay"
    argv = ["replay", "--config", str(config), "--table", "csv", "--outdir", str(out)]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1 : 1 + len(REFERENCE_CAMPAIGN)]
    assert [tuple(int(n) for n in row.split(",")[1:4]) for row in rows] == list(REFERENCE_CAMPAIGN)


def test_replay_outputs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["replay", "--outdir", str(a)]) == 0
    assert main(["replay", "--outdir", str(b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_outdir_env_fallback(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("BAGCELL_OUTDIR", str(target))
    assert main(["run", "--cycles", "1"]) == 0
    capsys.readouterr()
    assert (target / "trace.jsonl").exists()


# --- error handling -------------------------------------------------------


def test_missing_config_file_is_a_usage_error(capsys):
    assert main(["run", "--config", "no_such_file.json", "--cycles", "1"]) == 1


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"motion": {"warp_speed": 9}}))
    assert main(["run", "--config", str(bad), "--cycles", "1"]) == 1
    assert "motion.warp_speed" in capsys.readouterr().err


def test_non_finite_config_value_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"orchestrator": {"pacing": {"detect_service_s": NaN}}}')
    assert main(["run", "--config", str(bad), "--cycles", "1"]) == 1
    err = capsys.readouterr().err
    assert "orchestrator.pacing.detect_service_s" in err
    assert "Traceback" not in err


def test_malformed_fault_script_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "script.json"
    bad.write_text(json.dumps({"version": 1, "entries": [{"outcome": "fail"}]}))
    assert main(["run", "--fault-script", str(bad), "--cycles", "1"]) == 1
    bad.write_text("[]")
    assert main(["run", "--fault-script", str(bad), "--cycles", "1"]) == 1
    err = capsys.readouterr().err
    assert "script root must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["replay", "--fault-script", "deep.json"], ["run", "--config", "deep.json", "--cycles", "1"]],
    ids=["fault-script", "config"],
)
def test_deeply_nested_json_input_is_a_usage_error(tmp_path, capsys, argv):
    # json.loads raises RecursionError, not JSONDecodeError, past its depth limit.
    (tmp_path / "deep.json").write_text("[" * 100_000)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: deep.json: invalid JSON: nested too deeply\n"


def test_malformed_box_file_is_a_usage_error(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("0 stack 1.0 100 100\n")  # wrong field count
    assert main(["eval", "--preds", str(gt), "--gts", str(gt)]) == 1
    assert "gt.txt:1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--cycles", "1", "--config", "{a_dir}"],
        ["run", "--cycles", "1", "--config", "{latin1}"],
        ["run", "--cycles", "1", "--fault-script", "{a_dir}"],
        ["run", "--cycles", "1", "--fault-script", "{latin1}"],
        ["eval", "--preds", "{a_dir}", "--gts", "{a_dir}"],
        ["eval", "--preds", "{latin1}", "--gts", "{latin1}"],
        ["run", "--cycles", "1", "--outdir", "{latin1}"],  # a file, not a directory
        ["dump-config", "--out", "{a_dir}"],
    ],
    ids=["config-dir", "config-latin1", "script-dir", "script-latin1",
         "preds-dir", "preds-latin1", "outdir-file", "out-dir"],
)
def test_unreadable_input_or_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    paths = {"a_dir": tmp_path / "a_dir", "latin1": tmp_path / "latin1.txt"}
    paths["a_dir"].mkdir()
    paths["latin1"].write_bytes(b"\xff\xfe caf\xe9\n")  # not UTF-8 text
    argv = [arg.format(**paths) for arg in argv]
    named = next(arg for arg in argv if arg.startswith(str(tmp_path)))
    assert main(argv) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and named in lines[0]
    assert "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main(["run", "--no-such-flag"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_never_matching_replay_script_exits_two(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "version": 1,
        "entries": [{"when": {"action": "pick", "test": 99}, "outcome": "fail"}],
    }))
    out = tmp_path / "replay"
    assert main(["replay", "--fault-script", str(script), "--outdir", str(out)]) == 2
    line = _aborted_with_one_line(capsys.readouterr().err)
    assert line == "error: run aborted: 1 fault script entries were never matched"


@pytest.mark.parametrize("argv", [["run", "--cycles", "1"], ["campaign", "--tests", "1"]])
def test_unmatched_script_entries_are_reported_and_warned(tmp_path, capsys, argv):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "version": 1,
        "entries": [{"when": {"action": "pick", "test": 5}, "outcome": "fail"}],
    }))
    out = tmp_path / "out"
    assert main([*argv, "--fault-script", str(script), "--outdir", str(out)]) == 0
    err = capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["unconsumed_script_entries"] == 1
    assert err.splitlines() == ["warning: 1 fault script entries were never matched"]


@pytest.mark.parametrize(
    "overlay, field_name",
    [
        ({"layout": {"zone_sizes": [4, 6, 6, "8"]}}, "layout.zone_sizes[3]"),
        ({"layout": {"zone_sizes": 5}}, "layout.zone_sizes"),
        ({"layout": {"home_pose": "abc"}}, "layout.home_pose"),
        ({"layout": {"home_pose": [0.0, 0.0]}}, "layout.home_pose"),
        ({"faults": {"pick_grip_fail_prob": "0.1"}}, "faults.pick_grip_fail_prob"),
        ({"seed": -3}, "seed"),
        ({"orchestrator": {"cycles_per_test": 2.5}}, "orchestrator.cycles_per_test"),
        ({"orchestrator": {"detect_attempts": True}}, "orchestrator.detect_attempts"),
    ],
)
def test_mistyped_config_value_is_a_usage_error(tmp_path, capsys, overlay, field_name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overlay))
    assert main(["run", "--config", str(bad), "--cycles", "1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {field_name}: " in err
    assert "Traceback" not in err


# Extrinsics whose float inverse is not finite, though ``np.linalg.inv``
# raises nothing: the first ran with nothing detected, exit 0; the second was
# refused for a rim marker behind the camera.
_NON_FINITE_INVERSE = [
    {"camera": {"extrinsic": [[1e-310, 0, 0, 0], [0, -1, 0, -0.69],
                              [0, 0, -1, 1.05], [0, 0, 0, 1]]}},
    {"camera": {"extrinsic": [[1e-310, 0, 0, 0], [0, -1, 0, -0.69],
                              [0, 0, -1e-320, 1.05], [0, 0, 0, 1]]}},
]


@pytest.mark.parametrize(
    "overlay, field_name",
    [
        # A billion planning attempts, all failing, spun inside one event.
        ({"motion": {"max_planning_attempts": 1_000_000_000},
          "faults": {"plan_failure_prob": 1.0}}, "motion.max_planning_attempts"),
        # A singular extrinsic ended the run in a LinAlgError traceback.
        ({"camera": {"extrinsic": [[0.0] * 4] * 4}}, "camera.extrinsic"),
        # An empty image, or a principal point off it, ran with nothing detected.
        ({"camera": {"width_px": 0}}, "camera.width_px"),
        ({"camera": {"height_px": -5}}, "camera.height_px"),
        ({"camera": {"cx": -10000.0}}, "camera.cx"),
        ({"camera": {"cy": 1080.0}}, "camera.cy"),
        # Every detection missed, each retry queued at the same simulated instant.
        ({"orchestrator": {"detect_attempts": 1_000_000_000, "pacing": {"detect_service_s": 0}},
          "faults": {"detection_miss_prob": 1.0}}, "orchestrator.detect_attempts"),
        # A ramp rate of inf made a NaN event time: "trace time went backwards".
        ({"devices": {"ramp_to_secure_s": 1e-320}}, "devices.ramp_to_secure_s"),
        # The verify timer fired before any bottom line secured: 0 of 8 placed, exit 0.
        ({"devices": {"placement_window_s": 0.1}}, "devices.placement_window_s"),
        # The grip timer fired ahead of the secured gripper: 0 of 8 picked, exit 0.
        ({"devices": {"ramp_to_secure_s": 2.0}}, "devices.grip_timeout_s"),
        # An occupied enclosure read absent (0 of 8 placed), or an emptied one
        # present (0 of 8 delivered), each with exit 0.
        ({"devices": {"presence_threshold_cm": 5.0}}, "devices.presence_threshold_cm"),
        ({"devices": {"presence_threshold_cm": 30.01}}, "devices.presence_threshold_cm"),
        # A leaking line that sealed anyway: a scripted pick fail was picked.
        ({"devices": {"leak_level_kpa": -30.0}}, "devices.leak_level_kpa"),
        # A tilted camera saw a stack but had a rim marker behind it: a
        # ValueError traceback at the first detection.
        ({"camera": {"extrinsic": [[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, -0.69],
                                   [7.0, 0.0, -1.0, 1.05], [0.0, 0.0, 0.0, 1.0]]}},
         "camera.extrinsic"),
        # A tote above the camera ran with nothing detected, exit 0.
        ({"layout": {"tote_top_z_m": 300.0}}, "camera.extrinsic"),
        *[(overlay, "camera.extrinsic") for overlay in _NON_FINITE_INVERSE],
        # Stack tops outside the image ran without them, exit 0: 0 of 8
        # delivered above the frame, 4 of 8 with columns too wide for it.
        ({"camera": {"cy": 5.4}}, "camera.extrinsic"),
        ({"layout": {"col_pitch_m": 1.1}}, "camera.extrinsic"),
        # A stack top too large for a float gave every box an infinite extent
        # and a NaN centre: 0 of 8 picked, "duration=nanmin", exit 0.
        ({"layout": {"stack_top_w_m": 1e308}}, "layout.stack_top_w_m"),
        ({"layout": {"stack_top_d_m": 1e308}}, "layout.stack_top_d_m"),
        # A rim marker too far away for a float had a NaN depth: a matmul
        # RuntimeWarning, then "rim marker behind the camera".
        ({"layout": {"col_pitch_m": 1e308}}, "layout.col_pitch_m"),
        ({"layout": {"col_pitch_m": -1e308}}, "layout.col_pitch_m"),
        ({"layout": {"row_pitch_m": 1e308}}, "layout.row_pitch_m"),
    ],
)
def test_config_the_run_cannot_use_is_a_usage_error(tmp_path, capsys, overlay, field_name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overlay))
    with warnings.catch_warnings(record=True) as caught:  # pytest would hide them from stderr
        warnings.simplefilter("always")
        assert main(["run", "--config", str(bad), "--cycles", "1"]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {field_name}: ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err and "Traceback" not in err


@pytest.mark.parametrize("overlay", _NON_FINITE_INVERSE)
def test_extrinsic_with_a_non_finite_inverse_is_not_invertible(tmp_path, capsys, overlay):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overlay))
    assert main(["run", "--config", str(bad), "--cycles", "1"]) == 1
    assert "error: camera.extrinsic: must be invertible\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--cycles", "0"], "--cycles"),
        (["run", "--cycles", "-1"], "--cycles"),
        (["run", "--cycles", "two"], "--cycles"),
        (["run", "--seed", "-1"], "--seed"),
        (["campaign", "--tests", "0"], "--tests"),
        (["eval", "--preds", "p.txt", "--gts", "g.txt", "--iou", "-1"], "--iou"),
        (["eval", "--preds", "p.txt", "--gts", "g.txt", "--iou", "2"], "--iou"),
        (["eval", "--preds", "p.txt", "--gts", "g.txt", "--iou", "nan"], "--iou"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(capsys, argv, flag):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "Traceback" not in err


def test_fault_script_selector_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    # "test": "0" can never equal the integer test index, so it would never match.
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "version": 1,
        "entries": [{"when": {"action": "pick", "test": "0"}, "outcome": "fail"}],
    }))
    assert main(["campaign", "--tests", "1", "--fault-script", str(script)]) == 1
    assert "entry 0: 'test' must be an integer" in capsys.readouterr().err


def _aborted_with_one_line(err):
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith("error: run aborted: ")
    assert "Traceback" not in err
    return lines[0]


def test_stuck_run_exits_two(tmp_path, capsys):
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({"orchestrator": {"pacing": {"detect_service_s": 200000}}}))
    assert main(["run", "--config", str(slow), "--cycles", "1"]) == 2
    assert "time limit" in _aborted_with_one_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["run", "--cycles", "1"], ["campaign", "--tests", "1"]])
def test_safety_violation_exits_two(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(
        "bagcell.simulate.check_invariants", lambda world: [Violation("test", "injected")]
    )
    assert main([*argv, "--outdir", str(tmp_path / "out")]) == 2
    assert "safety violations" in _aborted_with_one_line(capsys.readouterr().err)


def test_refused_interlock_exits_two(monkeypatch, capsys):
    # The bank loses bottom_7's seal while the machine still counts it
    # secured, so the machine starts the cutter and the bank refuses.
    apply = DeviceBank.apply

    def apply_then_lose_bottom_7(bank, event):
        name = apply(bank, event)
        bank.suction["bottom_7"].secured = False
        return name

    monkeypatch.setattr(DeviceBank, "apply", apply_then_lose_bottom_7)
    assert main(["run", "--cycles", "1"]) == 2
    line = _aborted_with_one_line(capsys.readouterr().err)
    assert "cutter.extend: bottom lines [7] not secured" in line


def test_interlock_violation_exits_two(monkeypatch, capsys):
    def refuse_the_cutter(bank, name):
        if name == "cutter":
            raise InterlockViolation("cutter.extend: refused")

    monkeypatch.setattr("bagcell.devices.DeviceBank._interlock", refuse_the_cutter)
    assert main(["run", "--cycles", "1"]) == 2
    line = _aborted_with_one_line(capsys.readouterr().err)
    assert line == "error: run aborted: cutter.extend: refused"


# --- the collector, paused while a command runs ------------------------------


@pytest.fixture
def collector():
    """Put the cyclic garbage collector back as it was once the test ends."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


_SLOW = {"orchestrator": {"pacing": {"detect_service_s": 200000}}}
_OUTCOMES = {
    "success": (["dump-config"], 0),
    "help": (["--help"], 0),
    "usage-error": (["run", "--no-such-flag"], 1),
    "malformed-box-file": (["eval", "--preds", "bad.txt", "--gts", "bad.txt"], 1),
    "aborted-run": (["run", "--cycles", "1", "--config", "slow.json"], 2),
    "escaping-exception": (["eval", "--preds", "gt.txt", "--gts", "gt.txt"], ZeroDivisionError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", list(_OUTCOMES))
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, capsys, collector, outcome, enabled
):
    (tmp_path / "bad.txt").write_text("0 stack 1.0 100 100\n")
    (tmp_path / "gt.txt").write_text(GT_LINES + "\n")
    (tmp_path / "slow.json").write_text(json.dumps(_SLOW))

    def escape(*args, **kwargs):
        raise ZeroDivisionError("not caught by main")

    monkeypatch.setattr("bagcell.cli.evaluate", escape)
    argv, want = _OUTCOMES[outcome]
    (gc.enable if enabled else gc.disable)()
    if isinstance(want, int):
        assert main(argv) == want
    else:
        with pytest.raises(want):
            main(argv)
    assert gc.isenabled() is enabled
    capsys.readouterr()


def _collections_during(call):
    """The generation of each collection that starts while ``call()`` runs."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    build_parser()  # built once per process, by main before it pauses the collector
    gc.collect()  # so that no earlier allocation counts towards a collection
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return started


def test_no_collection_starts_while_a_command_runs(tmp_path, capsys, collector):
    # An eval holds thousands of tracked Box and Match tuples, which a
    # collection would walk and find live.
    gc.enable()
    preds, gts = seeded_box_pair(35, 200, 8)
    save_boxes(tmp_path / "preds.txt", preds)
    save_boxes(tmp_path / "gts.txt", gts)
    commands = [
        ["eval", "--preds", "preds.txt", "--gts", "gts.txt"],
        ["campaign", "--tests", "2", "--outdir", "camp"],
    ]
    for argv in commands:
        assert _collections_during(lambda: main(argv)) == [], argv
    capsys.readouterr()


def test_a_paused_campaign_leaves_the_same_garbage_at_any_test_count(
    tmp_path, monkeypatch, capsys, collector
):
    # The pause leaks nothing that grows with the run count: a command's
    # cycles are a fixed few, freed at the first collection after it.
    usable_cpus(monkeypatch, 1)
    argv = ["campaign", "--outdir", "camp", "--tests"]
    assert main(argv + ["1"]) == 0  # imports and first-use caches
    gc.collect()
    gc.disable()
    found = []
    for tests in ("1", "12"):
        assert main(argv + [tests]) == 0
        found.append(gc.collect())
    capsys.readouterr()
    assert found[0] == found[1]


def test_runs_on_one_cell_build_no_reference_cycles(collector):
    cfg = CellConfig()
    cfg.faults = randomized_fault_profile()
    cell = cfg.validate()
    Simulation(cell, seed=0, cycles=1).run()  # imports and the Cell's move memo
    gc.collect()
    gc.disable()
    for seed in range(50):
        Simulation(cell, seed=seed, cycles=1).run()
    assert gc.collect() == 0

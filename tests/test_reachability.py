"""Every function defined in ``src/bagcell`` is reached from the CLI, or named here.

A fresh interpreter sets a ``sys.setprofile`` hook before it imports
``bagcell``, so import-time calls count too. It then runs a fixed list of
``cli.main`` calls: every command, one fault script that reaches every fault
path, usage errors and one malformed file per reader. A function that none
of them calls is production code that only tests use, unless ``ALLOWED``
names it with the benchmark's use that keeps it. The list only shrinks: an
entry whose function is now called, or gone, or not named in any
``perfbench/*.py`` file, fails the test too.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "bagcell"

# (module file, qualified name) -> what the benchmark uses it for, since no
# CLI command calls it. Only the benchmark may keep a function here.
ALLOWED = {
    ("report.py", "TraceRecord.to_line"): "the sweep's fingerprint",
    ("report.py", "read_trace"): "the replay's read-back",
    ("report.py", "scan_violations"): "the replay and sweep audits",
    ("report.py", "audit_interlocks"): "the replay and sweep audits",
    ("report.py", "audit_retry_caps"): "the replay and sweep audits",
    ("scenarios.py", "randomized_fault_profile"): "the sweep's fault profile",
    ("vision.py", "save_boxes"): "writes the eval workload's box files",
}

# Cycle 0 exhausts securing on enclosure 0 and fails every transfer plan of
# slot 1 (so the stack is put back); cycle 1 stalls pusher 3 and exhausts
# bag removal on enclosure 2.
_FAULTS = (
    [{"when": {"action": "secure", "cycle": 0, "enclosure": 0}, "outcome": "fail"}] * 3
    + [{"when": {"action": "plan", "cycle": 0, "slot": 1, "attempt": 1}, "outcome": "ok"}]
    + [{"when": {"action": "plan", "cycle": 0, "slot": 1, "attempt": n}, "outcome": "fail"}
       for n in range(1, 11)]
    + [{"when": {"action": "push", "cycle": 1, "enclosure": 3}, "outcome": "stall"}]
    + [{"when": {"action": "remove", "cycle": 1, "enclosure": 2}, "outcome": "fail"}] * 3
)

# (argv, expected exit code), run in order in one process.
CALLS = [
    (["run", "--cycles", "2", "--fault-script", "faults.json", "--outdir", "run"], 0),
    (["campaign", "--config", str(ROOT / "scenarios" / "stage_rates.json"),
      "--tests", "3", "--table", "csv", "--outdir", "campaign"], 0),
    (["replay", "--outdir", "replay"], 0),
    (["eval", "--preds", "preds.txt", "--gts", "gts.txt"], 0),
    (["dump-config"], 0),
    ([], 1),
    (["run", "--cycles", "0"], 1),
    (["eval", "--preds", "preds.txt"], 1),
    (["run", "--config", "bad.json"], 1),
    (["run", "--fault-script", "bad_script.json"], 1),
    (["eval", "--preds", "bad.txt", "--gts", "gts.txt"], 1),
    (["eval", "--preds", "preds.txt", "--gts", "empty.txt"], 1),
]

_PROGRAM = """
import json, sys
called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(hook)
from bagcell import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
ran = sorted({(c.co_filename, c.co_qualname, c.co_firstlineno) for c in called})
print(json.dumps({"codes": codes, "called": ran}))
"""

_NESTED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def defined_functions(code):
    """(qualified name, first line) of each function and lambda compiled into ``code``."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if const.co_flags & 0x2 and const.co_name not in _NESTED:  # CO_NEWLOCALS
                yield const.co_qualname, const.co_firstlineno
            yield from defined_functions(const)


def test_every_allowed_function_is_named_by_the_benchmark():
    benchmark = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    for _, name in ALLOWED:
        assert re.search(rf"\b{name.rsplit('.', 1)[-1]}\b", benchmark), name


def write_inputs(workdir: Path) -> None:
    (workdir / "faults.json").write_text(json.dumps({"version": 1, "entries": _FAULTS}))
    (workdir / "gts.txt").write_text("0 stack 1.0 100 100 220 240\n1 stack 1.0 300 100 420 240\n")
    (workdir / "preds.txt").write_text(
        "0 stack 0.9 102 101 222 241\n# a comment\n\n1 stack 0.5 900 900 950 950\n"
    )
    (workdir / "empty.txt").write_text("")
    (workdir / "bad.json").write_text("{")
    (workdir / "bad_script.json").write_text('{"version": 1, "entries": [{"when": {}}]}')
    (workdir / "bad.txt").write_text("0 stack\n")


def test_every_function_is_reached_from_the_cli_or_allowed(tmp_path):
    write_inputs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(PKG.parent)}
    env.pop("BAGCELL_OUTDIR", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROGRAM, json.dumps([argv for argv, _ in CALLS])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    ran = json.loads(proc.stdout.splitlines()[-1])
    assert ran["codes"] == [code for _, code in CALLS], proc.stderr
    assert "Traceback" not in proc.stderr
    # The fault script reached every path it names.
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["unconsumed_script_entries"] == 0

    called = {
        (Path(f).name, name, line)
        for f, name, line in ran["called"]
        if Path(f).resolve().parent == PKG
    }
    defined = {
        (path.name, name, line)
        for path in sorted(PKG.glob("*.py"))
        for name, line in defined_functions(compile(path.read_text(), str(path), "exec"))
    }
    assert len(defined) > 150
    unreached = {(module, name) for module, name, _ in defined - called}
    assert sorted(unreached - ALLOWED.keys()) == [], "reached by no CLI call; see ALLOWED"
    assert sorted(ALLOWED.keys() - unreached) == [], "now reached or gone: drop from ALLOWED"
    assert elapsed < 10.0

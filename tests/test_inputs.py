"""Every input path by one rule.

Config, fault-script, box and trace files are read by ``config.read_text``
and parsed by ``config.parse_json``, so an unreadable or non-JSON file gets
the same reason from every reader, each as its own ``MalformedInput``. The
CLI is then fuzzed in process with mutated inputs: it exits 0, 1 or 2 and
never with a traceback.
"""

import json
import sys
from datetime import timedelta

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from bagcell.cli import main
from bagcell.config import CellConfig, ConfigInvalid, MalformedInput
from bagcell.devices import FAULT_PROBS, FaultScript, MalformedFaultScript
from bagcell.report import MalformedTrace, TraceRecord, read_trace
from bagcell.vision import MalformedBoxFile, load_boxes

READERS = {
    "config": (CellConfig.from_file, ConfigInvalid),
    "fault-script": (FaultScript.from_file, MalformedFaultScript),
    "box-file": (load_boxes, MalformedBoxFile),
    "trace": (read_trace, MalformedTrace),
}
JSON_READERS = ("config", "fault-script", "trace")
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# case -> (the file's bytes, or None for no file, or "dir"; the readers it
# applies to; how the reason starts)
CASES = {
    "missing": (None, tuple(READERS), "cannot read: [Errno 2] "),
    "a-dir": ("dir", tuple(READERS), "cannot read: [Errno 21] "),
    "not-utf8": (b"\xff\xfe caf\xe9\n", tuple(READERS), "cannot read: 'utf-8' codec"),
    "bad-json": (b'{"seed": 1,}\n', JSON_READERS, "invalid JSON: Expecting property name"),
    "deep": (b"[" * 100_000 + b"\n", JSON_READERS, "invalid JSON: nested too deeply"),
    # json.loads raises a plain ValueError for an int past Python's digit limit.
    "long-int": (b"[" + b"1" * (_DIGITS + 1) + b"]\n", JSON_READERS, "invalid JSON: Exceeds"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_reader_rejects_bad_input_by_one_rule(tmp_path, case):
    content, readers, starts = CASES[case]
    if case == "long-int" and not _DIGITS:
        pytest.skip("this Python has no integer digit limit")
    path = tmp_path / "input"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    reasons = {}
    for name in readers:
        read, error = READERS[name]
        with pytest.raises(MalformedInput) as info:
            read(path)
        assert type(info.value) is error, name
        assert info.value.path == str(path), name
        reasons[name] = info.value.reason
    assert len(set(reasons.values())) == 1, reasons
    assert reasons[readers[0]].startswith(starts)


# --- one line rule: lines end at "\n", "\r\n" or "\r" and nowhere else ---


def test_a_box_line_holding_a_form_feed_is_one_line(tmp_path, monkeypatch, capsys):
    # str.splitlines would end line 1 at the form feed and name line 2.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ff.txt").write_bytes(b"0 stack 0.9 0 0 10 10\x0c0 stack 0.9 0 0 10\n")
    assert main(["eval", "--preds", "ff.txt", "--gts", "ff.txt"]) == 1
    assert capsys.readouterr().err == "error: ff.txt:1: expected 7 fields, got 13\n"


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_a_box_file_with_other_line_ends_reads_the_same(tmp_path, end):
    lines = [b"0 stack 0.9 0 0 10 10", b"# comment", b"", b"1 bag 0.5 1 2 3 4"]
    unix, other = tmp_path / "unix.txt", tmp_path / "other.txt"
    unix.write_bytes(b"\n".join(lines) + b"\n")
    other.write_bytes(end.join(lines) + end)
    assert load_boxes(other) == load_boxes(unix)
    other.write_bytes(end.join(lines + [b"1 bag 0.5 1 2 3"]) + end)
    with pytest.raises(MalformedBoxFile) as info:
        load_boxes(other)
    assert info.value.line_no == 5


_RECORDS = [TraceRecord(k, float(k), "message", {}).to_line() for k in range(2)]


@pytest.mark.parametrize(
    "text, line_no",
    [
        # A form feed before a record is not JSON whitespace.
        (_RECORDS[0] + "\n\x0c" + _RECORDS[1] + "\n", 2),
        # A line of a form feed alone is blank, and one line.
        (_RECORDS[0] + "\n\x0c\n[1]\n", 3),
    ],
    ids=["before-a-record", "alone"],
)
def test_a_trace_line_holding_a_form_feed_is_named_by_its_line_number(tmp_path, text, line_no):
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    with pytest.raises(MalformedTrace) as info:
        read_trace(path)
    assert info.value.line_no == line_no


def test_a_trace_string_holding_a_line_separator_reads_as_json_loads_reads_it(tmp_path):
    # JSON allows U+2028 and U+0085 raw in a string; the reader must not split there.
    line = json.dumps({"v": 1, "seq": 0, "t": 0.0, "kind": "message",
                       "data": {"note": "a\u2028b\x85c"}}, ensure_ascii=False)
    path = tmp_path / "trace.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert read_trace(path) == [TraceRecord(0, 0.0, "message", {"note": "a\u2028b\x85c"})]


# --- the CLI fuzzed in process ---------------------------------------------

_DEFAULT = CellConfig().to_dict()
_SWAPS = [None, True, "x", 1.5, 7, [], {}]


def _paths(node, at=()):
    """Every key or index path into ``node`` below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, at + (key,))


_CONFIG_PATHS = list(_paths(_DEFAULT))


@st.composite
def mutated_configs(draw):
    """The default config's JSON text with one leaf or node mutated."""
    cfg = json.loads(json.dumps(_DEFAULT))
    at = draw(st.sampled_from(_CONFIG_PATHS))
    parent = cfg
    for key in at[:-1]:
        parent = parent[key]
    key, value = at[-1], parent[at[-1]]
    how = draw(st.sampled_from(["scale", "swap", "delete", "unknown"]))
    if how == "scale" and type(value) in (int, float):
        parent[key] = value * 10 ** draw(st.integers(-6, 6))
    elif how == "delete":
        del parent[key]
    elif how == "unknown" and isinstance(parent, dict):
        parent["not_a_" + key] = value
    else:
        parent[key] = draw(st.sampled_from([s for s in _SWAPS if type(s) is not type(value)]))
    return json.dumps(cfg)


# A value of the wrong type for any field, selector or token.
_JUNK = st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3)


@st.composite
def script_entries(draw):
    """A well-formed fault-script entry, or, one time in eight, one with a part made wrong."""
    keys = draw(st.lists(st.sampled_from(["action", "test", "cycle", "slot", "attempt",
                                          "stack", "enclosure", "zone"]),
                         min_size=1, max_size=3, unique=True))
    when = {key: draw(st.sampled_from(list(FAULT_PROBS)) if key == "action"
                      else st.integers(0, 9)) for key in keys}
    entry = {"when": when, "outcome": draw(st.sampled_from(["ok", "fail", "stall"]))}
    wrong = draw(st.sampled_from(["none"] * 28 + ["outcome", "selector", "key", "when"]))
    if wrong == "outcome":
        entry["outcome"] = draw(_JUNK)
    elif wrong == "selector":
        when[keys[0]] = draw(_JUNK)
    elif wrong == "key":
        when["bogus"] = 1
    elif wrong == "when":
        entry["when"] = draw(_JUNK)
    return entry


_SCRIPTS = st.fixed_dictionaries({
    "version": st.sampled_from([1] * 8 + [2, True]),
    "entries": st.lists(script_entries(), max_size=6),
}).map(json.dumps)

_TOKENS = (
    st.sampled_from(["nan", "inf", "-1", "1e309", "#", "0x10", "1_0", "1.5", ""])
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
)


@st.composite
def box_lines(draw):
    """A well-formed box line, or, one time in eight, one with a field replaced, dropped
    or added."""
    x, y = draw(st.integers(0, 600)), draw(st.integers(0, 600))
    tokens = [str(draw(st.integers(0, 3))), draw(st.sampled_from(["stack", "bag"])),
              repr(draw(st.floats(0, 1))), str(x), str(y),
              str(x + draw(st.integers(0, 200))), str(y + draw(st.integers(0, 200)))]
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at + 1] = draw(st.lists(_TOKENS, max_size=2))
    return " ".join(tokens)


_BOX_FILES = st.lists(box_lines(), max_size=8).map("\n".join)

_CASES = st.one_of(
    st.tuples(st.just("config"), mutated_configs()),
    st.tuples(st.just("fault-script"), _SCRIPTS),
    st.tuples(st.just("boxes"), st.tuples(_BOX_FILES, _BOX_FILES)),
)
# The legal detection spin at the cap: 1000 attempts of 8 missed boxes, all at
# one simulated instant.
_SPIN = json.dumps({
    "orchestrator": {"detect_attempts": 1000, "pacing": {"detect_service_s": 0.0}},
    "faults": {"detection_miss_prob": 1.0},
})


@settings(max_examples=150, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@example(("config", _SPIN))
@example(("config", '{"seed": ' + "1" * (_DIGITS + 1) + "}"))
@given(case=_CASES)
def test_cli_survives_mutated_inputs(tmp_path, capsys, case):
    kind, text = case
    if kind == "boxes":
        argv = ["eval"]
        for flag, name, content in zip(("--preds", "--gts"), ("preds.txt", "gts.txt"), text):
            (tmp_path / name).write_text(content, encoding="utf-8")
            argv += [flag, str(tmp_path / name)]
    else:
        path = tmp_path / "input.json"
        path.write_text(text, encoding="utf-8")
        flag = "--config" if kind == "config" else "--fault-script"
        argv = ["run", "--cycles", "1", flag, str(path), "--outdir", str(tmp_path / "out")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err

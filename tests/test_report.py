import json
import math
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from bagcell.report import (
    MalformedTrace,
    RunReport,
    TraceRecord,
    Tracer,
    audit_interlocks,
    audit_retry_caps,
    config_digest,
    read_trace,
    render_table,
    scan_violations,
    summarize_campaign,
    summarize_run,
    write_trace,
)


def make_run(i, detected=8, picked=8, placed=8, duration_s=480.0):
    return RunReport(
        test_index=i,
        seed=1000 + i,
        cycles=1,
        stacks_offered=8,
        detected=detected,
        picked=picked,
        placed=placed,
        delivered=placed,
        failed_unhandled=8 - placed,
        duration_s=duration_s,
    )


# --- tracer and trace files ----------------------------------------------


def test_tracer_assigns_contiguous_seqs():
    tracer = Tracer()
    tracer.record("message", 0.0, {"topic": "drop"})
    tracer.record("message", 1.5, {"topic": "fault"})
    assert [r.seq for r in tracer.records] == [0, 1]


def test_tracer_rejects_time_regression():
    tracer = Tracer()
    tracer.record("message", 5.0, {})
    with pytest.raises(ValueError):
        tracer.record("message", 4.0, {})


def test_trace_round_trip(tmp_path):
    tracer = Tracer()
    for i in range(50):
        tracer.record("device_cmd", float(i), {"device": f"d{i}", "op": "extend"})
    path = tmp_path / "trace.jsonl"
    write_trace(path, tracer.records)
    back = read_trace(path)
    assert back == tracer.records


def test_trace_write_is_byte_stable(tmp_path):
    tracer = Tracer()
    tracer.record("message", 0.123456789123, {"b": 2, "a": 1})
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(p1, tracer.records)
    write_trace(p2, tracer.records)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_trace_line_reports_position(tmp_path):
    tracer = Tracer()
    tracer.record("message", 0.0, {})
    tracer.record("message", 1.0, {})
    path = tmp_path / "trace.jsonl"
    write_trace(path, tracer.records)
    text = path.read_text().splitlines()
    path.write_text(text[0] + "\n" + text[1][: len(text[1]) // 2] + "\n")
    with pytest.raises(MalformedTrace) as info:
        read_trace(path)
    assert info.value.line_no == 2


def test_record_split_across_lines_is_named_at_its_first_line(tmp_path):
    # Line 2 carries the rest of record 0 and then all of record 1, so the file
    # has as many lines as records and parses as one JSON array once the lines
    # are joined with commas; only a line-by-line reading sees the split.
    first = TraceRecord(0, 0.0, "message", {}).to_line()
    second = TraceRecord(1, 1.0, "message", {}).to_line()
    cut = first.index(',"kind"')
    path = tmp_path / "trace.jsonl"
    path.write_text(first[:cut] + "\n" + first[cut + 1 :] + "," + second + "\n")
    joined = "[" + ",".join(path.read_text().splitlines()) + "]"
    assert json.loads(joined) == [json.loads(first), json.loads(second)]
    with pytest.raises(MalformedTrace) as info:
        read_trace(path)
    assert info.value.line_no == 1


def test_trace_validation_catches_gaps_and_regressions(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = TraceRecord(0, 0.0, "message", {}).to_line()
    skipped = TraceRecord(2, 1.0, "message", {}).to_line()
    path.write_text(good + "\n" + skipped + "\n")
    with pytest.raises(MalformedTrace):
        read_trace(path)
    backwards = TraceRecord(1, -5.0, "message", {}).to_line()
    path.write_text(good + "\n" + backwards + "\n")
    with pytest.raises(MalformedTrace):
        read_trace(path)
    path.write_text('{"v": 99, "seq": 0, "t": 0, "kind": "x", "data": {}}\n')
    with pytest.raises(MalformedTrace):
        read_trace(path)


def test_trace_line_that_is_not_an_object_is_malformed(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(TraceRecord(0, 0.0, "message", {}).to_line() + "\n[1]\n")
    with pytest.raises(MalformedTrace, match="not a JSON object") as info:
        read_trace(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "fields, reason",
    [
        ('"v": 1, "seq": 1, "t": 0.0, "kind": "device_cmd", "data": 1', "'data' is not dict"),
        ('"v": 1, "seq": 1, "t": 0.0, "kind": 7, "data": {}', "'kind' is not str"),
        ('"v": 1, "seq": false, "t": 0.0, "kind": "x", "data": {}', "'seq' is not int"),
        ('"v": true, "seq": false, "t": 0.0, "kind": "x", "data": {}', "unsupported version"),
        ('"v": 1, "t": 0.0, "kind": "x", "data": {}', "missing field 'seq'"),
        ('"v": 1, "seq": 1, "kind": "x", "data": {}', "missing field 't'"),
        ('"v": 1, "seq": 1, "t": 0.0, "data": {}', "missing field 'kind'"),
        ('"v": 1, "seq": 1, "t": 0.0, "kind": "x"', "missing field 'data'"),
    ],
    ids=["data", "kind", "seq", "version", "no-seq", "no-t", "no-kind", "no-data"],
)
def test_trace_field_of_the_wrong_type_is_malformed(tmp_path, fields, reason):
    # A bool is not an int, though True == 1 and False == 0.
    path = tmp_path / "trace.jsonl"
    path.write_text(TraceRecord(0, 0.0, "message", {}).to_line() + "\n{" + fields + "}\n")
    with pytest.raises(MalformedTrace, match=reason) as info:
        read_trace(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "kind, data, reason",
    [
        ("device_cmd", '{"device":1,"op":"extend"}', "device_cmd field 'device' is not str"),
        ("outcome", '{"kind":"picked"}', "outcome is missing field 'stack'"),
        ("stack", '{"stack":true,"state":"picked"}', "stack field 'stack' is not int"),
        ("phase", '{"phase":"cutting"}', "phase is missing field 'edge'"),
        ("fault_decision", '{"action":"pick","outcome":"ok","attempt":"2"}',
         "fault_decision field 'attempt' is not int"),
        ("device_event", '{"device":["door"],"event":"done"}',
         "device_event field 'device' is not str"),
        ("note", '{"text":"session_done"}', "note is missing field 'cycles'"),
    ],
    ids=["cmd-device", "outcome-stack", "bool-stack", "phase-edge", "attempt",
         "event-device", "session_done"],
)
def test_trace_payload_field_a_reader_needs_is_checked(tmp_path, kind, data, reason):
    # The first two crashed audit_interlocks and summarize_run before payloads were checked.
    path = tmp_path / "trace.jsonl"
    path.write_text(f'{{"v":1,"seq":0,"t":0.0,"kind":"{kind}","data":{data}}}\n')
    with pytest.raises(MalformedTrace, match=reason) as info:
        read_trace(path)
    assert info.value.line_no == 1


def test_trace_payload_optional_fields_may_be_absent(tmp_path):
    records = [
        TraceRecord(0, 0.0, "device_cmd", {}),
        TraceRecord(1, 0.0, "fault_decision", {"action": "pick", "outcome": "ok"}),
        TraceRecord(2, 0.0, "note", {"text": "bag_stuck"}),
        TraceRecord(3, 0.0, "message", {}),
        TraceRecord(4, 0.0, "custom", {"device": 1}),
    ]
    path = tmp_path / "trace.jsonl"
    write_trace(path, records)
    back = read_trace(path)
    assert back == records
    assert audit_interlocks(back) == [] and audit_retry_caps(back, {"pick": 1}) == []
    assert summarize_run(back, 0, 0, 1.0).cycles == 0


def test_trace_timestamp_that_is_not_a_number_is_malformed(tmp_path):
    path = tmp_path / "trace.jsonl"
    for t in ('"x"', "true", "null", "[0]"):
        path.write_text(f'{{"v": 1, "seq": 0, "t": {t}, "kind": "x", "data": {{}}}}\n')
        with pytest.raises(MalformedTrace, match="timestamp is not a number") as info:
            read_trace(path)
        assert info.value.line_no == 1


@pytest.mark.parametrize(
    "t, shown",
    [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1" + "0" * 400, "1" + "0" * 400)],
    ids=["nan", "inf", "-inf", "int-past-float"],
)
def test_trace_timestamp_that_is_not_finite_is_malformed(tmp_path, t, shown):
    # A NaN compares false both ways, so it would switch off the regression
    # check for the line after it.
    path = tmp_path / "trace.jsonl"
    lines = [f'{{"v": 1, "seq": {i}, "t": {ti}, "kind": "x", "data": {{}}}}'
             for i, ti in enumerate(["5.0", t, "1.0"])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedTrace, match=f"timestamp is not a finite number: {shown}$") as info:
        read_trace(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize("name", ["a_dir", "latin1.jsonl", "missing.jsonl"])
def test_unreadable_trace_path_is_malformed(tmp_path, name):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "latin1.jsonl").write_bytes(b"\xff\xfe caf\xe9\n")  # not UTF-8 text
    path = tmp_path / name
    with pytest.raises(MalformedTrace, match="cannot read") as info:
        read_trace(path)
    assert info.value.path == str(path)
    assert info.value.line_no is None


def reference_line(rec):
    """A trace line as json.dumps writes the envelope."""
    envelope = {"v": 1, "seq": rec.seq, "t": round(rec.time, 9), "kind": rec.kind,
                "data": rec.data}
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_PAYLOADS = st.dictionaries(
    st.text(),
    st.recursive(
        _LEAVES,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=10,
    ),
    max_size=4,
)
_EDGE_TIMES = [0, 1, 0.0, -0.0, 1.0, 1e-10, 5e-10, 0.123456789123, 1e300, -1e300,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
_TIMES = st.integers() | st.floats() | st.sampled_from(_EDGE_TIMES)


@given(seq=st.integers(min_value=0), time=_TIMES, kind=st.text(), data=_PAYLOADS)
def test_trace_line_is_byte_equal_to_json_dumps(seq, time, kind, data):
    rec = TraceRecord(seq, time, kind, data)
    assert rec.to_line() == reference_line(rec)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(times=st.lists(st.sampled_from(_EDGE_TIMES), max_size=12), data=_PAYLOADS)
def test_written_trace_is_byte_equal_to_json_dumps(tmp_path, times, data):
    # Neighbouring equal times of another type or sign (0 and 0.0, 0.0 and
    # -0.0) must not share the text the first of them was written with.
    records = [TraceRecord(i, t, "message", data) for i, t in enumerate(times)]
    path = tmp_path / "trace.jsonl"
    write_trace(path, records)
    assert path.read_text() == "".join(reference_line(r) + "\n" for r in records)


@pytest.mark.parametrize("data", [{"a": object()}, {"a": {1, 2}}, {1: "a", "b": 2}],
                         ids=["object", "set", "mixed-keys"])
def test_payload_json_cannot_encode_raises_type_error(tmp_path, data):
    rec = TraceRecord(0, 0.0, "message", data)
    with pytest.raises(TypeError):
        rec.to_line()
    with pytest.raises(TypeError):
        write_trace(tmp_path / "trace.jsonl", [rec])


def loads_reason(line):
    """The reason json.loads gives for rejecting ``line``."""
    with pytest.raises(json.JSONDecodeError) as info:
        json.loads(line)
    return f"invalid JSON: {info.value}"


_REC0 = TraceRecord(0, 0.0, "message", {"topic": "drop"})
_REC1 = TraceRecord(1, 0.5, "note", {"text": "bag_stuck"})
_LINE0, _LINE1 = _REC0.to_line(), _REC1.to_line()


@pytest.mark.parametrize(
    "lines, expected",
    [
        ([" " + _LINE0 + "\t", "  " + _LINE1 + "  "], [_REC0, _REC1]),
        (["\ufeff" + _LINE0], (1, loads_reason("\ufeff" + _LINE0))),
        ([_LINE0, _LINE1 + " junk"], (2, loads_reason(_LINE1 + " junk"))),
        ([_LINE0, _LINE1 + _LINE1], (2, loads_reason(_LINE1 + _LINE1))),
        ([_LINE0, "{}"], (2, "unsupported version None")),
        (["", _LINE0, " \t ", _LINE1], [_REC0, _REC1]),
    ],
    ids=["padded", "bom", "extra-data", "two-objects", "empty-object", "blank-lines"],
)
def test_trace_line_reads_as_json_loads_reads_it(tmp_path, lines, expected):
    # The scanner reads a line on its own only when it parses to the line's
    # end; every other line gets json.loads' verdict and reason.
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if isinstance(expected, list):
        assert read_trace(path) == expected
        return
    line_no, reason = expected
    with pytest.raises(MalformedTrace) as info:
        read_trace(path)
    assert (info.value.line_no, str(info.value)) == (line_no, f"{path}:{line_no}: {reason}")


def test_deeply_nested_trace_line_is_malformed(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(_LINE0 + "\n" + "[" * 100_000 + "\n")
    with pytest.raises(MalformedTrace, match="invalid JSON: nested too deeply") as info:
        read_trace(path)
    assert info.value.line_no == 2


def test_large_trace_round_trip_is_fast(tmp_path):
    tracer = Tracer()
    for i in range(100_000):
        tracer.record("message", i * 0.01, {"i": i})
    path = tmp_path / "big.jsonl"
    start = time.perf_counter()
    write_trace(path, tracer.records)
    back = read_trace(path)
    elapsed = time.perf_counter() - start
    assert len(back) == 100_000
    assert back[-1] == tracer.records[-1]
    assert elapsed < 2.0


# --- run summaries --------------------------------------------------------


def test_run_summary_reads_each_field_off_the_trace():
    tracer = Tracer()
    for kind, time, data in [
        ("phase", 1.0, {"phase": "cutting", "edge": "start"}),
        ("outcome", 1.0, {"kind": "detected", "stack": 4, "enclosure": None}),
        ("outcome", 1.0, {"kind": "detected", "stack": 4, "enclosure": None}),
        ("outcome", 1.0, {"kind": "detect_failed", "stack": 5, "enclosure": None}),
        ("outcome", 1.0, {"kind": "picked", "stack": -1, "enclosure": None}),
        ("stack", 2.0, {"stack": 4, "state": "failed_unhandled", "enclosure": None}),
        ("stack", 2.0, {"stack": 5, "state": "failed_unhandled", "enclosure": None}),
        ("stack", 3.0, {"stack": 5, "state": "delivered", "enclosure": None}),
        ("fault_decision", 3.0, {"action": "push", "outcome": "stall"}),
        ("fault_decision", 3.0, {"action": "push", "outcome": "ok"}),
        ("fault_decision", 3.0, {"action": "pick", "outcome": "fail"}),
        ("violation", 3.0, {"code": "x", "detail": ""}),
        ("phase", 4.0, {"phase": "cutting", "edge": "end"}),
        ("phase", 4.0, {"phase": "removal", "edge": "end"}),  # never started: ignored
        ("message", 5.0, {"topic": "cycle_finished", "seq": 0, "payload": {}}),
        ("phase", 5.0, {"phase": "cutting", "edge": "start"}),
        ("phase", 6.0, {"phase": "cutting", "edge": "end"}),
        ("phase", 6.5, {"phase": "cutting", "edge": "end"}),  # its start is spent: ignored
    ]:
        tracer.record(kind, time, data)
    report = summarize_run(tracer.records, test_index=3, seed=9, end_s=7.5)
    assert (report.test_index, report.seed, report.cycles) == (3, 9, 1)
    assert (report.stacks_offered, report.detected, report.picked) == (2, 1, 0)
    assert (report.failed_unhandled, report.violations, report.pusher_stalls) == (1, 1, 1)
    assert report.phase_durations_s == {"cutting": 2.0}
    assert report.duration_s == 7.5  # no session_done note: the final clock
    tracer.record("note", 8.0, {"text": "session_done", "cycles": 2})
    report = summarize_run(tracer.records, test_index=3, seed=9, end_s=9.0)
    assert (report.cycles, report.duration_s) == (2, 8.0)


# --- campaign summaries ---------------------------------------------------


def test_summarize_requires_runs():
    with pytest.raises(ValueError):
        summarize_campaign([], seed=0, digest="x")


def test_single_perfect_run_rates():
    rep = summarize_campaign([make_run(0)], seed=0, digest="x")
    assert rep.detected_rate_pct == 100.0
    assert rep.picked_rate_pct == 100.0
    assert rep.placed_rate_pct == 100.0
    assert rep.mean_duration_min == pytest.approx(8.0)


def test_means_match_hand_arithmetic():
    runs = [make_run(0, 8, 7, 5), make_run(1, 7, 5, 5), make_run(2, 6, 6, 6)]
    rep = summarize_campaign(runs, seed=0, digest="x")
    assert rep.mean_detected == pytest.approx((8 + 7 + 6) / 3)
    assert rep.detected_rate_pct == pytest.approx(100.0 * 21 / 24)
    assert rep.placed_rate_pct == pytest.approx(100.0 * 16 / 24)


def test_render_csv_recomputes_to_reported_means():
    runs = [make_run(i, 8 - (i % 2), 7, 6, duration_s=500.0 + i) for i in range(4)]
    rep = summarize_campaign(runs, seed=0, digest="x")
    csv = render_table(rep, "csv")
    lines = csv.strip().splitlines()
    assert lines[0].split(",") == ["Test", "Detected", "Picked", "Placed", "Time (min)"]
    body = [line.split(",") for line in lines[1:-2]]
    mean_row = lines[-2].split(",")
    assert mean_row[0] == "Mean"
    recomputed = sum(int(row[1]) for row in body) / len(body)
    assert float(mean_row[1]) == pytest.approx(recomputed, abs=1e-9)
    rate_row = lines[-1].split(",")
    assert rate_row[0] == "Rate (%)"
    assert float(rate_row[2]) == pytest.approx(rep.picked_rate_pct, abs=0.005)


def test_render_markdown_and_determinism():
    rep = summarize_campaign([make_run(0)], seed=0, digest="x")
    md1 = render_table(rep, "markdown")
    md2 = render_table(rep, "markdown")
    assert md1 == md2
    assert md1.startswith("| Test |")
    with pytest.raises(ValueError):
        render_table(rep, "latex")


def test_config_digest_is_stable_and_short():
    assert config_digest("{}") == config_digest("{}")
    assert config_digest("{}") != config_digest('{"a": 1}')
    assert len(config_digest("{}")) == 16


def test_run_report_to_dict_rounds_floats():
    run = make_run(0, duration_s=123.4567891234)
    d = run.to_dict()
    assert d["duration_s"] == 123.456789
    assert run.duration_min == pytest.approx(123.4567891234 / 60.0)


# --- trace audits ---------------------------------------------------------


def rec(seq, t, kind, **data):
    return TraceRecord(seq=seq, time=t, kind=kind, data=data)


def test_audit_interlocks_accepts_correct_ordering():
    records = [
        rec(i, float(i), "device_event", device=f"bottom_{i}", event="secured")
        for i in range(8)
    ]
    records += [
        rec(8, 8.0, "device_cmd", device="cutter", op="extend"),
        rec(9, 9.0, "device_cmd", device="door", op="extend"),
        rec(10, 10.0, "device_event", device="door", event="done", op="extend"),
        rec(11, 11.0, "device_cmd", device="pusher_0", op="extend"),
    ]
    assert audit_interlocks(records) == []


def test_audit_interlocks_flags_premature_cutter():
    records = [
        rec(i, float(i), "device_event", device=f"bottom_{i}", event="secured")
        for i in range(7)
    ]
    records.append(rec(7, 7.0, "device_cmd", device="cutter", op="extend"))
    problems = audit_interlocks(records)
    assert len(problems) == 1 and "7/8" in problems[0]


def test_audit_interlocks_flags_pusher_with_door_closed():
    records = [rec(0, 0.0, "device_cmd", device="pusher_2", op="extend")]
    problems = audit_interlocks(records)
    assert len(problems) == 1 and "pusher_2" in problems[0]


def test_audit_interlocks_treats_moving_door_as_closed():
    records = [
        rec(0, 0.0, "device_cmd", device="door", op="extend"),
        rec(1, 1.0, "device_cmd", device="pusher_0", op="extend"),
    ]
    assert len(audit_interlocks(records)) == 1


def test_audit_retry_caps():
    records = [
        rec(0, 0.0, "fault_decision", action="pick", slot=0, attempt=3),
        rec(1, 1.0, "fault_decision", action="pick", slot=1, attempt=1),
    ]
    assert audit_retry_caps(records, {"pick": 3}) == []
    records.append(rec(2, 2.0, "fault_decision", action="pick", slot=0, attempt=4))
    problems = audit_retry_caps(records, {"pick": 3})
    assert len(problems) == 1 and "exceeds cap" in problems[0]
    # Unknown actions are out of scope for the cap audit.
    assert audit_retry_caps(records, {"place": 3}) == []


def test_scan_violations_filters_by_kind():
    records = [
        rec(0, 0.0, "message", topic="drop"),
        rec(1, 1.0, "violation", code="multiple_held"),
    ]
    found = scan_violations(records)
    assert len(found) == 1 and found[0].data["code"] == "multiple_held"

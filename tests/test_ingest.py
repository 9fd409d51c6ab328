import logging
import math
import time

import pytest

from tensorsplice import (
    BadTimestamp,
    Block,
    ConfigError,
    IngestConfig,
    MalformedLine,
    ModeDictionary,
    NegativeValue,
    StepOutput,
    emit_step_output,
    parse_tuples,
)
from tensorsplice.ingest import MAX_GAP_BINS


def csv_cfg(**overrides) -> IngestConfig:
    base = dict(mode_cols=(0, 1), time_col=2, stride=50, delimiter=",")
    base.update(overrides)
    return IngestConfig(**base)


def parse_all(lines, cfg):
    dicts = ModeDictionary.for_config(cfg)
    return list(parse_tuples(iter(lines), cfg, dicts)), dicts


class TestParsing:
    def test_first_tuple_sets_origin(self):
        events, _ = parse_all(["u1,i9,100,3"], csv_cfg(value_col=3))
        assert events[0].ids == (0, 0, 0)
        assert events[0].value == 3

    def test_missing_value_column_defaults_to_one(self):
        events, _ = parse_all(["u1,i9,149"], csv_cfg())
        assert events[0].value == 1

    def test_binning_and_dictionary_reuse(self):
        events, dicts = parse_all(
            ["u1,i9,100", "u2,i9,150"], csv_cfg()
        )
        assert events[0].ids == (0, 0, 0)
        assert events[1].ids == (1, 0, 1)  # new user, seen item, next bin
        assert dicts.decode(0, 1) == "u2"

    def test_bin_boundaries(self):
        lines = ["a,b,100", "a,b,149", "a,b,150", "a,b,199", "a,b,200"]
        events, _ = parse_all(lines, csv_cfg())
        assert [e.ids[-1] for e in events] == [0, 0, 1, 1, 2]

    def test_default_origin_floors_to_the_stride(self):
        # Origin 100, not 130: 160 starts the next bin of the stride grid.
        events, _ = parse_all(["a,b,130", "a,b,149", "a,b,160"], csv_cfg())
        assert [e.ids[-1] for e in events] == [0, 0, 1]
        events, _ = parse_all(["a,b,0.75", "a,b,1.0"], csv_cfg(stride=0.5))
        assert [e.ids[-1] for e in events] == [0, 1]

    def test_explicit_origin_override(self):
        events, _ = parse_all(["a,b,100"], csv_cfg(t0=0))
        assert events[0].ids[-1] == 2

    def test_time_before_origin_rejected(self):
        with pytest.raises(BadTimestamp):
            parse_all(["a,b,100", "a,b,99"], csv_cfg())

    def test_offset_of_2_pow_53_bins_rejected(self):
        # From 2**53 on, a float quotient cannot tell neighbouring bins apart.
        # A binned column is a mode, not a step, so no gap bound applies to it.
        events, _ = parse_all([f"a,b,0,{2**53 - 1}"], csv_cfg(stride=1, t0=0, binned_cols=(3,)))
        assert events[0].ids[2] == 2**53 - 1
        for line, cfg in ((f"a,b,{2**53}", csv_cfg(stride=1, t0=0)),
                          ("a,b,5", csv_cfg(stride=1e-300, t0=0))):
            with pytest.raises(BadTimestamp) as info:
                parse_all(["a,b,0", line], cfg)
            assert str(info.value).startswith("line 2: ")
            assert "too far from the stream origin" in str(info.value)

    def test_gap_past_max_gap_bins_rejected(self):
        # The first kept line's gap counts from bin 0; a zero-valued line is
        # not kept, so its gap is no error.
        lines = ["a,b,0,0", "a,b,100,1", f"a,b,{MAX_GAP_BINS + 100},1",
                 f"a,b,{2 * MAX_GAP_BINS + 101},1", f"a,b,{10**9},0"]
        with pytest.raises(BadTimestamp) as info:
            parse_all(lines, csv_cfg(stride=1, t0=0, value_col=3))
        assert str(info.value) == (
            f"line 4: timestamp '{2 * MAX_GAP_BINS + 101}' lies {MAX_GAP_BINS + 1} bins past "
            f"bin {MAX_GAP_BINS + 100}; a gap of more than {MAX_GAP_BINS} bins is not stepped through"
        )
        events, _ = parse_all(lines, csv_cfg(stride=1, t0=0, value_col=3, on_error="skip"))
        assert [e.ids[-1] for e in events] == [100, MAX_GAP_BINS + 100]
        with pytest.raises(BadTimestamp, match="line 1: .* lies 10000001 bins past bin 0;"):
            parse_all([f"a,b,{MAX_GAP_BINS + 1}"], csv_cfg(stride=1, t0=0))

    def test_zero_value_dropped(self):
        events, _ = parse_all(["a,b,100,0", "a,b,120,2"], csv_cfg(value_col=3))
        assert len(events) == 1 and events[0].value == 2

    def test_negative_value_rejected_with_line_number(self):
        with pytest.raises(NegativeValue) as info:
            parse_all(["a,b,100,1", "a,b,120,-2"], csv_cfg(value_col=3))
        assert info.value.lineno == 2

    def test_short_line_rejected(self):
        with pytest.raises(MalformedLine):
            parse_all(["a,b"], csv_cfg())

    def test_bad_timestamp_rejected(self):
        with pytest.raises(BadTimestamp):
            parse_all(["a,b,noon"], csv_cfg())

    def test_skip_policy_keeps_going(self, caplog):
        lines = [
            "a,b,100,1", "broken", "c,d,160,-1", "e,f,170,2",
            "g,h,180,nan", "g,h,180,inf", "g,h,nan,1", "g,h,-inf,1",
        ]
        with caplog.at_level(logging.WARNING):
            events, _ = parse_all(lines, csv_cfg(value_col=3, on_error="skip"))
        assert len(events) == 2
        for lineno in range(2, 9):
            if lineno != 4:
                assert f"line {lineno}:" in caplog.text

    def test_extra_columns_ignored(self):
        events, _ = parse_all(["a,b,100,junk,more"], csv_cfg())
        assert len(events) == 1

    def test_header_skipped(self):
        events, _ = parse_all(["user,item,time", "a,b,100"], csv_cfg(has_header=True))
        assert len(events) == 1

    def test_iso_timestamps(self):
        cfg = csv_cfg(stride=3600, time_format="iso")
        lines = ["a,b,2024-01-01T00:00:00", "a,b,2024-01-01T01:30:00"]
        events, _ = parse_all(lines, cfg)
        assert [e.ids[-1] for e in events] == [0, 1]

    def test_iso_timestamps_without_offset_read_as_utc(self, monkeypatch):
        # Read as New York time, the second line would fall on the next UTC day.
        cfg = csv_cfg(stride=86400, time_format="iso")
        lines = ["a,b,2024-01-01T00:00:00", "a,c,2024-01-01T22:00:00"]
        monkeypatch.setenv("TZ", "America/New_York")
        time.tzset()
        try:
            events, _ = parse_all(lines, cfg)
        finally:
            monkeypatch.undo()
            time.tzset()
        assert [e.ids[-1] for e in events] == [0, 0]

    # One grammar on every Python: what 3.11's fromisoformat reads beyond
    # it (basic format, week dates, one fraction digit) is bad input, and a
    # trailing Z reads as UTC although 3.10's fromisoformat rejects it.
    @pytest.mark.parametrize("raw, epoch", [
        ("2024-01-01", 1704067200),
        ("2024-01-01T10:00", 1704103200),
        ("2024-01-01 10:00:05", 1704103205),
        ("2024-01-01T10:00:05.250", 1704103205.25),
        ("2024-01-01T10:00:05.250000", 1704103205.25),
        ("2024-01-01T10:00:05Z", 1704103205),
        ("2024-01-01T10:00:05+01:00", 1704099605),
        ("2024-01-01T10:00-05:30", 1704123000),
    ])
    def test_iso_grammar_accepts(self, raw, epoch):
        # The first line sets the default origin, 2024-01-01T00:00:00Z.
        events, _ = parse_all(["a,b,2024-01-01T00:00:00Z", f"a,b,{raw}"],
                              csv_cfg(stride=1, time_format="iso"))
        assert events[1].ids[-1] == int(epoch) - 1704067200

    @pytest.mark.parametrize("raw", [
        "2024-01-01T00:00:00.5", "20240101T000000", "2024-W01-1", "2024-001",
        "2024-01-01Z", "2024-01-01T00:00:00+0100", "2024-01-01T00:00:00+01:00:00",
        "2024-01-01T00:00:00.1234", "2024-01-01T00", "2024-01-01x00:00",
        "\uff12\uff10\uff12\uff14-01-01", "2024-13-01", "2024-01-01T24:00",
        "2024-01-01T00:00+24:00", "2024-01-01T00:00:00z",
    ])
    def test_iso_grammar_rejects_with_line_number(self, raw):
        with pytest.raises(BadTimestamp) as info:
            parse_all(["a,b,2024-01-01", f"a,b,{raw}"], csv_cfg(time_format="iso"))
        assert str(info.value) == f"line 2: not an ISO-8601 timestamp: {raw!r}"

    def test_float_values_supported(self):
        events, _ = parse_all(["a,b,100,0.5"], csv_cfg(value_col=3))
        assert events[0].value == 0.5

    def test_extra_binned_column_becomes_mode(self):
        cfg = csv_cfg(binned_cols=(3,))
        lines = ["a,b,100,160", "c,b,120,100"]
        events, _ = parse_all(lines, cfg)
        assert events[0].ids == (0, 0, 1, 0)  # uninstall bin then install bin
        assert events[1].ids == (1, 0, 0, 0)


class TestConfigValidation:
    def test_time_col_collision(self):
        with pytest.raises(ConfigError):
            IngestConfig(mode_cols=(0, 2), time_col=2, stride=1)

    @pytest.mark.parametrize(
        "cols",
        [
            dict(mode_cols=(0, 1), time_col=-1),
            dict(mode_cols=(0, -3), time_col=2),
            dict(mode_cols=(0, 1), time_col=2, binned_cols=(-1,)),
            dict(mode_cols=(0, 1), time_col=2, value_col=-2),
            dict(mode_cols=(0, 0), time_col=2),
            dict(mode_cols=(0, 1), time_col=2, binned_cols=(1,)),
            dict(mode_cols=(0, 1), time_col=2, value_col=1),
            dict(mode_cols=(0, 1), time_col=2, value_col=2),
            dict(mode_cols=(0, 1), time_col=2, binned_cols=(3,), value_col=3),
        ],
    )
    def test_negative_or_shared_column_rejected(self, cols):
        with pytest.raises(ConfigError):
            IngestConfig(stride=1, **cols)

    def test_bad_stride(self):
        for stride in (0, -1, math.inf, math.nan):
            with pytest.raises(ConfigError):
                IngestConfig(mode_cols=(0, 1), time_col=2, stride=stride)
        for t0 in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError):
                IngestConfig(mode_cols=(0, 1), time_col=2, stride=1, t0=t0)

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            IngestConfig(mode_cols=(0, 1), time_col=2, stride=1, on_error="ignore")


class TestModeDictionary:
    def test_round_trip_identity(self):
        cfg = csv_cfg()
        dicts = ModeDictionary.for_config(cfg)
        raws = ["x", "y", "x", "z"]
        ids = [dicts.encode(0, raw) for raw in raws]
        assert ids == [0, 1, 0, 2]
        assert [dicts.decode(0, i) for i in ids] == raws

    def test_time_mode_is_identity(self):
        dicts = ModeDictionary.for_config(csv_cfg())
        assert dicts.decode(2, 7) == 7

    def test_binned_mode_decodes_to_its_bin(self):
        events, dicts = parse_all(["u1,i9,100,260"], csv_cfg(binned_cols=(3,), t0=0))
        assert events[0].ids == (0, 0, 5, 2)
        assert [dicts.decode(m, idx) for m, idx in enumerate(events[0].ids)] == ["u1", "i9", 5, 2]


class TestEmit:
    def _dicts(self):
        cfg = csv_cfg()
        dicts = ModeDictionary.for_config(cfg)
        dicts.encode(0, "u1")
        dicts.encode(0, "u2")
        dicts.encode(1, "i9")
        return dicts

    def test_empty_step(self):
        out = StepOutput((0, 1), [], {"detect": 0.0, "splice": 0.0})
        line = emit_step_output(out, self._dicts())
        assert line == '{"schema":"tensorsplice/1","step":0,"time_range":[0,1],"blocks":[]}'

    def test_block_translated_back(self):
        block = Block(3, {(0, 0, 0): 2, (1, 0, 0): 4})
        out = StepOutput((3, 4), [block], {"detect": 0.0, "splice": 0.0})
        line = emit_step_output(out, self._dicts())
        assert '"step":3,"time_range":[3,4]' in line
        assert '"modes":[["u1","u2"],["i9"],[0]]' in line
        assert '"mass":6' in line and '"size":4' in line
        assert '"density":1.5' in line

    def test_density_limited_to_12_digits(self):
        block = Block(3, {(0, 0, 0): 1, (1, 0, 0): 1})  # density 0.5... size 4
        out = StepOutput((0, 1), [block], {})
        assert '"density":0.5' in emit_step_output(out, self._dicts())
        third = Block(3, {(0, 0, 0): 1})  # density 1/3
        out = StepOutput((0, 1), [third], {})
        assert '"density":0.333333333333' in emit_step_output(out, self._dicts())

    def test_byte_stable(self):
        block = Block(3, {(1, 0, 0): 4, (0, 0, 0): 2})
        out = StepOutput((1, 2), [block], {"detect": 0.123, "splice": 0.456})
        dicts = self._dicts()
        assert emit_step_output(out, dicts) == emit_step_output(out, dicts)

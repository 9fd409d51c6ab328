import json
import math
from collections import Counter

import pytest

from tensorsplice import (
    Block,
    DensityInfeasible,
    IngestConfig,
    ModeDictionary,
    StepOutput,
    parse_tuples,
)
from tensorsplice.synth import (
    InjectedTruth,
    InjectionSpec,
    _t95,
    fit_loglog,
    generate_stream,
    rerun_scaling_run,
    scaling_run,
    score,
)


def tiny_spec(**overrides) -> InjectionSpec:
    base = dict(
        block_shape=(2, 2),
        density=1.0,
        span_bins=1,
        n_bins=3,
        background_tuples=30,
        background_shape=(10, 8),
        seed=5,
        stride=100,
    )
    base.update(overrides)
    return InjectionSpec(**base)


class TestGenerator:
    def test_full_density_plants_every_cell(self):
        spec = tiny_spec()
        assert spec.injected_nnz == 4
        lines, truth = generate_stream(spec)
        assert len(lines) == 34
        assert sorted(truth.mode_ids[0]) == ["u10", "u11"]
        assert sorted(truth.mode_ids[1]) == ["i8", "i9"]
        assert len(truth.cells) == 4

    def test_zero_density_rejected(self):
        with pytest.raises(DensityInfeasible):
            tiny_spec(density=0.0)

    def test_above_one_needs_multi_mode(self):
        with pytest.raises(DensityInfeasible):
            tiny_spec(density=1.5)
        spec = tiny_spec(density=1.5, value_mode="multi")
        assert spec.injected_nnz == 6

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [(dict(block_shape=(2, 2, 2)), "mode counts differ"),
         (dict(block_shape=(0, 2)), "block cardinalities"),
         (dict(span_bins=0), "at least one bin"),
         (dict(value_mode="bulk"), "unknown value mode")],
        ids=["mode-count", "zero-cardinality", "zero-span", "value-mode"],
    )
    def test_unplantable_spec_rejected(self, overrides, message):
        with pytest.raises(DensityInfeasible, match=message):
            tiny_spec(**overrides)

    def test_multi_mode_repeats_cells(self):
        # Six draws from a volume of 4 must repeat a cell.
        spec = tiny_spec(density=1.5, value_mode="multi")
        lines, truth = generate_stream(spec)
        assert len(truth.cells) == 6
        cfg = IngestConfig(
            mode_cols=(0, 1), time_col=2, stride=truth.stride, value_col=3, t0=truth.t0,
        )
        totals = Counter()
        for event in parse_tuples(iter(lines), cfg, ModeDictionary.for_config(cfg)):
            totals[event.ids] += event.value
        assert max(totals.values()) >= 2

    def test_span_outside_stream_rejected(self):
        with pytest.raises(DensityInfeasible):
            tiny_spec(span_bins=2, start_bin=2)

    def test_deterministic_under_seed(self):
        a_lines, a_truth = generate_stream(tiny_spec())
        b_lines, b_truth = generate_stream(tiny_spec())
        assert a_lines == b_lines
        assert a_truth == b_truth
        c_lines, _ = generate_stream(tiny_spec(seed=6))
        assert c_lines != a_lines

    def test_lines_ordered_by_bin(self):
        spec = tiny_spec(background_tuples=200, n_bins=4)
        lines, _ = generate_stream(spec)
        bins = [int(line.split("\t")[2]) // spec.stride for line in lines]
        assert bins == sorted(bins)

    def test_truth_round_trips_through_json(self):
        _, truth = generate_stream(tiny_spec())
        obj = json.loads(json.dumps(truth.to_json()))
        assert list(obj) == [
            "schema", "mode_ids", "span", "density", "seed", "stride", "t0", "n_bins", "cells",
        ]
        assert obj["schema"] == "tensorsplice/1"
        assert InjectedTruth.from_json(obj) == truth

    def test_round_trips_through_ingestion(self):
        spec = tiny_spec(start_bin=1)
        lines, truth = generate_stream(spec)
        cfg = IngestConfig(
            mode_cols=(0, 1), time_col=2, stride=truth.stride,
            value_col=3, t0=truth.t0,
        )
        dicts = ModeDictionary.for_config(cfg)
        events = list(parse_tuples(iter(lines), cfg, dicts))
        assert len(events) == len(lines)
        planted_bins = {e.ids[-1] for e in events[-1:]}
        assert planted_bins <= set(range(spec.n_bins))

    def test_planted_block_tops_stream_from_first_injected_stride(self):
        from tensorsplice import EngineConfig, run_stream

        spec = InjectionSpec(
            block_shape=(6, 4), density=1.0, span_bins=2, n_bins=5,
            background_tuples=120, background_shape=(200, 100),
            seed=8, start_bin=2, stride=100,
        )
        lines, truth = generate_stream(spec)
        cfg = IngestConfig(
            mode_cols=(0, 1), time_col=2, stride=truth.stride,
            value_col=3, t0=truth.t0,
        )
        dicts = ModeDictionary.for_config(cfg)
        engine_cfg = EngineConfig(k=3, l=2)
        planted_users = set(truth.mode_ids[0])
        outputs = list(run_stream(parse_tuples(iter(lines), cfg, dicts), engine_cfg))
        assert len(outputs) == spec.n_bins
        for out in outputs[spec.start_bin:]:
            reported = {
                dicts.decode(0, idx)
                for block in out.top_k
                for idx in block.index_sets[0]
            }
            assert planted_users <= reported


class TestScore:
    def _setup(self):
        cfg = IngestConfig(mode_cols=(0, 1), time_col=2, stride=1)
        dicts = ModeDictionary.for_config(cfg)
        for raw in ("a", "b"):
            dicts.encode(0, raw)
        for raw in ("x", "y"):
            dicts.encode(1, raw)
        truth = InjectedTruth(
            mode_ids=[["a", "b"], ["x", "y"]],
            span=(0, 1), density=1.0, seed=0, stride=1, t0=0, n_bins=1,
        )
        return dicts, truth

    def _output(self, blocks):
        return StepOutput((0, 1), blocks, {})

    def test_exact_match(self):
        dicts, truth = self._setup()
        block = Block(3, {(u, o, 0): 1 for u in (0, 1) for o in (0, 1)})
        report = score(self._output([block]), truth, dicts)
        assert (report.precision, report.recall, report.f_measure) == (1.0, 1.0, 1.0)

    def test_disjoint_detection(self):
        dicts, truth = self._setup()
        dicts.encode(0, "other")
        dicts.encode(1, "thing")
        block = Block(3, {(2, 2, 0): 1})
        report = score(self._output([block]), truth, dicts)
        assert report.f_measure == 0.0

    def test_half_recall_full_precision(self):
        dicts, truth = self._setup()
        block = Block(3, {(0, 0, 0): 1})  # user a, item x: half the entities
        report = score(self._output([block]), truth, dicts)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f_measure == pytest.approx(2 / 3)

    def test_block_order_irrelevant(self):
        dicts, truth = self._setup()
        b1 = Block(3, {(0, 0, 0): 1})
        b2 = Block(3, {(1, 1, 0): 1})
        one = score(self._output([b1, b2]), truth, dicts)
        two = score(self._output([b2, b1]), truth, dicts)
        assert one == two

    def test_empty_detection(self):
        dicts, truth = self._setup()
        report = score(self._output([]), truth, dicts)
        assert report.f_measure == 0.0

    def test_per_entry_mode(self):
        dicts, truth = self._setup()
        truth.cells = [["a", "x", 0], ["b", "y", 0]]
        block = Block(3, {(0, 0, 0): 1, (1, 0, 0): 1})  # one hit, one miss
        report = score(self._output([block]), truth, dicts, per_entry=True)
        assert report.precision == 0.5
        assert report.recall == 0.5

    def test_per_entry_requires_cells(self):
        dicts, truth = self._setup()
        truth.cells = None
        with pytest.raises(ValueError):
            score(self._output([]), truth, dicts, per_entry=True)


class TestScaling:
    SIZES = (100, 200, 400, 800, 1600)

    def test_constant_time_stub_slope_zero(self):
        report = scaling_run(self.SIZES, timer=lambda nnz: 1e-3)
        assert report.slope == pytest.approx(0.0, abs=1e-9)

    def test_linear_stub_slope_one(self):
        report = scaling_run(self.SIZES, timer=lambda nnz: nnz * 1e-6)
        assert report.slope == pytest.approx(1.0, abs=1e-9)
        assert report.ci_low <= 1.0 <= report.ci_high

    def test_quadratic_stub(self):
        report = scaling_run(self.SIZES, timer=lambda nnz: nnz * nnz * 1e-9)
        assert report.slope == pytest.approx(2.0, abs=1e-9)

    def test_needs_enough_span(self):
        with pytest.raises(ValueError):
            scaling_run((100, 200, 400, 800), timer=lambda nnz: 1.0)
        with pytest.raises(ValueError):
            scaling_run((100, 200, 1600), timer=lambda nnz: 1.0)
        with pytest.raises(ValueError):
            scaling_run((0, 100, 200, 1600))

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats must be at least 1"):
            scaling_run(self.SIZES, repeats=0)

    @pytest.mark.parametrize("slice_nnz", [0, -1])
    def test_rerun_slice_nnz_must_be_positive(self, slice_nnz):
        with pytest.raises(ValueError, match="slice_nnz must be at least 1"):
            rerun_scaling_run(4, slice_nnz)

    def test_fit_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog([(10, 1.0), (20, 2.0)])

    def test_fit_ci_brackets_noisy_slope(self):
        points = [(10, 0.011), (20, 0.019), (40, 0.042), (80, 0.078)]
        report = fit_loglog(points)
        assert report.ci_low < report.slope < report.ci_high
        assert report.slope == pytest.approx(1.0, abs=0.15)
        assert math.isfinite(report.ci_low)

    @pytest.mark.parametrize("df, t", [(11, 2.201), (25, 2.060), (40, 2.021)])
    def test_untabulated_df_never_narrows_the_interval(self, df, t):
        assert _t95(df) >= t

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaptometry as am
from adaptometry.cli import main
from adaptometry.synthgen import (
    MAX_PANEL_CELLS,
    SynthConfig,
    SynthConfigError,
    parse_synth_config,
)
from oracles import oracle_generate_panel, oracle_stress_contrast


def make_config(**overrides):
    base = dict(
        units=50,
        indicators=6,
        periods=(("2020-01", "baseline"), ("2020-06", "stressed")),
        baseline_means=(50.0,) * 6,
        noise_sd=5.0,
        loading_baseline=0.0,
        loading_stressed=15.0,
        variance_multiplier=2.0,
        seed=1,
    )
    base.update(overrides)
    return SynthConfig(**base)


class TestConfig:
    def test_valid(self):
        make_config()

    def test_single_unit_rejected(self):
        with pytest.raises(SynthConfigError, match="2 units"):
            make_config(units=1)

    def test_loading_ordering(self):
        with pytest.raises(SynthConfigError, match="loading"):
            make_config(loading_baseline=3.0, loading_stressed=1.0)

    def test_variance_multiplier_floor(self):
        with pytest.raises(SynthConfigError, match="variance_multiplier"):
            make_config(variance_multiplier=0.5)

    def test_means_length(self):
        with pytest.raises(SynthConfigError, match="means"):
            make_config(baseline_means=(50.0,) * 3)

    def test_bad_regime(self):
        with pytest.raises(SynthConfigError, match="regime"):
            make_config(periods=(("2020-01", "calm"),))

    def test_unsorted_period_labels(self):
        with pytest.raises(SynthConfigError, match="increasing"):
            make_config(periods=(("2020-06", "baseline"), ("2020-01", "stressed")))

    @pytest.mark.parametrize("field", [
        "noise_sd", "loading_baseline", "loading_stressed", "variance_multiplier",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(SynthConfigError, match="finite"):
            make_config(**{field: value})

    @pytest.mark.parametrize("overrides,message", [
        ({"indicators": 0, "baseline_means": ()}, "need at least 1 indicator"),
        ({"periods": ()}, "need at least 1 period"),
        ({"baseline_means": (50.0,) * 5 + (100.5,)}, "baseline means must lie in [0, 100]"),
        ({"baseline_means": (-1.0,) + (50.0,) * 5}, "baseline means must lie in [0, 100]"),
    ], ids=["no indicators", "no periods", "mean above 100", "negative mean"])
    def test_out_of_range_rejected(self, overrides, message):
        with pytest.raises(SynthConfigError) as info:
            make_config(**overrides)
        assert str(info.value) == message

    def test_negative_seed_rejected(self):
        with pytest.raises(SynthConfigError, match="seed must be >= 0"):
            make_config(seed=-1)

    def test_panel_size_limit(self):
        with pytest.raises(SynthConfigError, match=f"exceeds {MAX_PANEL_CELLS} cells"):
            make_config(indicators=2**62, baseline_means=(50.0,))
        units = MAX_PANEL_CELLS // 2 // 6
        make_config(units=units)
        with pytest.raises(SynthConfigError, match="exceeds"):
            make_config(units=units + 1)


class TestParseConfig:
    TEXT = """\
# generator settings
units = 50
indicators = 6
periods = 2020-01:baseline, 2020-06:stressed
baseline_means = 50
noise_sd = 5.0
loading_baseline = 0.0
loading_stressed = 15.0
variance_multiplier = 2.0
seed = 1
"""

    def test_roundtrip(self):
        config = parse_synth_config(self.TEXT)
        assert config == make_config()

    def test_spaces_around_a_period_colon(self):
        text = self.TEXT.replace("2020-01:baseline", "2020-01 : baseline")
        assert parse_synth_config(text) == make_config()

    def test_missing_key(self):
        with pytest.raises(SynthConfigError, match="missing"):
            parse_synth_config("units = 3\n")

    def test_unknown_key(self):
        with pytest.raises(SynthConfigError, match="unknown"):
            parse_synth_config(self.TEXT + "extra = 1\n")

    @pytest.mark.parametrize("line", ["units = 7", "units=50", "  units = 50  # again"])
    def test_repeated_key(self, line):
        # the earlier value is not silently replaced, even by an equal one
        with pytest.raises(SynthConfigError) as info:
            parse_synth_config(self.TEXT + line + "\n")
        assert str(info.value) == "line 11: duplicate config key 'units'"

    @pytest.mark.parametrize("edits,message", [
        ({"2020-01:baseline": "2020-01"}, "bad period token '2020-01', expected label:regime"),
        ({"means = 50": "means = 50, high"}, "bad baseline_means '50, high'"),
        # the numbers are read units, indicators, seed, then the floats
        ({"sd = 5.0": "sd = loud", "seed = 1": "seed = s"},
         "bad numeric value: invalid literal for int() with base 10: 's'"),
    ], ids=["period token", "means", "first bad number"])
    def test_bad_value(self, edits, message):
        text = self.TEXT
        for old, new in edits.items():
            text = text.replace(old, new)
        with pytest.raises(SynthConfigError) as info:
            parse_synth_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("units", ["50", "0", "-3"])
    def test_oversized_panel_is_rejected_before_the_means(self, units):
        text = self.TEXT.replace("indicators = 6", f"indicators = {2**62}")
        with pytest.raises(SynthConfigError, match=f"exceeds {MAX_PANEL_CELLS} cells"):
            parse_synth_config(text.replace("units = 50", f"units = {units}"))

    def test_explicit_means_list(self):
        text = self.TEXT.replace("baseline_means = 50", "baseline_means = 10,20,30,40,50,60")
        assert parse_synth_config(text).baseline_means == (10, 20, 30, 40, 50, 60)


_FILE_NAME_RULE = (
    "period labels name output files: not empty, '.' or '..', no '/', '\\' or NUL"
)

_ORDER_RULE = "period labels not strictly increasing"

# Period labels analyze refuses, and the one error line synth gives for them:
# the first of period_label_errors, which lists the file-name errors first
BAD_LABELS = {
    "empty": (("", "z"), f"period '': {_FILE_NAME_RULE}"),
    "dot": ((".", "z"), f"period '.': {_FILE_NAME_RULE}"),
    "dot dot": (("..", "z"), f"period '..': {_FILE_NAME_RULE}"),
    "slash": (("a/b", "z"), f"period 'a/b': {_FILE_NAME_RULE}"),
    "backslash": (("a\\b", "z"), f"period 'a\\\\b': {_FILE_NAME_RULE}"),
    "NUL": (("a\0b", "z"), f"period 'a\\x00b': {_FILE_NAME_RULE}"),
    "two bad": (("", "a/b"), f"period '': {_FILE_NAME_RULE}"),
    "case": (("A", "a"), "period 'a': period labels 'A' and 'a' differ only in case, so their "
                         "output files collide on case-insensitive file systems"),
    "unordered": (("2020-02", "2020-01"),
                  f"period '2020-01': {_ORDER_RULE} ('2020-02' then '2020-01')"),
    "duplicate": (("2020-01", "2020-01"),
                  f"period '2020-01': {_ORDER_RULE} ('2020-01' then '2020-01')"),
    "empty and unordered": (("z", ""), f"period '': {_FILE_NAME_RULE}"),
    "too long": (("p" * 252, "z"), f"period '{'p' * 252}': period labels name output files: "
                 "at most 251 bytes of UTF-8, so that '<label>.csv' fits a 255-byte file name"),
}


@pytest.mark.parametrize("labels,message", BAD_LABELS.values(), ids=BAD_LABELS.keys())
class TestPeriodLabels:
    """synth refuses the period labels analyze refuses, before it writes anything."""

    def test_config(self, labels, message):
        with pytest.raises(SynthConfigError) as info:
            make_config(periods=((labels[0], "baseline"), (labels[1], "stressed")))
        assert str(info.value) == message

    def test_parsed_config(self, labels, message):
        text = TestParseConfig.TEXT.replace(
            "2020-01:baseline, 2020-06:stressed", f"{labels[0]}:baseline, {labels[1]}:stressed"
        )
        with pytest.raises(SynthConfigError) as info:
            parse_synth_config(text)
        assert str(info.value) == message

    def test_cli(self, labels, message, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(TestParseConfig.TEXT.replace(
            "2020-01:baseline, 2020-06:stressed", f"{labels[0]}:baseline, {labels[1]}:stressed"
        ))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_analyze_refuses_them_too(self, labels, message):
        panel = am.IndicatorPanel(labels, ("u1", "u2"), (am.Indicator(1, "x"),),
                                  np.array([[[1.0], [2.0]], [[3.0], [5.0]]]))
        assert message in [": ".join(error) for error in am.validate(panel).errors]


class TestGenerate:
    def test_panel_shape_and_labels(self):
        panel = am.generate_panel(make_config())
        assert panel.periods == ("2020-01", "2020-06")
        assert panel.n_units == 50
        assert panel.n_indicators == 6
        assert am.validate(panel).ok

    def test_determinism(self):
        a = am.generate_panel(make_config())
        b = am.generate_panel(make_config())
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = am.generate_panel(make_config(seed=1))
        b = am.generate_panel(make_config(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_values_clamped(self):
        panel = am.generate_panel(make_config(loading_stressed=200.0, seed=3))
        assert panel.values.min() >= 0.0
        assert panel.values.max() <= 100.0

    def test_overflowing_noise_clamps(self):
        # noise_sd * noise overflows to +-inf, which the clamp takes to 100 or 0
        panel = am.generate_panel(make_config(noise_sd=1e308))
        assert set(np.unique(panel.values)) == {0.0, 100.0}

    def test_opposite_infinite_terms_rejected(self):
        config = make_config(loading_stressed=1e308, noise_sd=1e308, variance_multiplier=4.0)
        with pytest.raises(SynthConfigError, match="period 2020-06: loading and noise_sd overflow"):
            am.generate_panel(config)

    def test_quiet_baseline_has_no_strong_edges(self):
        # independent indicators at m=200: no |r| clears 0.7
        config = make_config(
            units=200, indicators=10, baseline_means=(50.0,) * 10,
            loading_stressed=0.0, variance_multiplier=1.0,
            periods=(("2020-01", "baseline"),),
        )
        hits = 0
        for seed in range(20):
            panel = am.generate_panel(
                make_config(
                    units=200, indicators=10, baseline_means=(50.0,) * 10,
                    loading_stressed=0.0, variance_multiplier=1.0,
                    periods=(("2020-01", "baseline"),), seed=seed,
                )
            )
            _, w = am.weight_series(panel)[0]
            hits += w == 0.0
        assert hits == 20
        assert config.seed == 1


def _generated(generate, config):
    """The panel's values as bytes, or the SynthConfigError message."""
    try:
        return generate(config).values.tobytes()
    except SynthConfigError as exc:
        return str(exc)


class TestGenerateMatchesOneExpression:
    """generate_panel builds each period in place in the panel's array; the
    one-expression formula it replaced is the reference, bit for bit."""

    @pytest.mark.parametrize("shape", [(300, 150, 4), (60, 300, 2), (7, 3, 5)])
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_benchmark_shapes(self, shape, seed):
        units, indicators, n_periods = shape
        config = make_config(
            units=units, indicators=indicators, baseline_means=(50.0,) * indicators,
            noise_sd=4.0, seed=seed,
            periods=tuple((f"2020-{p + 1:02d}", ("baseline", "stressed")[p % 2])
                          for p in range(n_periods)),
        )
        panel = am.generate_panel(config)
        assert panel.values.tobytes() == oracle_generate_panel(config).values.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        units=st.integers(2, 30),
        indicators=st.integers(1, 12),
        regimes=st.lists(st.sampled_from(["baseline", "stressed"]), min_size=1, max_size=4),
        means=st.floats(0.0, 100.0),
        noise_sd=st.sampled_from([1e-300, 0.5, 4.0, 1e300, 1e308]) | st.floats(1e-3, 1e308),
        loadings=st.lists(
            st.sampled_from([0.0, 15.0, 1e300, 1e308]) | st.floats(0.0, 1e308),
            min_size=2, max_size=2,
        ).map(sorted),
        variance_multiplier=st.sampled_from([1.0, 2.0, 4.0]) | st.floats(1.0, 1e300),
        seed=st.integers(0, 2**64),
    )
    # both terms overflow, with opposite signs in some cell of the second period
    @example(units=5, indicators=3, regimes=["baseline", "stressed", "stressed"], means=50.0,
             noise_sd=1e308, loadings=[0.0, 1e308], variance_multiplier=4.0, seed=1)
    def test_any_config(self, units, indicators, regimes, means, noise_sd, loadings,
                        variance_multiplier, seed):
        config = make_config(
            units=units, indicators=indicators, baseline_means=(means,) * indicators,
            noise_sd=noise_sd, loading_baseline=loadings[0], loading_stressed=loadings[1],
            variance_multiplier=variance_multiplier, seed=seed,
            periods=tuple((f"2020-{p + 1:02d}", r) for p, r in enumerate(regimes)),
        )
        assert _generated(am.generate_panel, config) == _generated(oracle_generate_panel, config)

    def test_overflow_names_the_same_period(self):
        config = make_config(
            loading_stressed=1e308, noise_sd=1e308, variance_multiplier=4.0,
            periods=(("2020-01", "baseline"), ("2020-02", "stressed"), ("2020-03", "stressed")),
        )
        message = "period 2020-02: loading and noise_sd overflow"
        assert _generated(am.generate_panel, config) == message
        assert _generated(oracle_generate_panel, config) == message

    def test_holds_one_period_of_draws_beside_the_panel(self):
        # 300 x 150 x 4: a fresh (m, n) array per term of each period took the
        # peak to 2.5 times the 1.37 MiB panel
        config = make_config(
            units=300, indicators=150, baseline_means=(50.0,) * 150, noise_sd=4.0,
            periods=tuple((f"2020-0{p + 1}", ("baseline", "stressed")[p % 2]) for p in range(4)),
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            panel = am.generate_panel(config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * panel.values.nbytes


class TestStressContrast:
    def contrast_config(self, seed, **overrides):
        base = dict(
            units=200, indicators=10, baseline_means=(50.0,) * 10,
            noise_sd=5.0, loading_baseline=0.0, loading_stressed=15.0,
            variance_multiplier=2.0, seed=seed,
            periods=(("2020-01", "baseline"), ("2020-06", "stressed")),
        )
        base.update(overrides)
        return SynthConfig(**base)

    def test_direction_on_a_few_seeds(self):
        for seed in range(5):
            c = am.stress_contrast(self.contrast_config(seed))
            assert c.w_stressed > c.w_baseline
            assert c.d_max_stressed > c.d_max_baseline

    def test_requires_both_regimes(self):
        with pytest.raises(SynthConfigError, match="baseline and one stressed"):
            am.stress_contrast(
                self.contrast_config(0, periods=(("2020-01", "baseline"),))
            )

    def test_degenerate_two_indicators(self):
        c = am.stress_contrast(
            self.contrast_config(0, indicators=2, baseline_means=(50.0, 50.0))
        )
        for v in (c.w_baseline, c.w_stressed, c.d_max_baseline, c.d_max_stressed):
            assert np.isfinite(v)

    # the benchmark's synth size: 300 units, 150 indicators, 4 alternating periods
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_equals_the_analyze_path_at_benchmark_size(self, seed):
        periods = tuple((f"2020-0{p + 1}", ("baseline", "stressed")[p % 2]) for p in range(4))
        config = self.contrast_config(
            seed, units=300, indicators=150, baseline_means=(50.0,) * 150,
            noise_sd=4.0, periods=periods,
        )
        assert am.stress_contrast(config) == oracle_stress_contrast(config)

    SMALL_SHAPES = {
        "one indicator": (40, 1, ("baseline", "stressed")),
        "two units": (2, 5, ("stressed", "baseline")),
        "two units, one indicator": (2, 1, ("baseline", "stressed", "stressed")),
        "odd period count": (17, 9, ("baseline", "stressed", "baseline", "stressed", "baseline")),
        "three units": (3, 4, ("stressed", "baseline", "baseline")),
    }

    @pytest.mark.parametrize("units,indicators,regimes", SMALL_SHAPES.values(),
                             ids=SMALL_SHAPES.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_analyze_path_on_small_shapes(self, units, indicators, regimes, seed):
        config = self.contrast_config(
            seed, units=units, indicators=indicators, baseline_means=(50.0,) * indicators,
            periods=tuple((f"2020-{p + 1:02d}", r) for p, r in enumerate(regimes)),
        )
        assert am.stress_contrast(config) == oracle_stress_contrast(config)

    def test_monotone_in_stressed_loading(self):
        # mean stressed weight over 100 seeds must not decrease with loading
        means = []
        for loading in (10.0, 15.0, 20.0):
            ws = [
                am.stress_contrast(
                    self.contrast_config(seed, loading_stressed=loading)
                ).w_stressed
                for seed in range(100)
            ]
            means.append(np.mean(ws))
        assert means[0] <= means[1] + 1e-9
        assert means[1] <= means[2] + 1e-9

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import adaptometry as am
from adaptometry.variation import (
    ESTIMATORS,
    VariationError,
    VariationProfile,
    parse_grouped_table,
    profile_to_csv,
    rank_by_score,
)
from oracles import oracle_cv, oracle_cv_rowwise

FEAR4_BY_PARTY = (32, 30, 23, 10, 25, 29, 26)

# rows of a grouped table, by rng and length, and the power of two the table
# scales each by: a CV does not depend on it, so oracle_cv_rowwise of the
# unscaled row, where nothing overflows or underflows, is the reference
ROW_KINDS = {
    "zeros": (lambda rng, n: np.zeros(n), 0),
    "one decimal": (lambda rng, n: rng.integers(0, 1001, n) / 10, 0),
    "constant": (lambda rng, n: np.full(n, rng.integers(1, 1001) / 10), 0),
    "uniform": (lambda rng, n: rng.uniform(0, 100, n), 0),
    "squares underflow": (lambda rng, n: rng.uniform(0, 100, n), -560),
    "mean underflows to 0": (lambda rng, n: rng.choice([0.0, 1.0], n), -1074),
    "sum overflows": (lambda rng, n: rng.uniform(0, 100, n), 1017),
}


class TestCoefficientOfVariation:
    def test_published_unnormalized(self):
        assert am.coefficient_of_variation(FEAR4_BY_PARTY, "unnormalized") == pytest.approx(
            0.72, abs=0.01
        )

    def test_sample_estimator_against_oracle(self):
        got = am.coefficient_of_variation(FEAR4_BY_PARTY, "sample")
        assert got == pytest.approx(0.292, abs=0.001)
        assert got == pytest.approx(oracle_cv(FEAR4_BY_PARTY, "sample"), rel=1e-12)

    def test_constant_vector(self):
        assert am.coefficient_of_variation([5, 5, 5], "sample") == 0.0
        assert am.coefficient_of_variation([5, 5, 5], "unnormalized") == 0.0

    def test_zero_mean_rejected(self):
        with pytest.raises(VariationError, match="mean"):
            am.coefficient_of_variation([0, 0, 0], "sample")

    def test_too_short(self):
        with pytest.raises(VariationError):
            am.coefficient_of_variation([4.0], "sample")

    def test_unknown_estimator(self):
        with pytest.raises(VariationError, match="estimator"):
            am.coefficient_of_variation([1, 2, 3], "mad")

    @pytest.mark.parametrize("row,cv", [
        ([1e308, 1.5e308], 0.28284),  # the sum overflows
        ([1e-200, 3e-200], 0.70711),  # the squared deviations underflow
    ], ids=["sum overflows", "squares underflow"])
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_extreme_rows_against_exact_arithmetic(self, row, cv, estimator):
        # the mean and sum of squares as fractions, the CV's square rounded once
        values = [Fraction(v) for v in row]
        mean = sum(values) / len(values)
        ss = sum((v - mean) ** 2 for v in values)
        if estimator == "sample":
            ss /= len(values) - 1
        got = am.coefficient_of_variation(row, estimator)
        assert got == pytest.approx(math.sqrt(ss / mean**2), rel=1e-15)
        assert got == pytest.approx(cv, abs=1e-5)

    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e-300, 5e-324]),
                        min_size=2, max_size=20),
           k=st.integers(-1100, 1100), estimator=st.sampled_from(ESTIMATORS))
    def test_power_of_two_scale_keeps_every_bit(self, row, k, estimator):
        x = np.array(row)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(x, k)
        # every value scaled exactly, none lost to the ends of the double range
        assume(np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -k), x))
        try:
            cv = am.coefficient_of_variation(x, estimator)
        except VariationError:
            with pytest.raises(VariationError):
                am.coefficient_of_variation(scaled, estimator)
            return
        assert am.coefficient_of_variation(scaled, estimator) == cv

    @pytest.mark.parametrize("seed", range(100))
    def test_scale_invariance_and_estimator_relation(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 12))
        x = rng.uniform(0.5, 100, size=length)
        c = float(rng.uniform(0.01, 50))
        for est in ("sample", "unnormalized"):
            assert am.coefficient_of_variation(c * x, est) == pytest.approx(
                am.coefficient_of_variation(x, est), rel=1e-9
            )
        assert am.coefficient_of_variation(x, "unnormalized") == pytest.approx(
            am.coefficient_of_variation(x, "sample") * math.sqrt(length - 1), rel=1e-12
        )


class TestVariationTable:
    def test_reference_table_sample_vs_oracle(self, grouped_table):
        profile = am.variation_table(grouped_table, "sample")
        for idx, ind_id in enumerate(grouped_table.indicator_ids):
            row = grouped_table.values[idx].tolist()
            assert profile.cv_sample[ind_id] == pytest.approx(
                oracle_cv(row, "sample"), rel=1e-12
            )
            assert profile.cv_unnormalized[ind_id] == pytest.approx(
                oracle_cv(row, "unnormalized"), rel=1e-12
            )
        assert len(profile.ranking) == 19

    def test_reference_table_unnormalized_top(self, grouped_table):
        # indicator 17 leads the recomputed unnormalized ranking; 19 does
        # not reach the top 3 on the table's own data even though the
        # published CV column places it first (4.24 printed vs 1.39 here)
        profile = am.variation_table(grouped_table, "unnormalized")
        assert 17 in profile.ranking[:3]

    def test_single_indicator(self):
        table = am.GroupedIndicatorTable((5,), ("a", "b", "c"), np.array([[1.0, 2.0, 3.0]]))
        profile = am.variation_table(table)
        assert profile.ranking == (5,)

    def test_unknown_estimator(self, grouped_table):
        with pytest.raises(VariationError, match="unknown estimator 'median'"):
            am.variation_table(grouped_table, "median")

    @pytest.mark.parametrize("values,message", [
        ([[1.0, 2.0, 3.0]], "values shape (1, 3) != (1, 2)"),
        ([[1.0, -2.0]], "values must be finite and >= 0"),
        ([[1.0, np.nan]], "values must be finite and >= 0"),
        ([[np.inf, 1.0]], "values must be finite and >= 0"),
    ], ids=["shape", "negative", "nan", "inf"])
    def test_invalid_table(self, values, message):
        with pytest.raises(VariationError) as info:
            am.GroupedIndicatorTable((1,), ("A", "B"), np.array(values))
        assert str(info.value) == message

    def test_undefined_cv_recorded_and_omitted(self):
        table = am.GroupedIndicatorTable(
            (1, 2), ("a", "b"), np.array([[0.0, 0.0], [1.0, 3.0]])
        )
        profile = am.variation_table(table)
        assert profile.ranking == (2,)
        assert profile.errors and profile.errors[0][0] == 1

    @settings(max_examples=300, deadline=None)
    @given(groups=st.integers(2, 300),
           kinds=st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), order=st.sampled_from("CF"))
    def test_array_pass_equals_rowwise_numpy(self, groups, kinds, seed, order):
        # 2 to 300 groups cross numpy's pairwise-sum blocks of 8 and 128; the
        # table holds its values in C order, whatever order it is given
        rng = np.random.default_rng(seed)
        rows = [ROW_KINDS[kind][0](rng, groups) for kind in kinds]
        table = am.GroupedIndicatorTable(
            tuple(range(1, len(kinds) + 1)), tuple(f"g{k}" for k in range(groups)),
            np.array([np.ldexp(row, ROW_KINDS[kind][1]) for row, kind in zip(rows, kinds)],
                     order=order),
        )
        expected = {estimator: {} for estimator in ESTIMATORS}
        errors = []
        for ind_id, unscaled, row in zip(table.indicator_ids, rows, table.values):
            try:
                for estimator in ESTIMATORS:
                    expected[estimator][ind_id] = oracle_cv_rowwise(unscaled, estimator)
                    assert am.coefficient_of_variation(row, estimator) == (
                        expected[estimator][ind_id]
                    )
            except ValueError as exc:
                errors.append((ind_id, str(exc)))
                with pytest.raises(VariationError) as info:
                    am.coefficient_of_variation(row, estimator)
                assert str(info.value) == str(exc)
        for estimator in ESTIMATORS:
            profile = am.variation_table(table, estimator)
            assert profile.cv_sample == expected["sample"]
            assert profile.cv_unnormalized == expected["unnormalized"]
            scores = expected[estimator]
            assert profile.ranking == tuple(sorted(scores, key=lambda i: (-scores[i], i)))
            assert profile.errors == errors

    def test_ranking_is_descending_with_id_tiebreak(self):
        profile = VariationProfile.from_scores({3: 1.0, 1: 2.0, 2: 1.0, 4: 0.5})
        assert profile.ranking == (1, 2, 3, 4)


class TestFlagExclusions:
    def test_published_cv_column_flags_17_and_19(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        assert am.flag_exclusions(profile, "topk:2") == {17, 19}

    def test_topk_zero(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        assert am.flag_exclusions(profile, "topk:0") == set()

    def test_threshold_above_all(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        assert am.flag_exclusions(profile, "threshold:10.0") == set()

    def test_threshold_selects_strictly_above(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        assert am.flag_exclusions(profile, "threshold:2.0") == {12, 17, 19}

    def test_topk_too_large(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        with pytest.raises(VariationError):
            am.flag_exclusions(profile, "topk:20")

    def test_bad_policy(self, printed_cv):
        profile = VariationProfile.from_scores(printed_cv)
        with pytest.raises(VariationError):
            am.flag_exclusions(profile, "best:2")

    @pytest.mark.parametrize("policy,message", [
        ("topk:two", "bad topk policy 'topk:two'"),
        ("threshold:high", "bad threshold policy 'threshold:high'"),
        ("threshold:-1", "threshold t=-1.0 must be >= 0"),
        ("threshold:nan", "threshold t=nan must be >= 0"),
        ("best:2", "unknown flag policy 'best:2'"),
        ("topk", "bad topk policy 'topk'"),
        ("topk:20", "topk k=20 outside [0, 19]"),
        ("topk:-1", "topk k=-1 outside [0, 19]"),
    ], ids=["topk not an integer", "threshold not a number", "negative threshold", "nan threshold",
            "unknown policy", "topk without k", "topk above count", "negative topk"])
    def test_bad_policy_argument(self, printed_cv, policy, message):
        profile = VariationProfile.from_scores(printed_cv)
        with pytest.raises(VariationError) as info:
            am.flag_exclusions(profile, policy)
        assert str(info.value) == message

    @pytest.mark.parametrize("policy,count,message", [
        ("topk:-1", None, "topk k=-1 must be >= 0"),
        ("topk:-1", 19, "topk k=-1 outside [0, 19]"),
        ("topk:20", 19, "topk k=20 outside [0, 19]"),
    ])
    def test_parser_checks_k(self, policy, count, message):
        with pytest.raises(VariationError) as info:
            am.variation.parse_flag_policy(policy, count)
        assert str(info.value) == message

    @pytest.mark.parametrize("policy,count,parsed", [
        ("topk:20", None, ("topk", 20)),
        ("topk:0", 0, ("topk", 0)),
        ("topk:19", 19, ("topk", 19)),
        ("threshold:5", 0, ("threshold", 5.0)),
    ])
    def test_parser_accepts_k_in_range(self, policy, count, parsed):
        assert am.variation.parse_flag_policy(policy, count) == parsed

    @pytest.mark.parametrize("seed", range(30))
    def test_topk_is_ranking_prefix(self, seed):
        rng = np.random.default_rng(seed)
        scores = {i: float(rng.uniform(0, 5)) for i in range(1, 11)}
        profile = VariationProfile.from_scores(scores)
        for k in range(11):
            assert am.flag_exclusions(profile, f"topk:{k}") == set(profile.ranking[:k])


GROUPED_HEADER = "indicator_id,group,value\n"
GROUPED_ERRORS = {
    "empty": ("# only\n\n", "empty input"),
    "header only": (GROUPED_HEADER, "no data rows"),
    "field count": (GROUPED_HEADER + "1,a,3,4\n", "expected 3 fields, got ['1', 'a', '3', '4']"),
    "value": (GROUPED_HEADER + "1,g1,abc\n", "bad row ['1', 'g1', 'abc']"),
    "duplicate": (GROUPED_HEADER + "1,a,3\n1,a,4\n", "duplicate cell (1, 'a')"),
    "one group": (GROUPED_HEADER + "1,a,3\n2,a,4\n", "need at least 2 groups"),
    "blank rows only": (GROUPED_HEADER + ",,\n , ,\n", "no data rows"),
    "open quote ends with its line": (
        GROUPED_HEADER + '1,"a,3\n2,b,4\n3,c,5\n', "expected 3 fields, got ['1', 'a,3']"
    ),
    "quoted line break": (GROUPED_HEADER + '1,"a\n",3\n', "expected 3 fields, got ['1', 'a']"),
    "oversized quoted field": (
        GROUPED_HEADER + '1,"' + "x" * 140_000 + '",3\n',
        "field larger than field limit (131072)",
    ),
}


class TestGroupedTableIO:
    def test_parse_reference_table(self, grouped_table):
        assert grouped_table.indicator_ids == tuple(range(1, 20))
        assert grouped_table.groups == tuple("ABCDEFG")
        assert grouped_table.values[3].tolist() == list(FEAR4_BY_PARTY)

    def test_parse_keeps_first_appearance_order(self):
        rng = np.random.default_rng(5)
        ids = [int(i) for i in rng.permutation(10_000)[:2000]]
        groups = ["g7", "g2", "g5", "g0", "g3"]
        rows = [(i, g, float(k)) for k, (i, g) in enumerate((i, g) for i in ids for g in groups)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        text = "indicator_id,group,value\n" + "".join(f"{i},{g},{v}\n" for i, g, v in rows)
        table = parse_grouped_table(text)
        assert table.indicator_ids == tuple(dict.fromkeys(i for i, _, _ in rows))
        assert table.groups == tuple(dict.fromkeys(g for _, g, _ in rows))
        at = {(i, g): v for i, g, v in rows}
        expected = [[at[(i, g)] for g in table.groups] for i in table.indicator_ids]
        assert table.values.tolist() == expected

    def test_parse_rejects_missing_cell(self):
        text = "indicator_id,group,value\n1,a,3\n1,b,4\n2,a,5\n"
        with pytest.raises(VariationError, match="missing"):
            parse_grouped_table(text)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(VariationError, match="header"):
            parse_grouped_table("id,grp,v\n1,a,3\n")

    @pytest.mark.parametrize("text,message", GROUPED_ERRORS.values(), ids=GROUPED_ERRORS.keys())
    def test_parse_error_message(self, text, message):
        with pytest.raises(VariationError) as info:
            parse_grouped_table(text)
        assert str(info.value) == message

    def test_profile_csv(self, grouped_table):
        profile = am.variation_table(grouped_table, "unnormalized")
        flagged = am.flag_exclusions(profile, "topk:2")
        lines = profile_to_csv(profile, flagged).splitlines()
        assert lines[0] == "indicator_id,cv_sample,cv_unnormalized,rank,flagged"
        assert len(lines) == 20
        first = lines[1].split(",")
        assert int(first[0]) == profile.ranking[0]
        assert first[4] == "1"

    def test_rank_by_score_permutation(self):
        scores = {i: float(i % 4) for i in range(1, 9)}
        assert sorted(rank_by_score(scores)) == list(range(1, 9))

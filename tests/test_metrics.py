import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest.metrics import EvalReport, PropensityModel, evaluate, fit_propensities
from helpers import ranked, row
from metrics_oracle import (
    coverage_at_k,
    evaluate_oracle,
    ndcg_at_k,
    oracle_top_k,
    precision_at_k,
    ps_report,
    psndcg_at_k,
    psp_at_k,
)


def dense_ndcg(pred, truth, k):
    truth = set(truth)
    dcg = 0.0
    for r, lab in enumerate(pred[:k], start=1):
        if lab in truth:
            dcg += 1.0 / math.log2(r + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(truth)) + 1))
    return dcg / idcg if idcg else 0.0


def dense_psp(pred, truth, p, k):
    truth = set(truth)
    return sum(1.0 / p[lab] for lab in pred[:k] if lab in truth) / k


def dense_psndcg(pred, truth, p, k):
    truth = set(truth)
    num = 0.0
    for r, lab in enumerate(pred[:k], start=1):
        if lab in truth:
            num += 1.0 / (p[lab] * math.log2(r + 1))
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(truth)) + 1))
    return num / idcg if idcg else 0.0


def random_case(rng, l=20, npred=8, ntruth=6):
    pred = rng.permutation(l)[:npred]
    truth = rng.permutation(l)[:ntruth]
    return pred, truth


class TestPrecision:
    def test_perfect_top1(self):
        assert precision_at_k([3], {3}, 1) == 1.0

    def test_disjoint(self):
        assert precision_at_k([1, 2, 3], {7, 8}, 3) == 0.0

    def test_hand_count(self):
        assert precision_at_k([0, 1, 2, 3, 4], {0, 2, 4}, 5) == pytest.approx(3 / 5)

    def test_short_prediction_counts_misses(self):
        assert precision_at_k([3], {3, 4, 5}, 5) == pytest.approx(1 / 5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            precision_at_k([1], {1}, 0)


class TestNdcg:
    def test_single_hit_rank1(self):
        assert ndcg_at_k([9, 1, 2], {9}, 5) == pytest.approx(1.0)

    def test_single_hit_rank2(self):
        expected = (1 / math.log2(3)) / (1 / math.log2(2))
        assert ndcg_at_k([1, 9, 2], {9}, 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6309, abs=1e-4)

    def test_empty_truth_is_zero(self):
        assert ndcg_at_k([1, 2], set(), 3) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pred, truth = random_case(rng)
            k = int(rng.integers(1, 9))
            assert ndcg_at_k(pred, truth, k) == pytest.approx(
                dense_ndcg(list(pred), list(truth), k), abs=1e-12
            )

    def test_k1_equals_precision_when_truth_nonempty(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pred, truth = random_case(rng)
            assert ndcg_at_k(pred, truth, 1) == precision_at_k(pred, truth, 1)


class TestPropensities:
    def test_saturation(self):
        m = fit_propensities(np.array([10**12]), n=15539)
        assert m.p[0] == pytest.approx(1.0, abs=1e-4)

    def test_monotone_in_frequency(self):
        m = fit_propensities(np.array([1, 100]), n=15539)
        assert m.p[0] < m.p[1]
        freqs = np.arange(0, 1000)
        m2 = fit_propensities(freqs, n=15539)
        assert np.all(np.diff(m2.p) >= 0)

    def test_matches_scalar_formula(self):
        a, b, n, n_l = 0.55, 1.5, 15539, 25
        c = (math.log(n) - 1.0) * (1.0 + b) ** a
        expected = 1.0 / (1.0 + c * math.exp(-a * math.log(n_l + b)))
        m = fit_propensities(np.array([n_l]), n=n, a=a, b=b)
        assert m.p[0] == pytest.approx(expected, abs=1e-12)

    def test_values_in_unit_interval(self):
        m = fit_propensities(np.array([0, 1, 5, 10**6]), n=15539)
        assert np.all(m.p > 0) and np.all(m.p <= 1)

    def test_tiny_dataset_clamps_to_one(self):
        m = fit_propensities(np.array([0, 2]), n=2)
        np.testing.assert_allclose(m.p, 1.0)

    def test_nan_propensity_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            PropensityModel(0.55, 1.5, 10, np.array([0.5, np.nan]))

    @pytest.mark.parametrize("a, b", [(np.nan, 1.5), (0.55, -5.0)])
    def test_parameters_giving_nan_rejected(self, a, b):
        # b = -5 takes the log of a negative count for labels seen < 5 times
        with pytest.raises(ValueError):
            fit_propensities(np.array([1, 3, 10]), n=100, a=a, b=b)


class TestPsMetrics:
    def test_uniform_propensity_reduction(self):
        rng = np.random.default_rng(2)
        prop = PropensityModel.uniform(20)
        for _ in range(40):
            pred, truth = random_case(rng)
            k = int(rng.integers(1, 9))
            assert psp_at_k(pred, truth, prop, k) == precision_at_k(pred, truth, k)
            assert psndcg_at_k(pred, truth, prop, k) == ndcg_at_k(pred, truth, k)

    def test_single_hit_reciprocal(self):
        prop = PropensityModel(0.55, 1.5, 100, np.array([0.5, 1.0]))
        assert psp_at_k([0], {0}, prop, 1) == pytest.approx(2.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 1.0, size=20)
        prop = PropensityModel(0.55, 1.5, 100, p)
        for _ in range(50):
            pred, truth = random_case(rng)
            k = int(rng.integers(1, 9))
            assert psp_at_k(pred, truth, prop, k) == pytest.approx(
                dense_psp(list(pred), list(truth), p, k), abs=1e-12
            )
            assert psndcg_at_k(pred, truth, prop, k) == pytest.approx(
                dense_psndcg(list(pred), list(truth), p, k), abs=1e-12
            )


class TestPsReport:
    def test_oracle_predictions_score_100(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0.1, 1.0, size=15)
        prop = PropensityModel(0.55, 1.5, 50, p)
        truths = [rng.permutation(15)[: rng.integers(1, 6)] for _ in range(8)]
        preds = [oracle_top_k(t, prop, 3) for t in truths]
        assert ps_report(preds, truths, prop, 3) == pytest.approx(100.0, abs=1e-9)

    def test_zero_hits_scores_zero(self):
        prop = PropensityModel.uniform(10)
        preds = [[0, 1], [2, 3]]
        truths = [{4}, {5}]
        assert ps_report(preds, truths, prop, 2) == 0.0

    def test_five_instance_hand_rolled(self):
        p = np.array([0.2, 0.4, 0.5, 0.8, 1.0])
        prop = PropensityModel(0.55, 1.5, 10, p)
        preds = [[0, 1], [1, 2], [3], [4, 0], [2, 4]]
        truths = [{0}, {2, 1}, {3, 0}, {1}, {4}]
        k = 2
        num = sum(dense_psp(pr, tr, p, k) for pr, tr in zip(preds, truths))
        den = 0.0
        for tr in truths:
            oracle = sorted(tr, key=lambda lab: (p[lab], lab))[:k]
            den += dense_psp(oracle, tr, p, k)
        expected = 100.0 * num / den
        assert ps_report(preds, truths, prop, k) == pytest.approx(expected, abs=1e-12)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            ps_report([], [], PropensityModel.uniform(3), 1)


class TestCoverage:
    def test_identical_sets_give_one(self):
        prop = PropensityModel.uniform(10)
        truths = [{1, 2}, {3}, {4, 5}]
        preds = [oracle_top_k(t, prop, 2) for t in truths]
        assert coverage_at_k(preds, truths, prop, 2) == pytest.approx(1.0)

    def test_constant_predictions_count_ratio(self):
        prop = PropensityModel.uniform(12)
        truths = [{i} for i in range(10)]
        preds = [[10, 11]] * 10
        assert coverage_at_k(preds, truths, prop, 2) == pytest.approx(2 / 10)

    def test_empty_truth_union_rejected(self):
        prop = PropensityModel.uniform(5)
        with pytest.raises(ValueError):
            coverage_at_k([[1]], [set()], prop, 1)


class TestEvaluate:
    def _case(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.1, 1.0, size=12)
        prop = PropensityModel(0.55, 1.5, 40, p)
        preds = [rng.permutation(12)[:5] for _ in range(9)]
        truths = [set(rng.permutation(12)[: rng.integers(1, 4)].tolist()) for _ in range(9)]
        return preds, truths, prop

    def test_permutation_invariance(self):
        preds, truths, prop = self._case()
        a = evaluate(ranked(preds), truths, prop)
        order = [4, 0, 8, 2, 6, 1, 7, 3, 5]
        b = evaluate(ranked([preds[i] for i in order]), [truths[i] for i in order], prop)
        for metric in a.rows:
            for k in a.ks:
                assert a.value(metric, k) == pytest.approx(b.value(metric, k), abs=1e-9)

    def test_ranges(self):
        preds, truths, prop = self._case()
        rep = evaluate(ranked(preds), truths, prop)
        for k in rep.ks:
            assert 0.0 <= rep.value("P", k) <= 100.0
            assert 0.0 <= rep.value("nDCG", k) <= 100.0
            assert rep.value("PSP", k) >= 0.0
            assert rep.value("PSnDCG", k) >= 0.0

    def test_format_two_decimals(self):
        preds, truths, prop = self._case()
        text = evaluate(ranked(preds), truths, prop).format()
        lines = text.strip().splitlines()
        assert lines[0].split() == ["metric", "@1", "@3", "@5"]
        assert len(lines) == 6
        for line in lines[1:]:
            for cell in line.split()[1:]:
                whole, frac = cell.split(".")
                assert len(frac) == 2

    def test_perfect_predictions(self):
        prop = PropensityModel.uniform(6)
        truths = [{0}, {1}, {2}]
        preds = [[0], [1], [2]]
        rep = evaluate(ranked(preds), truths, prop, ks=(1,))
        assert rep.value("P", 1) == pytest.approx(100.0)
        assert rep.value("PSP", 1) == pytest.approx(100.0)


@st.composite
def eval_cases(draw):
    """(preds, truths, prop, ks): ranked distinct-label lists, some shorter
    than max(ks) or empty, and label sets, some empty."""
    l = draw(st.integers(1, 12))
    n = draw(st.integers(1, 10))
    labels = st.integers(0, l - 1)
    preds = [draw(st.lists(labels, unique=True, max_size=6)) for _ in range(n)]
    truths = [draw(st.sets(labels, max_size=5)) for _ in range(n)]
    if draw(st.booleans()):
        prop = PropensityModel.uniform(l)
    else:
        p = draw(st.lists(st.floats(0.01, 1.0), min_size=l, max_size=l))
        if draw(st.booleans()):  # ties in propensity go to the lower label id
            p = [round(v, 1) or 0.1 for v in p]
        prop = PropensityModel(0.55, 1.5, 100, np.array(p))
    ks = tuple(sorted(draw(st.sets(st.integers(1, 7), min_size=1, max_size=3))))
    return preds, truths, prop, ks


class TestEvaluateOracle:
    """The array evaluation matches the per-instance loops to 1e-9."""

    @given(eval_cases(), st.booleans())
    @settings(max_examples=300)
    def test_matches_per_instance_loops(self, case, as_arrays):
        preds, truths, prop, ks = case
        if as_arrays:
            preds = [np.array(p, dtype=np.int64) for p in preds]
            truths = [np.array(sorted(t), dtype=np.int64) for t in truths]
        if not any(len(t) for t in truths):
            with pytest.raises(ValueError, match="oracle gain is zero"):
                evaluate(ranked(preds), truths, prop, ks)
            with pytest.raises(ValueError, match="oracle gain is zero"):
                evaluate_oracle(preds, truths, prop, ks)
            return
        got = evaluate(ranked(preds), truths, prop, ks)
        want = evaluate_oracle(preds, truths, prop, ks)
        assert list(got.rows) == list(want.rows)
        for metric in want.rows:
            for k in ks:
                assert got.value(metric, k) == pytest.approx(want.value(metric, k), abs=1e-9)

    def test_scored_labels_rows(self, grouped_train, grouped_test):
        from labelforest.predict import predict_batch
        from labelforest.tree import TrainConfig, train_ensemble

        train, _ = grouped_train
        test, _ = grouped_test
        ens = train_ensemble(train, TrainConfig(n_trees=1, k=4))
        preds = predict_batch(ens, test, k=5)
        truths = [row(test.Y, i).indices for i in range(test.n)]
        prop = fit_propensities(np.bincount(train.Y.indices, minlength=train.l), train.n)
        got = evaluate(preds, truths, prop)
        want = evaluate_oracle(preds, truths, prop)
        assert got.format() == want.format()
        for metric in want.rows:
            for k in want.ks:
                assert got.value(metric, k) == pytest.approx(want.value(metric, k), abs=1e-9)

    def test_validation_messages(self):
        prop = PropensityModel.uniform(3)
        with pytest.raises(ValueError, match="align"):
            evaluate(ranked([[0]]), [], prop)
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(ranked([]), [], prop)
        with pytest.raises(ValueError, match="k must be"):
            evaluate(ranked([[0]]), [{0}], prop, ks=(0,))

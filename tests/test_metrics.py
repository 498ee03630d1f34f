import math

import numpy as np
import pytest

from calibtrain.metrics import (
    Predictions,
    aece,
    brier,
    classification_metrics,
    ece,
    equal_width_index,
    mce,
    mcnemar,
    oe,
    records_from_probs,
    reliability_table,
)
from calibtrain.harness.suite import metric_row
from calibtrain.uncertainty import predictions_from_shares
from oracles import (
    brute_brier,
    brute_classification,
    brute_ece,
    brute_mce,
    brute_mcnemar,
    brute_oe,
    ref_mcnemar,
    ref_metric_row,
    ref_records_from_probs,
    ref_records_from_shares,
    ref_reliability_rows,
)


def make_records(rs, corrects, preds=None):
    """Records with confidence r on the predicted class; label set to match
    the stated correctness."""
    probs, labels = [], []
    for i, (r, ok) in enumerate(zip(rs, corrects)):
        pred = 1 if preds is None else preds[i]
        row = [0.0, 0.0]
        row[pred] = r
        row[1 - pred] = 1.0 - r
        probs.append(row)
        labels.append(pred if ok else 1 - pred)
    return records_from_probs(np.array(probs), np.array(labels))


def random_records(rng, n):
    p1 = rng.uniform(0.001, 0.999, size=n)
    probs = np.stack([1 - p1, p1], axis=1)
    labels = (rng.random(n) < 0.5).astype(int)
    return records_from_probs(probs, labels)


# -- record construction ----------------------------------------------------

def test_record_fields_and_invariants():
    probs = np.array([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5]])
    recs = records_from_probs(probs, np.array([1, 1, 0, 1]))
    assert recs.predicted.tolist() == [1, 0, 0, 0]  # ties go to class 0
    assert recs.correct.tolist() == [True, False, True, False]
    assert recs.g.tolist() == [1, 1, 0, 1]
    assert recs.conf.tolist() == [0.7, 0.9, 0.5, 0.5]
    assert np.array_equal(recs.probs, probs)
    assert (recs.conf.dtype, recs.predicted.dtype, recs.g.dtype) == (np.float64, np.int64, np.int64)
    assert np.array_equal(recs.correct, recs.predicted == recs.g)
    probs[0] = [1.0, 0.0]   # records keep their own copy
    assert np.array_equal(recs.probs[0], [0.3, 0.7])


def test_record_validation():
    with pytest.raises(ValueError):
        records_from_probs(np.array([[0.3, 0.8]]), np.array([1]))  # sums to 1.1
    with pytest.raises(ValueError):
        records_from_probs(np.array([[0.3, 0.7]]), np.array([2]))
    with pytest.raises(ValueError, match="got np.int64\\(2\\)"):
        records_from_probs(np.array([[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]]),
                           np.array([1, 2, 0]))
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        records_from_probs(np.array([[0.3, 0.7]]), np.array([0.5]))
    with pytest.raises(ValueError):
        records_from_probs(np.array([[0.3, 0.7], [0.4, 0.6]]), np.array([1]))
    # one column sums to 1 and would pass every other check
    with pytest.raises(ValueError, match=r"^expected probs of shape \(n, 2\), got \(3, 1\)$"):
        records_from_probs(np.ones((3, 1)), np.array([0, 1, 0]))


def test_metrics_refuse_no_records():
    empty = np.zeros(0, dtype=np.int64)
    preds = Predictions.of(np.zeros((0, 2)), empty, empty)
    for metric in (brier, classification_metrics):
        with pytest.raises(ValueError, match="^need at least one record$"):
            metric(preds)


# -- binning ----------------------------------------------------------------

def test_equal_width_boundary_half():
    # 0.5 falls in the bin whose half-open interval covers it
    assert equal_width_index(0.5, 15) == 7
    assert equal_width_index(1.0, 15) == 14
    assert equal_width_index(0.0, 15) == 0


def test_equal_width_edges_and_counts():
    recs = make_records([0.55, 0.95, 0.6, 1.0], [1, 1, 0, 1])
    table = reliability_table(recs, "equal_width", 10)
    assert table.n == 4
    assert sum(b.count for b in table.bins) == 4
    assert table.bins[0].lower == 0.0 and table.bins[-1].upper == 1.0
    # empty bin row: count 0, stats absent
    empty = table.bins[0]
    assert empty.count == 0 and empty.conf is None and empty.acc is None


def test_adaptive_one_per_bin():
    rs = np.linspace(0.5, 1.0, 15)
    recs = make_records(rs, [1] * 15)
    table = reliability_table(recs, "adaptive", 15)
    assert [b.count for b in table.bins] == [1] * 15


def test_adaptive_3205_split():
    rng = np.random.default_rng(0)
    recs = random_records(rng, 3205)
    table = reliability_table(recs, "adaptive", 15)
    counts = [b.count for b in table.bins]
    assert sorted(set(counts)) == [213, 214]
    assert counts == [214] * 10 + [213] * 5


def test_adaptive_count_balance_property():
    rng = np.random.default_rng(1)
    for n in (1, 7, 14, 15, 16, 300, 499):
        table = reliability_table(random_records(rng, n), "adaptive", 15)
        counts = [b.count for b in table.bins]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1


def test_all_identical_confidences():
    recs = make_records([0.8] * 9, [1, 0, 1, 0, 1, 0, 1, 0, 1])
    ew = reliability_table(recs, "equal_width", 15)
    assert sum(1 for b in ew.bins if b.count) == 1
    ad = reliability_table(recs, "adaptive", 3)
    for b in ad.bins:
        assert abs(b.conf - 0.8) < 1e-12


def test_adaptive_tie_break_is_original_order():
    # two records at the same confidence: first goes to the earlier bin
    recs = make_records([0.8, 0.8], [1, 0])
    table = reliability_table(recs, "adaptive", 2)
    assert table.bins[0].acc == 1.0 and table.bins[1].acc == 0.0


def test_bad_bin_args():
    recs = make_records([0.8], [1])
    with pytest.raises(ValueError):
        reliability_table(recs, "equal_width", 0)
    with pytest.raises(ValueError):
        empty = np.zeros(0, dtype=np.int64)
        reliability_table(Predictions.of(np.zeros((0, 2)), empty, empty), "adaptive", 15)
    with pytest.raises(ValueError):
        reliability_table(recs, "quantile", 15)


# -- hand fixtures ----------------------------------------------------------

def test_ece_hand_fixture_one_bin():
    recs = make_records([0.8, 0.9, 0.7, 0.6], [1, 1, 0, 0])
    assert abs(ece(recs, 1) - 0.25) < 1e-12


def test_oe_hand_fixture():
    recs = make_records([0.9, 0.9], [1, 0])
    assert abs(oe(recs, 1) - 0.36) < 1e-12


def test_perfect_predictions():
    recs = make_records([1.0] * 6, [1] * 6)
    assert ece(recs, 15) == 0.0
    assert oe(recs, 15) == 0.0
    assert mce(recs, 15) == 0.0
    assert brier(recs) == 0.0


def test_underconfident_oe_zero():
    # acc 1.0 in every bin, conf below 1: hinge clips to zero
    recs = make_records([0.7, 0.8, 0.9], [1, 1, 1])
    assert oe(recs, 15) == 0.0
    assert ece(recs, 15) > 0


def test_mce_takes_max_gap():
    # bin A gap 0.1 (conf 0.6 acc 0.5), bin B gap 0.3 (conf 0.9, acc 0.6)
    recs = make_records([0.6, 0.6, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9],
                        [1, 0] + [1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    got = mce(recs, 10)
    assert abs(got - 0.3) < 1e-12


def test_mce_single_bin_equals_ece():
    rng = np.random.default_rng(2)
    recs = random_records(rng, 40)
    assert abs(mce(recs, 1) - ece(recs, 1)) < 1e-15


def test_brier_fixtures():
    sure_right = records_from_probs(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 0]))
    assert brier(sure_right) == 0.0
    half = records_from_probs(np.array([[0.5, 0.5]] * 4), np.array([1, 0, 1, 0]))
    assert abs(brier(half) - 0.5) < 1e-15
    sure_wrong = records_from_probs(np.array([[0.0, 1.0]]), np.array([0]))
    assert abs(brier(sure_wrong) - 2.0) < 1e-15


# -- classification metrics --------------------------------------------------

def test_classification_all_correct():
    recs = make_records([0.9, 0.8], [1, 1], preds=[1, 0])
    out = classification_metrics(recs)
    assert out == {"sensitivity": 1.0, "specificity": 1.0, "bacc": 1.0}


def test_classification_all_predicted_positive():
    recs = make_records([0.9, 0.9, 0.8, 0.8], [1, 1, 0, 0], preds=[1, 1, 1, 1])
    out = classification_metrics(recs)
    assert out["sensitivity"] == 1.0
    assert out["specificity"] == 0.0
    assert out["bacc"] == 0.5


def test_classification_single_class_absent():
    recs = make_records([0.9, 0.8], [1, 1], preds=[1, 1])  # only positives present
    out = classification_metrics(recs)
    assert out["sensitivity"] == 1.0
    assert out["specificity"] is None
    assert out["bacc"] is None


# -- McNemar ------------------------------------------------------------------

def test_mcnemar_identical_predictions():
    rng = np.random.default_rng(3)
    recs = random_records(rng, 50)
    out = mcnemar(recs, recs)
    assert out["p_value"] == 1.0 and out["statistic"] == 0.0


def test_mcnemar_b10_c0():
    labels = np.ones(10, dtype=int)
    a = records_from_probs(np.array([[0.1, 0.9]] * 10), labels)   # all correct
    b = records_from_probs(np.array([[0.9, 0.1]] * 10), labels)   # all wrong
    out = mcnemar(a, b)
    assert abs(out["statistic"] - 8.1) < 1e-12
    assert out["p_value"] < 0.05


def test_mcnemar_balanced_disagreement():
    labels = np.ones(8, dtype=int)
    pa = np.array([[0.1, 0.9]] * 4 + [[0.9, 0.1]] * 4)
    pb = np.array([[0.9, 0.1]] * 4 + [[0.1, 0.9]] * 4)
    out = mcnemar(records_from_probs(pa, labels), records_from_probs(pb, labels))
    assert abs(out["statistic"] - 1.0 / 8.0) < 1e-12
    assert out["p_value"] > 0.7


def test_mcnemar_symmetry_and_validation():
    rng = np.random.default_rng(4)
    p1 = rng.uniform(0.001, 0.999, 60)
    labels = (rng.random(60) < 0.5).astype(int)
    a = records_from_probs(np.stack([1 - p1, p1], axis=1), labels)
    p2 = rng.uniform(0.001, 0.999, 60)
    b = records_from_probs(np.stack([1 - p2, p2], axis=1), labels)
    ab, ba = mcnemar(a, b), mcnemar(b, a)
    assert ab["p_value"] == ba["p_value"]
    assert ab["b"] == ba["c"]
    with pytest.raises(ValueError):
        mcnemar(a, records_from_probs(b.probs[:-1], b.g[:-1]))
    flipped = records_from_probs(np.stack([1 - p2, p2], axis=1), 1 - labels)
    with pytest.raises(ValueError, match="labels"):
        mcnemar(a, flipped)


# -- oracle equivalence and range properties ----------------------------------

def test_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(1, 200))
        recs = random_records(rng, n)
        rs = recs.conf.tolist()
        corrects = recs.correct.tolist()
        m = int(rng.integers(1, 20))
        assert abs(ece(recs, m) - brute_ece(rs, corrects, m)) < 1e-10
        assert abs(aece(recs, m) - brute_ece(rs, corrects, m, adaptive=True)) < 1e-10
        assert abs(mce(recs, m) - brute_mce(rs, corrects, m)) < 1e-10
        assert abs(oe(recs, m) - brute_oe(rs, corrects, m)) < 1e-10
        probs = recs.probs.tolist()
        labels = recs.g.tolist()
        assert abs(brier(recs) - brute_brier(probs, labels)) < 1e-10
        sen, spe, bacc = brute_classification(recs.predicted.tolist(), labels)
        got = classification_metrics(recs)
        assert got["sensitivity"] == sen
        assert got["specificity"] == spe
        assert got["bacc"] == bacc


def test_mcnemar_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 100))
        labels = (rng.random(n) < 0.5).astype(int)
        pa = rng.uniform(0.001, 0.999, n)
        pb = rng.uniform(0.001, 0.999, n)
        a = records_from_probs(np.stack([1 - pa, pa], axis=1), labels)
        b = records_from_probs(np.stack([1 - pb, pb], axis=1), labels)
        stat, p = brute_mcnemar(a.correct.tolist(), b.correct.tolist())
        got = mcnemar(a, b)
        assert abs(got["statistic"] - stat) < 1e-10
        assert abs(got["p_value"] - p) < 1e-10


def test_range_and_dominance_properties():
    rng = np.random.default_rng(7)
    for _ in range(40):
        recs = random_records(rng, int(rng.integers(1, 120)))
        m = int(rng.integers(1, 25))
        e, a, x, o = ece(recs, m), aece(recs, m), mce(recs, m), oe(recs, m)
        for v in (e, a, x, o):
            assert 0.0 <= v <= 1.0
        assert 0.0 <= brier(recs) <= 2.0
        assert o <= e + 1e-15  # per-bin: conf*hinge <= |acc-conf| since conf <= 1


def test_equal_width_order_independent():
    rng = np.random.default_rng(8)
    recs = random_records(rng, 90)
    perm = rng.permutation(90)
    shuffled = records_from_probs(recs.probs[perm], recs.g[perm])
    assert abs(ece(recs, 15) - ece(shuffled, 15)) < 1e-12
    assert abs(oe(recs, 15) - oe(shuffled, 15)) < 1e-12


def test_sampling_consistency_ece_small():
    # confidences drawn, correctness Bernoulli(r): ECE tends to 0
    rng = np.random.default_rng(9)
    n = 100_000
    rs = rng.uniform(0.5, 1.0, n)
    corrects = rng.random(n) < rs
    preds = np.ones(n, dtype=int)
    labels = np.where(corrects, 1, 0)
    recs = records_from_probs(np.stack([1 - rs, rs], axis=1), labels)
    assert ece(recs, 15) < 0.01
    assert oe(recs, 15) < 0.005


def test_reliability_table_rows():
    rng = np.random.default_rng(10)
    recs = random_records(rng, 200)
    rows = reliability_table(recs, "adaptive", 15).rows()
    assert len(rows) == 15
    assert all(set(r) == {"bin", "lower", "upper", "count", "conf", "acc"} for r in rows)
    ew = reliability_table(make_records([0.95], [1]), "equal_width", 15)
    assert ew.bins[0].count == 0 and ew.bins[0].acc is None


# -- bitwise equality with the per-record reference ----------------------------

def exact_cases():
    """(kind, positive-class probabilities or vote shares, labels)."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 7, 14, 15, 16, 44, 301):   # below 15, multiples of 15 and not
        cases.append(("probs", rng.uniform(0.0, 1.0, n), rng.integers(0, 2, n)))
    edges = np.concatenate([np.arange(16) / 15, 1.0 - np.arange(16) / 15, [0.5, 0.5]])
    cases.append(("probs", edges, rng.integers(0, 2, edges.size)))
    # softmax rows, whose two entries need not sum to exactly 1
    for n in (2, 3, 5, 8, 13, 500):
        e = np.exp(rng.normal(0.0, 3.0, (n, 2)))
        cases.append(("probs", e / e.sum(axis=1, keepdims=True), rng.integers(0, 2, n)))
    shares = rng.integers(0, 21, 203) / 20   # k/20, with ties at 0.5
    cases.append(("shares", shares, rng.integers(0, 2, shares.size)))
    p = rng.uniform(0.0, 1.0, 50)
    predicted = (p > 0.5).astype(int)
    cases.append(("probs", p, np.ones(50, dtype=int)))   # a single class
    cases.append(("probs", p, predicted))                # all correct
    cases.append(("probs", p, 1 - predicted))            # all wrong
    cases.append(("shares", shares, (shares >= 0.5).astype(int)))
    cases.append(("shares", shares, (shares < 0.5).astype(int)))
    return cases


def both_forms(kind, p, g):
    if kind == "shares":
        return predictions_from_shares(p, g), ref_records_from_shares(p, g)
    probs = p if p.ndim == 2 else np.stack([1.0 - p, p], axis=1)
    return records_from_probs(probs, g), ref_records_from_probs(probs, g)


def test_metrics_equal_per_record_reference_bitwise():
    rng = np.random.default_rng(12)
    for kind, p, g in exact_cases():
        preds, records = both_forms(kind, p, g)
        assert metric_row(preds) == ref_metric_row(records)
        for scheme in ("equal_width", "adaptive"):
            assert reliability_table(preds, scheme).rows() == ref_reliability_rows(records, scheme)
        other_kind = "shares" if kind == "probs" else "probs"
        other = rng.integers(0, 21, len(g)) / 20 if other_kind == "shares" else rng.random(len(g))
        preds_b, records_b = both_forms(other_kind, other, g)
        assert mcnemar(preds, preds_b) == ref_mcnemar(records, records_b)
        assert mcnemar(preds, preds) == ref_mcnemar(records, records)

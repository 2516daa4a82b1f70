import json

import numpy as np
import pytest

from oracles import brute_metrics
from sentigru import (
    LABEL_NAMES,
    ConfusionMatrix,
    EpochRecord,
    classification_metrics,
    confusion_matrix,
    history_report,
    report_from_predictions,
)

TRUTH = [0, 0, 1, 1, 2, 2]
PRED = [0, 1, 1, 1, 2, 0]


class TestConfusionMatrix:
    def test_hand_counted_three_class_example(self):
        cm = confusion_matrix(TRUTH, PRED, num_classes=3)
        assert cm.counts.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
        assert cm.total() == 6

    def test_rows_are_truth_columns_are_prediction(self):
        cm = confusion_matrix([2], [0], num_classes=3)
        assert cm.counts[2, 0] == 1 and cm.counts[0, 2] == 0

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix([0, 3], [0, 0], num_classes=3)
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix([0, 0], [-1, 0], num_classes=3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], num_classes=2)

    def test_rejects_non_square_or_negative(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))


class TestClassificationMetrics:
    def test_hand_computed_values(self):
        report = classification_metrics(confusion_matrix(TRUTH, PRED, 3))
        assert report.accuracy == pytest.approx(4 / 6)
        c0, c1, c2 = report.per_class
        assert (c0.precision, c0.recall, c0.f1) == \
            pytest.approx((0.5, 0.5, 0.5))
        assert (c1.precision, c1.recall, c1.f1) == \
            pytest.approx((2 / 3, 1.0, 0.8))
        assert (c2.precision, c2.recall, c2.f1) == \
            pytest.approx((1.0, 0.5, 2 / 3))
        assert report.macro.precision == pytest.approx((0.5 + 2 / 3 + 1) / 3)
        assert report.micro.precision == pytest.approx(4 / 6)
        assert report.weighted.f1 == pytest.approx(
            (2 * 0.5 + 2 * 0.8 + 2 * (2 / 3)) / 6)

    def test_perfect_predictions(self):
        report = report_from_predictions([0, 1, 2], [0, 1, 2], 3)
        assert report.accuracy == 1.0
        assert report.macro.f1 == 1.0 and report.micro.f1 == 1.0
        assert all(c.f1 == 1.0 for c in report.per_class)

    def test_absent_class_yields_zero_with_flags(self):
        # class 2 never appears in truth or prediction
        report = report_from_predictions([0, 1], [0, 1], 3)
        c2 = report.per_class[2]
        assert c2.support == 0
        assert (c2.precision, c2.recall, c2.f1) == (0.0, 0.0, 0.0)
        assert not c2.precision_defined
        assert not c2.recall_defined
        assert not c2.f1_defined
        # the populated classes keep their flags set
        assert report.per_class[0].precision_defined

    def test_never_predicted_class_has_undefined_precision_only(self):
        report = report_from_predictions([0, 1, 1], [0, 0, 0], 3)
        c1 = report.per_class[1]
        assert not c1.precision_defined and c1.recall_defined
        assert c1.recall == 0.0  # defined, but zero: no hits

    def test_micro_average_equals_accuracy_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 40))
            truth = rng.integers(0, k, n)
            pred = rng.integers(0, k, n)
            report = report_from_predictions(truth, pred, k)
            assert report.micro.precision == report.accuracy
            assert report.micro.recall == report.accuracy
            assert report.micro.f1 == report.accuracy

    def test_matches_brute_force_over_many_trials(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(1, 60))
            truth = rng.integers(0, k, n)
            pred = rng.integers(0, k, n)
            report = report_from_predictions(truth, pred, k)
            want = brute_metrics(truth, pred, k)
            worst = max(worst, abs(report.accuracy - want["accuracy"]))
            for got_c, want_c in zip(report.per_class, want["per_class"]):
                assert got_c.support == want_c["support"]
                for field in ("precision", "recall", "f1"):
                    worst = max(worst,
                                abs(getattr(got_c, field) - want_c[field]))
            for view in ("macro", "micro", "weighted"):
                got_v = getattr(report, view)
                for field in ("precision", "recall", "f1"):
                    worst = max(worst,
                                abs(getattr(got_v, field) - want[view][field]))
        assert worst <= 1e-12

    def test_binary_hand_oracle(self):
        # truth: 1 1 1 0 0 ; pred: 1 0 1 0 1 -> tp=2 fn=1 fp=1 tn=1
        report = report_from_predictions([1, 1, 1, 0, 0], [1, 0, 1, 0, 1], 2)
        pos = report.per_class[1]
        assert pos.precision == pytest.approx(2 / 3)
        assert pos.recall == pytest.approx(2 / 3)
        assert pos.f1 == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(3 / 5)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classification_metrics(ConfusionMatrix(np.zeros((3, 3), np.int64)))


class TestReportSerialization:
    def test_to_dict_carries_label_names(self):
        report = report_from_predictions([0, 5, 2], [0, 5, 2], 6)
        doc = report.to_dict(label_names=LABEL_NAMES)
        assert doc["accuracy"] == 1.0
        assert doc["total"] == 3
        assert doc["per_class"][5]["label_name"] == "surprise"
        assert doc["confusion"][2][2] == 1
        assert set(doc["macro"]) == {"precision", "recall", "f1"}

    def test_per_class_key_order(self):
        report = report_from_predictions(TRUTH, PRED, 3)
        assert [list(m) for m in report.to_dict(LABEL_NAMES)["per_class"]] == [[
            "label", "label_name", "support", "precision", "recall", "f1",
            "precision_defined", "recall_defined", "f1_defined"]] * 3

    def test_to_json_round_trips(self):
        report = report_from_predictions(TRUTH, PRED, 3)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["accuracy"] == pytest.approx(4 / 6)
        assert doc["per_class"][1]["f1"] == pytest.approx(0.8)
        # flags must serialize as genuine booleans
        assert doc["per_class"][0]["precision_defined"] is True


class TestHistoryReport:
    @staticmethod
    def records():
        return [
            EpochRecord(1, 1.2, 0.55, 1.1, 0.85, 3.0),
            EpochRecord(2, 0.9, 0.70, 0.95, 0.90, 3.0),
            EpochRecord(3, 0.7, 0.80, 0.90, 0.93, 3.0),
        ]

    def test_summary_deltas(self, tmp_path):
        doc = history_report(self.records(), tmp_path / "h.json")
        s = doc["summary"]
        assert s["first_val_acc"] == pytest.approx(0.85)
        assert s["final_val_acc"] == pytest.approx(0.93)
        assert s["val_acc_delta"] == pytest.approx(0.08)
        assert s["val_loss_delta"] == pytest.approx(-0.2)
        assert len(doc["epochs"]) == 3

    def test_written_file_matches_return_value(self, tmp_path):
        path = tmp_path / "h.json"
        doc = history_report(self.records(), path)
        assert json.loads(path.read_text()) == doc

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            history_report([], tmp_path / "h.json")

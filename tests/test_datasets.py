import numpy as np
import pytest

from uqeval import MlpSpec, TrainConfig, ValidationError, generate_dataset, train_mlp
from uqeval.datasets import SyntheticDataset, save_dataset


class TestGeneration:
    def test_same_seed_identical(self):
        a = generate_dataset("two-moons", 100, 0.2, 5)
        b = generate_dataset("two-moons", 100, 0.2, 5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_different_seeds_differ(self):
        a = generate_dataset("two-moons", 100, 0.2, 5)
        b = generate_dataset("two-moons", 100, 0.2, 6)
        assert not np.array_equal(a.x, b.x)

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            generate_dataset("two-moons", 19, 0.1, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate_dataset("spirals", 100, 0.1, 0)

    def test_split_fractions(self):
        ds = generate_dataset("two-moons", 200, 0.2, 7)
        assert len(ds.train_idx) == 150
        assert len(ds.test_idx) == 50

    def test_stratified_both_classes_everywhere(self):
        for seed in range(10):
            ds = generate_dataset("gaussian-blobs", 40, 0.5, seed)
            assert set(ds.train_y.tolist()) == {0, 1}
            assert set(ds.test_y.tolist()) == {0, 1}

    def test_ids_align_with_rows(self):
        ds = generate_dataset("two-moons", 60, 0.1, 9)
        assert len(ds.ids) == 60
        assert ds.ids[0] == "s0000"
        assert len(ds.test_ids) == len(ds.test_idx)

    def test_noise_free_moons_no_label_noise(self):
        ds = generate_dataset("two-moons", 100, 0.0, 1)
        # class 0 is the upper arc (nonnegative second coordinate)
        assert np.all(ds.x[ds.y == 0, 1] >= -1e-12)
        assert np.all(ds.x[ds.y == 1, 1] <= 0.5 + 1e-12)


class TestConstruction:
    SPLIT = (np.array([0, 1]), np.array([2, 3]))

    def test_stores_float_points_and_integer_labels(self):
        ds = SyntheticDataset(np.array([[0, 0], [1, 1], [2, 2], [3, 3]]),
                              [0, 1.0, 0, 1.0], *self.SPLIT)
        assert ds.x.dtype == np.float64 and ds.y.dtype == np.int64
        assert ds.train_x.dtype == np.float64 and ds.train_y.dtype == np.int64
        assert ds.y.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("labels", [[0, 1.7, 0, 1.2], [0, 1, 0, np.nan], [0, 1, 0, np.inf]])
    def test_non_integral_labels_rejected(self, labels):
        with pytest.raises(ValidationError, match="labels must be integers"):
            SyntheticDataset(np.zeros((4, 2)), labels, *self.SPLIT)


    def test_negative_labels_rejected(self):
        with pytest.raises(ValidationError, match="labels must be nonnegative class indices"):
            SyntheticDataset(np.zeros((4, 2)), [-1, 0, -1, 0], *self.SPLIT)


class TestBlobs:
    def test_far_separated_blobs_trivially_learnable(self):
        ds = generate_dataset("gaussian-blobs", 120, 0.3, 11)
        model = train_mlp(
            MlpSpec((2, 4, 2), dropout_rate=0.0, seed=11),
            TrainConfig(epochs=200, seed=11),
            (ds.train_x, ds.train_y),
        )
        probs = model.predict_proba(ds.test_x)
        assert (probs.argmax(axis=1) == ds.test_y).mean() == 1.0


class TestExport:
    def test_csv_schema(self, tmp_path):
        ds = generate_dataset("two-moons", 24, 0.1, 13)
        path = tmp_path / "d.csv"
        save_dataset(ds, path, header_comment="manifest_digest=sha256:x")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest_digest=sha256:x"
        assert lines[1] == "x0,x1,label,split"
        assert len(lines) == 2 + 24
        splits = [line.split(",")[3] for line in lines[2:]]
        assert splits.count("train") == len(ds.train_idx)
        assert splits.count("test") == len(ds.test_idx)
        labels = [int(line.split(",")[2]) for line in lines[2:]]
        assert labels == ds.y.tolist()

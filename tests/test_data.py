"""Tests for dataset containers, the synthetic task, and text storage.

Geometry checks recompute centre positions from first principles; the
storage round trip is checked bit-exactly, including extreme float
magnitudes (17 significant digits are enough to reconstruct any double).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshadapt import data
from meshadapt.data import (
    CIRCLE_RADIUS,
    Dataset,
    DatasetFormatError,
    blob_centers,
    gen_synthetic_shift,
    load_dataset,
    save_dataset,
    split_nshot,
)


def make_dataset(n=8, d=3, num_classes=2, domain="target", seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    truth = rng.integers(0, num_classes, size=n)
    split = np.array(["labeled", "unlabeled"] * (n // 2))
    labels = np.where(split == "unlabeled", -1, truth)
    return Dataset(features, labels, truth, domain, split, num_classes)


class TestBlobCenters:
    def test_radius_and_spacing(self):
        centers = blob_centers(4)
        norms = np.linalg.norm(centers, axis=1)
        assert np.allclose(norms, CIRCLE_RADIUS, atol=1e-12)
        # equally spaced: consecutive centres subtend equal angles
        angles = np.arctan2(centers[:, 1], centers[:, 0])
        gaps = np.diff(np.unwrap(angles))
        assert np.allclose(gaps, np.pi / 2, atol=1e-12)

    def test_rotation_by_class_spacing_permutes_centers(self):
        base = blob_centers(4)
        rotated = blob_centers(4, rotation_deg=90.0)
        assert np.allclose(rotated, np.roll(base, -1, axis=0), atol=1e-12)

    def test_translation_direction(self):
        base = blob_centers(3)
        shifted = blob_centers(3, translation=2.0)
        delta = shifted - base
        expected = 2.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(delta, expected, atol=1e-12)

    def test_rotation_preserves_radius(self):
        centers = blob_centers(5, rotation_deg=50.0)
        assert np.allclose(np.linalg.norm(centers, axis=1), CIRCLE_RADIUS, atol=1e-12)

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="num_classes"):
            blob_centers(1)


class TestDatasetValidation:
    def test_valid_roundtrip_of_fields(self):
        ds = make_dataset()
        assert ds.n == 8
        assert ds.n_features == 3
        assert ds.num_classes == 2

    def test_length_mismatch(self):
        ds = make_dataset()
        with pytest.raises(ValueError, match="one entry per row"):
            Dataset(ds.features, ds.labels[:-1], ds.truth[:-1], "target", ds.split[:-1], 2)

    def test_bad_domain(self):
        ds = make_dataset()
        with pytest.raises(ValueError, match="domain"):
            Dataset(ds.features, ds.labels, ds.truth, "nowhere", ds.split, 2)

    def test_bad_split_tag(self):
        ds = make_dataset()
        bad = ds.split.copy()
        bad[0] = "mystery"
        with pytest.raises(ValueError, match="split tag"):
            Dataset(ds.features, ds.labels, ds.truth, "target", bad, 2)

    def test_label_out_of_range(self):
        ds = make_dataset()
        bad = ds.labels.copy()
        bad[0] = 7
        with pytest.raises(ValueError, match="out of range"):
            Dataset(ds.features, bad, ds.truth, "target", ds.split, 2)

    def test_unlabeled_rows_must_hide_labels(self):
        ds = make_dataset()
        bad = ds.labels.copy()
        bad[1] = ds.truth[1]  # row 1 is tagged unlabeled
        with pytest.raises(ValueError, match="unlabeled"):
            Dataset(ds.features, bad, ds.truth, "target", ds.split, 2)

    def test_visible_labels_must_match_truth(self):
        ds = make_dataset()
        bad = ds.labels.copy()
        bad[0] = 1 - bad[0]  # row 0 is labeled; flip it
        with pytest.raises(ValueError, match="agree"):
            Dataset(ds.features, bad, ds.truth, "target", ds.split, 2)

    def test_subset_filters_rows(self):
        ds = make_dataset()
        sub = ds.subset("labeled")
        assert sub.n == 4
        assert np.all(sub.split == "labeled")
        assert np.array_equal(sub.features, ds.features[ds.split == "labeled"])

    def test_equals(self):
        a = make_dataset(seed=1)
        b = make_dataset(seed=1)
        c = make_dataset(seed=2)
        assert a.equals(b)
        assert not a.equals(c)


@pytest.fixture(scope="module")
def pair():
    return gen_synthetic_shift(
        num_classes=4, n_source=800, m_target=800, rotation_deg=50.0,
        translation=0.0, noise_std=0.35, seed=2021, lift_dim=10,
    )


class TestGenSyntheticShift:

    def test_shapes_and_domains(self, pair):
        source, target = pair
        assert source.features.shape == (800, 10)
        assert target.features.shape == (800, 10)
        assert source.domain == "source"
        assert target.domain == "target"

    def test_balanced_classes(self, pair):
        source, target = pair
        assert np.array_equal(np.bincount(source.truth), [200] * 4)
        assert np.array_equal(np.bincount(target.truth), [200] * 4)

    def test_source_train_val_split(self, pair):
        source, _ = pair
        assert set(np.unique(source.split)) == {"train", "val"}
        for c in range(4):
            rows = source.truth == c
            n_val = (source.split[rows] == "val").sum()
            assert n_val == 20  # round(0.1 * 200)
        assert np.array_equal(source.labels, source.truth)

    def test_target_pool_fully_hidden(self, pair):
        _, target = pair
        assert np.all(target.split == "unlabeled")
        assert np.all(target.labels == -1)
        assert np.all(target.truth >= 0)

    def test_rows_live_in_a_plane(self, pair):
        # the lift is 2 -> 10 and noise is added before lifting, so every
        # row sits in the same two-dimensional subspace
        source, target = pair
        for ds in pair:
            s = np.linalg.svd(ds.features, compute_uv=False)
            assert s[2] < 1e-10 * s[0]

    def test_lift_is_isometric(self, pair):
        # distances between class means match latent centre distances
        source, _ = pair
        means = np.stack([source.features[source.truth == c].mean(axis=0) for c in range(4)])
        centers = blob_centers(4)
        for i in range(4):
            for j in range(4):
                lifted = np.linalg.norm(means[i] - means[j])
                latent = np.linalg.norm(centers[i] - centers[j])
                assert lifted == pytest.approx(latent, abs=0.15)

    def test_rotation_shifts_target_means(self, pair):
        source, target = pair
        # per-class mean displacement is roughly |2 r sin(rot/2)| for every class
        expected = 2.0 * CIRCLE_RADIUS * np.sin(np.deg2rad(50.0) / 2.0)
        for c in range(4):
            shift = np.linalg.norm(
                target.features[target.truth == c].mean(axis=0)
                - source.features[source.truth == c].mean(axis=0)
            )
            assert shift == pytest.approx(expected, abs=0.15)

    def test_deterministic_under_seed(self):
        kwargs = dict(num_classes=3, n_source=60, m_target=60, rotation_deg=30.0,
                      translation=0.5, noise_std=0.2, lift_dim=6)
        s1, t1 = gen_synthetic_shift(seed=5, **kwargs)
        s2, t2 = gen_synthetic_shift(seed=5, **kwargs)
        s3, _ = gen_synthetic_shift(seed=6, **kwargs)
        assert s1.equals(s2) and t1.equals(t2)
        assert not s1.equals(s3)

    def test_degenerate_rotation_rejected(self):
        # rotating four centres by a quarter turn drops each target blob
        # exactly onto the next class's source blob
        with pytest.raises(ValueError, match="degenerate"):
            gen_synthetic_shift(
                num_classes=4, n_source=40, m_target=40, rotation_deg=90.0,
                translation=0.0, noise_std=0.1, seed=0, lift_dim=4,
            )

    def test_parameter_errors(self):
        good = dict(num_classes=3, n_source=30, m_target=30, rotation_deg=10.0,
                    translation=0.0, noise_std=0.1, seed=0, lift_dim=4)
        with pytest.raises(ValueError, match="num_classes"):
            gen_synthetic_shift(**{**good, "num_classes": 1})
        with pytest.raises(ValueError, match="per class"):
            gen_synthetic_shift(**{**good, "n_source": 2})
        with pytest.raises(ValueError, match="noise_std"):
            gen_synthetic_shift(**{**good, "noise_std": -0.1})
        with pytest.raises(ValueError, match="lift_dim"):
            gen_synthetic_shift(**{**good, "lift_dim": 1})
        with pytest.raises(ValueError, match="val_fraction"):
            gen_synthetic_shift(**good, val_fraction=1.0)


class TestSplitNshot:
    @pytest.fixture()
    def pool(self):
        _, target = gen_synthetic_shift(
            num_classes=4, n_source=80, m_target=200, rotation_deg=50.0,
            translation=0.0, noise_std=0.35, seed=11, lift_dim=10,
        )
        return target

    def test_shot_counts_and_test_block(self, pool):
        split = split_nshot(pool, shots=3, seed=0)
        for c in range(4):
            rows = split.truth == c
            assert (split.split[rows] == "labeled").sum() == 3
            n_rest = rows.sum() - 3
            assert (split.split[rows] == "test").sum() == int(0.25 * n_rest)
        assert np.all(split.labels[split.split == "labeled"] >= 0)
        assert np.all(split.labels[split.split == "test"] >= 0)
        assert np.all(split.labels[split.split == "unlabeled"] == -1)

    def test_visible_labels_match_truth(self, pool):
        split = split_nshot(pool, shots=2, seed=1)
        visible = split.split != "unlabeled"
        assert np.array_equal(split.labels[visible], split.truth[visible])

    def test_deterministic(self, pool):
        a = split_nshot(pool, shots=3, seed=4)
        b = split_nshot(pool, shots=3, seed=4)
        c = split_nshot(pool, shots=3, seed=5)
        assert a.equals(b)
        assert not a.equals(c)

    def test_source_pool_untouched(self, pool):
        before = pool.labels.copy()
        split_nshot(pool, shots=3, seed=0)
        assert np.array_equal(pool.labels, before)
        assert np.all(pool.split == "unlabeled")

    def test_zero_test_fraction(self, pool):
        split = split_nshot(pool, shots=3, seed=0, test_fraction=0.0)
        assert not (split.split == "test").any()

    def test_parameter_errors(self, pool):
        with pytest.raises(ValueError, match="shots"):
            split_nshot(pool, shots=0, seed=0)
        with pytest.raises(ValueError, match="test_fraction"):
            split_nshot(pool, shots=3, seed=0, test_fraction=1.0)
        tiny = Dataset(
            features=np.random.default_rng(0).standard_normal((4, 2)),
            labels=np.full(4, -1),
            truth=np.array([0, 0, 1, 1]),
            domain="target",
            split=np.full(4, "unlabeled"),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="need at least"):
            split_nshot(tiny, shots=2, seed=0)
        unknown = Dataset(
            features=tiny.features,
            labels=np.full(4, -1),
            truth=np.full(4, -1),
            domain="target",
            split=np.full(4, "unlabeled"),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="ground truth"):
            split_nshot(unknown, shots=1, seed=0)


class TestStorageRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        _, target = gen_synthetic_shift(
            num_classes=3, n_source=30, m_target=60, rotation_deg=20.0,
            translation=0.3, noise_std=0.25, seed=3, lift_dim=5,
        )
        ds = split_nshot(target, shots=2, seed=3)
        path = tmp_path / "target.tsv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.equals(ds)
        assert loaded.features.dtype == np.float64

    def test_unlabeled_rows_keep_truth_on_disk(self, tmp_path):
        ds = make_dataset()
        path = tmp_path / "d.tsv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.truth, ds.truth)
        assert np.all(loaded.labels[loaded.split == "unlabeled"] == -1)

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=4,
            max_size=4,
        )
    )
    def test_extreme_floats_survive(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("floats")
        features = np.array([values, values], dtype=np.float64)
        ds = Dataset(
            features=features,
            labels=np.array([0, 1]),
            truth=np.array([0, 1]),
            domain="source",
            split=np.array(["train", "val"]),
            num_classes=2,
        )
        path = tmp_path / "f.tsv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, features)

    def test_malformed_files_raise_with_line_numbers(self, tmp_path):
        cases = {
            "empty": ("", "empty file"),
            "header": ("3\n", "header"),
            "fields": ("2\t2\n1.0\t2.0\t0\tsource\n", "expected 5 fields"),
            "numeric": ("2\t2\nx\t2.0\t0\tsource\ttrain\n", "malformed numeric"),
            "domain": ("2\t2\n1.0\t2.0\t0\tmoon\ttrain\n", "unknown domain"),
            "tag": ("2\t2\n1.0\t2.0\t0\tsource\tnope\n", "unknown split tag"),
            "range": ("2\t2\n1.0\t2.0\t5\tsource\ttrain\n", "out of range"),
            "hidden": ("2\t2\n1.0\t2.0\t-1\tsource\ttrain\n", "only valid on unlabeled"),
            "norows": ("2\t2\n", "no sample rows"),
            "nan": ("2\t2\n1.0\t2.0\t0\tsource\ttrain\nnan\t2.0\t0\tsource\ttrain\n",
                    r"nan\.tsv: line 3: non-finite feature"),
            "inf": ("2\t2\n1.0\t-inf\t0\tsource\ttrain\n", r"inf\.tsv: line 2: non-finite feature"),
            "mixed": (
                "2\t2\n1.0\t2.0\t0\tsource\ttrain\n1.0\t2.0\t0\ttarget\ttrain\n",
                "mix domain",
            ),
        }
        for name, (content, message) in cases.items():
            path = tmp_path / f"{name}.tsv"
            path.write_text(content)
            with pytest.raises(DatasetFormatError, match=message):
                load_dataset(path)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("2\t2\n1.0\t2.0\t0\tsource\ttrain\n1.0\tbad\t0\tsource\ttrain\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path)

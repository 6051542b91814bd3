"""Datasets, the synthetic shifted-blobs task, and delimited-text storage.

A :class:`Dataset` keeps two label arrays. ``labels`` is what training code
may look at: the class index for rows whose split tag exposes it and -1 for
rows tagged ``unlabeled``. ``truth`` is the ground truth kept strictly for
scoring and diagnostics (-1 when genuinely unknown). Adaptation code must
never route ``truth`` into anything but accuracy reporting.

On disk a dataset is a tab-separated file: a header line with the feature
count and the class count, then one line per sample holding the features
(17 significant digits, so the round trip is bit-exact), the label column,
the domain tag, and the split tag. The label column stores the ground truth
when it is known; visibility is recovered from the split tag on load, and a
-1 label column is the sentinel for rows whose class is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

SPLITS = ("train", "val", "labeled", "unlabeled", "test")
DOMAINS = ("source", "target")

# Direction (unit vector) along which the target translation is applied.
_TRANSLATION_DIRECTION = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Radius of the latent circle the class centres sit on. Together with the
# default noise level this sets task difficulty: adjacent blobs overlap
# enough that a handful of labeled rows cannot pin the decision boundary,
# but cluster structure is still recoverable from the unlabeled pool.
CIRCLE_RADIUS = 0.6


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; the message names the line."""


@dataclass(eq=False)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, -1 where not visible
    truth: np.ndarray  # (n,) int64, -1 where unknown; scoring only
    domain: str
    split: np.ndarray = field(repr=False)  # (n,) split tag per row
    num_classes: int = 0

    def __post_init__(self) -> None:
        self.features = linalg.require_matrix(self.features, "features")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        self.split = np.asarray(self.split)
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.truth.shape != (n,) or self.split.shape != (n,):
            raise ValueError("labels, truth, and split must have one entry per row")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        for tag in np.unique(self.split):
            if tag not in SPLITS:
                raise ValueError(f"unknown split tag {tag!r}")
        for name, arr in (("labels", self.labels), ("truth", self.truth)):
            if arr.size and (arr.min() < -1 or arr.max() >= self.num_classes):
                raise ValueError(f"{name} out of range for {self.num_classes} classes")
        hidden = self.split == "unlabeled"
        if np.any(self.labels[hidden] != -1):
            raise ValueError("rows tagged unlabeled must have label -1")
        if np.any(self.labels[~hidden] != self.truth[~hidden]):
            raise ValueError("visible labels must agree with stored ground truth")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, split_tag: str) -> "Dataset":
        mask = self.split == split_tag
        return Dataset(
            features=self.features[mask],
            labels=self.labels[mask],
            truth=self.truth[mask],
            domain=self.domain,
            split=self.split[mask],
            num_classes=self.num_classes,
        )

    def equals(self, other: "Dataset") -> bool:
        return (
            self.domain == other.domain
            and self.num_classes == other.num_classes
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.truth, other.truth)
            and np.array_equal(self.split, other.split)
        )


def blob_centers(num_classes: int, rotation_deg: float = 0.0, translation: float = 0.0) -> np.ndarray:
    """Class centres: equally spaced points on a circle, optionally rotated/translated."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes + np.deg2rad(rotation_deg)
    centers = CIRCLE_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers + translation * _TRANSLATION_DIRECTION


def _balanced_counts(total: int, num_classes: int) -> list[int]:
    base, extra = divmod(total, num_classes)
    return [base + (1 if c < extra else 0) for c in range(num_classes)]


def gen_synthetic_shift(
    num_classes: int,
    n_source: int,
    m_target: int,
    rotation_deg: float,
    translation: float,
    noise_std: float,
    seed: int,
    lift_dim: int = 10,
    val_fraction: float = 0.1,
) -> tuple[Dataset, Dataset]:
    """Generate a source/target pair of Gaussian blob datasets.

    Blobs sit on a circle in a latent plane; the target domain uses
    the same blobs rigidly rotated and translated. Both domains are embedded
    in ``lift_dim`` dimensions through one shared orthonormal lift, so the
    shift is purely geometric. Source rows carry train/val tags; target rows
    come back as an unsplit pool (tag ``unlabeled``, ground truth stored for
    later splitting and scoring).

    A rotation that lands some target blob exactly on a *different* class's
    source blob makes the task unlearnable and raises a ``ValueError``.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if n_source < num_classes or m_target < num_classes:
        raise ValueError("need at least one sample per class in each domain")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    if lift_dim < 2:
        raise ValueError(f"lift_dim must be >= 2, got {lift_dim}")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")

    source_centers = blob_centers(num_classes)
    target_centers = blob_centers(num_classes, rotation_deg, translation)
    for c in range(num_classes):
        for other in range(num_classes):
            if other == c:
                continue
            if np.linalg.norm(target_centers[c] - source_centers[other]) < 1e-9:
                raise ValueError(
                    "degenerate shift: target class "
                    f"{c} coincides with source class {other}"
                )

    rng = np.random.default_rng(seed)

    # Orthonormal 2 -> lift_dim embedding via Gram-Schmidt on two Gaussians.
    g = rng.standard_normal((lift_dim, 2))
    u0 = g[:, 0] / np.sqrt((g[:, 0] ** 2).sum())
    v1 = g[:, 1] - (u0 @ g[:, 1]) * u0
    u1 = v1 / np.sqrt((v1**2).sum())
    lift = np.stack([u0, u1], axis=1)  # (lift_dim, 2)

    def draw_domain(centers: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
        counts = _balanced_counts(total, num_classes)
        latent_parts = []
        label_parts = []
        for c, count in enumerate(counts):
            latent_parts.append(centers[c] + noise_std * rng.standard_normal((count, 2)))
            label_parts.append(np.full(count, c, dtype=np.int64))
        latent = np.concatenate(latent_parts, axis=0)
        labels = np.concatenate(label_parts)
        return linalg.matmul(latent, lift.T), labels

    source_x, source_y = draw_domain(source_centers, n_source)
    source_split = np.full(n_source, "train", dtype="<U9")
    for c in range(num_classes):
        rows = np.flatnonzero(source_y == c)
        perm = rng.permutation(rows)
        n_val = max(1, int(round(val_fraction * rows.size)))
        source_split[perm[:n_val]] = "val"
    source = Dataset(
        features=source_x,
        labels=source_y.copy(),
        truth=source_y,
        domain="source",
        split=source_split,
        num_classes=num_classes,
    )

    target_x, target_y = draw_domain(target_centers, m_target)
    target = Dataset(
        features=target_x,
        labels=np.full(m_target, -1, dtype=np.int64),
        truth=target_y,
        domain="target",
        split=np.full(m_target, "unlabeled", dtype="<U9"),
        num_classes=num_classes,
    )
    return source, target


def split_nshot(
    target: Dataset, shots: int, seed: int, test_fraction: float = 0.25
) -> Dataset:
    """Mark ``shots`` labeled rows per class, a held-out test block, rest unlabeled.

    The labeled rows expose their ground truth; so do test rows (they exist
    purely for scoring). Everything else stays hidden. Stratified and
    deterministic under ``seed``.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    if np.any(target.truth < 0):
        raise ValueError("target ground truth unknown; cannot build an n-shot split")

    rng = np.random.default_rng(seed)
    labels = np.full(target.n, -1, dtype=np.int64)
    split = np.full(target.n, "unlabeled", dtype="<U9")
    for c in range(target.num_classes):
        rows = np.flatnonzero(target.truth == c)
        if rows.size < shots + 1:
            raise ValueError(
                f"class {c} has {rows.size} samples; need at least {shots + 1}"
            )
        perm = rng.permutation(rows)
        labeled = perm[:shots]
        rest = perm[shots:]
        n_test = int(test_fraction * rest.size)
        labels[labeled] = c
        split[labeled] = "labeled"
        labels[rest[:n_test]] = c
        split[rest[:n_test]] = "test"
    return Dataset(
        features=target.features.copy(),
        labels=labels,
        truth=target.truth.copy(),
        domain=target.domain,
        split=split,
        num_classes=target.num_classes,
    )


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{ds.n_features}\t{ds.num_classes}\n")
        for i in range(ds.n):
            written_label = ds.truth[i] if ds.split[i] == "unlabeled" else ds.labels[i]
            fields = [f"{v:.17g}" for v in ds.features[i]]
            fields.extend([str(int(written_label)), ds.domain, str(ds.split[i])])
            handle.write("\t".join(fields) + "\n")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, missing header")
    header = lines[0].split("\t")
    if len(header) != 2:
        raise DatasetFormatError(f"{path}: line 1: header must be '<n_features> <n_classes>'")
    try:
        n_features, num_classes = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: line 1: non-integer header field") from exc

    features = []
    labels = []
    truth = []
    split = []
    domains = set()
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != n_features + 3:
            raise DatasetFormatError(
                f"{path}: line {line_no}: expected {n_features + 3} fields, got {len(parts)}"
            )
        try:
            row = [float(tok) for tok in parts[:n_features]]
            label = int(parts[n_features])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {line_no}: malformed numeric field") from exc
        domain, tag = parts[n_features + 1], parts[n_features + 2]
        if domain not in DOMAINS:
            raise DatasetFormatError(f"{path}: line {line_no}: unknown domain {domain!r}")
        if tag not in SPLITS:
            raise DatasetFormatError(f"{path}: line {line_no}: unknown split tag {tag!r}")
        if not -1 <= label < num_classes:
            raise DatasetFormatError(f"{path}: line {line_no}: label {label} out of range")
        if label == -1 and tag != "unlabeled":
            raise DatasetFormatError(
                f"{path}: line {line_no}: label -1 is only valid on unlabeled rows"
            )
        features.append(row)
        truth.append(label)
        labels.append(-1 if tag == "unlabeled" else label)
        split.append(tag)
        domains.add(domain)

    if not features:
        raise DatasetFormatError(f"{path}: no sample rows")
    if len(domains) != 1:
        raise DatasetFormatError(f"{path}: rows mix domain tags {sorted(domains)}")
    features = np.array(features, dtype=np.float64)
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        raise DatasetFormatError(f"{path}: line {bad_rows[0] + 2}: non-finite feature")
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        truth=np.array(truth, dtype=np.int64),
        domain=domains.pop(),
        split=np.array(split),
        num_classes=num_classes,
    )

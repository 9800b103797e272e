"""Timestamped tabular datasets: ingestion, encoding, splitting, generation.

Every CSV input is read here, datasets by :func:`load_csv` and score
exports by :func:`read_scores_csv`, through one row reader; a plain score
export is read by numpy's C text reader instead, with the same values.

A :class:`Dataset` is columnar: one timestamp column, one binary label column
(1 = defect, 0 = false call) and a mix of numeric and categorical feature
columns.  Rows are kept in non-decreasing timestamp order; loaders re-sort.

The split protocol cuts the chronological first half into a stratified-random
hyperparameter set (80% of the half) and test set (20%), and the second half
into five contiguous evaluation slices, each roughly a tenth of the data.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateDataError, IngestionError, InputError
from .seeding import rng_for

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str  # NUMERIC or CATEGORICAL


@dataclass
class Dataset:
    """Chronologically ordered rows with mixed features and a binary label."""

    timestamps: np.ndarray
    labels: np.ndarray
    columns: dict[str, np.ndarray]
    schema: tuple[ColumnSpec, ...]
    timestamp_name: str = "timestamp"
    label_name: str = "label"

    def __post_init__(self):
        if self.timestamps.ndim != 1:
            raise InputError("timestamps must be one-dimensional")
        n = self.timestamps.shape[0]
        if self.labels.shape != (n,):
            raise InputError("labels must align with timestamps")
        if n and not np.isin(self.labels, (0, 1)).all():
            raise InputError("labels must be 0 or 1")
        if n > 1 and np.any(np.diff(self.timestamps) < 0):
            raise InputError("rows must be in non-decreasing timestamp order")
        for spec in self.schema:
            if spec.name not in self.columns:
                raise InputError(f"schema column {spec.name!r} missing")
            if self.columns[spec.name].shape != (n,):
                raise InputError(f"column {spec.name!r} has wrong length")

    @property
    def n_rows(self) -> int:
        return self.timestamps.shape[0]

    @property
    def prevalence(self) -> float:
        return float(np.mean(self.labels == 1)) if self.n_rows else 0.0

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Row subset (in the given order) as a new Dataset."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            timestamps=self.timestamps[idx],
            labels=self.labels[idx],
            columns={name: col[idx] for name, col in self.columns.items()},
            schema=self.schema,
            timestamp_name=self.timestamp_name,
            label_name=self.label_name,
        )


@dataclass
class EncodedMatrix:
    """Numeric design matrix after one-hot expansion, timestamp dropped."""

    X: np.ndarray
    labels: np.ndarray
    row_indices: np.ndarray
    column_names: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def take(self, indices: Sequence[int]) -> "EncodedMatrix":
        idx = np.asarray(indices, dtype=int)
        return EncodedMatrix(self.X[idx], self.labels[idx],
                             self.row_indices[idx], self.column_names)


@dataclass
class SplitPlan:
    """Row indices for the hyperparameter / test / slice protocol."""

    hyper_indices: np.ndarray
    test_indices: np.ndarray
    slice_indices: list[np.ndarray]

    def all_evaluation_indices(self) -> np.ndarray:
        return np.concatenate([self.test_indices] + self.slice_indices)


# ---------------------------------------------------------------------------
# File access


def _raise_problems(path, problems: list[str]) -> None:
    """Raise one ``IngestionError`` naming the file and its first 20 problems."""
    if problems:
        raise IngestionError(f"{path}: " + "; ".join(problems[:20]))


def _csv_rows(path, required: Sequence[str], problems: list[str]):
    """The header, then ``(line, row)`` for each data row of a UTF-8 CSV file.

    Rows stream from one ``csv.reader``; ``line`` is the file's own number
    of the row's last line.  Empty lines are skipped, and a row whose field
    count differs from the header's goes to ``problems`` instead.  An empty
    file, a header missing a ``required`` column or naming one twice, and a
    file that cannot be opened, decoded or parsed raise ``IngestionError``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                _raise_problems(path, ["file is empty"])
            _raise_problems(path, [f"missing column {name!r}" for name in required
                                   if name not in header]
                            + [f"line {reader.line_num}: column {name!r} appears twice"
                               for name in dict.fromkeys(header)
                               if header.count(name) > 1])
            yield header
            for row in reader:
                if len(row) == len(header):
                    yield reader.line_num, row
                elif row:
                    problems.append(f"line {reader.line_num}: expected "
                                    f"{len(header)} fields, got {len(row)}")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"{path}: {exc}") from exc


@contextmanager
def _atomic_output(path):
    """Text handle whose content replaces ``path`` only once fully written.

    Writes go to a sibling temporary file that ``os.replace`` moves onto
    ``path``; if writing fails part-way the temporary file is deleted and
    ``path`` is left as it was, so no output ever looks complete when it is
    not.  Text is written as given, with no newline translation.  A path
    that cannot be written raises ``InputError`` naming it.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException as exc:
        if os.path.exists(temporary):
            os.remove(temporary)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# ---------------------------------------------------------------------------
# CSV ingestion


def _plain_numbers(text: str) -> bool:
    """ASCII without ``_``: the number grammar every reader here accepts.

    ``float()`` and ``int()`` also read ``1_0`` as 10 and non-ASCII digits
    such as ``\u0661`` as 1; numpy's text reader does not.  Given many cells
    joined, one check covers them all.
    """
    return text.isascii() and "_" not in text


def _parse_timestamp(text: str) -> float:
    """Seconds from a number or an ISO 8601 stamp; a stamp without an offset is UTC."""
    try:
        if not _plain_numbers(text):
            raise ValueError
        value = float(text)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError:
            raise IngestionError(f"unparseable timestamp {text!r}") from None
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return stamp.timestamp()
    if not math.isfinite(value):
        raise IngestionError(f"non-finite timestamp {text!r}")
    return value


def _floats(cells: list[str]) -> Optional[np.ndarray]:
    """The cells as floats with NaN for empty ones, or ``None`` if one is text."""
    if not _plain_numbers("".join(cells)):
        return None
    try:
        return np.array([float(c) if c else np.nan for c in cells], dtype=float)
    except ValueError:
        return None


#: What ``load_csv`` does with an empty numeric cell.
MISSING_POLICIES = ("reject", "impute")


def load_csv(path, timestamp_column: str = "timestamp",
             label_column: str = "label", positive_label: Optional[str] = None,
             categorical_columns: Optional[Sequence[str]] = None,
             missing: str = "reject") -> Dataset:
    """Load a UTF-8, header-row CSV into a Dataset.

    Feature columns are inferred numeric when every non-empty cell is an
    ASCII number without ``_``, categorical otherwise; ``categorical_columns``
    overrides the inference.  Labels are mapped via ``positive_label`` (that
    literal -> 1, the single remaining literal -> 0); without it the column
    must already contain 0/1.  Only an empty numeric cell is missing: ``missing="reject"``
    fails on it with line numbers, ``missing="impute"`` stores it as NaN for
    the encoder to fill from its fitted medians.  A ``nan`` or ``inf`` cell
    is rejected under either policy, and so is a file with no feature
    columns.  The timestamp and label columns must differ.  Empty lines are
    skipped; line numbers in errors are the file's own.
    """
    if missing not in MISSING_POLICIES:
        raise InputError(f"missing policy must be "
                         f"{' or '.join(map(repr, MISSING_POLICIES))}, got {missing!r}")
    if timestamp_column == label_column:
        raise InputError(f"{path}: timestamp and label column are both {label_column!r}")
    problems: list[str] = []
    reader = _csv_rows(path, (timestamp_column, label_column), problems)
    header = next(reader)
    feature_names = [h for h in header if h not in (timestamp_column, label_column)]
    if not feature_names:
        _raise_problems(path, [f"no feature columns, only {timestamp_column!r} "
                               f"and {label_column!r}"])
    col_of = {name: header.index(name) for name in header}

    rows, line_numbers, stamps, raw_labels = [], [], [], []
    for line, row in reader:
        try:
            stamps.append(_parse_timestamp(row[col_of[timestamp_column]]))
        except IngestionError as exc:
            problems.append(f"line {line}: {exc}")
        label = row[col_of[label_column]]
        if not label:
            problems.append(f"line {line}: empty label")
        rows.append(row)
        line_numbers.append(line)
        raw_labels.append(label)
    _raise_problems(path, problems)
    n = len(rows)
    timestamps = np.array(stamps, dtype=float)

    distinct = sorted(set(raw_labels))
    if positive_label is not None:
        if positive_label not in distinct:
            raise IngestionError(
                f"{path}: positive label {positive_label!r} never occurs")
        others = [d for d in distinct if d != positive_label]
        if len(others) > 1:
            raise IngestionError(
                f"{path}: label column is not binary, found {distinct}")
        labels = np.fromiter((1 if r == positive_label else 0 for r in raw_labels),
                             dtype=np.int64, count=n)
    else:
        if not set(distinct) <= {"0", "1"}:
            raise IngestionError(
                f"{path}: label values {distinct} need positive_label mapping")
        labels = np.fromiter((int(r) for r in raw_labels), dtype=np.int64, count=n)

    forced_cat = set(categorical_columns or ())
    unknown = forced_cat - set(feature_names)
    if unknown:
        raise IngestionError(f"{path}: categorical override names unknown columns {sorted(unknown)}")

    columns: dict[str, np.ndarray] = {}
    schema: list[ColumnSpec] = []
    for name in feature_names:
        cells = [row[col_of[name]] for row in rows]
        values = None if name in forced_cat else _floats(cells)
        if values is None:
            columns[name] = np.array(cells, dtype=object)
            schema.append(ColumnSpec(name, CATEGORICAL))
            continue
        bad = [line_numbers[i] for i in np.flatnonzero(~np.isfinite(values))
               if cells[i] or missing == "reject"]
        if bad:
            shown = ", ".join(str(line) for line in bad[:10])
            problems.append(f"column {name!r} has missing or non-finite values "
                            f"at lines {shown}")
        columns[name] = values
        schema.append(ColumnSpec(name, NUMERIC))
    _raise_problems(path, problems)

    order = np.argsort(timestamps, kind="stable")
    return Dataset(
        timestamps=timestamps[order],
        labels=labels[order],
        columns={name: col[order] for name, col in columns.items()},
        schema=tuple(schema),
        timestamp_name=timestamp_column,
        label_name=label_column,
    )


def read_scores_csv(path) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Read a score export: header with score,label[,timestamp] columns.

    Empty lines are skipped; line numbers in errors are the file's own.
    Scores, labels and numeric timestamps are ASCII numbers without ``_``;
    timestamps may also be ISO 8601, and must be finite.  Unquoted files with numeric
    stamps, whatever their line ends, go through numpy's C text reader; any
    other file, and any file with a problem, is read row by row, which gives
    the same values and is the one reader that words errors.
    """
    columns = _score_columns(path)
    return columns if columns is not None else _read_score_rows(path)


#: Bytes that part numpy's reader from ``csv.reader``: a quote can join
#: lines into one field, NUL, and 0x1c-0x1f, which numpy's number parser
#: strips as whitespace and ``float()`` and ``int()`` reject.
_UNSPLIT_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _score_columns(path):
    """``read_scores_csv``'s arrays from ``np.loadtxt``, or ``None``.

    The header is ``_csv_rows``'s.  Each row is one record: score and
    timestamp float64, label int64 (which keeps ``int()``'s rules, so ``1.0``
    fails), other columns unused text.  Given a path that passes
    ``_splits_plainly``, loadtxt finds ``csv.reader``'s lines and fields,
    and its number grammar is ``float()``'s or narrower, with the same
    doubles.  Any other file, a header ``_csv_rows`` rejects, a loadtxt
    error or warning (no rows), and a value out of range give ``None``.
    """
    kinds = {"score": "f8", "label": "i8", "timestamp": "f8"}
    try:
        if not _splits_plainly(path):
            return None
        reader = _csv_rows(path, ("score", "label"), [])
        header = next(reader)
        reader.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, ",".join(kinds.get(name, "U1") for name in header),
                              comments=None, delimiter=",", skiprows=1, ndmin=1,
                              encoding="utf-8")
    except (OSError, ValueError, Warning, IngestionError):
        return None
    score, label, *stamps = (np.ascontiguousarray(rows[f"f{header.index(name)}"])
                             for name in kinds if name in header)
    if not (np.all((score >= 0.0) & (score <= 1.0))
            and np.all((label == 0) | (label == 1)) and np.all(np.isfinite(stamps))):
        return None
    return score, label, stamps[0] if stamps else None


def _splits_plainly(path) -> bool:
    """No ``_UNSPLIT_BYTES`` and no line longer than the csv field limit.

    The file is read a megabyte at a time.  A line ends at CR or LF and is
    measured in bytes, which bounds its characters.
    """
    limit, run = csv.field_size_limit(), 0  # run: bytes of the open line
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            if any(byte in block for byte in _UNSPLIT_BYTES):
                return False
            start = 0  # Each step skips to the last line end within the limit.
            while (end := max(block.rfind(b"\n", start, start + limit + 1 - run),
                              block.rfind(b"\r", start, start + limit + 1 - run))) >= 0:
                start, run = end + 1, 0
            run += len(block) - start
            if run > limit:
                return False
    return True


def _read_score_rows(path) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``read_scores_csv`` through the shared CSV row reader, one row at a time."""
    problems: list[str] = []
    reader = _csv_rows(path, ("score", "label"), problems)
    header = next(reader)
    score_col = header.index("score")
    label_col = header.index("label")
    ts_col = header.index("timestamp") if "timestamp" in header else None
    scores, labels, stamps = [], [], []
    for line, row in reader:
        try:
            for name, cell in (("score", row[score_col]), ("label", row[label_col])):
                if not _plain_numbers(cell):
                    raise ValueError(f"{name} {cell!r} holds '_' or a non-ASCII character")
            value = float(row[score_col])
            label = int(row[label_col])
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"score {value} outside [0, 1]")
            if label not in (0, 1):
                raise ValueError(f"label {label} not in {{0, 1}}")
            if ts_col is not None:
                stamps.append(_parse_timestamp(row[ts_col]))
        except (ValueError, IngestionError) as exc:
            problems.append(f"line {line}: {exc}")
            continue
        scores.append(value)
        labels.append(label)
    _raise_problems(path, problems)
    if not scores:
        raise IngestionError(f"{path}: no data rows")
    stamps_arr = np.array(stamps) if ts_col is not None else None
    return np.array(scores), np.array(labels), stamps_arr


def _format_number(x: float) -> str:
    if math.isfinite(x) and x == int(x):
        return str(int(x))
    return repr(x)


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV; floats use repr so reloads are exact."""
    with _atomic_output(path) as handle:
        writer = csv.writer(handle)
        names = [spec.name for spec in ds.schema]
        writer.writerow([ds.timestamp_name] + names + [ds.label_name])
        for i in range(ds.n_rows):
            row = [_format_number(float(ds.timestamps[i]))]
            for spec in ds.schema:
                value = ds.columns[spec.name][i]
                row.append(_format_number(float(value)) if spec.kind == NUMERIC
                           else str(value))
            row.append(str(int(ds.labels[i])))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Encoding


@dataclass
class FeatureEncoder:
    """One-hot expansion fitted once, reusable on later data.

    Categorical levels unseen at fit time encode as all-zero indicator blocks
    so drifted future data degrades scores instead of crashing.  Missing
    numeric values (NaN) are filled with the fitted column median.
    """

    schema: tuple[ColumnSpec, ...] = ()
    levels: dict[str, tuple[str, ...]] = field(default_factory=dict)
    medians: dict[str, float] = field(default_factory=dict)
    column_names: tuple[str, ...] = ()

    def fit(self, ds: Dataset) -> "FeatureEncoder":
        if ds.n_rows == 0:
            raise InputError("cannot fit an encoder on an empty dataset")
        if not ds.schema:
            raise InputError("cannot fit an encoder on a dataset with no feature columns")
        self.schema = ds.schema
        self.levels = {}
        self.medians = {}
        names: list[str] = []
        for spec in ds.schema:
            if spec.kind == CATEGORICAL:
                lv = tuple(sorted({str(x) for x in ds.columns[spec.name]}))
                self.levels[spec.name] = lv
                names.extend(f"{spec.name}={level}" for level in lv)
            else:
                values = ds.columns[spec.name].astype(float)
                finite = values[np.isfinite(values)]
                self.medians[spec.name] = float(np.median(finite)) if finite.size else 0.0
                names.append(spec.name)
        self.column_names = tuple(names)
        return self

    def transform(self, ds: Dataset,
                  indices: Optional[Sequence[int]] = None) -> EncodedMatrix:
        if not self.column_names:
            raise InputError("encoder is not fitted")
        if tuple(s.name for s in ds.schema) != tuple(s.name for s in self.schema):
            raise InputError("dataset schema does not match the fitted encoder")
        idx = (np.arange(ds.n_rows) if indices is None
               else np.asarray(indices, dtype=int))
        blocks: list[np.ndarray] = []
        for spec in self.schema:
            col = ds.columns[spec.name][idx]
            if spec.kind == CATEGORICAL:
                block = np.zeros((idx.size, len(self.levels[spec.name])))
                for j, level in enumerate(self.levels[spec.name]):
                    block[:, j] = (col.astype(str) == level)
                blocks.append(block)
            else:
                values = col.astype(float)
                values = np.where(np.isfinite(values), values, self.medians[spec.name])
                blocks.append(values[:, None])
        return EncodedMatrix(X=np.hstack(blocks), labels=ds.labels[idx].copy(),
                             row_indices=idx, column_names=self.column_names)


def one_hot_fit_transform(ds: Dataset) -> tuple[EncodedMatrix, FeatureEncoder]:
    """Fit an encoder on ``ds`` and return its encoding plus the encoder."""
    encoder = FeatureEncoder().fit(ds)
    return encoder.transform(ds), encoder


# ---------------------------------------------------------------------------
# Splitting


def _stratified_allocation(class_counts: list[int], total: int) -> list[int]:
    """Largest-remainder split of ``total`` over classes, proportional."""
    n = sum(class_counts)
    shares = [total * c / n for c in class_counts]
    alloc = [int(share) for share in shares]
    leftovers = sorted(range(len(shares)),
                       key=lambda i: (-(shares[i] - alloc[i]), i))
    for i in leftovers[: total - sum(alloc)]:
        alloc[i] += 1
    return alloc


def chrono_split(ds: Dataset, seed: int) -> SplitPlan:
    """Split into hyperparameter/test sets plus five chronological slices.

    The first floor(n/2) rows (chronological) are split stratified-random by
    ``seed`` into hyperparameter (nearest integer to 80% of the half) and
    test sets; the remaining rows form five contiguous slices, earliest
    slices absorbing remainders.  Every resulting size stays within one row
    of the nominal 40/10/10/10/10/10/10 percent shares of the total.
    """
    n = ds.n_rows
    n_first = n // 2
    first_labels = ds.labels[:n_first]
    counts = [int(np.count_nonzero(first_labels == c)) for c in (0, 1)]
    if min(counts) < 10:
        raise InputError(
            "stratified split infeasible: each class needs >= 10 rows "
            f"in the first half, got {counts}")

    n_hyper = round(0.8 * n_first)
    alloc = _stratified_allocation(counts, n_hyper)
    rng = rng_for(seed, "chrono-split")
    hyper_parts = []
    for label_value, take_count in zip((0, 1), alloc):
        members = np.nonzero(first_labels == label_value)[0]
        rng.shuffle(members)
        hyper_parts.append(members[:take_count])
    hyper = np.sort(np.concatenate(hyper_parts))
    test = np.setdiff1d(np.arange(n_first), hyper)

    slices = np.array_split(np.arange(n_first, n), 5)
    return SplitPlan(hyper_indices=hyper, test_indices=test, slice_indices=slices)


def stratified_kfold(matrix: EncodedMatrix, k: int, seed: int
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """k disjoint (train, validation) index pairs with per-class balance."""
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    labels = matrix.labels
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    rng = rng_for(seed, "kfold")
    for label_value in (0, 1):
        members = np.nonzero(labels == label_value)[0]
        if members.size < k:
            raise InputError(
                f"class {label_value} has {members.size} members, needs >= {k}")
        rng.shuffle(members)
        for fold_id, chunk in enumerate(np.array_split(members, k)):
            folds[fold_id].append(chunk)
    pairs = []
    everything = np.arange(matrix.n_rows)
    for fold_id in range(k):
        val = np.sort(np.concatenate(folds[fold_id]))
        train = np.setdiff1d(everything, val)
        pairs.append((train, val))
    return pairs


# ---------------------------------------------------------------------------
# Synthetic generation


#: Most rows the generator builds: about 190 bytes a row are held in memory
#: at once with the default five features, so 10 million take about 2 GB.
MAX_SYNTHETIC_ROWS = 10_000_000
#: Most feature cells (rows times features) the generator builds: the row
#: limit at the default five features.  About 32 bytes a cell are held at
#: once while the feature matrix is built, so this too stays near 2 GB.
_MAX_SYNTHETIC_CELLS = 5 * MAX_SYNTHETIC_ROWS


@dataclass(frozen=True)
class SyntheticConfig:
    """Controls for the drift-aware generator.

    Rows belong to Gaussian feature clusters that are only active inside
    their time window (fractions of the timestamp range).  Within a cluster,
    defect rows are displaced from false-call rows by
    ``drift_strength * noise`` along a cluster-specific axis, so
    ``drift_strength`` is the class separation in noise units.  Cluster
    centres sit far apart, which is what makes newly activating clusters
    look like drifted data to a model trained before their window opens.
    """

    n_rows: int
    prevalence: float
    n_clusters: int = 1
    cluster_windows: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    drift_strength: float = 3.0
    noise: float = 1.0
    n_features: int = 5
    seed: int = 0
    #: Per-cluster multiplier on the defect margin; 1.0 keeps the margin at
    #: drift_strength * noise.  Values below 1 create clusters whose defects
    #: are harder to tell from false calls.
    cluster_margin_scales: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_rows < 2:
            raise InputError("n_rows must be >= 2")
        if self.n_rows > MAX_SYNTHETIC_ROWS:
            raise InputError(f"n_rows must be <= {MAX_SYNTHETIC_ROWS}, got {self.n_rows}")
        if not 0.0 < self.prevalence < 0.5:
            raise InputError("prevalence must lie in (0, 0.5)")
        if self.n_clusters < 1 or len(self.cluster_windows) != self.n_clusters:
            raise InputError("need one activity window per cluster")
        if self.n_features < 2:
            raise InputError("n_features must be >= 2")
        if self.n_rows * self.n_features > _MAX_SYNTHETIC_CELLS:
            raise InputError(
                f"n_features must be <= {_MAX_SYNTHETIC_CELLS // self.n_rows} for "
                f"{self.n_rows} rows (at most {_MAX_SYNTHETIC_CELLS} feature cells), "
                f"got {self.n_features}")
        if not 0 < self.noise < math.inf:
            raise InputError(f"noise must be positive and finite, got {self.noise}")
        if not math.isfinite(self.drift_strength):
            raise InputError(f"drift_strength must be finite, got {self.drift_strength}")
        if self.cluster_margin_scales is not None:
            if len(self.cluster_margin_scales) != self.n_clusters:
                raise InputError("need one margin scale per cluster")
            if not all(0 <= scale < math.inf for scale in self.cluster_margin_scales):
                raise InputError("cluster_margin_scales must be non-negative and finite")
        windows = sorted(self.cluster_windows)
        for a, b in windows:
            if not (0.0 <= a < b <= 1.0):
                raise InputError(f"window ({a}, {b}) must satisfy 0 <= start < end <= 1")
        reach = 0.0
        for a, b in windows:
            if a > reach:
                raise InputError("cluster windows leave a gap in the timestamp range")
            reach = max(reach, b)
        if windows[0][0] > 0.0 or reach < 1.0:
            raise InputError("cluster windows must cover the timestamp range")


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Deterministic drift-aware sample; see :class:`SyntheticConfig`.

    The positive count is a binomial draw clipped to prevalence +- 0.5
    percentage points.  Each row also carries a categorical ``source`` token
    naming its cluster, so clusters opening late produce categorical levels
    unseen by encoders fitted on early data.
    """
    cfg = config
    rng = rng_for(cfg.seed, "synthetic")
    n, d = cfg.n_rows, cfg.n_features

    timestamps = np.arange(n, dtype=float)
    fractions = timestamps / (n - 1)

    active = np.stack([(fractions >= a) & (fractions <= b)
                       for a, b in cfg.cluster_windows])
    counts = active.sum(axis=0)

    pick = np.floor(rng.random(n) * counts).astype(int)
    cluster = np.zeros(n, dtype=int)
    seen = np.zeros(n, dtype=int)
    for j in range(cfg.n_clusters):
        hit = active[j] & (seen == pick)
        cluster[hit] = j
        seen += active[j]

    lo = math.floor(n * max(cfg.prevalence - 0.005, 0.0))
    hi = math.ceil(n * min(cfg.prevalence + 0.005, 1.0))
    k = int(np.clip(rng.binomial(n, cfg.prevalence), max(lo, 1), max(hi, 1)))
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=k, replace=False)] = 1

    scales = cfg.cluster_margin_scales or (1.0,) * cfg.n_clusters
    centers = np.zeros((cfg.n_clusters, d))
    margins = np.zeros((cfg.n_clusters, d))
    for j in range(cfg.n_clusters):
        sign = 1.0 if (j // d) % 2 == 0 else -1.0
        centers[j, j % d] = 5.0 * cfg.noise * sign
        margins[j, (j + 1) % d] = cfg.drift_strength * cfg.noise * scales[j]

    X = (centers[cluster]
         + labels[:, None] * margins[cluster]
         + cfg.noise * rng.standard_normal((n, d)))

    columns: dict[str, np.ndarray] = {f"x{i}": X[:, i] for i in range(d)}
    columns["source"] = np.array([f"c{j}" for j in cluster], dtype=object)
    schema = tuple([ColumnSpec(f"x{i}", NUMERIC) for i in range(d)]
                   + [ColumnSpec("source", CATEGORICAL)])
    return Dataset(timestamps=timestamps, labels=labels, columns=columns,
                   schema=schema)


# ---------------------------------------------------------------------------
# PCA projection


@dataclass
class Pca2dResult:
    """Top-two principal components of an encoded matrix."""

    coords: np.ndarray           # (n, 2)
    row_indices: np.ndarray
    labels: np.ndarray
    explained_variance: np.ndarray  # (2,)
    components: np.ndarray          # (2, d)

    def rows(self) -> list[tuple[float, float, int, int]]:
        return [(float(x), float(y), int(i), int(l))
                for (x, y), i, l in zip(self.coords, self.row_indices, self.labels)]


def pca2d(matrix: EncodedMatrix) -> Pca2dResult:
    """Mean-centred projection onto the two leading principal directions.

    Components are ordered by explained variance and sign-fixed so the
    largest-magnitude loading is positive, keeping output deterministic.
    """
    X = matrix.X
    if X.shape[1] < 2:
        raise InputError("pca2d needs at least 2 feature columns")
    if X.shape[0] < 3:
        raise InputError("pca2d needs at least 3 rows")
    centered = X - X.mean(axis=0)
    u, singular, vt = np.linalg.svd(centered, full_matrices=False)
    if singular[0] <= 1e-12:
        raise DegenerateDataError("all rows identical: no principal directions")
    components = vt[:2].copy()
    for row in range(2):
        lead = np.argmax(np.abs(components[row]))
        if components[row, lead] < 0:
            components[row] = -components[row]
    coords = centered @ components.T
    explained = (singular[:2] ** 2) / max(X.shape[0] - 1, 1)
    return Pca2dResult(coords=coords, row_indices=matrix.row_indices.copy(),
                       labels=matrix.labels.copy(),
                       explained_variance=explained, components=components)

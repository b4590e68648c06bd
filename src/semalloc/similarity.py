"""Interest-to-corpus matching: embedding providers, cosine match, average scores.

A VSP's interest text and a device's historical category texts are embedded
into vectors; the per-device score is the count-weighted mean cosine match,
clamped to [0, 1].  Heavyweight language models stay out of the build: vectors
come either from a precomputed JSON map or from a deterministic token-hashing
embedder used in tests.

The tensor build embeds each unique interest key and corpus text once and
row-normalizes the vectors into matrices ``I`` (interests) and ``T`` (texts).
One matmul gives every cosine, ``clip(I @ T.T, 0, 1)``.  A device's score is
the sum of ``count * cosine`` over its corpus entries, divided by its total
count; one ``np.add.reduceat`` over the entry list does this for every device,
so no (device, text) matrix is built.  Each scenario's rows are then scattered
into ``(vsp, device, scenario)`` by interest key.  ``average_similarity`` runs
the same kernel for one interest and one corpus.

Files are read in bulk.  The corpus CSV becomes flat columns of device id,
text and count, grouped by device with a stable sort, so each device's
entries keep their file order and are summed in it.  An embeddings file whose
vectors are all non-empty lists of ints and floats of one length becomes one
matrix in one ``np.array`` call; any other file is checked text by text, so
its error names the offending text.
"""

from __future__ import annotations

import csv
import hashlib
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core_model import DemandScenario
from .errors import ConfigurationError, read_json

# Embedding vectors are plain 1-D float arrays; providers guarantee a fixed
# dimension and never produce the all-zero vector for non-empty text.
EmbeddingVector = np.ndarray


@dataclass(frozen=True)
class CategoryCorpus:
    """Historical category counts for one device; ``entries`` are (text, count)."""

    device_id: int
    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((str(t), int(c)) for t, c in self.entries))
        for text, count in self.entries:
            if count < 1:
                raise ValueError(f"corpus counts must be positive integers, got {count} for {text!r}")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)


class EmbeddingProvider(ABC):
    """Maps category/interest text to a fixed-dimension vector, deterministically."""

    @abstractmethod
    def embed(self, text: str) -> EmbeddingVector:
        raise NotImplementedError


class FileEmbeddings(EmbeddingProvider):
    """Precomputed text-to-vector map loaded from a JSON document.

    The file is a single object ``{"text": [numbers...], ...}``; vectors were
    produced offline by whatever encoder the deployment uses.  They are held
    as the rows of one read-only matrix, and ``embed`` returns a row.
    """

    def __init__(self, vectors: Mapping[str, Sequence[float]]):
        texts = list(vectors)
        values = [vectors[text] for text in texts]
        matrix = _bulk_matrix(values)
        if matrix is None:  # some vector is malformed: check them one by one to name it
            rows = [_embedding_row(text, value) for text, value in zip(texts, values)]
            if not rows:
                raise ConfigurationError("embeddings file defines no vectors")
            for text, row in zip(texts, rows):
                if row.size != rows[0].size:
                    raise ConfigurationError(
                        f"embedding for {text!r} has dimension {row.size}, expected {rows[0].size}"
                    )
            matrix = np.array(rows)
        for bad, problem in (
            (~np.isfinite(matrix).all(axis=1), "contains non-finite values"),
            (~matrix.any(axis=1), "is the all-zero vector"),
        ):
            if bad.any():
                raise ConfigurationError(f"embedding for {texts[int(np.argmax(bad))]!r} {problem}")
        matrix.setflags(write=False)
        self._matrix = matrix
        self._row = {str(text): r for r, text in enumerate(texts)}

    @classmethod
    def from_path(cls, path: str | Path) -> "FileEmbeddings":
        data = read_json(path, "embeddings")
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: embeddings file must hold a JSON object")
        return cls(data)

    def embed(self, text: str) -> EmbeddingVector:
        try:
            return self._matrix[self._row[text]]
        except KeyError:
            raise ConfigurationError(f"no embedding for text {text!r}") from None


def _bulk_matrix(values: list) -> np.ndarray | None:
    """The vectors as one float matrix, or None unless every one is a non-empty
    list of ints and floats and all have the same length."""
    if not values or set(map(type, values)) != {list} or len(set(map(len, values))) != 1:
        return None
    if not values[0] or not set(map(type, chain.from_iterable(values))) <= {int, float}:
        return None
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        return None


def _embedding_row(text: str, values) -> np.ndarray:
    """One file embedding as a float vector: a non-empty flat list of numbers."""
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged nesting
        raw = None
    if raw is None or raw.ndim != 1 or raw.size < 1:
        raise ConfigurationError(f"embedding for {text!r} must be a non-empty flat list")
    if raw.dtype.kind == "O":  # integers too wide for int64, or mixed types
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    else:
        numeric = raw.dtype.kind in "iuf"
    if not numeric:
        raise ConfigurationError(f"embedding for {text!r} must hold numbers only (no strings or booleans)")
    try:
        return raw.astype(np.float64)
    except OverflowError:
        raise ConfigurationError(
            f"embedding for {text!r} holds an integer beyond the range of a float"
        ) from None


class HashEmbedder(EmbeddingProvider):
    """Deterministic bag-of-words embedder: tokens hashed into count buckets.

    Token buckets come from MD5 digests, so vectors are stable across runs and
    platforms.  Text with no alphanumeric tokens hashes as one raw-byte token,
    keeping the no-zero-vector guarantee.
    """

    def __init__(self, dimension: int = 64):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    @staticmethod
    def _tokens(text: str) -> list[str]:
        out, current = [], []
        for ch in text.lower():
            if ch.isalnum():
                current.append(ch)
            elif current:
                out.append("".join(current))
                current = []
        if current:
            out.append("".join(current))
        return out

    def _bucket(self, token: str) -> int:
        digest = hashlib.md5(token.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.dimension

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise ValueError("cannot embed empty text")
        tokens = self._tokens(text) or [text]
        vec = np.zeros(self.dimension)
        for token in tokens:
            vec[self._bucket(token)] += 1.0
        vec.setflags(write=False)
        return vec


def cosine_match(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two embeddings, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("embeddings must be finite")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine match is undefined for a zero-norm vector")
    value = float(a @ b) / (norm_a * norm_b)
    return min(1.0, max(-1.0, value))


def _unit_rows(vectors: Sequence[EmbeddingVector], shape: tuple[int, ...]) -> np.ndarray:
    """Stack embeddings of one 1-D ``shape`` into a matrix of unit-norm rows.

    Raises what ``cosine_match`` raises for the same vectors.
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    for vec in vectors:
        if len(shape) != 1 or vec.shape != shape:
            raise ValueError(f"dimension mismatch: {shape} vs {vec.shape}")
    matrix = np.array(vectors).reshape(len(vectors), shape[0])
    if not np.all(np.isfinite(matrix)):
        raise ValueError("embeddings must be finite")
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if not np.all(norms > 0.0):
        raise ValueError("cosine match is undefined for a zero-norm vector")
    return matrix / norms


def _embed_once(provider: EmbeddingProvider, texts) -> dict[str, EmbeddingVector]:
    """Embedding of each distinct text, in first-seen order, one call per text."""
    return {text: provider.embed(text) for text in dict.fromkeys(texts)}


class _CorpusColumns(Mapping[int, CategoryCorpus]):
    """Corpus entries as flat columns, grouped by ascending device id.

    ``texts[starts[k]:starts[k + 1]]`` and the same slice of ``counts`` are
    the entries of the k-th smallest device id, in their given order.  As a
    mapping it reads like ``load_corpora_csv``'s dict, in first-seen device
    order, building each ``CategoryCorpus`` on access.
    """

    def __init__(self, device_ids: list[int], texts: list[str], counts: list[int]):
        order = sorted(range(len(device_ids)), key=device_ids.__getitem__)  # stable
        self.texts = [texts[k] for k in order]
        self.counts = [counts[k] for k in order]
        sizes = Counter(device_ids)
        ascending = sorted(sizes)
        self.starts = list(accumulate((sizes[d] for d in ascending), initial=0))[:-1]
        start = dict(zip(ascending, self.starts))
        self._slices = {d: slice(start[d], start[d] + size) for d, size in sizes.items()}

    @classmethod
    def of(cls, corpora: Sequence[CategoryCorpus]) -> "_CorpusColumns":
        """Columns of ``corpora``, the k-th under device id k."""
        for corpus in corpora:
            if not corpus.entries:
                raise ValueError(f"device {corpus.device_id} has an empty corpus")
        return cls(
            [k for k, corpus in enumerate(corpora) for _ in corpus.entries],
            [text for corpus in corpora for text, _ in corpus.entries],
            [count for corpus in corpora for _, count in corpus.entries],
        )

    def __getitem__(self, device_id: int) -> CategoryCorpus:
        rows = self._slices[device_id]
        return CategoryCorpus(device_id, tuple(zip(self.texts[rows], self.counts[rows])))

    def __contains__(self, device_id) -> bool:
        return device_id in self._slices

    def __iter__(self) -> Iterator[int]:
        return iter(self._slices)

    def __len__(self) -> int:
        return len(self._slices)


def _mean_matches(
    interests: Sequence[EmbeddingVector],
    vectors: Mapping[str, EmbeddingVector],
    texts: Sequence[str],
    counts: Sequence[int],
    starts: Sequence[int],
) -> np.ndarray:
    """Scores of shape (interests, devices): count-weighted mean of clip(cosine, 0, 1).

    ``texts`` and ``counts`` are the corpus entries device by device; device
    k's entries start at ``starts[k]``, and every device has at least one.
    ``vectors`` must hold the embedding of every text; their order is the
    column order of the one matmul.  Each device sums ``count * score`` over
    its entries in order and divides by its total count.
    """
    if not interests:
        return np.zeros((0, len(starts)))
    shape = np.shape(interests[0])
    cosines = _unit_rows(interests, shape) @ _unit_rows(list(vectors.values()), shape).T
    column = {text: j for j, text in enumerate(vectors)}
    try:
        weights = np.array(counts, dtype=np.float64)
        # totals summed as Python ints, so they are exact at any size before the one rounding
        totals = np.add.reduceat(np.array(counts, dtype=object), starts).astype(np.float64)
    except OverflowError:
        raise _count_overflow(texts, counts, starts) from None
    weighted = np.clip(cosines, 0.0, 1.0)[:, [column[text] for text in texts]] * weights
    return np.add.reduceat(weighted, starts, axis=1) / totals


def _count_overflow(texts: Sequence[str], counts: Sequence[int], starts: Sequence[int]) -> ConfigurationError:
    """The error naming the first count, or running device total, beyond the range of a float."""
    for start, end in zip(starts, [*starts[1:], len(counts)]):
        total = 0
        for text, count in zip(texts[start:end], counts[start:end]):
            total += count
            if _beyond_float(count):
                return ConfigurationError(f"corpus count {count} for {text!r} is beyond the range of a float")
            if _beyond_float(total):
                return ConfigurationError(
                    f"corpus counts of one device sum to {total} at {text!r}, beyond the range of a float"
                )
    raise ValueError("no corpus count is beyond the range of a float")


def _beyond_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


def average_similarity(
    interest: EmbeddingVector,
    corpus: CategoryCorpus,
    provider: EmbeddingProvider,
) -> float:
    """Count-weighted mean cosine match of the interest against a device corpus.

    Negative matches are clamped to 0 before averaging so the score stays in
    [0, 1]; an entry with count k contributes k identical terms to the mean.
    """
    columns = _CorpusColumns.of([corpus])
    vectors = _embed_once(provider, columns.texts)
    return float(_mean_matches([interest], vectors, columns.texts, columns.counts, columns.starts)[0, 0])


def build_similarity_tensor(
    scenarios: Sequence[DemandScenario],
    corpora: Mapping[int, CategoryCorpus],
    provider: EmbeddingProvider,
) -> np.ndarray:
    """Assemble the (vsp, device, scenario) score tensor from corpora.

    Device ids must cover 0..E-1.  Each unique interest key and corpus text is
    embedded once, keys first and then texts in device order; one kernel call
    scores every (interest key, device) pair, and each scenario's rows are
    scattered into the tensor by interest key.
    """
    if not scenarios:
        raise ConfigurationError("scenario set must be non-empty")
    num_devices = len(corpora)
    for e in range(num_devices):
        if e not in corpora:
            raise ConfigurationError(f"no category corpus for device {e}")
    if not isinstance(corpora, _CorpusColumns):
        corpora = _CorpusColumns.of([corpora[e] for e in range(num_devices)])

    keys = list(dict.fromkeys(demand.interest_key for scen in scenarios for demand in scen.per_vsp))
    vectors = _embed_once(provider, [*keys, *corpora.texts])
    interests = [vectors[key] for key in keys]
    scores = _mean_matches(interests, vectors, corpora.texts, corpora.counts, corpora.starts)
    row_of = {key: r for r, key in enumerate(keys)}

    tensor = np.zeros((len(scenarios[0].per_vsp), num_devices, len(scenarios)))
    for i, scen in enumerate(scenarios):
        for w, demand in enumerate(scen.per_vsp):
            tensor[w, :, i] = scores[row_of[demand.interest_key]]
    return tensor


def _csv_record(header: list[str], row: list[str]) -> dict:
    """``row`` as ``csv.DictReader`` gives it: surplus fields under None, absent ones None."""
    record = dict(zip(header, row))
    if len(row) > len(header):
        record[None] = row[len(header):]
    for name in header[len(row):]:
        record[name] = None
    return record


def _read_corpus_columns(path: str | Path) -> _CorpusColumns:
    """The corpus CSV's entries as columns; errors name the file, and the line a record ends on.

    A file that cannot be read or decoded as UTF-8, or that the csv module
    rejects, is a :class:`ConfigurationError` too.
    """
    device_ids: list[int] = []
    texts: list[str] = []
    counts: list[int] = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or not {"device_id", "category", "count"}.issubset(header):
                raise ConfigurationError(
                    f"{path}: corpus CSV must have header device_id,category,count"
                )
            # a repeated name reads its last column, as DictReader does
            column = {name: j for j, name in enumerate(header)}
            di, ti, ci = column["device_id"], column["category"], column["count"]
            for row in reader:
                if not row:  # a blank line
                    continue
                try:
                    device_id, text, count = int(row[di]), row[ti], int(row[ci])
                except (IndexError, ValueError):
                    record = _csv_record(header, row)
                    try:
                        device_id, count = int(record["device_id"]), int(record["count"])
                    except (TypeError, ValueError):
                        raise ConfigurationError(
                            f"{path}:{reader.line_num}: malformed corpus row {record}"
                        ) from None
                    text = str(record["category"])  # a short row's missing category reads as None
                if count < 1:
                    raise ConfigurationError(
                        f"{path}:{reader.line_num}: corpus counts must be positive integers, got {count}"
                        f" for {_csv_record(header, row)['category']!r}"
                    )
                device_ids.append(device_id)
                texts.append(text)
                counts.append(count)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read corpus file {path}: {exc}") from exc
    except csv.Error as exc:
        raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from exc
    return _CorpusColumns(device_ids, texts, counts)


def load_corpora_csv(path: str | Path) -> dict[int, CategoryCorpus]:
    """Read corpora from a CSV with header ``device_id,category,count``.

    The three columns may come in any order among others; blank lines are
    skipped, and an error names the file line on which the bad record ends.
    """
    return dict(_read_corpus_columns(path))

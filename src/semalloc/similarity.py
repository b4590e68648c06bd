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
"""

from __future__ import annotations

import csv
import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core_model import DemandScenario
from .errors import ConfigurationError

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
        rows = [_embedding_row(text, vectors[text]) for text in texts]
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
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: embeddings file must hold a JSON object")
        return cls(data)

    def embed(self, text: str) -> EmbeddingVector:
        try:
            return self._matrix[self._row[text]]
        except KeyError:
            raise ConfigurationError(f"no embedding for text {text!r}") from None


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
    return raw.astype(np.float64)


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
    vectors: dict[str, EmbeddingVector] = {}
    for text in texts:
        if text not in vectors:
            vectors[text] = provider.embed(text)
    return vectors


def _mean_matches(
    interests: Sequence[EmbeddingVector],
    corpora: Sequence[CategoryCorpus],
    vectors: Mapping[str, EmbeddingVector],
) -> np.ndarray:
    """Scores of shape (interests, corpora): count-weighted mean of clip(cosine, 0, 1).

    ``vectors`` must hold the embedding of every corpus text.  Each corpus
    sums ``count * score`` over its entries in order and divides by its total.
    """
    for corpus in corpora:
        if not corpus.entries:
            raise ValueError(f"device {corpus.device_id} has an empty corpus")
    if not interests:
        return np.zeros((0, len(corpora)))
    shape = np.shape(interests[0])
    cosines = _unit_rows(interests, shape) @ _unit_rows(list(vectors.values()), shape).T
    column = {text: j for j, text in enumerate(vectors)}
    text_of = [column[text] for corpus in corpora for text, _ in corpus.entries]
    counts = np.array([count for corpus in corpora for _, count in corpus.entries], dtype=np.float64)
    # reduceat needs strictly increasing offsets: every corpus is non-empty (checked above)
    starts = np.cumsum([0, *(len(corpus.entries) for corpus in corpora)])[:-1]
    totals = np.array([corpus.total for corpus in corpora], dtype=np.float64)
    weighted = np.clip(cosines, 0.0, 1.0)[:, text_of] * counts
    return np.add.reduceat(weighted, starts, axis=1) / totals


def average_similarity(
    interest: EmbeddingVector,
    corpus: CategoryCorpus,
    provider: EmbeddingProvider,
) -> float:
    """Count-weighted mean cosine match of the interest against a device corpus.

    Negative matches are clamped to 0 before averaging so the score stays in
    [0, 1]; an entry with count k contributes k identical terms to the mean.
    """
    vectors = _embed_once(provider, (text for text, _ in corpus.entries))
    return float(_mean_matches([interest], [corpus], vectors)[0, 0])


def build_similarity_tensor(
    scenarios: Sequence[DemandScenario],
    corpora: Mapping[int, CategoryCorpus],
    provider: EmbeddingProvider,
) -> np.ndarray:
    """Assemble the (vsp, device, scenario) score tensor from corpora.

    Device ids must cover 0..E-1.  Each unique interest key and corpus text is
    embedded once; one kernel call scores every (interest key, device) pair,
    and each scenario's rows are scattered into the tensor by interest key.
    """
    if not scenarios:
        raise ConfigurationError("scenario set must be non-empty")
    num_devices = len(corpora)
    for e in range(num_devices):
        if e not in corpora:
            raise ConfigurationError(f"no category corpus for device {e}")
    devices = [corpora[e] for e in range(num_devices)]

    keys = list(dict.fromkeys(demand.interest_key for scen in scenarios for demand in scen.per_vsp))
    corpus_texts = (text for corpus in devices for text, _ in corpus.entries)
    vectors = _embed_once(provider, [*keys, *corpus_texts])
    scores = _mean_matches([vectors[key] for key in keys], devices, vectors)
    row_of = {key: r for r, key in enumerate(keys)}

    tensor = np.zeros((len(scenarios[0].per_vsp), num_devices, len(scenarios)))
    for i, scen in enumerate(scenarios):
        for w, demand in enumerate(scen.per_vsp):
            tensor[w, :, i] = scores[row_of[demand.interest_key]]
    return tensor


def load_corpora_csv(path: str | Path) -> dict[int, CategoryCorpus]:
    """Read corpora from a CSV with header ``device_id,category,count``."""
    rows: dict[int, list[tuple[str, int]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"device_id", "category", "count"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigurationError(
                f"{path}: corpus CSV must have header device_id,category,count"
            )
        for line, row in enumerate(reader, start=2):
            try:
                device_id = int(row["device_id"])
                count = int(row["count"])
            except (TypeError, ValueError):
                raise ConfigurationError(f"{path}:{line}: malformed corpus row {row}") from None
            if count < 1:
                raise ConfigurationError(
                    f"{path}:{line}: corpus counts must be positive integers, got {count}"
                    f" for {row['category']!r}"
                )
            rows.setdefault(device_id, []).append((row["category"], count))
    return {
        device_id: CategoryCorpus(device_id, tuple(entries))
        for device_id, entries in rows.items()
    }

"""Ordered map over independent tasks; SEMALLOC_THREADS is validated, work runs sequentially."""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")

_ENV_VAR = "SEMALLOC_THREADS"


def thread_count() -> int:
    """Worker count from the environment; defaults to 1 (sequential)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise ConfigurationError(f"{_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if count < 1:
        raise ConfigurationError(f"{_ENV_VAR} must be >= 1, got {count}")
    return count


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map ``fn`` over ``items`` in input order, after validating SEMALLOC_THREADS.

    The tasks are pure Python, which the interpreter lock runs one thread at a
    time, so they run one after another and results match for any thread count.
    """
    thread_count()
    return [fn(item) for item in items]

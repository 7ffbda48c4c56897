"""Seeded synthetic Gaussian-mixture datasets for desk-scale experiments."""

from __future__ import annotations

import numpy as np

from .core import DomainError, FeatureMatrix, _require_seed


def synth_dataset(n: int, d: int, clusters: int, spread: float, seed: int) -> FeatureMatrix:
    """Gaussian mixture with cluster centers uniform on the unit sphere and
    per-point noise of standard deviation ``spread``; labels are cluster ids.
    Deterministic for a fixed seed."""
    if clusters < 1 or n < clusters or d < 1:
        raise DomainError("need n >= clusters >= 1 and d >= 1")
    if spread < 0:
        raise DomainError("spread must be >= 0")
    _require_seed(seed)
    rng = np.random.default_rng(np.uint64(seed))
    centers = rng.normal(size=(clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.arange(n, dtype=np.int64) % clusters
    data = centers[labels] + spread * rng.normal(size=(n, d))
    return FeatureMatrix(data=data, labels=labels)

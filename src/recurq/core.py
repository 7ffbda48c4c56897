"""Core quantization math: hard/soft assignment, the shared-codebook
recurrence, reconstruction, and code packing.

All operations here are pure functions over immutable inputs. Distances are
computed in float64; argmin ties break toward the smallest index.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

_BLOCK_CELLS = 1 << 16  # entries per (rows, width) block temporary: 256 rows at K=256, 1024 at D=64


class DomainError(ValueError):
    """Invalid input to a quantization operation."""


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"{name} must be a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def _as_vector(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise DomainError(f"{name} must be a 1-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


@dataclass
class FeatureMatrix:
    """N x D row-major feature set with optional integer labels.

    ``labels`` holds one class id per row; ``multi_labels`` holds a set of
    label ids per row for multi-label data.
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    multi_labels: list[frozenset[int]] | None = None

    def __post_init__(self):
        self.data = _as_matrix(self.data, "data")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DomainError("feature matrix must be at least 1x1")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.data.shape[0],):
                raise DomainError("labels length must match number of rows")
        if self.multi_labels is not None:
            if len(self.multi_labels) != self.data.shape[0]:
                raise DomainError("multi_labels length must match number of rows")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def label_sets(self) -> list[frozenset[int]]:
        """Per-row label sets, derived from multi_labels or labels."""
        if self.multi_labels is not None:
            return [frozenset(s) for s in self.multi_labels]
        if self.labels is None:
            raise DomainError("feature matrix has no labels")
        return [frozenset((int(l),)) for l in self.labels]


@dataclass(frozen=True)
class RqModel:
    """Trained quantizer: one K x D codebook shared across ``levels``
    recurrence steps, shrunk by ``scale`` at each step.

    Parameter count is K*D + 1 regardless of the level count.
    """

    codebook: np.ndarray
    scale: float
    gamma: float
    levels: int

    def __post_init__(self):
        cb = _as_matrix(self.codebook, "codebook")
        object.__setattr__(self, "codebook", cb)
        cb.setflags(write=False)
        k, d = cb.shape
        if k < 1 or (k & (k - 1)) != 0:
            raise DomainError(f"codebook size {k} must be a power of two")
        if d < 1:
            raise DomainError("codebook dimension must be >= 1")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise DomainError("scale must be finite and positive")
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise DomainError("gamma must be finite and positive")
        if self.levels < 1:
            raise DomainError("levels must be >= 1")

    @property
    def k(self) -> int:
        return self.codebook.shape[0]

    @property
    def dim(self) -> int:
        return self.codebook.shape[1]

    @property
    def bits_per_level(self) -> int:
        return self.k.bit_length() - 1

    @property
    def code_bits(self) -> int:
        return self.levels * self.bits_per_level

    @property
    def param_count(self) -> int:
        return self.k * self.dim + 1

    def with_levels(self, levels: int) -> "RqModel":
        return RqModel(self.codebook, self.scale, self.gamma, levels)


@dataclass(frozen=True)
class SoftAssignment:
    """Softmax codeword weights and the resulting convex combination."""

    probs: np.ndarray
    expected: np.ndarray


@dataclass(frozen=True)
class CodeSequence:
    """Per-level sub-indices for one vector; a length-m prefix is itself a
    valid code for an m-level model."""

    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.shape[0] < 1:
            raise DomainError("code sequence must be a nonempty 1-D index vector")
        if np.any(idx < 0):
            raise DomainError("sub-indices must be nonnegative")
        object.__setattr__(self, "indices", idx)
        idx.setflags(write=False)

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass
class QuantTrace:
    """Per-level state of one encode pass.

    ``states`` rows are the residuals h^0..h^M (h^0 is the input);
    ``hard_partials``/``soft_partials`` are the per-level selected and
    blended codewords; the error vectors measure partial reconstructions
    against the original input.
    """

    states: np.ndarray
    hard_partials: np.ndarray
    soft_partials: np.ndarray
    per_level_hard_err: np.ndarray
    per_level_soft_err: np.ndarray
    probs: np.ndarray = field(repr=False, default=None)


def _level_step(x, codebook, gamma: float | None = None) -> _Level:
    """One level of :func:`_recurrence` for the vector ``x`` against ``codebook``."""
    x = _as_vector(x, "x")
    cb = _as_matrix(codebook, "codebook")
    if cb.shape[1] != x.shape[0]:
        raise DomainError("dimension mismatch between x and codebook")
    return next(_recurrence(x[None, :], [(cb, np.einsum("kd,kd->k", cb, cb))], gamma))


def hard_quantize(x, codebook) -> tuple[int, np.ndarray]:
    """Nearest codeword by Euclidean distance; ties go to the smaller index."""
    lv = _level_step(x, codebook)
    return int(lv.idx[0]), lv.hard[0]


def soft_quantize(x, codebook, gamma: float) -> SoftAssignment:
    """Softmax-weighted convex combination of codewords.

    Weights are exp(-gamma * ||C_k - x||) normalized over k, computed with
    max-subtraction in the exponent for stability at large gamma.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise DomainError("gamma must be finite and positive")
    lv = _level_step(x, codebook, gamma)
    return SoftAssignment(probs=lv.probs[0], expected=lv.soft[0])


def _level_weights(scale: float, m: int) -> list[float]:
    """The weights w^0..w^(m-1) of the first ``m`` levels, by Python ``**``. Every
    level's scale comes from here, so the encoder, the decoder and the ADC table
    agree bit for bit: numpy's array power gives other last bits for some w."""
    return [scale ** i for i in range(m)]


def _level_books(model: RqModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level ``(w^(m-1) * C, squared row norms)`` of the shared codebook."""
    books = [w * model.codebook for w in _level_weights(model.scale, model.levels)]
    return [(scaled, np.einsum("kd,kd->k", scaled, scaled)) for scaled in books]


class _Level(NamedTuple):
    h: np.ndarray  # (N, D) residual entering the level; h^0 is the input
    idx: np.ndarray  # (N,) selected sub-indices
    hard: np.ndarray  # (N, D) selected codewords
    dist: np.ndarray | None  # (N, K) Euclidean distances, soft path only
    probs: np.ndarray | None  # (N, K) softmax weights, soft path only
    soft: np.ndarray | None  # (N, D) blended codewords, soft path only


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices over ``n`` rows, each short enough that a (rows, width) temporary
    stays cache-sized instead of touching N x width fresh pages."""
    rows = max(1, _BLOCK_CELLS // width)
    return [slice(start, start + rows) for start in range(0, n, rows)]


class LabelSets(Sequence):
    """Immutable per-row label sets held flat: ``labels[j]`` belongs to row
    ``owner[j]``, each row's labels in input order. Items are frozensets built
    on access, and the sequence compares equal to the list of those frozensets."""

    __slots__ = ("labels", "owner", "_bounds")

    def __init__(self, labels, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.owner = np.repeat(np.arange(sizes.size), sizes)
        self._bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        if self._bounds[-1] != self.labels.size:
            raise DomainError("label sizes must sum to the label count")
        self.labels.setflags(write=False)
        self.owner.setflags(write=False)

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, i) -> frozenset[int]:
        row = range(len(self))[operator.index(i)]
        return frozenset(self.labels[self._bounds[row] : self._bounds[row + 1]].tolist())

    def __iter__(self):
        words, bounds = self.labels.tolist(), self._bounds
        return (frozenset(words[start:stop]) for start, stop in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if isinstance(other, (list, LabelSets)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def _label_rows(label_sets) -> tuple[np.ndarray, np.ndarray]:
    """Flattened per-row label sets ``(labels, owner)``: ``labels[j]`` belongs to row
    ``owner[j]``. A :class:`LabelSets` hands over the arrays it already holds."""
    if isinstance(label_sets, LabelSets):
        return label_sets.labels, label_sets.owner
    sizes = np.fromiter(map(len, label_sets), dtype=np.int64, count=len(label_sets))
    labels = np.fromiter(chain.from_iterable(label_sets), dtype=np.int64, count=int(sizes.sum()))
    return labels, np.repeat(np.arange(len(label_sets)), sizes)


def _sq_distances(h: np.ndarray, book: np.ndarray, book_sq: np.ndarray) -> np.ndarray:
    """(N, K) squared distances ``||h||^2 - 2 h.c + ||c||^2`` between the rows of
    ``h`` and of ``book``, not clamped at 0. Built in one (N, K) array: fresh
    (N, K) temporaries per call cost page faults in the blocked callers."""
    d2 = h @ book.T
    d2 *= -2.0
    d2 += np.einsum("nd,nd->n", h, h)[:, None]
    d2 += book_sq
    return d2


def _recurrence(x: np.ndarray, books, gamma: float | None = None):
    """The shared-codebook recurrence over the rows of ``x``: yield one
    :class:`_Level` per entry of ``books`` (see :func:`_level_books`). Each level
    takes the nearest scaled codeword (ties to the smallest index) and passes
    the residual on; with ``gamma`` it also yields the softmax over
    ``-gamma * distance`` and the blended codeword."""
    h = x
    for scaled, book_sq in books:
        d2 = _sq_distances(h, scaled, book_sq)
        np.maximum(d2, 0.0, out=d2)
        idx = np.argmin(d2, axis=1)
        hard = scaled[idx]
        dist = probs = soft = None
        if gamma is not None:
            dist = np.sqrt(d2)
            logits = -gamma * dist
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            soft = probs @ scaled
        yield _Level(h, idx, hard, dist, probs, soft)
        h = h - hard


def encode(x, model: RqModel) -> tuple[CodeSequence, QuantTrace]:
    """Greedy recurrent encoding: at each level quantize the current residual
    against the scaled codebook, subtract the selected codeword, and shrink
    the codebook by the scale factor for the next level."""
    x = _as_vector(x, "x")
    if x.shape[0] != model.dim:
        raise DomainError("input dimension does not match model")
    levels = list(_recurrence(x[None, :], _level_books(model), model.gamma))
    hard = np.concatenate([lv.hard for lv in levels])
    soft = np.concatenate([lv.soft for lv in levels])
    trace = QuantTrace(
        states=np.concatenate([lv.h for lv in levels] + [levels[-1].h - levels[-1].hard]),
        hard_partials=hard,
        soft_partials=soft,
        per_level_hard_err=np.linalg.norm(np.cumsum(hard, axis=0) - x, axis=1),
        per_level_soft_err=np.linalg.norm(np.cumsum(soft, axis=0) - x, axis=1),
        probs=np.concatenate([lv.probs for lv in levels]),
    )
    return CodeSequence(np.concatenate([lv.idx for lv in levels])), trace


def encode_batch(data, model: RqModel) -> np.ndarray:
    """Vectorized hard-path encoding of an N x D matrix; returns N x M codes."""
    x = _as_matrix(data, "data")
    if x.shape[1] != model.dim:
        raise DomainError("input dimension does not match model")
    codes = np.empty((x.shape[0], model.levels), dtype=np.int64, order="F")  # column per level, as search scans it
    books = _level_books(model)
    for rows in _row_blocks(x.shape[0], model.k):
        for i, lv in enumerate(_recurrence(x[rows], books)):
            codes[rows, i] = lv.idx
    return codes


def _reconstructions(codes: np.ndarray, model: RqModel):
    """Yield the m-level reconstruction of every row of the (N, L) ``codes`` for
    m = 1..L, as one (N, D) array updated in place: level m adds w^(m-1) * C at
    the level's sub-index, in level order, as the encoder's own running sum does.
    L may exceed ``model.levels``."""
    recon = np.zeros((codes.shape[0], model.dim))
    for i, w in enumerate(_level_weights(model.scale, codes.shape[1])):
        recon += w * model.codebook[codes[:, i]]
        yield recon


def _hard_errors(x: np.ndarray, codes: np.ndarray, model: RqModel) -> np.ndarray:
    """(L,) mean Euclidean error of each level's reconstruction of ``codes``
    against the rows of ``x``: summed over row blocks, then divided by N."""
    err = np.zeros(codes.shape[1])
    for rows in _row_blocks(x.shape[0], model.dim):
        for m, recon in enumerate(_reconstructions(codes[rows], model)):
            err[m] += np.linalg.norm(recon - x[rows], axis=1).sum()
    return err / x.shape[0]


def reconstruct_hard(codes: CodeSequence, model: RqModel, m: int) -> np.ndarray:
    """Prefix reconstruction from the first ``m`` sub-indices."""
    if not 1 <= m <= len(codes):
        raise DomainError(f"level {m} out of range for {len(codes)}-level codes")
    idx = codes.indices[:m]
    if np.any(idx >= model.k):
        raise DomainError("sub-index out of range for model codebook")
    *_, recon = _reconstructions(idx[None, :], model)
    return recon[0]


def reconstruct_soft(trace: QuantTrace, m: int) -> np.ndarray:
    """Sum of the first ``m`` soft partial reconstructions of a trace."""
    if not 1 <= m <= trace.soft_partials.shape[0]:
        raise DomainError(f"level {m} out of range for trace")
    return trace.soft_partials[:m].sum(axis=0)


def _bits_for_k(k: int) -> int:
    if k < 2 or (k & (k - 1)) != 0:
        raise DomainError(f"K={k} must be a power of two >= 2")
    return k.bit_length() - 1


def packed_size(m: int, k: int) -> int:
    """Bytes occupied by an m-level code at codebook size k."""
    return (m * _bits_for_k(k) + 7) // 8


def pack_rows(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack (N, M) sub-indices into (N, packed_size(M, k)) bytes, each row
    MSB-first with its final partial byte zero-padded in the low bits."""
    bits, (n, m) = _bits_for_k(k), codes.shape
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise DomainError("sub-index out of range for K")
    width = (bits + 7) // 8  # bytes per sub-index, MSB-aligned
    # C-contiguous rows: the byte view below splits each row's last axis
    words = (np.ascontiguousarray(codes, dtype=np.int64) << (8 * width - bits)).astype(f">u{width}")
    code_bits = np.unpackbits(words.view(np.uint8).reshape(n, m, width), axis=2)[:, :, :bits]
    return np.packbits(code_bits.reshape(n, m * bits), axis=1)


def unpack_rows(packed: np.ndarray, m: int, k: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: (N, packed_size(m, k)) bytes to (N, m) int64."""
    bits = _bits_for_k(k)
    width = (bits + 7) // 8
    if bits % 8 == 0:  # every sub-index fills whole bytes: the packed row is its big-endian words
        return np.array(np.ascontiguousarray(packed).view(f">u{width}"), dtype=np.int64, order="F")
    code_bits = np.unpackbits(packed, axis=1, count=m * bits).reshape(len(packed), m, bits)
    words = np.packbits(code_bits, axis=2).view(f">u{width}")[:, :, 0]
    return words.astype(np.int64) >> (8 * width - bits)


def pack_codes(codes: CodeSequence, k: int) -> bytes:
    """Pack one code MSB-first; the final partial byte is zero-padded in its low bits."""
    return pack_rows(codes.indices[None, :], k).tobytes()


def unpack_codes(data: bytes, m: int, k: int) -> CodeSequence:
    """Inverse of :func:`pack_codes` for an m-level code."""
    nbytes = packed_size(m, k)
    if len(data) != nbytes:
        raise DomainError(f"expected {nbytes} packed bytes, got {len(data)}")
    return CodeSequence(unpack_rows(np.frombuffer(data, dtype=np.uint8)[None, :], m, k)[0])


def slice_prefix(codes: CodeSequence, m: int) -> CodeSequence:
    """First ``m`` sub-indices; identical to encoding with an m-level model."""
    if not 1 <= m <= len(codes):
        raise DomainError(f"prefix length {m} out of range")
    return CodeSequence(codes.indices[:m].copy())

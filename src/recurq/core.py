"""Core quantization math: hard/soft assignment, the shared-codebook
recurrence and its soft-path forward, reconstruction, and code packing.

All operations here are pure functions over immutable inputs. Distances are
computed in float64; argmin ties break toward the smallest index.

Hard encoding (:func:`encode_batch`) runs one loop at every K: every level
scales one codebook, so a residual's dot products are the input's, one
(rows, D) x (D, K) product per row block, minus rows of the Gram table C C^T.
Up to ``_GRAM_MAX_K`` codewords those rows are gathered from the K x K table,
built once per call; above it the table would not fit, and each level computes
its rows by one product C[idx] C^T instead.
Reconstructions gather rows of the prescaled level books w^(m-1) C.

Encoding, the prefix norms of a database and the per-level hard error run
their row blocks on every CPU in the process's affinity mask
(:func:`_map_blocks`; ``taskset`` limits them). Each block writes only its own
rows, and the blocks and their products keep their shapes, so every worker
count gives the same bits. Search and evaluation scans stay on the calling
thread: their row blocks pooled the same way raised the benchmark's search tail
latency by 40-46% and gave no gain in evaluation throughput.
"""

from __future__ import annotations

import contextvars
import operator
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

_BLOCK_CELLS = 1 << 16  # entries per (rows, width) block temporary: 256 rows at K=256, 1024 at D=64
_GRAM_MAX_K = 1024  # largest K whose K x K float64 Gram table encode_batch builds: 8 MB
_MAX_STORED_K = 1 << 16  # largest K of stored codes: the packer's sub-index words are 1 or 2 bytes


class DomainError(ValueError):
    """Invalid input to a quantization operation."""


def _as_finite(a, name: str, ndim: int = 2, dim: int | None = None) -> np.ndarray:
    """``a`` as a float64 array of rank ``ndim`` with finite entries and, given
    ``dim``, rows of the model's width ``dim``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise DomainError(f"{name} must be a {ndim}-D array, got shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise DomainError(f"{name} width {a.shape[-1]} does not match model dim {dim}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def _require_positive(value, name: str) -> None:
    if not np.isfinite(value) or value <= 0:
        raise DomainError(f"{name} must be finite and positive")


def _require_seed(seed: int) -> None:
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed {seed} must be in [0, 2^64)")


def _require_level(m: int, levels: int) -> int:
    """``m`` when it lies in [1, ``levels``]."""
    if not 1 <= m <= levels:
        raise DomainError(f"level {m} out of range [1, {levels}]")
    return m


def _require_sub_indices(codes: np.ndarray, k: int) -> None:
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise DomainError(f"sub-index out of range [0, {k})")


def _bits_for_k(k: int, name: str = "K", stored: bool = True) -> int:
    """Bits of one sub-index at codebook size ``k``, a power of two. Stored codes,
    and the models trained for them, need 2 <= K <= ``_MAX_STORED_K``; a model
    alone may hold one codeword, or any power of two."""
    least = 2 if stored else 1
    if k < least or k & (k - 1):
        raise DomainError(f"{name}={k} must be a power of two >= {least}")
    if stored and k > _MAX_STORED_K:
        raise DomainError(f"{name}={k} exceeds {_MAX_STORED_K}, the largest codebook stored codes hold")
    return k.bit_length() - 1


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
        self.data = _as_finite(self.data, "data")
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
        cb = _as_finite(self.codebook, "codebook")
        object.__setattr__(self, "codebook", cb)
        cb.setflags(write=False)
        _bits_for_k(cb.shape[0], stored=False)
        if cb.shape[1] < 1:
            raise DomainError("codebook dimension must be >= 1")
        _require_positive(self.scale, "scale")
        _require_positive(self.gamma, "gamma")
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
    cb = _as_finite(codebook, "codebook")
    x = _as_finite(x, "x", 1, cb.shape[1])
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
    _require_positive(gamma, "gamma")
    lv = _level_step(x, codebook, gamma)
    return SoftAssignment(probs=lv.probs[0], expected=lv.soft[0])


def _level_weights(scale: float, m: int) -> list[float]:
    """The weights w^0..w^(m-1) of the first ``m`` levels, by Python ``**``. Every
    level's scale comes from here, so the encoder, the decoder and the ADC table
    agree bit for bit: numpy's array power gives other last bits for some w."""
    return [scale ** i for i in range(m)]


def _scaled_books(model: RqModel, m: int) -> list[np.ndarray]:
    """The shared codebook scaled for each of the first ``m`` levels: w^0 C .. w^(m-1) C."""
    return [w * model.codebook for w in _level_weights(model.scale, m)]


def _level_books(model: RqModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level ``(w^(m-1) * C, squared row norms)`` of the shared codebook."""
    return [(scaled, np.einsum("kd,kd->k", scaled, scaled)) for scaled in _scaled_books(model, model.levels)]


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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_POOLS: dict[int, ThreadPoolExecutor] = {}  # by process id: a forked child builds its own


def _map_blocks(fn, blocks: list[slice]) -> list:
    """``[fn(rows) for rows in blocks]`` on one thread per usable CPU: the
    caller's thread and helpers from a pool, each taking the next block when it
    finishes one.

    ``fn`` must write only its own rows of any shared output, so the blocks may
    run in any order; the results come back in block order. numpy releases the
    interpreter lock in its products, gathers and reductions, so the blocks
    overlap. One block per thread is in flight, so memory does not grow with
    the block count. With one CPU or one block the loop runs on the caller's
    thread alone. Helpers run in copies of the caller's context, so numpy's
    error state (``np.errstate``, a context variable) holds there too. An
    exception from a block reaches the caller unchanged, once every helper has
    stopped."""
    cpus = _cpu_count()
    helpers = min(cpus, len(blocks)) - 1
    if helpers < 1:
        return [fn(rows) for rows in blocks]
    pid = os.getpid()
    # setdefault keeps one pool if two threads get here at once; an executor
    # starts no thread before its first task, so the loser costs nothing
    pool = _POOLS.get(pid) or _POOLS.setdefault(pid, ThreadPoolExecutor(cpus - 1))
    results, claim, todo = [None] * len(blocks), threading.Lock(), iter(range(len(blocks)))

    def work():
        while True:
            with claim:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(blocks[i])

    context = contextvars.copy_context()
    futures = [pool.submit(context.copy().run, work) for _ in range(helpers)]
    try:
        work()
    finally:
        for future in futures:
            future.cancel()  # a helper that has not started would find no block left
        wait(futures)
    for future in futures:
        if not future.cancelled():
            future.result()
    return results


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
    try:
        labels = np.fromiter(chain.from_iterable(label_sets), dtype=np.int64, count=int(sizes.sum()))
    except OverflowError:
        raise DomainError("label ids must fit in int64") from None
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


class _Forward(NamedTuple):
    levels: list[_Level]  # one record per level, soft path
    codes: np.ndarray  # (N, M)
    hard_sums: np.ndarray  # (M, N, D) running hard reconstructions
    soft_sums: np.ndarray  # (M, N, D) running soft reconstructions
    hard_err: np.ndarray  # (M, N) Euclidean error of each hard sum against the input
    soft_err: np.ndarray  # (M, N) the same for the soft sums


def _partials(x: np.ndarray, books, gamma: float):
    """The soft-path recurrence over the rows of ``x`` through ``books`` (see
    :func:`_level_books`), one level at a time: yield
    the :class:`_Level`, the running hard and soft reconstructions and their (N,)
    Euclidean errors against ``x``. Nothing of a level is kept after the next, so
    a caller that keeps only the errors holds M*N floats, not M*N*K."""
    hard = soft = 0.0
    for lv in _recurrence(x, books, gamma):
        hard = lv.hard + hard
        soft = lv.soft + soft
        yield lv, hard, soft, np.linalg.norm(hard - x, axis=1), np.linalg.norm(soft - x, axis=1)


def _forward(x: np.ndarray, model: RqModel) -> _Forward:
    """Every level of :func:`_partials` over the rows of ``x``, collected."""
    (n, d), m = x.shape, model.levels
    fw = _Forward([], np.empty((n, m), dtype=np.int64), np.empty((m, n, d)), np.empty((m, n, d)),
                  np.empty((m, n)), np.empty((m, n)))
    for i, (lv, hard, soft, hard_err, soft_err) in enumerate(_partials(x, _level_books(model), model.gamma)):
        fw.levels.append(lv)
        fw.codes[:, i] = lv.idx
        fw.hard_sums[i], fw.soft_sums[i], fw.hard_err[i], fw.soft_err[i] = hard, soft, hard_err, soft_err
    return fw


def encode(x, model: RqModel) -> tuple[CodeSequence, QuantTrace]:
    """Greedy recurrent encoding: at each level quantize the current residual
    against the scaled codebook, subtract the selected codeword, and shrink
    the codebook by the scale factor for the next level."""
    fw = _forward(_as_finite(x, "x", 1, model.dim)[None, :], model)
    levels = fw.levels
    trace = QuantTrace(
        states=np.concatenate([lv.h for lv in levels] + [levels[-1].h - levels[-1].hard]),
        hard_partials=np.concatenate([lv.hard for lv in levels]),
        soft_partials=np.concatenate([lv.soft for lv in levels]),
        per_level_hard_err=fw.hard_err[:, 0],
        per_level_soft_err=fw.soft_err[:, 0],
        probs=np.concatenate([lv.probs for lv in levels]),
    )
    return CodeSequence(fw.codes[0]), trace


def encode_batch(data, model: RqModel) -> np.ndarray:
    """Vectorized hard-path encoding of an N x D matrix; returns N x M codes.

    One loop serves every K: one (rows, D) x (D, K) product per row block, then
    per level an argmin and a subtraction of scaled Gram rows. Up to K =
    ``_GRAM_MAX_K`` the rows are gathered from one K x K table per call; at
    larger K each level computes them by one (rows, D) x (D, K) product."""
    x = _as_finite(data, "data", 2, model.dim)
    codes = np.empty((x.shape[0], model.levels), dtype=np.int64, order="F")  # column per level, as search scans it
    # ||h - w c_k||^2 = ||h||^2 - 2w (h.c_k - w ||c_k||^2 / 2), so level m takes the
    # argmin of w ||c_k||^2 / 2 - h.c_k. The shared codebook makes h.c_k a row
    # update of the input's: h.c_k = x.c_k - sum_{j<m} w^j G[idx_j, k], G = C C^T.
    # Ties: the per-level product form (_recurrence) clamps d2 at 0, so codewords
    # whose rounded distance is <= 0 tie to the smallest index; only codewords
    # within rounding of the residual get there. Identical codewords have identical
    # columns in x C^T and in G, gathered or computed, so here too they score alike
    # and tie to the smallest index; two distinct codewords that close tie within
    # rounding on either form.
    cb = model.codebook
    gram = cb @ cb.T if model.k <= _GRAM_MAX_K else None  # None: each level's rows from one product
    weights = _level_weights(model.scale, model.levels)
    sq = np.einsum("kd,kd->k", cb, cb)
    halves = [(0.5 * w) * sq for w in weights]

    def encode_rows(rows):
        cross = x[rows] @ cb.T  # (rows, K): h.c_k, updated level by level
        for i, (w, half) in enumerate(zip(weights, halves)):
            idx = np.argmin(half - cross, axis=1)
            codes[rows, i] = idx
            if i + 1 < model.levels:
                step = np.take(cb, idx, axis=0) @ cb.T if gram is None else np.take(gram, idx, axis=0)
                step *= w
                cross -= step

    _map_blocks(encode_rows, _row_blocks(x.shape[0], model.k))
    return codes


def _reconstructions(codes: np.ndarray, books: list[np.ndarray]):
    """Yield the m-level reconstruction of every row of the (N, L) ``codes`` for
    m = 1..L, as one (N, D) array updated in place: level m adds the row of
    ``books[m-1]`` (see :func:`_scaled_books`) at the level's sub-index, in level
    order, as the encoder's own running sum does."""
    recon = np.zeros((codes.shape[0], books[0].shape[1]))
    for i in range(codes.shape[1]):
        recon += np.take(books[i], codes[:, i], axis=0)
        yield recon


def _hard_errors(x: np.ndarray, codes: np.ndarray, model: RqModel) -> np.ndarray:
    """(L,) mean Euclidean error of each level's reconstruction of ``codes``
    against the rows of ``x``: one partial sum per row block, the partials
    added in block order, then divided by N."""
    books = _scaled_books(model, codes.shape[1])

    def block_errors(rows):
        return [np.linalg.norm(recon - x[rows], axis=1).sum() for recon in _reconstructions(codes[rows], books)]

    err = np.zeros(codes.shape[1])
    for partial in _map_blocks(block_errors, _row_blocks(x.shape[0], model.dim)):
        err += partial
    return err / x.shape[0]


def reconstruct_hard(codes: CodeSequence, model: RqModel, m: int) -> np.ndarray:
    """Prefix reconstruction from the first ``m`` sub-indices."""
    idx = codes.indices[:_require_level(m, len(codes))]
    _require_sub_indices(idx, model.k)
    *_, recon = _reconstructions(idx[None, :], _scaled_books(model, m))
    return recon[0]


def reconstruct_soft(trace: QuantTrace, m: int) -> np.ndarray:
    """Sum of the first ``m`` soft partial reconstructions of a trace."""
    return trace.soft_partials[:_require_level(m, trace.soft_partials.shape[0])].sum(axis=0)


def packed_size(m: int, k: int) -> int:
    """Bytes occupied by an m-level code at codebook size k."""
    return (m * _bits_for_k(k) + 7) // 8


def pack_rows(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack (N, M) sub-indices into (N, packed_size(M, k)) bytes, each row
    MSB-first with its final partial byte zero-padded in the low bits."""
    bits, (n, m) = _bits_for_k(k), codes.shape
    _require_sub_indices(codes, k)
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
    return CodeSequence(codes.indices[:_require_level(m, len(codes))].copy())

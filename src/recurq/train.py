"""Training: distortion losses and their analytic gradients, k-means
initialization, Adam, and the two-stage codebook schedule (one level, then all
M levels) with distortion ablation flags. The triplet and adaptive-margin
losses are kept as standalone functions; training does not use them.

Gradient conventions: hard argmin selections and the residual inputs they
produce are treated as stop-gradient constants. Gradients reach the codebook
through the selected codewords on the hard path and through the softmax
weights and convex combination on the soft path; the scale factor w picks up
gradient through the per-level powers w^(m-1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, FeatureMatrix, RqModel, _as_finite, _bits_for_k, _Forward, _forward, _hard_errors, _level_books, _level_weights, _partials, _require_positive, _require_seed, _row_blocks, _sq_distances

_EPS = 1e-30
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8

# distortion flag -> the DistortionReport field it logs and adds to the monitored loss, in summation order
_REPORT_FIELDS = {"hard_distortion": "e_hard", "soft_distortion": "e_soft", "joint_central": "e_joint"}
DISTORTION_FLAGS = tuple(_REPORT_FIELDS)

DEFAULT_FLAGS = frozenset(DISTORTION_FLAGS)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Each option is defined, defaulted and checked
    here only; ``recurq train`` takes its defaults from these fields. ``k`` is a
    power of two >= 2, as code files require, and ``m`` >= 1; ``gamma`` and ``lr``
    are finite and positive; ``seed`` lies in [0, 2^64).

    ``loss_flags`` is a nonempty subset of ``DISTORTION_FLAGS``; an empty set
    and every other flag are rejected. Stage 2 trains the codebook at one level
    for ``epochs_stage2`` epochs, stage 3 at all ``m`` levels for
    ``epochs_stage3``, in the same loop; an epoch count of 0 skips its stage
    and a negative one is rejected. The stages keep the numbers 2 and 3 in
    field names, log records and errors because renumbering them would change
    every training log.
    Adam uses beta1 0.9, beta2 0.999 and epsilon 1e-8.
    The scale w is kept at or above 1e-3 after every step but has no upper
    bound: w > 1, a codebook that grows from level to level, is a valid model
    (every prefix still equals encoding with that many levels), and capping it
    would change the models training produces.
    """

    k: int
    m: int
    gamma: float = 20.0
    lr: float = 0.001
    batch_size: int = 256
    epochs_stage2: int = 20
    epochs_stage3: int = 50
    loss_flags: frozenset[str] = DEFAULT_FLAGS
    seed: int = 0
    init: str = "random"  # codebook init: "random" | "kmeans"

    def __post_init__(self):
        _bits_for_k(self.k, "k")
        if self.m < 1:
            raise DomainError("m must be >= 1")
        _require_positive(self.gamma, "gamma")
        _require_positive(self.lr, "lr")
        _require_seed(self.seed)
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if self.epochs_stage2 < 0 or self.epochs_stage3 < 0:
            raise DomainError("epoch counts must be >= 0")
        if not self.loss_flags:
            raise DomainError("loss_flags is empty: at least one loss flag is required")
        unknown = set(self.loss_flags) - set(DISTORTION_FLAGS)
        if unknown:
            raise DomainError(f"unknown loss flags: {sorted(unknown)}")
        if self.init not in ("random", "kmeans"):
            raise DomainError(f"unknown init '{self.init}'")


@dataclass
class LabelEmbeddings:
    """Fixed per-label embedding vectors, row i for label id i."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = _as_finite(self.vectors, "embeddings")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms == 0):
            raise DomainError("embedding rows must be nonzero")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class DistortionReport:
    e_hard: float
    e_soft: float
    e_joint: float
    per_level_hard: np.ndarray
    per_level_soft: np.ndarray


def _batch_data(batch, dim: int | None = None) -> np.ndarray:
    """The batch as a finite, nonempty (N, dim) float64 matrix."""
    x = batch.data if isinstance(batch, FeatureMatrix) else np.asarray(batch, dtype=np.float64)
    x = _as_finite(x[None, :] if x.ndim == 1 else x, "batch", 2, dim)
    if x.shape[0] == 0:
        raise DomainError("batch must be nonempty")
    return x


def distortion_losses(batch, model: RqModel) -> DistortionReport:
    """Per-level and total distortion errors, batch-averaged.

    E_h^m and E_s^m are Euclidean errors of the level-m partial hard/soft
    reconstructions against the original inputs; totals sum over levels and
    the joint term is the absolute difference of the two totals. The batch is
    run through the forward in row blocks, keeping only the per-row errors,
    so memory grows with M*N, not with the soft path's M*N*K.
    """
    x = _batch_data(batch, model.dim)
    hard_err = np.empty((model.levels, x.shape[0]))
    soft_err = np.empty_like(hard_err)
    books = _level_books(model)
    for rows in _row_blocks(x.shape[0], model.k):
        for m, (*_, hard_row, soft_row) in enumerate(_partials(x[rows], books, model.gamma)):
            hard_err[m, rows] = hard_row
            soft_err[m, rows] = soft_row
    hard_per = hard_err.mean(axis=1)
    soft_per = soft_err.mean(axis=1)
    e_hard = float(hard_per.sum())
    e_soft = float(soft_per.sum())
    return DistortionReport(
        e_hard=e_hard,
        e_soft=e_soft,
        e_joint=abs(e_hard - e_soft),
        per_level_hard=hard_per,
        per_level_soft=soft_per,
    )


def _unit_residual_grads(sums: np.ndarray, errors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-level gradients of mean ||sum_m - x|| w.r.t. each cumulative sum, given
    the (M, N) ``errors`` ||sum_m - x||, already accumulated over downstream
    levels: G[i] = sum_{m>=i} unit(sum_m - x)/N."""
    n = x.shape[0]
    diffs = sums - x
    norms = errors[:, :, None]
    units = np.where(norms > _EPS, diffs / np.maximum(norms, _EPS), 0.0)
    return np.cumsum(units[::-1], axis=0)[::-1] / n


def hard_distortion_value(batch, model: RqModel, codes: np.ndarray) -> float:
    """Batch-mean hard distortion E_h with the given fixed assignments."""
    return float(_hard_errors(_batch_data(batch, model.dim), codes, model).sum())


def grad_soft_distortion(batch, model: RqModel, fw: _Forward | None = None):
    """Analytic gradient of batch-mean E_s w.r.t. the codebook and scale."""
    x = _batch_data(batch, model.dim)
    if fw is None:
        fw = _forward(x, model)
    c = model.codebook
    weights = _level_weights(model.scale, model.levels)
    gamma = model.gamma
    d_c = np.zeros_like(c)
    d_w = 0.0
    grads = _unit_residual_grads(fw.soft_sums, fw.soft_err, x)
    for i, lv in enumerate(fw.levels, start=1):
        g = grads[i - 1]  # (N, D): dL/d q~^i
        scaled = weights[i - 1] * c
        s_hat = np.einsum("nd,nd->n", g, lv.soft)
        s_b = g @ scaled.T  # (N, K)
        coef = gamma * lv.probs * (s_hat[:, None] - s_b)
        a = np.where(lv.dist > _EPS, coef / np.maximum(lv.dist, _EPS), 0.0)
        d_scaled = lv.probs.T @ g + scaled * a.sum(axis=0)[:, None] - a.T @ lv.h
        d_c += weights[i - 1] * d_scaled
        if i >= 2:
            d_w += (i - 1) * weights[i - 2] * float(np.sum(d_scaled * c))
    return d_c, d_w


def grad_hard_distortion(batch, model: RqModel, fw: _Forward | None = None):
    """Subgradient of batch-mean E_h with argmin assignments held fixed."""
    x = _batch_data(batch, model.dim)
    if fw is None:
        fw = _forward(x, model)
    c = model.codebook
    weights = _level_weights(model.scale, model.levels)
    d_c = np.zeros_like(c)
    d_w = 0.0
    grads = _unit_residual_grads(fw.hard_sums, fw.hard_err, x)
    for i, lv in enumerate(fw.levels, start=1):
        g = grads[i - 1]
        np.add.at(d_c, lv.idx, weights[i - 1] * g)
        if i >= 2:
            d_w += (i - 1) * weights[i - 2] * float(np.einsum("nd,nd->", g, c[lv.idx]))
    return d_c, d_w


def triplet_loss(anchor, pos, neg, margin: float):
    """Hinge triplet loss with its gradients; gradients are zero when the
    hinge is inactive. A standalone metric-learning loss: :func:`train` does
    not use it."""
    a = np.asarray(anchor, dtype=np.float64)
    p = np.asarray(pos, dtype=np.float64)
    n = np.asarray(neg, dtype=np.float64)
    if margin < 0:
        raise DomainError("margin must be >= 0")
    dp = a - p
    dn = a - n
    ndp = np.linalg.norm(dp)
    ndn = np.linalg.norm(dn)
    value = ndp - ndn + margin
    zeros = np.zeros_like(a)
    if value <= 0:
        return 0.0, (zeros, zeros.copy(), zeros.copy())
    up = dp / ndp if ndp > _EPS else zeros
    un = dn / ndn if ndn > _EPS else zeros
    return float(value), (up - un, -up, un)


def adaptive_margin_loss(z, label_set, embeddings: LabelEmbeddings):
    """Hinge loss on cosine similarities to fixed label embeddings, with the
    margin for a (positive, negative) label pair set by embedding
    dissimilarity. Returns the loss and its gradient w.r.t. z. A standalone
    metric-learning loss: :func:`train` does not use it."""
    z = np.asarray(z, dtype=np.float64)
    nz = np.linalg.norm(z)
    if nz == 0:
        raise DomainError("feature vector must be nonzero")
    if not label_set:
        raise DomainError("label set must be nonempty")
    v = embeddings.vectors
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    z_hat = z / nz
    cos_vz = vn @ z_hat
    labels = set(int(i) for i in label_set)
    pos = sorted(labels)
    negs = [j for j in range(v.shape[0]) if j not in labels]
    loss = 0.0
    dz = np.zeros_like(z)

    def dcos(j):
        # d cos(v_j, z) / dz
        return (vn[j] - cos_vz[j] * z_hat) / nz

    for i in pos:
        for j in negs:
            delta = 1.0 - float(vn[i] @ vn[j])
            term = delta - cos_vz[i] + cos_vz[j]
            if term > 0:
                loss += term
                dz += -dcos(i) + dcos(j)
    return float(loss), dz


def kmeans_init(features, k: int, iters: int = 25, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding (Arthur & Vassilvitskii, SODA
    2007); empty clusters are reseeded to the point farthest from its assigned
    centroid. Distances are computed over the encoder's row blocks, so no
    N x K array is held."""
    x = _batch_data(features)
    n = x.shape[0]
    if n < k:
        raise DomainError(f"need at least {k} points for {k} centroids")
    rng = np.random.default_rng(seed)
    blocks = _row_blocks(n, k)

    def sq_to(c, out):
        for rows in blocks:
            diff = x[rows] - c
            np.einsum("nd,nd->n", diff, diff, out=out[rows])
        return out

    # k-means++ seeding
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = sq_to(centroids[0], np.empty(n))
    step = np.empty(n)
    for i in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise DomainError("k-means++ seeding: squared distances are not finite")
        if total <= 0:
            centroids[i] = x[rng.integers(n)]
        else:
            centroids[i] = x[rng.choice(n, p=d2 / total)]
        np.minimum(d2, sq_to(centroids[i], step), out=d2)

    # one contiguous column per coordinate: bincount sums each in row order,
    # as x[members].mean(axis=0) does for D >= 2
    columns = x.T.copy()
    assign = np.empty(n, dtype=np.intp)
    nearest = np.empty(n)
    for _ in range(iters):
        cc = np.einsum("kd,kd->k", centroids, centroids)
        for rows in blocks:
            dist = _sq_distances(x[rows], centroids, cc)
            idx = np.argmin(dist, axis=1)
            assign[rows] = idx
            nearest[rows] = dist[np.arange(len(idx)), idx]
        np.maximum(nearest, 0.0, out=nearest)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        new_centroids = centroids.copy()
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns], axis=1)
        new_centroids[filled] = sums[filled] / counts[filled, None]
        for i in np.flatnonzero(~filled):
            far = int(np.argmax(nearest))
            new_centroids[i] = x[far]
            nearest[far] = 0.0
        if np.allclose(new_centroids, centroids, rtol=0, atol=1e-12):
            centroids = new_centroids
            break
        centroids = new_centroids
    return centroids


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig):
    """One Adam update with bias correction, applied in place to ``params``."""
    state.t += 1
    t = state.t
    for name, g in grads.items():
        p = params[name]
        g = np.asarray(g, dtype=np.float64)
        if np.shape(p) != np.shape(g):
            raise DomainError(f"shape mismatch for '{name}': {np.shape(p)} vs {np.shape(g)}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p, dtype=np.float64)
            state.v[name] = np.zeros_like(p, dtype=np.float64)
        state.m[name] = _ADAM_BETA1 * state.m[name] + (1 - _ADAM_BETA1) * g
        state.v[name] = _ADAM_BETA2 * state.v[name] + (1 - _ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1 - _ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1 - _ADAM_BETA2 ** t)
        params[name] = p - config.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
    return params, state


def train(features: FeatureMatrix, config: TrainConfig):
    """Codebook training at one level (stage 2), then at the full level count
    (stage 3). Labels on ``features`` are ignored. Returns the trained model
    and a per-epoch log (list of dicts).

    The learned scale w may end above 1 (see :class:`TrainConfig`). Raises
    DomainError naming the stage, the epoch and the value when a gradient, the
    codebook, w or the monitored loss stops being finite.
    """
    x = features.data
    rng = np.random.default_rng(np.uint64(config.seed))
    log: list[dict] = []

    # codebook init at M=1
    init_seed = int(rng.integers(2 ** 32))
    if config.init == "kmeans":
        codebook = kmeans_init(x, config.k, seed=init_seed)
    else:
        codebook = np.random.default_rng(init_seed).normal(size=(config.k, x.shape[1]))
    model = RqModel(codebook, float(rng.uniform(0.1, 0.9)), config.gamma, 1)
    model = _train_quant_stage(2, model, x, config, rng, log, config.epochs_stage2)
    model = _train_quant_stage(3, model.with_levels(config.m), x, config, rng, log, config.epochs_stage3)
    return model, log


def _enabled_distortion_grads(xb, model, flags):
    fw = _forward(xb, model)
    d_c = np.zeros_like(model.codebook)
    d_w = 0.0
    need_hard = "hard_distortion" in flags or "joint_central" in flags
    need_soft = "soft_distortion" in flags or "joint_central" in flags
    hc = hw = sc = sw = None
    if need_hard:
        hc, hw = grad_hard_distortion(xb, model, fw)
    if need_soft:
        sc, sw = grad_soft_distortion(xb, model, fw)
    if "hard_distortion" in flags:
        d_c += hc
        d_w += hw
    if "soft_distortion" in flags:
        d_c += sc
        d_w += sw
    if "joint_central" in flags:
        e_h = fw.hard_err.mean(axis=1).sum()
        e_s = fw.soft_err.mean(axis=1).sum()
        sgn = np.sign(e_h - e_s)
        d_c += sgn * (hc - sc)
        d_w += sgn * (hw - sw)
    return d_c, d_w


def _monitored_loss(report: DistortionReport, flags) -> tuple[dict[str, float], float]:
    """The report fields the distortion flags select, and their sum in flag order."""
    fields = {name: getattr(report, name) for flag, name in _REPORT_FIELDS.items() if flag in flags}
    total = 0.0
    for value in fields.values():
        total += value
    return fields, total


def _require_finite(value, what: str, stage: int, epoch: int) -> None:
    if not np.all(np.isfinite(value)):
        raise DomainError(f"training stage {stage}, epoch {epoch}: {what} is not finite")


def _train_quant_stage(stage, model, x, config, rng, log, epochs):
    flags = config.loss_flags
    n = x.shape[0]
    params = {"C": model.codebook.copy(), "w": np.float64(model.scale)}
    state = AdamState()

    def current_model():
        return RqModel(params["C"].copy(), float(params["w"]), model.gamma, model.levels)

    report = distortion_losses(x, current_model())
    best_loss = _monitored_loss(report, flags)[1]
    _require_finite(best_loss, "monitored loss before the first step", stage, 0)
    best = (params["C"].copy(), float(params["w"]))
    recent: list[float] = []

    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            d_c, d_w = _enabled_distortion_grads(x[batch_idx], current_model(), flags)
            _require_finite(d_c, "codebook gradient", stage, epoch)
            _require_finite(d_w, "scale gradient", stage, epoch)
            adam_step(params, {"C": d_c, "w": np.float64(d_w)}, state, config)
            params["w"] = np.float64(max(float(params["w"]), 1e-3))
            _require_finite(params["C"], "codebook", stage, epoch)
            _require_finite(params["w"], "scale w", stage, epoch)

        report = distortion_losses(x, current_model())
        fields, monitored = _monitored_loss(report, flags)
        _require_finite(monitored, "monitored loss", stage, epoch)
        log.append({"stage": stage, "epoch": epoch, "wall_time": time.perf_counter() - t0,
                    **fields, "monitored": monitored})

        if monitored < best_loss:
            best_loss = monitored
            best = (params["C"].copy(), float(params["w"]))
        recent.append(monitored)
        if len(recent) > 5:
            recent.pop(0)
            lo, hi = min(recent), max(recent)
            if hi - lo < 1e-6 * max(abs(hi), 1.0):
                break

    return RqModel(best[0], best[1], model.gamma, model.levels)

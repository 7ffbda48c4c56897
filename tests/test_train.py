import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (
    DomainError,
    FeatureMatrix,
    LabelEmbeddings,
    RqModel,
    TrainConfig,
    adam_step,
    adaptive_margin_loss,
    distortion_losses,
    encode,
    grad_hard_distortion,
    grad_soft_distortion,
    kmeans_init,
    reconstruct_hard,
    reconstruct_soft,
    train,
    triplet_loss,
)
from recurq.synth import synth_dataset
from recurq.core import _forward, _level_books, _level_weights, _recurrence
from recurq.train import DEFAULT_FLAGS, AdamState, _enabled_distortion_grads, _row_blocks, hard_distortion_value

FD_STEP = 1e-6


def random_instance(rng, k=8, d=4, m=2, n=3, gamma=3.0):
    model = RqModel(rng.normal(size=(k, d)), float(rng.uniform(0.3, 0.8)), gamma, m)
    x = rng.normal(size=(n, d))
    return x, model


def soft_value_oracle(x, codebook, w, gamma, residuals):
    """Straightforward per-sample recomputation of E_s with frozen residuals."""
    total = 0.0
    n, m_levels = x.shape[0], len(residuals)
    for i in range(n):
        acc = np.zeros(x.shape[1])
        for m in range(1, m_levels + 1):
            scaled = w ** (m - 1) * codebook
            h = residuals[m - 1][i]
            dists = np.array([np.linalg.norm(c - h) for c in scaled])
            logits = -gamma * dists
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            acc = acc + p @ scaled
            total += np.linalg.norm(acc - x[i])
    return total / n


class TestDistortionLosses:
    def test_exact_hard_hit(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 5.0, 1)
        report = distortion_losses(np.array([[1.0, 0.0]]), model)
        assert report.e_hard == 0.0
        assert report.e_soft > 0.0

    def test_single_codeword_soft_equals_hard(self):
        model = RqModel(np.array([[0.3, 0.7]]), 0.5, 5.0, 3)
        report = distortion_losses(np.array([[1.0, -1.0], [0.2, 0.4]]), model)
        assert np.allclose(report.per_level_hard, report.per_level_soft)
        assert report.e_joint == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(20)
        x, model = random_instance(rng, k=8, d=5, m=3, n=6)
        report = distortion_losses(x, model)
        hard = np.zeros(model.levels)
        soft = np.zeros(model.levels)
        for row in x:
            codes, trace = encode(row, model)
            for m in range(1, model.levels + 1):
                hard[m - 1] += np.linalg.norm(reconstruct_hard(codes, model, m) - row)
                soft[m - 1] += np.linalg.norm(reconstruct_soft(trace, m) - row)
        hard /= x.shape[0]
        soft /= x.shape[0]
        assert np.allclose(report.per_level_hard, hard)
        assert np.allclose(report.per_level_soft, soft)
        assert report.e_hard == pytest.approx(hard.sum())
        assert report.e_joint == pytest.approx(abs(hard.sum() - soft.sum()))

    def test_empty_batch_rejected(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 5.0, 1)
        with pytest.raises(DomainError):
            distortion_losses(np.empty((0, 2)), model)


@pytest.mark.parametrize("fn", [distortion_losses, grad_hard_distortion, grad_soft_distortion])
@pytest.mark.parametrize("batch,message", [
    (np.ones((3, 5)), "batch width 5 does not match model dim 4"),
    (np.ones(3), "batch width 3 does not match model dim 4"),
    (np.array([[0.1, 0.2, 0.3, 0.4], [0.1, np.nan, 0.3, 0.4]]), "non-finite"),
    (np.array([[np.inf, 0.0, 0.0, 0.0]]), "non-finite"),
], ids=["width", "vector_width", "nan_row", "inf"])
def test_malformed_batch_rejected(fn, batch, message):
    model = RqModel(np.eye(4), 0.5, 5.0, 2)
    with pytest.raises(DomainError, match=message):
        fn(batch, model)


class TestSoftGradient:
    def test_single_codeword_collapses_to_norm_gradient(self):
        c = np.array([[0.5, -0.3]])
        x = np.array([[1.0, 1.0]])
        model = RqModel(c, 0.5, 4.0, 1)
        d_c, d_w = grad_soft_distortion(x, model)
        expected = (c[0] - x[0]) / np.linalg.norm(c[0] - x[0])
        assert np.allclose(d_c[0], expected)
        assert d_w == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            x, model = random_instance(rng, k=8, d=4, m=2)
            fw = _forward(x, model)
            residuals = [lv.h for lv in fw.levels]
            d_c, d_w = grad_soft_distortion(x, model, fw)
            c, w, g = model.codebook, model.scale, model.gamma
            for _ in range(4):
                i, j = int(rng.integers(8)), int(rng.integers(4))
                cp, cm = c.copy(), c.copy()
                cp[i, j] += FD_STEP
                cm[i, j] -= FD_STEP
                fd = (
                    soft_value_oracle(x, cp, w, g, residuals)
                    - soft_value_oracle(x, cm, w, g, residuals)
                ) / (2 * FD_STEP)
                assert d_c[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            fd_w = (
                soft_value_oracle(x, c, w + FD_STEP, g, residuals)
                - soft_value_oracle(x, c, w - FD_STEP, g, residuals)
            ) / (2 * FD_STEP)
            assert d_w == pytest.approx(fd_w, rel=1e-4, abs=1e-7)

    def test_symmetric_level_one_w_gradient_is_zero(self):
        c = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = RqModel(c, 0.5, 2.0, 1)
        _, d_w = grad_soft_distortion(np.array([[0.0, 0.0]]), model)
        assert d_w == 0.0


class TestHardGradient:
    def test_single_level_structure(self):
        rng = np.random.default_rng(22)
        c = rng.normal(size=(4, 3))
        x = rng.normal(size=(1, 3))
        model = RqModel(c, 0.5, 4.0, 1)
        d_c, d_w = grad_hard_distortion(x, model)
        fw = _forward(x, model)
        b = fw.codes[0, 0]
        recon = c[b]
        expected = (recon - x[0]) / np.linalg.norm(recon - x[0])
        assert np.allclose(d_c[b], expected)
        mask = np.ones(4, dtype=bool)
        mask[b] = False
        assert np.all(d_c[mask] == 0.0)
        assert d_w == 0.0

    def test_matches_finite_differences_fixed_assignments(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            x, model = random_instance(rng, k=8, d=4, m=3)
            fw = _forward(x, model)
            d_c, d_w = grad_hard_distortion(x, model, fw)
            c, w = model.codebook, model.scale
            for _ in range(4):
                i, j = int(rng.integers(8)), int(rng.integers(4))
                cp, cm = c.copy(), c.copy()
                cp[i, j] += FD_STEP
                cm[i, j] -= FD_STEP
                fd = (
                    hard_distortion_value(x, RqModel(cp, w, 3.0, 3), fw.codes)
                    - hard_distortion_value(x, RqModel(cm, w, 3.0, 3), fw.codes)
                ) / (2 * FD_STEP)
                assert d_c[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)
            fd_w = (
                hard_distortion_value(x, RqModel(c, w + FD_STEP, 3.0, 3), fw.codes)
                - hard_distortion_value(x, RqModel(c, w - FD_STEP, 3.0, 3), fw.codes)
            ) / (2 * FD_STEP)
            assert d_w == pytest.approx(fd_w, rel=1e-4, abs=1e-7)

    def test_zero_distortion_gives_zero_gradient(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = RqModel(c, 0.5, 4.0, 1)
        d_c, d_w = grad_hard_distortion(np.array([[1.0, 0.0]]), model)
        assert np.all(d_c == 0.0)
        assert d_w == 0.0


class TestTripletLoss:
    def test_inactive_hinge(self):
        a = np.zeros(3)
        p = np.array([0.2, 0.0, 0.0])
        n = np.array([1.0, 0.0, 0.0])
        loss, (ga, gp, gn) = triplet_loss(a, p, n, 0.5)
        assert loss == 0.0
        assert np.all(ga == 0) and np.all(gp == 0) and np.all(gn == 0)

    def test_active_value(self):
        a = np.zeros(2)
        p = np.array([1.0, 0.0])
        n = np.array([0.2, 0.0])
        loss, _ = triplet_loss(a, p, n, 0.5)
        assert loss == pytest.approx(1.3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            a, p, n = rng.normal(size=(3, 4))
            loss, grads = triplet_loss(a, p, n, 2.0)
            if loss == 0.0:
                continue
            for vec_idx, base in enumerate((a, p, n)):
                for j in range(4):
                    vp, vm = base.copy(), base.copy()
                    vp[j] += FD_STEP
                    vm[j] -= FD_STEP
                    args_p = [a, p, n]
                    args_m = [a, p, n]
                    args_p[vec_idx] = vp
                    args_m[vec_idx] = vm
                    fd = (
                        triplet_loss(*args_p, 2.0)[0] - triplet_loss(*args_m, 2.0)[0]
                    ) / (2 * FD_STEP)
                    assert grads[vec_idx][j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestAdaptiveMarginLoss:
    def test_orthogonal_aligned_case(self):
        emb = LabelEmbeddings(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss, _ = adaptive_margin_loss(np.array([1.0, 0.0]), {0}, emb)
        assert loss == pytest.approx(0.0)

    def test_wrong_label(self):
        emb = LabelEmbeddings(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss, _ = adaptive_margin_loss(np.array([0.0, 1.0]), {0}, emb)
        assert loss == pytest.approx(2.0)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(25)
        v = rng.normal(size=(5, 6))
        emb = LabelEmbeddings(v)
        z = rng.normal(size=6)
        labels = {1, 3}
        loss, _ = adaptive_margin_loss(z, labels, emb)

        def cos(u, t):
            return float(u @ t / (np.linalg.norm(u) * np.linalg.norm(t)))

        expected = 0.0
        for i in labels:
            for j in set(range(5)) - labels:
                delta = 1.0 - cos(v[i], v[j])
                expected += max(0.0, delta - cos(v[i], z) + cos(v[j], z))
        assert loss == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            emb = LabelEmbeddings(rng.normal(size=(4, 5)))
            z = rng.normal(size=5)
            _, dz = adaptive_margin_loss(z, {0, 2}, emb)
            for j in range(5):
                zp, zm = z.copy(), z.copy()
                zp[j] += FD_STEP
                zm[j] -= FD_STEP
                fd = (
                    adaptive_margin_loss(zp, {0, 2}, emb)[0]
                    - adaptive_margin_loss(zm, {0, 2}, emb)[0]
                ) / (2 * FD_STEP)
                assert dz[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_rejects_zero_vector(self):
        emb = LabelEmbeddings(np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            adaptive_margin_loss(np.zeros(2), {0}, emb)


class TestKmeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(27)
        a = rng.normal(0.0, 0.01, size=(50, 3)) + np.array([10.0, 0.0, 0.0])
        b = rng.normal(0.0, 0.01, size=(50, 3)) - np.array([10.0, 0.0, 0.0])
        x = np.vstack([a, b])
        centroids = kmeans_init(x, 2, seed=1)
        centroids = centroids[np.argsort(centroids[:, 0])]
        assert np.allclose(centroids[1], a.mean(axis=0), atol=1e-9)
        assert np.allclose(centroids[0], b.mean(axis=0), atol=1e-9)

    def test_single_centroid_is_mean(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(40, 5))
        centroids = kmeans_init(x, 1, seed=2)
        assert np.allclose(centroids[0], x.mean(axis=0))

    def test_sse_nonincreasing(self):
        rng = np.random.default_rng(29)

        def sse(x, centroids):
            d2 = ((x[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            return d2.min(axis=1).sum()

        for seed in range(100):
            x = rng.normal(size=(60, 4))
            prev = None
            for iters in range(1, 6):
                centroids = kmeans_init(x, 5, iters=iters, seed=seed)
                cur = sse(x, centroids)
                if prev is not None:
                    assert cur <= prev + 1e-9
                prev = cur

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            kmeans_init(np.zeros((3, 2)), 4)


class TestAdam:
    def _config(self, lr=0.001):
        return TrainConfig(k=2, m=1, lr=lr)

    def test_first_step_magnitude(self):
        params = {"theta": np.array(0.0)}
        state = AdamState()
        adam_step(params, {"theta": np.array(1.0)}, state, self._config())
        assert params["theta"] == pytest.approx(-0.001, rel=1e-6)

    def test_zero_gradient_leaves_params(self):
        params = {"theta": np.array([1.0, -2.0])}
        state = AdamState()
        adam_step(params, {"theta": np.zeros(2)}, state, self._config())
        assert np.array_equal(params["theta"], [1.0, -2.0])

    def test_ten_step_quadratic_matches_reference(self):
        config = self._config(lr=0.01)
        params = {"theta": np.array(3.0)}
        state = AdamState()
        # hand-rolled scalar reference
        theta, m, v = 3.0, 0.0, 0.0
        for t in range(1, 11):
            g = 2.0 * theta  # d/dtheta theta^2
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            adam_step(
                params, {"theta": 2.0 * params["theta"]}, state, config
            )
        assert float(params["theta"]) == pytest.approx(theta, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            adam_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, AdamState(), self._config())


class TestTrain:
    def test_perfect_capacity_keeps_zero_distortion(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(16, 4))
        fm = FeatureMatrix(x)
        config = TrainConfig(
            k=16, m=1, init="kmeans", epochs_stage2=3, epochs_stage3=3, seed=5,
            loss_flags=frozenset({"hard_distortion"}),
        )
        model, log = train(fm, config)
        report = distortion_losses(x, model)
        assert report.e_hard <= 1e-9

    def test_training_improves_over_random_baseline(self):
        fm = synth_dataset(n=1500, d=16, clusters=8, spread=0.1, seed=3)
        config = TrainConfig(
            k=16, m=2, init="kmeans", epochs_stage2=5, epochs_stage3=10, seed=3
        )
        model, log = train(fm, config)
        rng = np.random.default_rng(99)
        baseline = RqModel(
            rng.normal(0, fm.data.std(), size=(16, 16)), 0.5, config.gamma, 2
        )
        trained = distortion_losses(fm.data, model).e_hard
        random_init = distortion_losses(fm.data, baseline).e_hard
        assert trained < 0.5 * random_init

    def test_bit_reproducible(self):
        fm = synth_dataset(n=400, d=8, clusters=4, spread=0.15, seed=11)
        config = TrainConfig(k=8, m=2, epochs_stage2=3, epochs_stage3=4, seed=17)
        m1, log1 = train(fm, config)
        m2, log2 = train(fm, config)
        assert np.array_equal(m1.codebook, m2.codebook)
        assert m1.scale == m2.scale
        assert [r.get("e_hard") for r in log1] == [r.get("e_hard") for r in log2]

    def test_losses_nonnegative_in_log(self):
        fm = synth_dataset(n=300, d=8, clusters=4, spread=0.2, seed=1)
        config = TrainConfig(k=8, m=2, epochs_stage2=3, epochs_stage3=3, seed=2)
        _, log = train(fm, config)
        for record in log:
            for key in ("e_hard", "e_soft", "e_joint"):
                if key in record:
                    assert record[key] >= 0.0

    def test_ablation_flags_are_live(self):
        fm = synth_dataset(n=300, d=8, clusters=4, spread=0.2, seed=4)
        base = dict(k=8, m=2, epochs_stage2=4, epochs_stage3=4, seed=9, init="kmeans")
        full = train(fm, TrainConfig(**base))[0]
        soft_only = train(
            fm, TrainConfig(**base, loss_flags=frozenset({"soft_distortion"}))
        )[0]
        e_full = distortion_losses(fm.data, full).e_hard
        e_soft = distortion_losses(fm.data, soft_only).e_hard
        assert e_full != e_soft

    def test_hard_only_never_regresses_from_kmeans(self):
        fm = synth_dataset(n=500, d=8, clusters=6, spread=0.15, seed=12)
        config = TrainConfig(
            k=8, m=1, init="kmeans", epochs_stage2=8, epochs_stage3=0, seed=12,
            loss_flags=frozenset({"hard_distortion"}),
        )
        model, _ = train(fm, config)
        # same init derivation as the trainer
        rng = np.random.default_rng(np.uint64(12))
        init_seed = int(rng.integers(2 ** 32))
        init = RqModel(kmeans_init(fm.data, 8, seed=init_seed), 0.5, config.gamma, 1)
        final = distortion_losses(fm.data, model).e_hard
        assert final <= distortion_losses(fm.data, init).e_hard + 1e-12

    @pytest.mark.parametrize("flag", ["triplet", "adaptive_margin", "no_such_loss"])
    def test_unknown_loss_flags_rejected(self, flag):
        with pytest.raises(DomainError, match="unknown loss flags"):
            TrainConfig(k=4, m=1, loss_flags=frozenset({"hard_distortion", flag}))

    @pytest.mark.parametrize("bad, match", [
        ({"loss_flags": frozenset()}, "loss_flags is empty"),
        ({"epochs_stage2": -1}, "epoch counts must be >= 0"),
        ({"epochs_stage3": -3}, "epoch counts must be >= 0"),
        ({"k": 3}, "k=3 must be a power of two"),
        ({"k": 0}, "k=0 must be a power of two"),
        ({"k": 1}, "k=1 must be a power of two >= 2"),
        ({"m": 0}, "m must be >= 1"),
        ({"gamma": 0.0}, "gamma must be finite and positive"),
        ({"gamma": float("inf")}, "gamma must be finite and positive"),
        ({"lr": float("nan")}, "lr must be finite and positive"),
        ({"lr": -0.1}, "lr must be finite and positive"),
        ({"seed": -1}, r"seed -1 must be in \[0, 2\^64\)"),
        ({"seed": 2 ** 64}, "must be in"),
    ], ids=["no-flags", "stage2-negative", "stage3-negative", "k-not-power-of-two", "k-zero", "k-one", "m-zero",
            "gamma-zero", "gamma-inf", "lr-nan", "lr-negative", "seed-negative", "seed-too-large"])
    def test_bad_config_rejected(self, bad, match):
        with pytest.raises(DomainError, match=match):
            TrainConfig(**{"k": 4, "m": 1, **bad})

    def test_config_edge_values_accepted(self):
        TrainConfig(k=2, m=1, seed=2 ** 64 - 1)
        TrainConfig(k=2 ** 16, m=1, gamma=1e-300, lr=1e308, seed=0)

    def test_labels_do_not_change_training(self):
        fm = synth_dataset(n=150, d=8, clusters=4, spread=0.2, seed=6)
        config = TrainConfig(k=8, m=2, epochs_stage2=2, epochs_stage3=2, batch_size=64, seed=8)
        (model, log), *labelled = [
            train(FeatureMatrix(fm.data, **labels), config)
            for labels in ({}, {"labels": fm.labels}, {"multi_labels": fm.label_sets()})
        ]
        for other, other_log in labelled:
            assert np.array_equal(other.codebook, model.codebook)
            assert other.scale == model.scale
            assert [{**r, "wall_time": 0} for r in other_log] == [{**r, "wall_time": 0} for r in log]


def kmeans_reference(features, k, iters=25, seed=0):
    """Unblocked k-means: whole-set x - c arrays in the seeding, one N x K
    distance array per Lloyd pass and a Python loop over clusters."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = np.einsum("nd,nd->n", x - centroids[0], x - centroids[0])
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[i] = x[rng.integers(n)]
        else:
            centroids[i] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.einsum("nd,nd->n", x - centroids[i], x - centroids[i]))
    for _ in range(iters):
        d2 = (
            np.einsum("nd,nd->n", x, x)[:, None]
            - 2.0 * x @ centroids.T
            + np.einsum("kd,kd->k", centroids, centroids)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        nearest = np.maximum(d2[np.arange(n), assign], 0.0)
        new_centroids = centroids.copy()
        for i in range(k):
            members = assign == i
            if members.any():
                new_centroids[i] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(nearest))
                new_centroids[i] = x[far]
                nearest[far] = 0.0
        if np.allclose(new_centroids, centroids, rtol=0, atol=1e-12):
            return new_centroids
        centroids = new_centroids
    return centroids


def duplicated_points(rng, n, d, distinct):
    """n rows drawn from only ``distinct`` points, so some clusters go empty."""
    base = rng.normal(size=(distinct, d))
    return base[rng.integers(distinct, size=n)]


class TestBlockedKmeans:
    @pytest.mark.parametrize(
        "case",
        ["duplicates_force_empty", "n_equals_k", "k_is_1", "k1024_across_blocks", "k256_d64"],
    )
    def test_matches_unblocked_reference(self, case):
        rng = np.random.default_rng(31)
        x, k = {
            "duplicates_force_empty": (duplicated_points(rng, 60, 3, 5), 16),
            "n_equals_k": (rng.normal(size=(32, 4)), 32),
            "k_is_1": (rng.normal(size=(500, 6)), 1),
            "k1024_across_blocks": (rng.normal(size=(3000, 8)), 1024),  # 47 blocks of 64 rows
            "k256_d64": (rng.normal(size=(2000, 64)), 256),
        }[case]
        for seed in (1, 7):
            assert np.array_equal(kmeans_init(x, k, seed=seed), kmeans_reference(x, k, seed=seed))

    @settings(max_examples=120, deadline=None)
    @given(bits=st.integers(0, 6), d=st.integers(2, 6), extra=st.integers(0, 150),
           distinct=st.integers(0, 40), iters=st.integers(1, 25), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_unblocked_reference_random(self, bits, d, extra, distinct, iters, seed):
        rng = np.random.default_rng(seed)
        k = 2 ** bits
        n = k + extra
        x = duplicated_points(rng, n, d, distinct) if distinct else rng.normal(size=(n, d))
        assert np.array_equal(
            kmeans_init(x, k, iters=iters, seed=seed), kmeans_reference(x, k, iters=iters, seed=seed)
        )

    def test_overflowing_seeding_rejected(self):
        x = np.random.default_rng(32).normal(size=(40, 4)) * 1e160
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="seeding"):
            kmeans_init(x, 4)


def running_sums(x, model):
    """The levels of one whole-batch _recurrence pass and their (M, N, D) running
    hard and soft reconstructions, each level added to the sum before it."""
    levels = list(_recurrence(x, _level_books(model), model.gamma))
    hard_sums, soft_sums = np.empty((2, model.levels) + x.shape)
    for m, lv in enumerate(levels):
        hard_sums[m] = lv.hard + (hard_sums[m - 1] if m else 0.0)
        soft_sums[m] = lv.soft + (soft_sums[m - 1] if m else 0.0)
    return levels, hard_sums, soft_sums


def distortion_reference(x, model):
    """Whole-batch per-level errors, normed over the (M, N, D) running sums."""
    _, hard_sums, soft_sums = running_sums(x, model)
    hard = np.linalg.norm(hard_sums - x, axis=2).mean(axis=1)
    soft = np.linalg.norm(soft_sums - x, axis=2).mean(axis=1)
    return hard, soft


def gradients_reference(x, model):
    """Hard, soft and all-flag gradients with their own running sums, norms and
    blend products, from _recurrence alone: the arithmetic the shared forward
    replaced, which must give the same bits."""
    levels, hard_sums, soft_sums = running_sums(x, model)
    c, gamma, n = model.codebook, model.gamma, x.shape[0]
    weights = _level_weights(model.scale, model.levels)

    def unit_grads(sums):
        diffs = sums - x
        norms = np.linalg.norm(diffs, axis=2, keepdims=True)
        units = np.where(norms > 1e-30, diffs / np.maximum(norms, 1e-30), 0.0)
        return np.cumsum(units[::-1], axis=0)[::-1] / n

    sc, sw, grads = np.zeros_like(c), 0.0, unit_grads(soft_sums)
    for i in range(1, model.levels + 1):
        g, scaled, lv = grads[i - 1], weights[i - 1] * c, levels[i - 1]
        s_hat = np.einsum("nd,nd->n", g, lv.probs @ scaled)
        coef = gamma * lv.probs * (s_hat[:, None] - g @ scaled.T)
        a = np.where(lv.dist > 1e-30, coef / np.maximum(lv.dist, 1e-30), 0.0)
        d_scaled = lv.probs.T @ g + scaled * a.sum(axis=0)[:, None] - a.T @ lv.h
        sc += weights[i - 1] * d_scaled
        if i >= 2:
            sw += (i - 1) * weights[i - 2] * float(np.sum(d_scaled * c))
    hc, hw, grads = np.zeros_like(c), 0.0, unit_grads(hard_sums)
    for i in range(1, model.levels + 1):
        g, idx = grads[i - 1], levels[i - 1].idx
        np.add.at(hc, idx, weights[i - 1] * g)
        if i >= 2:
            hw += (i - 1) * weights[i - 2] * float(np.einsum("nd,nd->", g, c[idx]))
    e_h = np.linalg.norm(hard_sums - x, axis=2).mean(axis=1).sum()
    e_s = np.linalg.norm(soft_sums - x, axis=2).mean(axis=1).sum()
    sgn = np.sign(e_h - e_s)
    total = (np.zeros_like(c) + hc + sc + sgn * (hc - sc), 0.0 + hw + sw + sgn * (hw - sw))
    return (hc, hw), (sc, sw), total


def test_gradients_equal_recomputing_reference():
    rng = np.random.default_rng(35)
    for _ in range(120):
        k, d, m = 1 << int(rng.integers(0, 9)), int(rng.integers(1, 33)), int(rng.integers(1, 7))
        model = RqModel(rng.normal(size=(k, d)), float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.1, 100.0)), m)
        x = rng.normal(size=(int(rng.integers(1, 300)), d))
        hard, soft, total = gradients_reference(x, model)
        for got, want in ((grad_hard_distortion(x, model), hard), (grad_soft_distortion(x, model), soft),
                          (_enabled_distortion_grads(x, model, DEFAULT_FLAGS), total)):
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]


def blend_is_row_count_independent(n, k, d):
    """Whether this BLAS gives each row of an (n, K) @ (K, D) product the same
    bits when it multiplies the report's row blocks one at a time. OpenBLAS
    picks its kernel by product size, and kernels round differently."""
    rng = np.random.default_rng(0)
    p, c = rng.random((n, k)), rng.normal(size=(k, d))
    return np.array_equal(p @ c, np.concatenate([p[rows] @ c for rows in _row_blocks(n, k)]))


class TestStreamedReport:
    @pytest.mark.parametrize(
        "k,d,m,gamma,n",
        [
            (256, 64, 4, 20.0, 700),  # benchmark shape, three row blocks
            (2, 3, 3, 0.5, 33000),  # two blocks of 32768 rows
            (16, 5, 8, 5.0, 9000),
            (64, 7, 2, 200.0, 3000),
            (256, 4, 3, 20.0, 1000),
            (512, 8, 3, 20.0, 2635),
            (1024, 8, 2, 200.0, 300),
            (8, 4, 5, 20.0, 1),
        ],
    )
    def test_matches_whole_batch_reference(self, k, d, m, gamma, n):
        rng = np.random.default_rng(33)
        model = RqModel(rng.normal(size=(k, d)), 0.6, gamma, m)
        x = rng.normal(size=(n, d))
        report = distortion_losses(x, model)
        hard, soft = distortion_reference(x, model)
        assert np.array_equal(report.per_level_hard, hard)
        assert report.e_hard == float(hard.sum())
        if blend_is_row_count_independent(n, k, d):
            assert np.array_equal(report.per_level_soft, soft)
            assert report.e_soft == float(soft.sum())
            assert report.e_joint == abs(float(hard.sum()) - float(soft.sum()))
        else:  # the blended codeword may round differently by an ulp
            np.testing.assert_allclose(report.per_level_soft, soft, rtol=1e-14)
            assert report.e_soft == pytest.approx(float(soft.sum()), rel=1e-14)

    def test_peak_memory_does_not_grow_with_n_times_k(self):
        rng = np.random.default_rng(34)
        model = RqModel(rng.normal(size=(256, 8)), 0.6, 20.0, 4)
        peaks = {}
        for n in (2048, 8192):
            x = rng.normal(size=(n, 8))
            tracemalloc.start()
            distortion_losses(x, model)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # the whole-batch report held 2 * M (N, K) float64 arrays: 6144 more rows cost 100 MB
        assert peaks[8192] - peaks[2048] < (8192 - 2048) * 256 * 8 / 4


class TestNonFiniteGuard:
    def test_overflowing_features_name_stage_and_epoch(self):
        fm = synth_dataset(n=200, d=8, clusters=4, spread=0.2, seed=14)
        config = TrainConfig(k=8, m=2, epochs_stage2=2, epochs_stage3=2, seed=14)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match=r"stage 2, epoch 0: monitored loss .*not finite"
        ):
            train(FeatureMatrix(fm.data * 1e155), config)

    def test_exploding_step_names_the_gradient(self):
        fm = synth_dataset(n=200, d=8, clusters=4, spread=0.2, seed=15)
        config = TrainConfig(k=8, m=2, lr=1e308, batch_size=50, epochs_stage2=2, epochs_stage3=2, seed=15)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match=r"stage 2, epoch 0: codebook gradient is not finite"
        ):
            train(fm, config)

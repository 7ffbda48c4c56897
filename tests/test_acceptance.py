"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured value when it holds (run with -s to see them)."""

import numpy as np
import pytest

from recurq import (
    CodeSequence,
    FeatureMatrix,
    FileFormatError,
    RqModel,
    TrainConfig,
    adaptive_margin_loss,
    distortion_losses,
    encode,
    encode_batch,
    encode_database,
    evaluate,
    grad_hard_distortion,
    grad_soft_distortion,
    hard_quantize,
    kmeans_init,
    load_codes,
    load_model,
    pack_codes,
    save_codes,
    save_model,
    search,
    slice_prefix,
    soft_quantize,
    synth_dataset,
    train,
    triplet_loss,
    LabelEmbeddings,
)
from recurq.core import _forward
from recurq.index import _prefix_reconstructions
from recurq.train import hard_distortion_value

FD_STEP = 1e-6
FD_RTOL = 1e-4


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset(n=10000, d=32, clusters=10, spread=0.1, seed=7)


@pytest.fixture(scope="module")
def trained_m4(dataset):
    config = TrainConfig(
        k=16, m=4, init="kmeans", epochs_stage2=10, epochs_stage3=20, seed=7
    )
    model, _ = train(dataset, config)
    return model


def report(num, message):
    print(f"\nACCEPTANCE PASS [{num:2d}] {message}")


def test_c01_code_length_arithmetic():
    for k, m, bits in ((256, 4, 32), (16, 4, 16)):
        cb = np.random.default_rng(0).normal(size=(k, 8))
        model = RqModel(cb, 0.5, 20.0, m)
        assert model.code_bits == bits
        codes = CodeSequence(np.arange(m) % k)
        assert len(pack_codes(codes, k)) * 8 == bits
    report(1, "packed code lengths: K=256,M=4 -> 32 bits; K=16,M=4 -> 16 bits")


def test_c02_parameter_count():
    cb = np.zeros((256, 2048))
    for m in range(1, 7):
        model = RqModel(cb, 0.5, 20.0, m)
        assert model.codebook.size == 524_288
        assert model.param_count == 524_289
    report(2, "524,288 codebook scalars + 1 scale, independent of M in 1..6")


def test_c03_hard_quantizer_oracle():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        k = int(rng.integers(1, 33))
        d = int(rng.integers(1, 9))
        cb = rng.normal(size=(k, d))
        x = rng.normal(size=d)
        idx, _ = hard_quantize(x, cb)
        assert idx == int(np.argmin([np.linalg.norm(c - x) for c in cb]))
    report(3, "hard quantizer equals exhaustive scan on 1000 random instances")


def test_c04_soft_to_hard_convergence():
    rng = np.random.default_rng(104)
    checked = monotone_checked = 0
    while checked < 100:
        cb = rng.normal(size=(8, 6))
        cb /= np.linalg.norm(cb, axis=1, keepdims=True)
        x = rng.normal(size=6)
        x /= np.linalg.norm(x)
        dists = np.sort(np.linalg.norm(cb - x, axis=1))
        gap = dists[1] - dists[0]
        if gap < 1e-3:
            continue
        hard_idx, codeword = hard_quantize(x, cb)
        diffs = []
        for gamma in (1.0, 10.0, 100.0, 1e4):
            sa = soft_quantize(x, cb, gamma)
            diffs.append(np.linalg.norm(sa.expected - codeword))
        assert int(np.argmax(soft_quantize(x, cb, 1e4).probs)) == hard_idx
        assert diffs[-1] < 1e-6
        # Monotone decrease needs the nearest-two gap to be resolvable at the
        # grid's coarsest step: two codewords tied within ~1/gamma make the
        # blend overshoot before it concentrates. Nonincreasing rather than
        # strict because the gap saturates at exactly 0 once the softmax
        # underflows to a one-hot.
        if gap >= 0.05:
            assert all(b <= a for a, b in zip(diffs, diffs[1:]))
            monotone_checked += 1
        checked += 1
    assert monotone_checked >= 50
    report(
        4,
        f"soft argmax matches hard at gamma=1e4 on 100 instances; "
        f"gap nonincreasing over gamma sweep on {monotone_checked} well-separated instances",
    )


def _soft_value_oracle(x, codebook, w, gamma, residuals):
    # independent per-sample recomputation of E_s with frozen level inputs
    total = 0.0
    for i in range(x.shape[0]):
        acc = np.zeros(x.shape[1])
        for m in range(1, len(residuals) + 1):
            scaled = w ** (m - 1) * codebook
            h = residuals[m - 1][i]
            d = np.array([np.linalg.norm(c - h) for c in scaled])
            logits = -gamma * d
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            acc = acc + p @ scaled
            total += np.linalg.norm(acc - x[i])
    return total / x.shape[0]


def _fd_close(analytic, fd):
    return analytic == pytest.approx(fd, rel=FD_RTOL, abs=1e-7)


def test_c05_gradient_correctness():
    rng = np.random.default_rng(105)
    for _ in range(50):  # soft distortion: dC and dw
        model = RqModel(rng.normal(size=(8, 4)), float(rng.uniform(0.3, 0.8)), 3.0, 2)
        x = rng.normal(size=(3, 4))
        fw = _forward(x, model)
        residuals = [lv.h for lv in fw.levels]
        d_c, d_w = grad_soft_distortion(x, model, fw)
        c, w, g = model.codebook, model.scale, model.gamma
        for _ in range(3):
            i, j = int(rng.integers(8)), int(rng.integers(4))
            cp, cm = c.copy(), c.copy()
            cp[i, j] += FD_STEP
            cm[i, j] -= FD_STEP
            fd = (
                _soft_value_oracle(x, cp, w, g, residuals)
                - _soft_value_oracle(x, cm, w, g, residuals)
            ) / (2 * FD_STEP)
            assert _fd_close(d_c[i, j], fd)
        fd_w = (
            _soft_value_oracle(x, c, w + FD_STEP, g, residuals)
            - _soft_value_oracle(x, c, w - FD_STEP, g, residuals)
        ) / (2 * FD_STEP)
        assert _fd_close(d_w, fd_w)

    for _ in range(50):  # hard distortion within fixed-assignment neighborhoods
        model = RqModel(rng.normal(size=(8, 4)), float(rng.uniform(0.3, 0.8)), 3.0, 3)
        x = rng.normal(size=(3, 4))
        fw = _forward(x, model)
        d_c, d_w = grad_hard_distortion(x, model, fw)
        c, w = model.codebook, model.scale
        for _ in range(3):
            i, j = int(rng.integers(8)), int(rng.integers(4))
            cp, cm = c.copy(), c.copy()
            cp[i, j] += FD_STEP
            cm[i, j] -= FD_STEP
            fd = (
                hard_distortion_value(x, RqModel(cp, w, 3.0, 3), fw.codes)
                - hard_distortion_value(x, RqModel(cm, w, 3.0, 3), fw.codes)
            ) / (2 * FD_STEP)
            assert _fd_close(d_c[i, j], fd)
        fd_w = (
            hard_distortion_value(x, RqModel(c, w + FD_STEP, 3.0, 3), fw.codes)
            - hard_distortion_value(x, RqModel(c, w - FD_STEP, 3.0, 3), fw.codes)
        ) / (2 * FD_STEP)
        assert _fd_close(d_w, fd_w)

    count = 0  # triplet loss (active branch)
    while count < 50:
        a, p, n = rng.normal(size=(3, 4))
        loss, grads = triplet_loss(a, p, n, 2.0)
        if loss == 0.0:
            continue
        for vec_idx in range(3):
            for j in range(4):
                args_p = [a.copy(), p.copy(), n.copy()]
                args_m = [a.copy(), p.copy(), n.copy()]
                args_p[vec_idx][j] += FD_STEP
                args_m[vec_idx][j] -= FD_STEP
                fd = (
                    triplet_loss(*args_p, 2.0)[0] - triplet_loss(*args_m, 2.0)[0]
                ) / (2 * FD_STEP)
                assert _fd_close(grads[vec_idx][j], fd)
        count += 1

    for _ in range(50):  # adaptive margin loss
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
            assert _fd_close(dz[j], fd)
    report(5, "analytic gradients match central finite differences at 1e-4 relative")


def test_c06_prefix_consistency():
    rng = np.random.default_rng(106)
    model = RqModel(rng.normal(size=(16, 8)), 0.55, 5.0, 4)
    for _ in range(1000):
        x = rng.normal(size=8)
        full, _ = encode(x, model)
        for m in (1, 2, 3):
            short, _ = encode(x, model.with_levels(m))
            assert np.array_equal(slice_prefix(full, m).indices, short.indices)
    report(6, "prefix slices equal re-encoding at shorter level counts, 1000 vectors")


def test_c07_adc_brute_force_equivalence():
    rng = np.random.default_rng(107)
    for _ in range(100):
        model = RqModel(rng.normal(size=(16, 32)), float(rng.uniform(0.3, 0.8)), 5.0, 4)
        x = rng.normal(size=(1000, 32))
        db = encode_database(x, model)
        q = rng.normal(size=32)
        ids, _ = search(q, db, top_k=1000)
        recon = _prefix_reconstructions(db.codes, model, 4)
        dists = np.einsum("nd,nd->n", recon - q, recon - q)
        oracle = db.ids[np.lexsort((db.ids, dists))]
        assert np.array_equal(ids, oracle)
    report(7, "ADC ranking equals brute-force reconstruction ranking, 100 trials")


def test_c08_training_efficacy(dataset):
    config = TrainConfig(
        k=16, m=2, init="kmeans", epochs_stage2=10, epochs_stage3=20, seed=7
    )
    model, _ = train(dataset, config)
    final = distortion_losses(dataset.data, model).e_hard

    # replicate the trainer's init derivation for the two baselines
    rng = np.random.default_rng(np.uint64(config.seed))
    init_seed = int(rng.integers(2 ** 32))
    w0 = float(rng.uniform(0.1, 0.9))
    random_cb = np.random.default_rng(init_seed).normal(size=(16, 32))
    random_baseline = distortion_losses(
        dataset.data, RqModel(random_cb, w0, config.gamma, 2)
    ).e_hard
    kmeans_baseline = distortion_losses(
        dataset.data,
        RqModel(kmeans_init(dataset.data, 16, seed=init_seed), w0, config.gamma, 2),
    ).e_hard

    assert final <= 0.5 * random_baseline
    assert final <= kmeans_baseline
    report(
        8,
        f"trained E_h {final:.3f} vs random init {random_baseline:.3f} "
        f"({1 - final / random_baseline:.0%} reduction), k-means init {kmeans_baseline:.3f}",
    )


def test_c09_retrieval_trend(dataset, trained_m4):
    db = encode_database(dataset.data, trained_m4)
    queries = FeatureMatrix(dataset.data[:200], labels=dataset.labels[:200])
    db_labels = [frozenset((int(l),)) for l in dataset.labels]
    maps = [
        evaluate(queries, db, db_labels, r_cutoff=100, prefix_m=m).map_at_r
        for m in (1, 2, 3, 4)
    ]
    assert all(b >= a - 0.02 for a, b in zip(maps, maps[1:]))
    assert maps[-1] >= 0.90
    report(9, "mAP@100 over prefix lengths 1..4: " + ", ".join(f"{v:.3f}" for v in maps))


def test_c10_ablation_liveness():
    fm = synth_dataset(n=2000, d=16, clusters=10, spread=0.1, seed=7)
    base = dict(k=16, m=2, init="kmeans", epochs_stage2=6, epochs_stage3=10, seed=7)
    runs = {
        "full": frozenset({"hard_distortion", "soft_distortion", "joint_central"}),
        "soft_only": frozenset({"soft_distortion"}),
        "no_joint": frozenset({"hard_distortion", "soft_distortion"}),
    }
    finals = {}
    for name, flags in runs.items():
        model, log = train(fm, TrainConfig(**base, loss_flags=flags))
        assert log, f"{name} produced no training log"
        finals[name] = distortion_losses(fm.data, model).e_hard
    assert finals["full"] != finals["soft_only"]
    assert finals["full"] != finals["no_joint"]
    assert finals["soft_only"] != finals["no_joint"]
    report(
        10,
        "ablations live: final E_h full={full:.4f} soft_only={soft_only:.4f} "
        "no_joint={no_joint:.4f}".format(**finals),
    )


def test_c11_persistence_round_trip(tmp_path, dataset, trained_m4):
    # quantize to f32 first so persistence is bit-exact
    model = RqModel(
        trained_m4.codebook.astype(np.float32).astype(np.float64),
        trained_m4.scale,
        trained_m4.gamma,
        trained_m4.levels,
    )
    data = dataset.data[:1000]
    db = encode_database(data, model)
    mpath, cpath = tmp_path / "m.drqm", tmp_path / "c.drqc"
    save_model(model, mpath)
    save_codes(db, cpath)
    model2 = load_model(mpath)
    db2 = load_codes(cpath, model2)

    assert np.array_equal(model2.codebook, model.codebook)
    before = distortion_losses(data, model)
    after = distortion_losses(data, model2)
    assert np.array_equal(before.per_level_hard, after.per_level_hard)
    rng = np.random.default_rng(111)
    for _ in range(20):
        q = rng.normal(size=32)
        ids_a, _ = search(q, db, top_k=50)
        ids_b, _ = search(q, db2, top_k=50)
        assert np.array_equal(ids_a, ids_b)

    for path, loader in ((mpath, lambda p: load_model(p)), (cpath, lambda p: load_codes(p, model2))):
        original = path.read_bytes()
        positions = set(rng.integers(0, len(original), size=20).tolist()) | {0, len(original) - 1}
        for pos in positions:
            corrupt = bytearray(original)
            corrupt[pos] ^= 0x81
            path.write_bytes(bytes(corrupt))
            with pytest.raises(FileFormatError):
                loader(path)
        path.write_bytes(original)
    report(11, "model/code round-trip preserves rankings and distortions; corruption detected")


def test_c12_stacked_oracle():
    rng = np.random.default_rng(112)
    model = RqModel(rng.normal(size=(16, 8)), 0.6, 5.0, 3)
    codebooks = [model.scale ** i * model.codebook for i in range(model.levels)]
    x = rng.normal(size=(1000, 8))
    codes = encode_batch(x, model)
    for i in range(1000):
        residual = x[i].copy()
        for m, cb in enumerate(codebooks):
            idx = int(np.argmin([np.linalg.norm(c - residual) for c in cb]))
            assert codes[i, m] == idx
            residual = residual - cb[idx]
    report(12, "recurrent encode equals explicit stacked quantization, 1000 vectors")

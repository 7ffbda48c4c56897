import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (
    DomainError,
    FeatureMatrix,
    FileFormatError,
    RqModel,
    TrainConfig,
    encode_database,
    evaluate,
    kmeans_init,
    load_codes,
    load_model,
    packed_size,
    read_fvecs,
    read_labels,
    save_codes,
    save_model,
    search,
    synth_dataset,
    write_fvecs,
    write_labels,
)
import recurq.cli
from recurq.cli import main
from recurq.index import _QUERY_BLOCK, adc_distances
from recurq.io import CODE_MAGIC, MODEL_MAGIC


def make_model(rng, k=8, d=6, m=3):
    return RqModel(rng.normal(size=(k, d)).astype(np.float32).astype(np.float64),
                   0.5, 20.0, m)


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(60)
        model = make_model(rng)
        path = tmp_path / "model.drqm"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.codebook, model.codebook)
        assert loaded.scale == model.scale
        assert loaded.gamma == model.gamma
        assert loaded.levels == model.levels

    def test_corruption_detected_at_every_byte(self, tmp_path):
        rng = np.random.default_rng(61)
        model = make_model(rng, k=4, d=4, m=2)
        path = tmp_path / "model.drqm"
        save_model(model, path)
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupt = bytearray(original)
            corrupt[pos] ^= 0x5A
            path.write_bytes(bytes(corrupt))
            with pytest.raises(FileFormatError):
                load_model(path)
        path.write_bytes(original)
        load_model(path)


class TestCodeFile:
    def test_round_trip_preserves_search(self, tmp_path):
        rng = np.random.default_rng(62)
        fm = synth_dataset(n=300, d=8, clusters=6, spread=0.1, seed=62)
        model = RqModel(kmeans_init(fm.data, 16, seed=3), 0.5, 20.0, 3)
        db = encode_database(fm.data, model)
        mpath, cpath = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(model, mpath)
        save_codes(db, cpath)
        model2 = load_model(mpath)
        db2 = load_codes(cpath, model2)
        assert np.array_equal(db.codes, db2.codes)
        for qi in range(10):
            ids_a, _ = search(fm.data[qi], db, top_k=20)
            ids_b, _ = search(fm.data[qi], db2, top_k=20)
            assert np.array_equal(ids_a, ids_b)

    def test_loaded_distances_equal_in_memory(self, tmp_path):
        rng = np.random.default_rng(66)
        for k, m in ((2, 9), (16, 4), (256, 3)):
            model = RqModel(rng.normal(size=(k, 6)), 0.6, 20.0, m)
            db = encode_database(rng.normal(size=(1500, 6)), model)
            path = tmp_path / f"c_{k}.drqc"
            save_codes(db, path)
            db2 = load_codes(path, model)
            q = rng.normal(size=6)
            for p in range(1, m + 1):
                assert np.array_equal(adc_distances(q, db2, p), adc_distances(q, db, p))

    def test_custom_ids_rejected(self, tmp_path):
        # DRQC v1 has no field for ids: a reload would rank under ids 0..N-1
        rng = np.random.default_rng(69)
        model = make_model(rng)
        x = rng.normal(size=(50, 6))
        db = encode_database(x, model, ids=np.arange(50)[::-1] + 1000)
        path = tmp_path / "c.drqc"
        with pytest.raises(DomainError, match="ids"):
            save_codes(db, path)
        assert not path.exists()
        save_codes(encode_database(x, model, ids=np.arange(50)), path)
        assert np.array_equal(load_codes(path, model).codes, db.codes)

    def test_size_formula(self, tmp_path):
        rng = np.random.default_rng(63)
        for k, m, n in ((16, 4, 11), (256, 4, 7), (2048, 4, 5), (16, 3, 9)):
            model = RqModel(rng.normal(size=(k, 5)), 0.5, 20.0, m)
            db = encode_database(rng.normal(size=(n, 5)), model)
            path = tmp_path / f"codes_{k}_{m}.drqc"
            save_codes(db, path)
            header = 4 + struct.calcsize("<HQII")
            assert path.stat().st_size == header + n * packed_size(m, k) + 4 * n + 4

    def test_corruption_detected(self, tmp_path):
        rng = np.random.default_rng(64)
        model = make_model(rng, k=4, d=4, m=2)
        db = encode_database(rng.normal(size=(5, 4)), model)
        path = tmp_path / "c.drqc"
        save_codes(db, path)
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupt = bytearray(original)
            corrupt[pos] ^= 0xA5
            path.write_bytes(bytes(corrupt))
            with pytest.raises(FileFormatError):
                load_codes(path, model)

    def test_model_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(65)
        model = make_model(rng, k=8, d=4, m=2)
        db = encode_database(rng.normal(size=(5, 4)), model)
        path = tmp_path / "c.drqc"
        save_codes(db, path)
        other = make_model(rng, k=8, d=4, m=3)
        with pytest.raises(FileFormatError):
            load_codes(path, other)


@pytest.mark.parametrize("magic", [b"DRQM", b"DRQC"])
def test_truncated_header_rejected(tmp_path, magic):
    # valid CRC over a header cut short after its version field
    payload = magic + b"\x01\x00"
    path = tmp_path / "short.bin"
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(FileFormatError, match="truncated header"):
        if magic == b"DRQM":
            load_model(path)
        else:
            load_codes(path, make_model(np.random.default_rng(69)))


# (M, K, D) of the model every fuzzed code file is loaded against
FUZZ_MODEL = (2, 8, 4)

# DRQM fields (K, D, M) and DRQC fields (N, M, K), each set invalid in one of the ways
# a loader must catch: a size claim far beyond the bytes present, K not a power of two,
# M or D of 0, a code file whose (M, K) is not the model's
_u32 = st.integers(0, 2 ** 32 - 1)
MODEL_HEADERS = st.one_of(
    st.tuples(_u32, _u32, st.integers(1, 8)).filter(lambda f: f[0] * f[1] > 2 ** 20),
    st.tuples(st.integers(0, 64).filter(lambda k: k == 0 or k & (k - 1)), st.integers(1, 8), st.integers(1, 8)),
    st.tuples(st.sampled_from([1, 2, 8, 64]), st.integers(1, 8), st.just(0)),
    st.tuples(st.sampled_from([1, 2, 8, 64]), st.just(0), _u32),
)
CODE_HEADERS = st.one_of(
    st.tuples(st.integers(2 ** 20, 2 ** 64 - 1), st.just(FUZZ_MODEL[0]), st.just(FUZZ_MODEL[1])),
    st.tuples(st.integers(0, 64), st.integers(0, 16), _u32).filter(lambda f: f[1:] != FUZZ_MODEL[:2]),
)


def _load_under_tracemalloc(load):
    tracemalloc.start()
    try:
        with pytest.raises((FileFormatError, DomainError)):
            load()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=150, deadline=None)
@given(fields=MODEL_HEADERS, body_len=st.integers(0, 64), scale=st.floats(0.1, 2.0), gamma=st.floats(0.1, 50.0))
def test_fuzzed_model_header_rejected(tmp_path_factory, fields, body_len, scale, gamma):
    k, d, m = fields
    if k * d <= 2 ** 20:  # a claim the body can meet: give it exactly that many bytes
        body_len = 4 * k * d
    payload = MODEL_MAGIC + struct.pack("<HIIIdd", 1, k, d, m, scale, gamma) + bytes(body_len)
    path = tmp_path_factory.mktemp("fuzz") / "m.drqm"
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
    assert _load_under_tracemalloc(lambda: load_model(path)) < 2 ** 20
    assert main(["encode", "--model", str(path), "--input", str(path), "--out", str(path.with_suffix(".drqc"))]) == 2


@settings(max_examples=150, deadline=None)
@given(fields=CODE_HEADERS, body_len=st.integers(0, 64))
def test_fuzzed_code_header_rejected(tmp_path_factory, fields, body_len):
    n, m, k = fields
    model = make_model(np.random.default_rng(72), k=FUZZ_MODEL[1], d=FUZZ_MODEL[2], m=FUZZ_MODEL[0])
    payload = CODE_MAGIC + struct.pack("<HQII", 1, n, m, k) + bytes(body_len)
    tmp = tmp_path_factory.mktemp("fuzz")
    path, model_path = tmp / "c.drqc", tmp / "m.drqm"
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
    save_model(model, model_path)
    assert _load_under_tracemalloc(lambda: load_codes(path, model)) < 2 ** 20
    assert main(["search", "--model", str(model_path), "--codes", str(path), "--queries", str(path),
                 "--topk", "1"]) == 2


def test_loaded_codes_are_column_major(tmp_path):
    rng = np.random.default_rng(71)
    model = make_model(rng, k=1024, d=4, m=3)
    db = encode_database(rng.normal(size=(50, 4)), model)
    save_codes(db, tmp_path / "c.drqc")
    loaded = load_codes(tmp_path / "c.drqc", model)
    assert db.codes.flags.f_contiguous and loaded.codes.flags.f_contiguous
    assert np.array_equal(loaded.codes, db.codes)


class TestVectorFiles:
    def test_fvecs_round_trip(self, tmp_path):
        rng = np.random.default_rng(66)
        data = rng.normal(size=(20, 7)).astype(np.float32)
        path = tmp_path / "v.fvecs"
        write_fvecs(data, path)
        back = read_fvecs(path)
        assert np.array_equal(back, data.astype(np.float64))

    def test_writers_match_per_row_struct_layout(self, tmp_path):
        # each record packed on its own: an i32 dimension then f32 values; an
        # i32 count then the row's ids in ascending order
        rng = np.random.default_rng(68)
        for n, d in ((0, 3), (1, 1), (9, 5)):
            data = rng.normal(size=(n, d))
            write_fvecs(data, tmp_path / "v.fvecs")
            expected = b"".join(struct.pack(f"<i{d}f", d, *row) for row in data.astype(np.float32).tolist())
            assert (tmp_path / "v.fvecs").read_bytes() == expected
        for sets in ([], [frozenset()], [frozenset((9, 0, 4)), frozenset(), frozenset((2**31 - 1,)), frozenset((3, 1))]):
            write_labels(sets, tmp_path / "l.bin")
            expected = b"".join(struct.pack(f"<i{len(s)}i", len(s), *sorted(s)) for s in sets)
            assert (tmp_path / "l.bin").read_bytes() == expected

    def test_labels_round_trip(self, tmp_path):
        sets = [frozenset((1, 2)), frozenset((0,)), frozenset()]
        path = tmp_path / "l.bin"
        write_labels(sets, path)
        assert read_labels(path) == sets

    def test_labels_round_trip_many_records(self, tmp_path):
        rng = np.random.default_rng(67)
        sets = [frozenset(rng.integers(0, 2**31 - 1, size=rng.integers(0, 5)).tolist()) for _ in range(300)]
        path = tmp_path / "l.bin"
        write_labels(sets, path)
        assert read_labels(path) == sets

    def test_labels_round_trip_id_range_ends(self, tmp_path):
        sets = [frozenset((0, 2**31 - 1)), frozenset()]
        path = tmp_path / "l.bin"
        write_labels(sets, path)
        assert read_labels(path) == sets

    @pytest.mark.parametrize("bad", [-1, 2**31, -(2**40)])
    def test_labels_out_of_range_not_written(self, tmp_path, bad):
        path = tmp_path / "l.bin"
        with pytest.raises(DomainError, match=r"label ids must be in \[0, 2\^31\)"):
            write_labels([frozenset((1,)), frozenset((3, bad))], path)
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file

    def test_labels_beyond_int64_not_written(self, tmp_path):
        with pytest.raises(DomainError, match="label ids must fit in int64"):
            write_labels([frozenset((2**63,))], tmp_path / "l.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", [
        struct.pack("<3i", 2, 4, -3),
        struct.pack("<i", -1),
        struct.pack("<2i", 2, 4),
        struct.pack("<2i", 1, 4) + b"\x00\x00",
    ], ids=["negative-id", "negative-count", "count-past-end", "partial-word"])
    def test_malformed_labels_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.labels"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError):
            read_labels(path)

    def test_bad_fvecs_rejected(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        # a partial record, and files too short to hold the dimension field
        for raw in (b"\x03\x00\x00\x00\x00\x00", b"\x03", b"\x03\x00\x00"):
            path.write_bytes(raw)
            with pytest.raises(FileFormatError):
                read_fvecs(path)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_synth_seed_out_of_range_rejected(seed):
    with pytest.raises(DomainError, match=r"must be in \[0, 2\^64\)"):
        synth_dataset(n=10, d=2, clusters=2, spread=0.1, seed=seed)


def test_synth_seed_range_ends_accepted():
    for seed in (0, 2**64 - 1):
        assert synth_dataset(n=10, d=2, clusters=2, spread=0.1, seed=seed).n == 10


class TestCli:
    def _synth(self, tmp_path, n=400, d=8, clusters=4, seed=5):
        vec = tmp_path / "data.fvecs"
        lab = tmp_path / "data.labels"
        rc = main([
            "synth", "--n", str(n), "--d", str(d), "--clusters", str(clusters),
            "--spread", "0.1", "--seed", str(seed),
            "--out", str(vec), "--labels", str(lab),
        ])
        assert rc == 0
        return vec, lab

    def test_pipeline(self, tmp_path, capsys):
        vec, lab = self._synth(tmp_path)
        model_path = tmp_path / "model.drqm"
        log_path = tmp_path / "train.log"
        rc = main([
            "train", "--input", str(vec), "--k", "16", "--m", "2",
            "--init", "kmeans", "--epochs-stage2", "3", "--epochs-stage3", "4",
            "--seed", "7", "--log", str(log_path), "--out", str(model_path),
        ])
        assert rc == 0
        log_lines = log_path.read_text().strip().splitlines()
        records = [json.loads(l) for l in log_lines]
        assert records[0]["record"] == "config"
        assert records[0]["seed"] == 7
        assert any(r["record"] == "epoch" for r in records)

        codes_path = tmp_path / "db.drqc"
        rc = main(["encode", "--model", str(model_path), "--input", str(vec),
                   "--out", str(codes_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_e_hard" in out

        rc = main(["search", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--topk", "3",
                   "--out", str(tmp_path / "results.txt")])
        assert rc == 0
        first = (tmp_path / "results.txt").read_text().splitlines()[0]
        assert first.startswith("query=0 rank=1 id=")

        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(lab), "--map-cutoff", "50",
                   "--precision-at", "5,10",
                   "--pr-curve", str(tmp_path / "pr.txt"),
                   "--out", str(tmp_path / "eval.txt")])
        assert rc == 0
        eval_text = (tmp_path / "eval.txt").read_text()
        assert eval_text.startswith("map@50=")
        assert float(eval_text.splitlines()[0].split("=")[1]) > 0.8
        assert (tmp_path / "pr.txt").read_text().strip()

    def test_search_output_equals_per_query_search(self, tmp_path):
        # dyadic codebook, items and queries tie exactly; more queries than one scan block
        cb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        model = RqModel(cb, 0.5, 5.0, 3)
        rng = np.random.default_rng(73)
        db = encode_database(rng.integers(-4, 5, size=(300, 2)) * 0.25, model)
        queries = rng.integers(-4, 5, size=(2 * _QUERY_BLOCK + 5, 2)) * 0.25
        paths = {name: tmp_path / name for name in ("m.drqm", "c.drqc", "q.fvecs", "out.txt")}
        save_model(model, paths["m.drqm"])
        save_codes(db, paths["c.drqc"])
        write_fvecs(queries, paths["q.fvecs"])
        for prefix in ([], ["--prefix-m", "2"]):
            rc = main(["search", "--model", str(paths["m.drqm"]), "--codes", str(paths["c.drqc"]),
                       "--queries", str(paths["q.fvecs"]), "--topk", "40", "--out", str(paths["out.txt"]), *prefix])
            assert rc == 0
            prefix_m = int(prefix[1]) if prefix else None
            want = "".join(f"query={qi} rank={rank} id={i} dist={dist:.9g}\n"
                           for qi, q in enumerate(queries)
                           for rank, (i, dist) in enumerate(zip(*search(q, db, 40, prefix_m)), start=1))
            assert paths["out.txt"].read_text() == want

    def test_code_length_flags(self, tmp_path, capsys):
        vec, _ = self._synth(tmp_path, n=300)
        model_path = tmp_path / "m.drqm"
        rc = main([
            "train", "--input", str(vec), "--k", "256", "--m", "4",
            "--epochs-stage2", "1", "--epochs-stage3", "1",
            "--out", str(model_path),
        ])
        assert rc == 0
        assert "32-bit codes" in capsys.readouterr().out
        assert load_model(model_path).code_bits == 32

    def test_prefix_eval(self, tmp_path):
        vec, lab = self._synth(tmp_path)
        model_path = tmp_path / "m.drqm"
        main(["train", "--input", str(vec), "--k", "16", "--m", "4",
              "--init", "kmeans", "--epochs-stage2", "2", "--epochs-stage3", "2",
              "--seed", "3", "--out", str(model_path)])
        codes_path = tmp_path / "c.drqc"
        main(["encode", "--model", str(model_path), "--input", str(vec),
              "--out", str(codes_path)])
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(lab), "--map-cutoff", "20",
                   "--prefix-m", "2", "--out", str(tmp_path / "e.txt")])
        assert rc == 0

    def _eval_files(self, tmp_path, m=4):
        vec, lab = self._synth(tmp_path, n=300, d=6)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(make_model(np.random.default_rng(76), k=8, d=6, m=m), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(vec), "--out", str(codes_path)]) == 0
        return ["eval", "--model", str(model_path), "--codes", str(codes_path), "--queries", str(vec),
                "--query-labels", str(lab), "--db-labels", str(lab), "--map-cutoff", "20", "--precision-at", "1,10"]

    def test_eval_prefix_list(self, tmp_path):
        args = self._eval_files(tmp_path)
        db = load_codes(tmp_path / "c.drqc", load_model(tmp_path / "m.drqm"))
        queries = FeatureMatrix(read_fvecs(tmp_path / "data.fvecs"), multi_labels=read_labels(tmp_path / "data.labels"))
        single = {}
        for m in (1, 2, 3, 4):  # one length prints the map and precision lines alone, as it always has
            out = tmp_path / f"e{m}.txt"
            assert main([*args, "--prefix-m", str(m), "--out", str(out)]) == 0
            report = evaluate(queries, db, read_labels(tmp_path / "data.labels"), 20, (1, 10), m)
            single[m] = out.read_text()
            assert single[m] == f"map@20={report.map_at_r:.6f}\n" + "".join(
                f"precision@{r}={p:.6f}\n" for r, p in report.precision_at_r)
        for flag, lengths in (("1,2,4", [1, 2, 4]), ("all", [1, 2, 3, 4]), ("4,1", [4, 1])):
            out = tmp_path / "multi.txt"
            assert main([*args, "--prefix-m", flag, "--out", str(out)]) == 0
            assert out.read_text() == "".join(f"prefix={m}\n{single[m]}" for m in lengths)

    @pytest.mark.parametrize("flag, pr_curve, message", [
        ("1,2", True, "--pr-curve takes a single --prefix-m length"),
        ("all", True, "--pr-curve takes a single --prefix-m length"),
        ("2,x", False, "--prefix-m takes comma-separated integers or 'all'"),
        ("", False, "--prefix-m takes comma-separated integers or 'all'"),
        ("2,9", False, "level 9 out of range [1, 4]"),
    ])
    def test_eval_bad_prefix_list_exit_code(self, tmp_path, capsys, flag, pr_curve, message):
        args = self._eval_files(tmp_path)
        capsys.readouterr()
        pr = ["--pr-curve", str(tmp_path / "pr.txt")] if pr_curve else []
        assert main([*args, "--prefix-m", flag, *pr]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert not (tmp_path / "pr.txt").exists()

    def test_eval_pr_curve_with_one_prefix(self, tmp_path):
        args = self._eval_files(tmp_path, m=1)
        for flag in ("1", "all"):  # all is one length for a one-level model
            assert main([*args, "--prefix-m", flag, "--pr-curve", str(tmp_path / "pr.txt")]) == 0
            assert len((tmp_path / "pr.txt").read_text().splitlines()) == 300

    def test_encode_empty_input(self, tmp_path):
        vec, _ = self._synth(tmp_path, n=100)
        model_path = tmp_path / "m.drqm"
        main(["train", "--input", str(vec), "--k", "8", "--m", "2",
              "--epochs-stage2", "1", "--epochs-stage3", "1",
              "--out", str(model_path)])
        empty = tmp_path / "empty.fvecs"
        empty.write_bytes(b"")
        codes_path = tmp_path / "empty.drqc"
        rc = main(["encode", "--model", str(model_path), "--input", str(empty),
                   "--out", str(codes_path)])
        assert rc == 0
        db = load_codes(codes_path, load_model(model_path))
        assert db.n == 0

    def test_encode_width_mismatch_exit_code(self, tmp_path, capsys):
        model_path = tmp_path / "m.drqm"
        save_model(make_model(np.random.default_rng(69), d=6), model_path)
        vec = tmp_path / "wide.fvecs"
        write_fvecs(np.ones((3, 7)), vec)
        rc = main(["encode", "--model", str(model_path), "--input", str(vec), "--out", str(tmp_path / "c.drqc")])
        assert rc == 2
        assert "data width 7 does not match model dim 6" in capsys.readouterr().err
        assert not (tmp_path / "c.drqc").exists()

    def test_reconstruct_consistency(self, tmp_path, capsys):
        vec, _ = self._synth(tmp_path, n=200)
        model_path = tmp_path / "m.drqm"
        main(["train", "--input", str(vec), "--k", "16", "--m", "2",
              "--init", "kmeans", "--epochs-stage2", "2", "--epochs-stage3", "2",
              "--seed", "9", "--out", str(model_path)])
        codes_path = tmp_path / "c.drqc"
        recon_path = tmp_path / "recon.fvecs"
        rc = main(["encode", "--model", str(model_path), "--input", str(vec),
                   "--out", str(codes_path), "--reconstruct", str(recon_path)])
        assert rc == 0
        out = capsys.readouterr().out
        reported = float([l for l in out.splitlines() if l.startswith("level=2")][0]
                         .split("mean_e_hard=")[1])
        data = read_fvecs(vec)
        recon = read_fvecs(recon_path)
        measured = np.linalg.norm(recon - data, axis=1).mean()
        assert measured == pytest.approx(reported, rel=1e-4)

    def test_dim_mismatch_exit_code(self, tmp_path):
        vec, _ = self._synth(tmp_path, n=100, d=8)
        model_path = tmp_path / "m.drqm"
        main(["train", "--input", str(vec), "--k", "8", "--m", "1",
              "--epochs-stage2", "1", "--epochs-stage3", "1",
              "--out", str(model_path)])
        bad = tmp_path / "bad.fvecs"
        write_fvecs(np.zeros((3, 4), dtype=np.float32), bad)
        rc = main(["encode", "--model", str(model_path), "--input", str(bad),
                   "--out", str(tmp_path / "x.drqc")])
        assert rc == 2

    def test_eval_negative_label_id_exit_code(self, tmp_path):
        vec, lab = self._synth(tmp_path, n=100, d=8)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(make_model(np.random.default_rng(68), d=8, m=2), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(vec),
                     "--out", str(codes_path)]) == 0
        bad = tmp_path / "bad.labels"
        bad.write_bytes(struct.pack("<2i", 1, -1) * 100)  # write_labels refuses to write a negative id
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(bad), "--map-cutoff", "10"])
        assert rc == 2

    def test_eval_query_label_count_mismatch(self, tmp_path, capsys):
        vec, lab = self._synth(tmp_path, n=100, d=8)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(make_model(np.random.default_rng(70), d=8, m=2), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(vec),
                     "--out", str(codes_path)]) == 0
        short = tmp_path / "short.labels"
        write_labels([frozenset((0,))] * 99, short)
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(short),
                   "--db-labels", str(lab), "--map-cutoff", "10"])
        assert rc == 2
        assert "label file row count does not match vectors" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["0", "-3"])
    def test_eval_cutoff_below_one_exit_code(self, tmp_path, capsys, cutoff):
        vec, lab = self._synth(tmp_path, n=100, d=8)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(make_model(np.random.default_rng(72), d=8, m=2), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(vec),
                     "--out", str(codes_path)]) == 0
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(lab), "--map-cutoff", cutoff])
        assert rc == 2
        assert "map@" not in capsys.readouterr().out

    @pytest.mark.parametrize("precision_at", ["5,x", "0", "5,-2"])
    def test_eval_bad_precision_at_exit_code(self, tmp_path, capsys, precision_at):
        vec, lab = self._synth(tmp_path, n=100, d=8)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        save_model(make_model(np.random.default_rng(73), d=8, m=2), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(vec),
                     "--out", str(codes_path)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(lab), "--map-cutoff", "10", "--precision-at", precision_at])
        assert rc == 2
        captured = capsys.readouterr()
        assert "map@" not in captured.out
        assert captured.err.startswith("error: ") and "precision" in captured.err

    def test_eval_empty_database_exit_code(self, tmp_path, capsys):
        vec, lab = self._synth(tmp_path, n=100, d=8)
        model_path, codes_path = tmp_path / "m.drqm", tmp_path / "c.drqc"
        empty_vec, empty_lab = tmp_path / "empty.fvecs", tmp_path / "empty.labels"
        write_fvecs(np.empty((0, 8)), empty_vec)
        write_labels([], empty_lab)
        save_model(make_model(np.random.default_rng(74), d=8, m=2), model_path)
        assert main(["encode", "--model", str(model_path), "--input", str(empty_vec),
                     "--out", str(codes_path)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_path), "--codes", str(codes_path),
                   "--queries", str(vec), "--query-labels", str(lab),
                   "--db-labels", str(empty_lab), "--map-cutoff", "5", "--precision-at", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nonempty database" in captured.err

    def test_train_defaults_are_trainconfig_defaults(self, tmp_path):
        vec, _ = self._synth(tmp_path, n=100)
        log_path = tmp_path / "train.log"
        assert main(["train", "--input", str(vec), "--k", "8", "--m", "1",
                     "--log", str(log_path), "--out", str(tmp_path / "m.drqm")]) == 0
        record = json.loads(log_path.read_text().splitlines()[0])
        assert record.pop("record") == "config"
        assert {**record, "loss_flags": frozenset(record["loss_flags"])} == vars(TrainConfig(8, 1))

    def test_train_full_and_short_flag_names(self, tmp_path):
        vec, _ = self._synth(tmp_path, n=100)
        log_path = tmp_path / "train.log"
        assert main(["train", "--input", str(vec), "--k", "8", "--m", "1",
                     "--epochs-stage2", "1", "--epochs-stage3", "1", "--loss-flags", "hard_distortion,soft",
                     "--log", str(log_path), "--out", str(tmp_path / "m.drqm")]) == 0
        record = json.loads(log_path.read_text().splitlines()[0])
        assert record["loss_flags"] == ["hard_distortion", "soft_distortion"]

    @pytest.mark.parametrize("options, reason", [
        (["--loss-flags", ","], "loss_flags is empty"),
        (["--epochs-stage2", "-1", "--epochs-stage3", "-3"], "epoch counts must be >= 0"),
        (["--k", "3"], "k=3 must be a power of two"),
        (["--k", "1"], "k=1 must be a power of two >= 2"),
        (["--m", "0"], "m must be >= 1"),
        (["--gamma", "0"], "gamma must be finite and positive"),
        (["--lr", "nan"], "lr must be finite and positive"),
        (["--seed", "-1"], "seed -1 must be in [0, 2^64)"),
    ], ids=["no-flags", "negative-epochs", "k-not-power-of-two", "k-one", "m-zero", "gamma-zero", "lr-nan",
            "seed-negative"])
    def test_bad_train_options_fail_before_reading_input(self, tmp_path, capsys, options, reason):
        rc = main(["train", "--input", str(tmp_path / "missing.fvecs"), "--k", "8", "--m", "1",
                   *options, "--out", str(tmp_path / "m.drqm")])
        assert rc == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "m.drqm").exists()

    def test_stage1_flags_without_labels(self, tmp_path):
        vec, _ = self._synth(tmp_path, n=100)
        rc = main(["train", "--input", str(vec), "--k", "8", "--m", "1",
                   "--loss-flags", "hard,soft,joint,triplet",
                   "--out", str(tmp_path / "m.drqm")])
        assert rc == 2
        assert not (tmp_path / "m.drqm").exists()

    @pytest.mark.parametrize("flags", ["hard,soft,joint,triplet", "hard,margin", "hard,adaptive_margin"])
    def test_head_flags_rejected_with_reason(self, tmp_path, capsys, flags):
        vec, _ = self._synth(tmp_path, n=100)
        rc = main(["train", "--input", str(vec), "--k", "8", "--m", "1",
                   "--loss-flags", flags, "--out", str(tmp_path / "m.drqm")])
        assert rc == 2
        assert "unknown loss flag" in capsys.readouterr().err
        assert not (tmp_path / "m.drqm").exists()

    def test_non_finite_training_exit_code(self, tmp_path, capsys):
        vec, _ = self._synth(tmp_path, n=200)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--input", str(vec), "--k", "8", "--m", "2",
                       "--lr", "1e308", "--batch-size", "50",
                       "--epochs-stage2", "2", "--epochs-stage3", "2",
                       "--out", str(tmp_path / "m.drqm")])
        assert rc == 2
        assert "stage 2, epoch 0: codebook gradient is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.drqm").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_synth_seed_out_of_range_exit_code(self, tmp_path, capsys, seed):
        rc = main(["synth", "--n", "10", "--d", "2", "--clusters", "2", "--seed", seed,
                   "--out", str(tmp_path / "v.fvecs")])
        assert rc == 2
        assert "must be in [0, 2^64)" in capsys.readouterr().err
        assert not (tmp_path / "v.fvecs").exists()

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["encode", "--model", str(tmp_path / "no.drqm"),
                   "--input", str(tmp_path / "no.fvecs"),
                   "--out", str(tmp_path / "o.drqc")])
        assert rc == 2

    def test_freed_heap_released_after_every_command(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(recurq.cli, "_malloc_trim", calls.append)
        self._synth(tmp_path)
        assert calls == [0]
        assert main(["encode", "--model", str(tmp_path / "no.drqm"), "--input", str(tmp_path / "data.fvecs"),
                     "--out", str(tmp_path / "o.drqc")]) == 2
        assert calls == [0, 0]

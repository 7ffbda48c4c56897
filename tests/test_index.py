from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (
    DomainError,
    FeatureMatrix,
    RqModel,
    build_adc_table,
    encode_database,
    evaluate,
    read_labels,
    search,
    search_batch,
    write_labels,
)
from recurq import core
from recurq.core import LabelSets, _row_blocks
from recurq.index import _QUERY_BLOCK, adc_distances, average_precision, _prefix_reconstructions, _relevant_ranks, database_from_codes
from recurq.synth import synth_dataset
from recurq.train import _forward

# numpy's w ** np.arange(4) and Python's w ** 3 differ in the last bit of w^3 for this w
LAST_BIT_W = 0.6095693498571635


def random_model(rng, k=16, d=8, m=3, gamma=5.0):
    return RqModel(rng.normal(size=(k, d)), float(rng.uniform(0.3, 0.8)), gamma, m)


def reference_adc_distances(query, db, m=None):
    """One query, one level at a time over all N rows: the sums every blocked scan must reproduce bit for bit."""
    m = db.model.levels if m is None else m
    table = build_adc_table(query, db.model)
    cross = np.zeros(db.n)
    for i in range(m):
        cross += table.dot_table[i, db.codes[:, i]]
    return table.query_sq_norm - 2.0 * cross + db.prefix_sq_norms[:, m - 1]


def brute_force_order(query, db, m=None):
    model = db.model
    m = model.levels if m is None else m
    recon = _prefix_reconstructions(db.codes, model, m)
    dists = np.einsum("nd,nd->n", recon - query, recon - query)
    return np.lexsort((db.ids, dists))


class TestEncodeDatabase:
    def test_codewords_encode_to_themselves(self):
        rng = np.random.default_rng(40)
        cb = rng.normal(size=(8, 4))
        model = RqModel(cb, 0.5, 5.0, 1)
        db = encode_database(cb, model)
        assert np.array_equal(db.codes[:, 0], np.arange(8))
        assert np.allclose(db.recon_sq_norms, np.einsum("kd,kd->k", cb, cb))

    def test_reencoding_reconstructions_is_idempotent(self):
        # Holds when codeword cells are wide relative to the higher-level
        # corrections (clustered data, k-means codebook); a reconstruction
        # near a Voronoi boundary can re-encode differently otherwise.
        from recurq import kmeans_init

        fm = synth_dataset(n=40, d=6, clusters=8, spread=0.05, seed=41)
        model = RqModel(kmeans_init(fm.data, 8, seed=41), 0.3, 5.0, 3)
        db = encode_database(fm.data, model)
        recon = _prefix_reconstructions(db.codes, model, model.levels)
        db2 = encode_database(recon, model)
        assert np.array_equal(db.codes, db2.codes)

    def test_empty_database(self):
        rng = np.random.default_rng(42)
        model = random_model(rng)
        db = encode_database(np.empty((0, 8)), model)
        assert db.n == 0
        ids, dists = search(rng.normal(size=8), db, top_k=5)
        assert len(ids) == 0
        for query, prefix_m in ((rng.normal(size=8), model.levels + 1), (rng.normal(size=5), None)):
            with pytest.raises(DomainError):
                search(query, db, top_k=5, prefix_m=prefix_m)

    @pytest.mark.parametrize("codes", [
        np.array([[0, 1, -1], [2, 3, 4]]),
        np.array([[0, 1, 16], [2, 3, 4]]),
        np.array([[0, 1], [2, 3]]),
        np.array([[0, 1, 2, 3], [2, 3, 4, 5]]),
        np.array([0, 1, 2]),
        np.array([[0.0, 1.0, 2.0], [2.0, 3.0, 4.0]]),
    ], ids=["negative", "at-k", "too-narrow", "too-wide", "1-d", "float"])
    def test_bad_codes_rejected(self, codes):
        model = random_model(np.random.default_rng(44), k=16, m=3)
        with pytest.raises(DomainError):
            database_from_codes(codes, model)

    def test_norms_match_reconstructions(self):
        rng = np.random.default_rng(43)
        model = random_model(rng, k=16, d=8, m=4)
        x = rng.normal(size=(30, 8))
        db = encode_database(x, model)
        recon = _prefix_reconstructions(db.codes, model, 4)
        assert np.allclose(
            db.recon_sq_norms, np.einsum("nd,nd->n", recon, recon), rtol=1e-6
        )


@pytest.mark.parametrize("k,m", [(2, 1), (2, 16), (16, 5), (16, 16), (256, 3), (256, 8)])
def test_prefix_norms_equal_reconstruction_norms(k, m):
    rng = np.random.default_rng(k * 100 + m)
    model = random_model(rng, k=k, d=8, m=m)
    db = encode_database(rng.normal(size=(2100, 8)), model)  # spans several row chunks
    assert db.prefix_sq_norms.shape == (2100, m)
    for p in range(1, m + 1):
        recon = _prefix_reconstructions(db.codes, model, p)
        assert np.array_equal(db.prefix_sq_norms[:, p - 1], np.einsum("nd,nd->n", recon, recon))
    assert np.array_equal(db.recon_sq_norms, db.prefix_sq_norms[:, -1])


@pytest.mark.parametrize("d", [1, 3, 8, 17, 200, 1000, 5000])
def test_prefix_norms_equal_reconstruction_norms_across_blocks(d):
    # the row block is 2^16 // D rows, so only D=64 gives 1024-row blocks. D stays at
    # most 8192: above it numpy's einsum sums a 1-row block in a different order than
    # the same row inside a larger array, so a short last block changes the last bits.
    rows = max(1, 2 ** 16 // d)
    n = 2 * rows + max(1, rows // 2)  # two full blocks and a short one
    assert len(_row_blocks(n, d)) == 3
    rng = np.random.default_rng(d)
    model = random_model(rng, k=16, d=d, m=3)
    db = database_from_codes(rng.integers(0, 16, size=(n, 3)), model)
    for p in range(1, 4):
        recon = _prefix_reconstructions(db.codes, model, p)
        assert np.array_equal(db.prefix_sq_norms[:, p - 1], np.einsum("nd,nd->n", recon, recon))


def test_prefix_reconstructions_equal_encoder_running_sum():
    # an independent check of the level sum: the prefix norms and their tests' reference
    # both come from _prefix_reconstructions, the encoder's running sum does not
    rng = np.random.default_rng(110)
    cases = [(LAST_BIT_W, 4)] + [(float(rng.uniform(0.1, 1.5)), int(rng.integers(3, 9))) for _ in range(60)]
    for w, levels in cases:
        model = RqModel(rng.normal(size=(16, 8)), w, 5.0, levels)
        x = rng.normal(size=(40, 8))
        fw = _forward(x, model)
        for m in range(1, model.levels + 1):
            assert np.array_equal(_prefix_reconstructions(fw.codes, model, m), fw.hard_sums[m - 1])


def test_adc_table_rows_use_python_level_weights():
    rng = np.random.default_rng(111)
    for w in [LAST_BIT_W] + rng.uniform(0.1, 1.5, size=20).tolist():
        model = RqModel(rng.normal(size=(16, 8)), w, 5.0, 6)
        q = rng.normal(size=8)
        table = build_adc_table(q, model)
        for i in range(model.levels):
            assert np.array_equal(table.dot_table[i], (w ** i) * (model.codebook @ q))


class TestAdcTable:
    def test_unit_scale_rows_identical(self):
        rng = np.random.default_rng(44)
        model = RqModel(rng.normal(size=(8, 4)), 1.0, 5.0, 3)
        table = build_adc_table(rng.normal(size=4), model)
        assert np.allclose(table.dot_table[0], table.dot_table[1])
        assert np.allclose(table.dot_table[0], table.dot_table[2])

    def test_orthogonal_query_zero_table(self):
        cb = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = RqModel(cb, 0.5, 5.0, 2)
        table = build_adc_table(np.array([0.0, 0.0, 2.0]), model)
        assert np.all(table.dot_table == 0.0)
        assert table.query_sq_norm == pytest.approx(4.0)

    def test_row_scaling(self):
        rng = np.random.default_rng(45)
        model = random_model(rng, m=4)
        table = build_adc_table(rng.normal(size=8), model)
        for m in range(4):
            assert np.allclose(table.dot_table[m], model.scale ** m * table.dot_table[0])

    def test_expansion_matches_reconstruction_distance(self):
        rng = np.random.default_rng(46)
        model = random_model(rng, k=16, d=8, m=3)
        x = rng.normal(size=(25, 8))
        db = encode_database(x, model)
        q = rng.normal(size=8)
        dists = adc_distances(q, db)
        recon = _prefix_reconstructions(db.codes, model, 3)
        direct = np.einsum("nd,nd->n", recon - q, recon - q)
        assert np.allclose(dists, direct, rtol=1e-6)


class TestSearch:
    def test_zero_distortion_item_ranks_first(self):
        rng = np.random.default_rng(47)
        cb = rng.normal(size=(8, 4))
        model = RqModel(cb, 0.5, 5.0, 1)
        db = encode_database(cb, model)
        ids, dists = search(cb[3], db, top_k=3)
        assert ids[0] == 3
        assert dists[0] == pytest.approx(0.0, abs=1e-9)

    def test_topk_larger_than_n(self):
        rng = np.random.default_rng(48)
        model = random_model(rng)
        db = encode_database(rng.normal(size=(10, 8)), model)
        ids, _ = search(rng.normal(size=8), db, top_k=50)
        assert len(ids) == 10

    def test_matches_brute_force(self):
        rng = np.random.default_rng(49)
        for _ in range(30):
            model = random_model(rng, k=16, d=8, m=3)
            db = encode_database(rng.normal(size=(100, 8)), model)
            q = rng.normal(size=8)
            ids, _ = search(q, db, top_k=100)
            assert np.array_equal(ids, db.ids[brute_force_order(q, db)])

    def test_prefix_search_matches_brute_force(self):
        rng = np.random.default_rng(50)
        model = random_model(rng, k=16, d=8, m=4)
        db = encode_database(rng.normal(size=(80, 8)), model)
        q = rng.normal(size=8)
        for m in (1, 2, 3, 4):
            ids, _ = search(q, db, top_k=80, prefix_m=m)
            assert np.array_equal(ids, db.ids[brute_force_order(q, db, m)])

    def test_invalid_prefix(self):
        rng = np.random.default_rng(52)
        model = random_model(rng, m=2)
        db = encode_database(rng.normal(size=(5, 8)), model)
        with pytest.raises(DomainError):
            search(rng.normal(size=8), db, top_k=2, prefix_m=3)

    def test_tie_break_by_ascending_id(self):
        # two identical database rows quantize to identical codes
        cb = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = RqModel(cb, 0.5, 5.0, 1)
        x = np.array([[1.0, 0.1], [1.0, 0.1], [0.0, 0.9]])
        db = encode_database(x, model)
        ids, _ = search(np.array([1.0, 0.0]), db, top_k=3)
        assert list(ids[:2]) == [0, 1]


    def test_forced_ties_match_brute_force(self):
        # dyadic codebook, scale, data and queries: every distance is exact,
        # so equal codes and distinct codes with equal norms tie exactly
        cb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        model = RqModel(cb, 0.5, 5.0, 3)
        rng = np.random.default_rng(57)
        distinct = rng.integers(-4, 5, size=(7, 2)) * 0.25
        x = np.repeat(distinct, 4, axis=0)[rng.permutation(28)]
        db = encode_database(x, model, ids=np.arange(28)[::-1])
        straddled = 0
        for q in (np.zeros(2), np.array([0.5, -0.25]), distinct[0]):
            for m in (1, 2, 3):
                order = brute_force_order(q, db, m)
                want = db.ids[order]
                exact = adc_distances(q, db, m)[order]
                straddled += int(np.sum(exact[1:] == exact[:-1]))
                for k in range(1, 31):
                    ids, dists = search(q, db, top_k=k, prefix_m=m)
                    assert np.array_equal(ids, want[:k])
                    assert np.array_equal(dists, exact[:k])
        assert straddled > 0

    def test_partial_top_k_matches_full_sort(self):
        rng = np.random.default_rng(58)
        model = random_model(rng, k=16, d=8, m=4)
        db = encode_database(rng.normal(size=(500, 8)), model, ids=rng.permutation(500))
        for _ in range(5):
            q = rng.normal(size=8)
            for m in (1, 2, 4):
                full_ids, full_dists = search(q, db, top_k=500, prefix_m=m)
                for k in (1, 7, 100, 499):
                    ids, dists = search(q, db, top_k=k, prefix_m=m)
                    assert np.array_equal(ids, full_ids[:k])
                    assert np.array_equal(dists, full_dists[:k])


def dyadic_tie_index(rng, n, m=3):
    """Dyadic codebook, scale, items and queries: every distance is exact, so
    equal codes and distinct codes with equal norms tie exactly. Ids are permuted."""
    cb = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    model = RqModel(cb, 0.5, 5.0, m)
    db = encode_database(rng.integers(-4, 5, size=(n, 2)) * 0.25, model, ids=rng.permutation(n))
    return db, rng.integers(-4, 5, size=(7, 2)) * 0.25


def assert_batch_matches_per_query(queries, db, top_k, prefix_m):
    ids, dists = search_batch(queries, db, top_k, prefix_m)
    k = min(top_k, db.n)
    assert ids.shape == dists.shape == (len(queries), k)
    for q, row_ids, row_dists in zip(queries, ids, dists):
        want = reference_adc_distances(q, db, prefix_m)
        assert np.array_equal(adc_distances(q, db, prefix_m), want)
        order = np.lexsort((db.ids, want))[:k]
        assert np.array_equal(row_ids, db.ids[order])
        assert np.array_equal(row_dists, want[order])
        one_ids, one_dists = search(q, db, top_k, prefix_m)
        assert np.array_equal(row_ids, one_ids) and np.array_equal(row_dists, one_dists)


@settings(max_examples=60, deadline=None)
@given(nq=st.sampled_from([1, 2, 7]), n=st.integers(1, 120), top_k=st.integers(1, 130),
       cells=st.sampled_from([8, 32, 1 << 16]), seed=st.integers(0, 2**32 - 1))
def test_search_batch_matches_per_query(nq, n, top_k, cells, seed):
    # a small block budget makes a short database span several (rows, Q) row blocks
    rng = np.random.default_rng(seed)
    db, queries = dyadic_tie_index(rng, n)
    with mock.patch.object(core, "_BLOCK_CELLS", cells):
        for prefix_m in (1, 2, 3):
            assert_batch_matches_per_query(queries[:nq], db, top_k, prefix_m)


@pytest.mark.parametrize("nq", [1, 2, 7])
def test_search_batch_across_row_blocks(nq):
    n = 70_000  # above one 2^16-row block, the longest (at Q=1)
    assert len(_row_blocks(n, nq)) > 1
    db, queries = dyadic_tie_index(np.random.default_rng(nq), n)
    for prefix_m in (1, 2, 3):
        assert_batch_matches_per_query(queries[:nq], db, 50, prefix_m)


def test_search_batch_contract():
    rng = np.random.default_rng(71)
    model = random_model(rng, m=2)
    db = encode_database(rng.normal(size=(40, 8)), model)
    nq = 2 * _QUERY_BLOCK + 3  # two full query blocks and a short one
    queries = rng.normal(size=(nq, 8))
    assert_batch_matches_per_query(queries, db, 5, None)
    assert search_batch(np.empty((0, 8)), db, 5)[0].shape == (0, 5)
    empty = encode_database(np.empty((0, 8)), model)
    assert search_batch(queries, empty, 5)[0].shape == (nq, 0)
    for target in (db, empty):  # an empty database checks its inputs too
        for bad in ({"top_k": 0}, {"top_k": 3, "prefix_m": 3}):
            with pytest.raises(DomainError):
                search_batch(queries, target, **bad)
        with pytest.raises(DomainError):
            search_batch(queries[:, :4], target, 3)


class TestEvaluate:
    def test_hand_computed_ap(self):
        relevant = np.array([1.0, 0.0, 1.0])
        assert average_precision(relevant, total_relevant=2, r_cutoff=3) == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0
        )

    def test_all_relevant_gives_one(self):
        relevant = np.ones(5)
        assert average_precision(relevant, 5, 5) == pytest.approx(1.0)

    def test_no_relevant_counts_zero(self):
        assert average_precision(np.zeros(5), 0, 5) == 0.0

    def _small_setup(self, rng):
        fm = synth_dataset(n=200, d=8, clusters=4, spread=0.05, seed=13)
        from recurq import kmeans_init

        cb = kmeans_init(fm.data, 8, seed=1)
        model = RqModel(cb, 0.5, 20.0, 2)
        db = encode_database(fm.data, model)
        queries = FeatureMatrix(fm.data[:20], labels=fm.labels[:20])
        db_labels = [frozenset((int(l),)) for l in fm.labels]
        return queries, db, db_labels

    def test_good_quantizer_scores_high(self):
        rng = np.random.default_rng(53)
        queries, db, db_labels = self._small_setup(rng)
        report = evaluate(queries, db, db_labels, r_cutoff=20)
        assert report.map_at_r > 0.9

    def test_pr_curve_recall_nondecreasing(self):
        rng = np.random.default_rng(54)
        queries, db, db_labels = self._small_setup(rng)
        report = evaluate(queries, db, db_labels, r_cutoff=20, precision_at=(5, 10))
        recalls = [r for r, _ in report.pr_curve]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        for _, p in report.precision_at_r:
            assert 0.0 <= p <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(55)
        fm = synth_dataset(n=100, d=8, clusters=4, spread=0.1, seed=21)
        from recurq import kmeans_init

        model = RqModel(kmeans_init(fm.data, 8, seed=2), 0.5, 20.0, 2)
        perm = rng.permutation(100)
        db_a = encode_database(fm.data, model)
        db_b = encode_database(fm.data[perm], model, ids=perm)
        queries = FeatureMatrix(fm.data[:10], labels=fm.labels[:10])
        labels_a = [frozenset((int(l),)) for l in fm.labels]
        labels_b = [frozenset((int(l),)) for l in fm.labels[perm]]
        ra = evaluate(queries, db_a, labels_a, r_cutoff=15)
        rb = evaluate(queries, db_b, labels_b, r_cutoff=15)
        assert ra.map_at_r == pytest.approx(rb.map_at_r, abs=1e-12)

    def test_multi_label_relevance_matches_set_intersection(self):
        rng = np.random.default_rng(59)
        model = random_model(rng, k=8, d=4, m=2)
        db = encode_database(rng.normal(size=(60, 4)), model, ids=rng.permutation(60))
        db_labels = [frozenset(rng.choice(6, size=rng.integers(0, 3), replace=False).tolist()) for _ in range(60)]
        q_labels = [frozenset(rng.choice(8, size=rng.integers(1, 3), replace=False).tolist()) for _ in range(5)]
        queries = FeatureMatrix(rng.normal(size=(5, 4)), multi_labels=q_labels)
        report = evaluate(queries, db, db_labels, r_cutoff=10, prefix_m=1)
        aps, prec = [], np.zeros(60)
        for qi in range(5):
            order = np.lexsort((db.ids, adc_distances(queries.data[qi], db, 1)))
            rel = np.array([1.0 if db_labels[j] & q_labels[qi] else 0.0 for j in order])
            aps.append(average_precision(rel, int(rel.sum()), 10))
            prec += np.cumsum(rel) / np.arange(1, 61)
        assert report.map_at_r == np.mean(aps)
        assert [p for _, p in report.pr_curve] == (prec / 5).tolist()

    def test_missing_labels_rejected(self):
        rng = np.random.default_rng(56)
        model = random_model(rng, k=8, d=4, m=1)
        db = encode_database(rng.normal(size=(10, 4)), model)
        queries = FeatureMatrix(rng.normal(size=(2, 4)))
        with pytest.raises(DomainError):
            evaluate(queries, db, [frozenset((0,))] * 10, r_cutoff=5)


def reference_evaluate(queries, db, db_labels, r_cutoff, precision_at, prefix_m):
    """Full (distance, id) sort and an N-length relevance vector per query."""
    q_sets, n = queries.label_sets(), db.n
    aps, prec, rec = [], np.zeros(n), np.zeros(n)
    for qi in range(queries.n):
        order = np.lexsort((db.ids, reference_adc_distances(queries.data[qi], db, prefix_m)))
        rel = np.array([1.0 if db_labels[j] & q_sets[qi] else 0.0 for j in order])
        total = int(rel.sum())
        aps.append(average_precision(rel, total, r_cutoff))
        hits = np.cumsum(rel)
        prec += hits / np.arange(1, n + 1)
        rec += hits / total if total else 0.0
    prec, rec = prec / queries.n, rec / queries.n
    points = [(r, float(prec[min(r, n) - 1])) for r in precision_at if r >= 1]
    return float(np.mean(aps)), list(zip(rec.tolist(), prec.tolist())), points


label_sets = st.frozensets(st.integers(0, 4), max_size=2)


@settings(max_examples=150, deadline=None)
@given(k=st.sampled_from([2, 4, 8]), m=st.integers(1, 4), d=st.integers(1, 3), n=st.integers(1, 40),
       nq=st.integers(1, 4), zero_query=st.booleans(), data=st.data())
def test_evaluate_matches_full_sort(k, m, d, n, nq, zero_query, data):
    # dyadic codebook, scale, items and queries: distances are exact, so many tie
    dyadic = lambda rows, lo, hi, step: np.array(
        data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=d, max_size=d), min_size=rows, max_size=rows))
    ) * step
    model = RqModel(dyadic(k, -2, 2, 0.5), 0.5, 5.0, m)
    db = encode_database(dyadic(n, -4, 4, 0.25), model, ids=data.draw(st.permutations(range(n))))
    db_labels = data.draw(st.lists(label_sets, min_size=n, max_size=n))
    q = dyadic(nq, -4, 4, 0.25)
    if zero_query:
        q[0] = 0.0
    queries = FeatureMatrix(q, multi_labels=data.draw(st.lists(label_sets, min_size=nq, max_size=nq)))
    flat = LabelSets(list(chain.from_iterable(db_labels)), [len(s) for s in db_labels])
    for prefix_m in range(1, m + 1):
        for r_cutoff in (1, 10, n + 1):
            report = evaluate(queries, db, db_labels, r_cutoff, (1, 5, n + 3), prefix_m)
            want = reference_evaluate(queries, db, db_labels, r_cutoff, (1, 5, n + 3), prefix_m)
            assert (report.map_at_r, report.pr_curve, report.precision_at_r) == want
            assert_same_report(evaluate(queries, db, flat, r_cutoff, (1, 5, n + 3), prefix_m), report)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_relevant_ranks_match_lexsort(n, data):
    # dyadic distances from a few values, so rows tie at the farthest relevant distance
    dists = np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))) * 0.25
    ids = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    relevant = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if data.draw(st.booleans()):  # a relevant row is the farthest row
        relevant[np.argmax(dists)] = True
    rank_of = np.empty(n, dtype=np.intp)
    rank_of[np.lexsort((ids, dists))] = np.arange(n)
    got = _relevant_ranks(dists, ids, relevant)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.sort(rank_of[relevant]))


def test_relevant_ranks_window_edges():
    # rows tied with the farthest relevant row on both sides of its id, rows beyond it, none relevant
    dists = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 0.5, 2.0])
    ids = np.array([10, 5, 3, 8, 1, 0, 20])
    relevant = np.zeros(7, dtype=bool)
    assert _relevant_ranks(dists, ids, relevant).shape == (0,)
    relevant[[0, 3]] = True  # the farthest relevant row (id 8) has tied rows with ids 3, 5 and 20
    assert _relevant_ranks(dists, ids, relevant).tolist() == [1, 4]
    relevant[4] = True  # the farthest row
    assert _relevant_ranks(dists, ids, relevant).tolist() == [1, 4, 6]


def assert_same_report(a, b):
    assert a.map_at_r == b.map_at_r
    assert len(a.relevant_ranks) == len(b.relevant_ranks)
    assert all(np.array_equal(x, y) for x, y in zip(a.relevant_ranks, b.relevant_ranks))
    assert a.pr_curve == b.pr_curve
    assert a.precision_at_r == b.precision_at_r


def test_evaluate_on_read_labels_equals_plain_list(tmp_path):
    # more queries than one scan block, multi-label rows and an empty row
    rng = np.random.default_rng(72)
    model = random_model(rng, k=16, d=6, m=3)
    db = encode_database(rng.normal(size=(500, 6)), model, ids=rng.permutation(500))
    plain = [frozenset(rng.choice(9, size=rng.integers(0, 3), replace=False).tolist()) for _ in range(500)]
    write_labels(plain, tmp_path / "db.labels")
    loaded = read_labels(tmp_path / "db.labels")
    assert isinstance(loaded, LabelSets) and loaded == plain
    queries = FeatureMatrix(rng.normal(size=(37, 6)), labels=rng.integers(0, 9, size=37))
    for prefix_m in (None, 1, 2):
        want = evaluate(queries, db, plain, 25, (1, 10, 600), prefix_m)
        assert_same_report(evaluate(queries, db, loaded, 25, (1, 10, 600), prefix_m), want)


def test_label_sets_are_immutable():
    sets = LabelSets([3, 1, 4], [2, 0, 1])
    assert list(sets) == [frozenset((1, 3)), frozenset(), frozenset((4,))]
    assert sets[-1] == frozenset((4,))
    with pytest.raises(TypeError):
        sets[0] = frozenset((7,))
    with pytest.raises(ValueError):
        sets.labels[0] = 7
    with pytest.raises(IndexError):
        sets[3]


class TestEvaluateContract:
    def _db(self):
        rng = np.random.default_rng(70)
        model = random_model(rng, k=8, d=4, m=2)
        db = encode_database(rng.normal(size=(30, 4)), model)
        queries = FeatureMatrix(rng.normal(size=(3, 4)), labels=np.array([0, 1, 2]))
        return queries, db, [frozenset((int(i) % 3,)) for i in range(30)]

    @pytest.mark.parametrize("r_cutoff", [0, -3])
    def test_cutoff_below_one_rejected(self, r_cutoff):
        queries, db, db_labels = self._db()
        with pytest.raises(DomainError):
            evaluate(queries, db, db_labels, r_cutoff=r_cutoff)

    @pytest.mark.parametrize("precision_at", [(0,), (5, -1)])
    def test_precision_rank_below_one_rejected(self, precision_at):
        queries, db, db_labels = self._db()
        with pytest.raises(DomainError):
            evaluate(queries, db, db_labels, r_cutoff=5, precision_at=precision_at)

    def test_empty_database_rejected(self):
        queries, db, _ = self._db()
        empty = encode_database(np.empty((0, 4)), db.model)
        with pytest.raises(DomainError, match="nonempty database"):
            evaluate(queries, empty, [], r_cutoff=5, precision_at=(5,))

    def test_curve_built_on_first_read(self):
        queries, db, db_labels = self._db()
        report = evaluate(queries, db, db_labels, r_cutoff=5)
        assert report.precision_at_r == []
        assert "_mean_curve" not in vars(report)
        assert len(report.pr_curve) == db.n
        assert "_mean_curve" in vars(report)

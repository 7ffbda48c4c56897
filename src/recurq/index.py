"""Database encoding, asymmetric-distance search over codes, and
retrieval-quality evaluation (mAP@R, precision-recall, precision@R).

Search ranks raw queries against quantized database items: the distance to
item i is ||q||^2 - 2 * sum_m table[m, code_im] + ||recon_i||^2, which equals
the squared Euclidean distance to the item's reconstruction. Ties break by
ascending id. All accumulation is in float64 so rankings agree exactly with
a brute-force reconstruction scan.

One blocked scan, ``_adc_scan``, serves every caller: ``search`` and
``adc_distances`` run it on one query, ``search_batch`` and ``evaluate`` on
blocks of ``_QUERY_BLOCK`` queries (ADC as in Jégou, Douze & Schmid, TPAMI
2011; query blocking as in Johnson, Douze & Jégou, 2017). Each query keeps
its own lookup table, a matrix-vector product with the codebook, and the
tables are stacked and doubled once (-2 * table) so that one gather per level
and database row block reads every query's entry for a code. Each distance is
the same float sum in the same order as a one-query scan, so every caller
ranks bit for bit alike.

Every level shares one codebook, so a database holds the squared norms of
all prefix reconstructions and a prefix query costs the same as a full one.
The scan adds the levels in order, so ``evaluate_prefixes`` finishes every
requested prefix from one pass over the codes.

Ranking for evaluation sorts only the candidate rows of a query, those up to
its farthest relevant distance, and ranks rows that tie on distance among
those candidates alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DomainError, FeatureMatrix, RqModel, _as_finite, _label_rows, _level_weights, _map_blocks, _reconstructions, _require_level, _require_sub_indices, _row_blocks, _scaled_books, encode_batch

_QUERY_BLOCK = 16  # queries per scan: an (N, 16) float64 distance block, 6.4 MB at N=50k


@dataclass
class EncodedDatabase:
    codes: np.ndarray  # (N, M) sub-indices, column-major: a scan of level m reads one contiguous column
    prefix_sq_norms: np.ndarray  # (N, M): column m-1 holds ||m-level reconstruction||^2
    model: RqModel
    ids: np.ndarray  # (N,) external item identifiers

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def recon_sq_norms(self) -> np.ndarray:  # (N,) squared norms at full length
        return self.prefix_sq_norms[:, -1]


@dataclass
class AdcTable:
    dot_table: np.ndarray  # (M, K): w^(m-1) * <query, C_k>
    query_sq_norm: float


@dataclass(eq=False)  # field-wise == is ambiguous on the rank arrays
class EvalReport:
    """Retrieval quality of a query set. The (recall, precision) curve over all
    ``n`` ranks is built from ``relevant_ranks`` on first read."""

    map_at_r: float
    relevant_ranks: list[np.ndarray]  # per query: sorted 0-based ranks of its relevant items
    n: int  # items ranked per query
    precision_at: tuple[int, ...] = ()  # ranks >= 1 at which precision_at_r reads the curve

    @cached_property
    def _mean_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean recall, mean precision) at every rank, summed in query order."""
        prec_sums = np.zeros(self.n)
        rec_sums = np.zeros(self.n)
        for ranks in self.relevant_ranks:
            rel = np.zeros(self.n)
            rel[ranks] = 1.0
            hits = np.cumsum(rel)
            prec_sums += hits / np.arange(1, self.n + 1)
            rec_sums += hits / len(ranks) if len(ranks) else 0.0
        nq = len(self.relevant_ranks)
        return rec_sums / nq, prec_sums / nq

    @cached_property
    def pr_curve(self) -> list[tuple[float, float]]:  # (recall, precision) per rank
        mean_rec, mean_prec = self._mean_curve
        return list(zip(mean_rec.tolist(), mean_prec.tolist()))

    @cached_property
    def precision_at_r(self) -> list[tuple[int, float]]:
        return [(int(r), float(self._mean_curve[1][min(r, self.n) - 1])) for r in self.precision_at]


def _prefix_reconstructions(codes: np.ndarray, model: RqModel, m: int) -> np.ndarray:
    """(N, D) m-level reconstructions of the rows of ``codes``."""
    *_, recon = _reconstructions(codes[:, :m], _scaled_books(model, m))
    return recon


def database_from_codes(codes: np.ndarray, model: RqModel, ids=None) -> EncodedDatabase:
    """Database over (N, M) codes with the squared norms of every prefix length.
    The codes must be a 2-D integer array with ``model.levels`` columns and
    every sub-index in [0, K): a negative one would wrap to a codeword from
    the end of the codebook and be ranked."""
    codes = np.asfortranarray(codes)
    if codes.ndim != 2 or codes.shape[1] != model.levels or not np.issubdtype(codes.dtype, np.integer):
        raise DomainError(f"codes must be a 2-D integer array with {model.levels} columns")
    _require_sub_indices(codes, model.k)
    n = codes.shape[0]
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    if ids.shape != (n,):
        raise DomainError("ids length must match number of rows")
    # column-major, so the column a query of any prefix length reads is contiguous
    norms, books = np.empty((n, model.levels), order="F"), _scaled_books(model, model.levels)

    def norm_rows(rows):
        for m, recon in enumerate(_reconstructions(codes[rows], books)):
            norms[rows, m] = np.einsum("nd,nd->n", recon, recon)

    _map_blocks(norm_rows, _row_blocks(n, model.dim))
    return EncodedDatabase(codes, norms, model, ids)


def encode_database(features, model: RqModel, ids=None) -> EncodedDatabase:
    """Encode every row into a database holding the norms of every prefix length.
    Rows must have the model's width; only the width-less (0, 0) array that
    :func:`recurq.io.read_fvecs` returns for an empty file is exempt."""
    x = features.data if isinstance(features, FeatureMatrix) else np.asarray(features, dtype=np.float64)
    codes = np.empty((0, model.levels), dtype=np.int64) if x.shape == (0, 0) else encode_batch(x, model)
    return database_from_codes(codes, model, ids)


def build_adc_table(query, model: RqModel) -> AdcTable:
    """Per-level query-codeword dot products; row m is row 1 scaled by w^(m-1)."""
    q = _as_finite(query, "query", 1, model.dim)
    dot_table = np.outer(_level_weights(model.scale, model.levels), model.codebook @ q)
    return AdcTable(dot_table=dot_table, query_sq_norm=float(q @ q))


def _levels(model: RqModel, prefix_m: int | None) -> int:
    return _require_level(model.levels if prefix_m is None else prefix_m, model.levels)


def _adc_scan(queries: np.ndarray, db: EncodedDatabase, prefixes: Sequence[int]) -> np.ndarray:
    """(P, Q, N) squared distances from the rows of ``queries`` to every item's
    reconstruction at each of the ascending prefix lengths ``prefixes``: one
    contiguous row per prefix and query, which the sorts and comparisons of
    ranking read faster than a strided column.

    The levels are added in order, so after level p the accumulator holds
    prefix p's sum. Each prefix is finished from it straight into that
    prefix's output rows, which leaves the accumulator for the next levels,
    with the same float operations in the same order as a scan at that prefix
    alone, so every prefix keeps its bits.

    The stacked tables are multiplied by -2 once, so the accumulator sums
    -2 * table entries instead of being multiplied by -2 per row block.
    Doubling is exact and commutes with rounding, so each distance keeps the
    bits of ||q||^2 - 2 * sum + ||recon||^2 unless a doubled entry overflows.
    That needs |w^(m-1) <q, c_k>| >= 2^1023, and then ||q||^2 or
    ||w^(m-1) c_k||^2 is already at least 2^1023, half the largest float64."""
    tables = [build_adc_table(q, db.model) for q in queries]
    dot = np.stack([t.dot_table[: prefixes[-1]] for t in tables], axis=2)  # (m, K, Q): a code's entries for all queries
    dot *= -2.0
    query_sq = np.array([t.query_sq_norm for t in tables])[:, None]
    dists = np.empty((len(prefixes), len(tables), db.n))
    for rows in _row_blocks(db.n, len(tables)):
        codes = db.codes[rows]
        acc = np.take(dot[0], codes[:, 0], axis=0)
        level = 1
        for out, m in zip(dists, prefixes):
            for i in range(level, m):
                acc += np.take(dot[i], codes[:, i], axis=0)
            level = m
            # ||q||^2 - 2 * cross + ||recon||^2, the float operations of a one-query scan
            finished = out[:, rows]
            np.add(acc.T, query_sq, out=finished)
            finished += db.prefix_sq_norms[rows, m - 1]
    return dists


def _distance_rows(queries: np.ndarray, db: EncodedDatabase, prefixes: Sequence[int]):
    """Each query's (P, N) distances at the ascending ``prefixes``, in query
    order. A block scans ``_QUERY_BLOCK // P`` queries (at least one), so its
    distance block stays near ``_QUERY_BLOCK`` rows of N."""
    step = max(1, _QUERY_BLOCK // len(prefixes))
    for start in range(0, len(queries), step):
        yield from _adc_scan(queries[start : start + step], db, prefixes).swapaxes(0, 1)


def adc_distances(query, db: EncodedDatabase, prefix_m: int | None = None) -> np.ndarray:
    """Squared reconstruction distances from one query to every item."""
    return _adc_scan(_as_finite(query, "query", 1)[None], db, (_levels(db.model, prefix_m),))[0, 0]


def _top_k(dists: np.ndarray, ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # candidates include every item tied at the k-th distance: their (distance, id) sort is exact
    cand = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    order = cand[np.lexsort((ids[cand], dists[cand]))][:k]
    return ids[order], dists[order]


def search(query, db: EncodedDatabase, top_k: int, prefix_m: int | None = None):
    """Ranked (ids, distances) for the top_k closest items by ADC distance:
    the one-query case of :func:`search_batch`."""
    if top_k < 1:
        raise DomainError("top_k must be >= 1")
    dists = adc_distances(query, db, prefix_m)  # checks prefix_m and the query width, on an empty database too
    if db.n == 0:
        return np.empty(0, dtype=np.int64), dists
    return _top_k(dists, db.ids, min(top_k, db.n))


def search_batch(queries, db: EncodedDatabase, top_k: int, prefix_m: int | None = None):
    """(Q, min(top_k, N)) ids and distances: row j is ``search(queries[j], ...)``.
    Queries are scanned in blocks of ``_QUERY_BLOCK``."""
    if top_k < 1:
        raise DomainError("top_k must be >= 1")
    q = _as_finite(queries, "queries")
    k = min(top_k, db.n)
    ids, dists = np.empty((len(q), k), dtype=np.int64), np.empty((len(q), k))
    # an empty database is scanned too: the scan checks prefix_m and the query width
    for j, (row,) in enumerate(_distance_rows(q, db, (_levels(db.model, prefix_m),))):
        if k:
            ids[j], dists[j] = _top_k(row, db.ids, k)
    return ids, dists


def average_precision(relevant: np.ndarray, total_relevant: int, r_cutoff: int) -> float:
    """AP truncated at r_cutoff, normalized by min(r_cutoff, total_relevant);
    zero relevant items gives 0."""
    if total_relevant == 0:
        return 0.0
    rel = np.asarray(relevant[:r_cutoff], dtype=np.float64)
    hits = np.cumsum(rel)
    precisions = hits / np.arange(1, rel.shape[0] + 1)
    return float(np.sum(precisions * rel) / min(r_cutoff, total_relevant))


def _relevant_ranks(dists: np.ndarray, ids: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """Ascending 0-based ranks of the ``relevant`` rows in the order of
    ascending distance, ties by ascending id (the order of
    ``np.lexsort((ids, dists))``), without sorting every row by (distance, id).

    A row's rank counts the rows at a smaller distance plus the rows at the
    same distance that come first: a smaller id, or the same id in an earlier
    row. Only the candidate rows, those up to the farthest relevant distance,
    can come first, so only they are sorted and searched. When a relevant row
    is the farthest row, the candidates are every row."""
    rel_dists = np.sort(dists[relevant])
    if rel_dists.size == 0:
        return np.empty(0, dtype=np.intp)
    cand = np.flatnonzero(dists <= rel_dists[-1])
    cand_dists = dists[cand]
    ordered = np.sort(cand_dists)
    ranks = np.searchsorted(ordered, rel_dists, "left")  # rows at a smaller distance
    tied = np.searchsorted(ordered, rel_dists, "right") - ranks > 1
    if not tied.any():
        return ranks
    # the distinct tied distances, ascending; np.unique would do, but its first
    # call in a process imports numpy.ma (10-15 ms)
    values = rel_dists[tied]
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    first = np.searchsorted(ordered, values, "left")
    size = np.searchsorted(ordered, values, "right") - first
    # the sorted positions of every candidate at a tied distance, which are also
    # their ranks once each distance's candidates are in (id, row) order
    pos = np.arange(size.sum()) + np.repeat(first - (np.cumsum(size) - size), size)
    # each tied distance's candidates in row order: one int sort of group * S + candidate index
    key = np.repeat(np.arange(values.size) * cand.size, size) + np.argsort(cand_dists)[pos]
    key.sort()
    group, at = np.divmod(key, cand.size)
    members = cand[at]
    member_ids = ids[members]
    if np.any((member_ids[1:] < member_ids[:-1]) & (group[1:] == group[:-1])):
        # ids do not ascend with the rows: sort by id within each distance (stable, so rows break equal ids)
        members = members[np.lexsort((member_ids, group))]
    ranks[tied] = pos[relevant[members]]
    return ranks


def evaluate(
    queries: FeatureMatrix,
    db: EncodedDatabase,
    db_labels: Sequence[frozenset[int]],
    r_cutoff: int,
    precision_at: tuple[int, ...] = (),
    prefix_m: int | None = None,
) -> EvalReport:
    """Retrieval quality over a labeled query set; an item is relevant to a
    query when they share at least one label. The one-prefix case of
    :func:`evaluate_prefixes`."""
    return evaluate_prefixes(queries, db, db_labels, r_cutoff, (prefix_m,), precision_at)[0]


def evaluate_prefixes(
    queries: FeatureMatrix,
    db: EncodedDatabase,
    db_labels: Sequence[frozenset[int]],
    r_cutoff: int,
    prefixes: Sequence[int | None],
    precision_at: tuple[int, ...] = (),
) -> list[EvalReport]:
    """One report per entry of ``prefixes`` (a prefix length, or None for full
    length), each equal to ``evaluate(..., prefix_m=m)``, from one scan that
    finishes every prefix along the way. Each query's relevant rows are found
    once for all prefixes."""
    if db.n == 0:
        raise DomainError("evaluate needs a nonempty database: every metric over zero items is undefined")
    if r_cutoff < 1:
        raise DomainError("r_cutoff must be >= 1")
    if any(r < 1 for r in precision_at):
        raise DomainError("precision_at ranks must be >= 1")
    if queries.labels is None and queries.multi_labels is None:
        raise DomainError("queries must carry labels for evaluation")
    if len(db_labels) != db.n:
        raise DomainError("db_labels length must match database size")
    levels = [_levels(db.model, m) for m in prefixes]
    if not levels:
        raise DomainError("prefixes must name at least one prefix length")
    scanned = sorted(set(levels))
    n = db.n
    labels, owner = _label_rows(db_labels)
    head = min(r_cutoff, n)
    ap_values, ranks = {m: [] for m in scanned}, {m: [] for m in scanned}
    for q_set, rows in zip(queries.label_sets(), _distance_rows(queries.data, db, scanned)):
        hit = np.zeros(labels.size, dtype=bool)
        for label in q_set:  # a query has one to a few labels: an equality pass each beats np.isin
            hit |= labels == label
        relevant = np.zeros(n, dtype=bool)
        relevant[owner[hit]] = True
        for m, dists in zip(scanned, rows):
            q_ranks = _relevant_ranks(dists, db.ids, relevant)
            rel = np.zeros(head)  # AP reads only the first r_cutoff ranks
            rel[q_ranks[q_ranks < head]] = 1.0
            ap_values[m].append(average_precision(rel, q_ranks.size, r_cutoff))
            ranks[m].append(q_ranks)
    reports = {m: EvalReport(float(np.mean(ap_values[m])), ranks[m], n, tuple(precision_at)) for m in scanned}
    return [reports[m] for m in levels]

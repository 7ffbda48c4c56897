"""Output oracles that share no code with recurq: file parsers, decoding,
exact float64 scans over reconstructions, a greedy re-encoder and average
precision. Each check returns a reason string on failure and None on success.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

CODE_HEADER = struct.Struct("<4sHQII")  # magic, version, N, M, K
MODEL_HEADER = struct.Struct("<4sHIIIdd")  # magic, version, K, D, M, w, gamma


class OracleError(ValueError):
    """A written file does not match its format."""


def _payload(raw: bytes, magic: bytes) -> bytes:
    if len(raw) < 4 or zlib.crc32(raw[:-4]) != struct.unpack("<I", raw[-4:])[0]:
        raise OracleError("CRC32 mismatch")
    if raw[:4] != magic:
        raise OracleError(f"bad magic {raw[:4]!r}")
    return raw[:-4]


def read_model(path):
    """(codebook float64 K x D, w, levels) from a DRQM file."""
    payload = _payload(open(path, "rb").read(), b"DRQM")
    _, _, k, d, m, w, _ = MODEL_HEADER.unpack_from(payload)
    body = payload[MODEL_HEADER.size:]
    if len(body) != 4 * k * d:
        raise OracleError("model size mismatch")
    return np.frombuffer(body, "<f4").reshape(k, d).astype(np.float64), w, m


def read_codes(path):
    """(codes int64 N x M, stored f32 norms as float64) from a DRQC file.

    Checks the size against header + N * (packed_size + 4) + 4.
    """
    raw = open(path, "rb").read()
    payload = _payload(raw, b"DRQC")
    _, _, n, m, k = CODE_HEADER.unpack_from(payload)
    bits = k.bit_length() - 1
    record = (m * bits + 7) // 8
    expected = CODE_HEADER.size + n * (record + 4) + 4
    if len(raw) != expected:
        raise OracleError(f"file is {len(raw)} bytes, expected {expected}")
    start = CODE_HEADER.size
    packed = np.frombuffer(payload, np.uint8, n * record, start).reshape(n, record)
    code_bits = np.unpackbits(packed, axis=1)[:, : m * bits].reshape(n, m, bits)
    codes = code_bits.astype(np.int64) @ (1 << np.arange(bits - 1, -1, -1, dtype=np.int64))
    norms = np.frombuffer(payload, "<f4", n, start + n * record).astype(np.float64)
    return codes, norms


def reconstruct(codes: np.ndarray, codebook: np.ndarray, w: float, m: int) -> np.ndarray:
    """Sum over the first m levels of w^(level-1) * codebook[code]."""
    recon = np.zeros((codes.shape[0], codebook.shape[1]))
    for level in range(m):
        recon += w**level * codebook[codes[:, level]]
    return recon


def greedy_mismatches(x: np.ndarray, codes: np.ndarray, codebook: np.ndarray, w: float) -> int:
    """Rows whose codes differ from greedy nearest-codeword encoding at a
    level where the choice is not a near-tie (relative gap above 1e-9)."""
    h = x.copy()
    bad = np.zeros(x.shape[0], dtype=bool)
    for level in range(codes.shape[1]):
        scaled = w**level * codebook
        d2 = ((h[:, None, :] - scaled[None, :, :]) ** 2).sum(axis=2)
        got = codes[:, level]
        best = d2.min(axis=1)
        gap = d2[np.arange(len(got)), got] - best
        bad |= gap > 1e-9 * np.maximum(best, 1.0)
        h = h - scaled[got]
    return int(bad.sum())


class Scan:
    """Exact float64 distances to the reconstructions at one code length."""

    def __init__(self, recon: np.ndarray, stored_norms: np.ndarray | None = None):
        self.recon = recon
        self.sq = np.einsum("nd,nd->n", recon, recon)
        # how far a distance that uses the stored f32 norm may be from the exact one
        self.norm_rounding = np.zeros_like(self.sq) if stored_norms is None else np.abs(stored_norms - self.sq)

    def distances(self, q: np.ndarray) -> np.ndarray:
        return q @ q - 2.0 * (self.recon @ q) + self.sq

    def check(self, q: np.ndarray, ids, dists, top_k: int) -> tuple[str | None, np.ndarray]:
        """(reason the result is malformed or None, oracle top-k ids)."""
        exact = self.distances(q)
        n = exact.shape[0]
        want = min(top_k, n)
        top = ranking(exact, want)
        ids = np.asarray(ids)
        dists = np.asarray(dists, dtype=np.float64)
        if ids.shape != (want,) or dists.shape != (want,):
            return f"length {ids.shape[0]} != {want}", top
        if ids.min() < 0 or ids.max() >= n:
            return "id out of range", top
        if np.unique(ids).shape[0] != want:
            return "repeated id", top
        if np.any(np.diff(dists) < 0):
            return "distances not ascending", top
        slack = self.norm_rounding[ids] + 1e-9 * (q @ q + self.sq[ids] + 1.0)
        if np.any(np.abs(dists - exact[ids]) > slack):
            return "distance differs from the exact distance", top
        return None, top


def ranking(dists: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k smallest distances, ties broken by ascending id."""
    if k >= dists.shape[0]:
        return np.lexsort((np.arange(dists.shape[0]), dists))
    kth = np.partition(dists, k - 1)[k - 1]
    cand = np.flatnonzero(dists <= kth)
    return cand[np.lexsort((cand, dists[cand]))][:k]


def average_precisions(scan_dists, db_labels: np.ndarray, q_labels: np.ndarray, cutoff: int) -> np.ndarray:
    """Per-query AP@cutoff: precision summed over the relevant ranks among the
    top ``cutoff``, divided by min(cutoff, number of relevant items);
    relevant means the same label."""
    aps = []
    for dists, label in zip(scan_dists, q_labels):
        total = int(np.count_nonzero(db_labels == label))
        if total == 0:
            aps.append(0.0)
            continue
        rel = (db_labels[ranking(dists, cutoff)] == label).astype(np.float64)
        precision = np.cumsum(rel) / np.arange(1, rel.shape[0] + 1)
        aps.append(float(precision @ rel) / min(cutoff, total))
    return np.array(aps)

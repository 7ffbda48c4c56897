"""Binary file formats: DRQM model files, DRQC code files, fvecs vector
files with an integer label sidecar.

All multi-byte fields are little-endian. DRQM and DRQC files end with a
CRC32 of every preceding byte; a mismatch on load raises FileFormatError.
Writes go to a temp file in the target directory and are renamed into place.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .core import DomainError, LabelSets, RqModel, pack_rows, packed_size, unpack_rows
from .index import EncodedDatabase, database_from_codes

MODEL_MAGIC = b"DRQM"
CODE_MAGIC = b"DRQC"
FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Corrupt or structurally invalid file."""


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _with_crc(payload: bytes) -> bytes:
    return payload + struct.pack("<I", zlib.crc32(payload))


def _read_payload(path, magic: bytes, kind: str, header_fmt: str) -> tuple[list, memoryview]:
    """Check the CRC, ``magic``, header length and version of the file at ``path``,
    whose header after the magic is ``header_fmt`` with the version first; return
    the header fields after the version and the body that follows the header."""
    data = memoryview(Path(path).read_bytes())
    if len(data) < 4:
        raise FileFormatError(f"{path}: truncated file")
    payload, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != crc:
        raise FileFormatError(f"{path}: CRC mismatch, file is corrupt")
    if payload[:4] != magic:
        raise FileFormatError(f"{path}: bad magic, not a {kind} file")
    header_len = 4 + struct.calcsize(header_fmt)
    if len(payload) < header_len:
        raise FileFormatError(f"{path}: truncated header")
    version, *fields = struct.unpack_from(header_fmt, payload, 4)
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    return fields, payload[header_len:]


def save_model(model: RqModel, path) -> None:
    header = MODEL_MAGIC + struct.pack(
        "<HIIIdd",
        FORMAT_VERSION,
        model.k,
        model.dim,
        model.levels,
        model.scale,
        model.gamma,
    )
    body = model.codebook.astype("<f4").tobytes()
    _atomic_write(path, _with_crc(header + body))


def load_model(path) -> RqModel:
    (k, d, m, w, gamma), body = _read_payload(path, MODEL_MAGIC, "model", "<HIIIdd")
    if len(body) != k * d * 4:
        raise FileFormatError(f"{path}: size mismatch for {k}x{d} codebook")
    codebook = np.frombuffer(body, dtype="<f4").reshape(k, d)
    return RqModel(codebook.astype(np.float64), w, gamma, m)


def save_codes(db: EncodedDatabase, path) -> None:
    """Write a DRQC v1 file. The format has no field for item ids, so a database
    with ids other than 0..N-1 is rejected rather than reloaded under new ids."""
    if not np.array_equal(db.ids, np.arange(db.n)):
        raise DomainError("DRQC files store no item ids; only a database with ids 0..N-1 can be saved")
    model = db.model
    header = CODE_MAGIC + struct.pack("<HQII", FORMAT_VERSION, db.n, model.levels, model.k)
    body = pack_rows(db.codes, model.k).tobytes() + db.recon_sq_norms.astype("<f4").tobytes()
    _atomic_write(path, _with_crc(header + body))


def load_codes(path, model: RqModel) -> EncodedDatabase:
    """Read a DRQC file; norms are recomputed from codes and model (the stored
    f32 norms are only CRC-checked), so it ranks exactly like the saved one."""
    (n, m, k), body = _read_payload(path, CODE_MAGIC, "code", "<HQII")
    if m != model.levels or k != model.k:
        raise FileFormatError(f"{path}: code file (M={m}, K={k}) does not match model")
    record = packed_size(m, k)
    if len(body) != n * record + 4 * n:
        raise FileFormatError(f"{path}: size mismatch for N={n}")
    packed = np.frombuffer(body, dtype=np.uint8, count=n * record)
    return database_from_codes(unpack_rows(packed.reshape(n, record), m, k), model)


def write_fvecs(data: np.ndarray, path) -> None:
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise DomainError("fvecs data must be 2-D")
    n, d = data.shape
    out = bytearray()
    dim_bytes = struct.pack("<i", d)
    for row in data:
        out += dim_bytes
        out += row.astype("<f4").tobytes()
    _atomic_write(path, bytes(out))


def read_fvecs(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) == 0:
        return np.empty((0, 0), dtype=np.float64)
    (d,) = struct.unpack("<i", raw[:4])
    if d <= 0:
        raise FileFormatError(f"{path}: invalid dimension {d}")
    record = 4 + 4 * d
    if len(raw) % record != 0:
        raise FileFormatError(f"{path}: length not a multiple of the record size")
    n = len(raw) // record
    arr = np.frombuffer(raw, dtype="<f4").reshape(n, d + 1)
    dims = arr[:, 0].view("<i4")
    if not np.all(dims == d):
        raise FileFormatError(f"{path}: inconsistent per-record dimensions")
    return arr[:, 1:].astype(np.float64)


def write_labels(label_sets, path) -> None:
    out = bytearray()
    for s in label_sets:
        ids = sorted(int(i) for i in s)
        out += struct.pack("<i", len(ids))
        for i in ids:
            out += struct.pack("<i", i)
    _atomic_write(path, bytes(out))


def read_labels(path) -> LabelSets:
    """Per-row label sets of a label file. The flattened label rows are built
    once here, so :func:`recurq.index.evaluate` does not rebuild them per call."""
    raw = Path(path).read_bytes()
    if len(raw) % 4:
        raise FileFormatError(f"{path}: truncated label record")
    words = np.frombuffer(raw, dtype="<i4")
    if words.size and words.min() < 0:
        raise FileFormatError(f"{path}: negative label count or id")
    values = words.tolist()
    starts = []  # offset of each record's count word
    off = 0
    while off < len(values):
        starts.append(off)
        off += 1 + values[off]
    if off > len(values):
        raise FileFormatError(f"{path}: label record runs past the end of the file")
    is_label = np.ones(words.size, dtype=bool)
    is_label[starts] = False
    return LabelSets(words[is_label], words[starts])

"""Where the traced run wraps recurq, and the per-layer metrics its spans give.

Layers are recurq's modules: ``cli``, ``train``, ``core``, ``index``, ``io``.
Each entry names the module attribute through which the caller resolves the
function, so that the wrapper is the one actually called.
"""

from __future__ import annotations

import os

from spans import Span, Tracer, self_times


def _db_size(args, result):
    prefix_m = args.get("prefix_m")
    db = args["db"]
    kind = "prefix" if prefix_m is not None and prefix_m != db.model.levels else "full"
    return {"kind": kind, "items": db.n}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _rows(args, result):
    return {"rows": len(result)}


# (module, attribute, span name, attrs_fn, tracemalloc)
WRAPS = [
    ("recurq.cli", "cmd_train", "cli.train", None, False),
    ("recurq.cli", "cmd_encode", "cli.encode", None, False),
    ("recurq.cli", "train", "train.train", None, False),
    ("recurq.cli", "encode_database", "index.encode_database", None, False),
    ("recurq.train", "kmeans_init", "train.kmeans_init", None, False),
    ("recurq.train", "adam_step", "train.adam_step", None, False),
    ("recurq.train", "grad_hard_distortion", "train.grad_hard_distortion", None, False),
    ("recurq.train", "grad_soft_distortion", "train.grad_soft_distortion", None, False),
    ("recurq.train", "distortion_losses", "train.distortion_losses", None, True),
    ("recurq.index", "encode_database", "index.encode_database", None, False),
    ("recurq.index", "encode_batch", "core.encode_batch", _rows, False),
    ("recurq.index", "build_adc_table", "index.build_adc_table", None, False),
    ("recurq.index", "adc_distances", "index.adc_distances", _db_size, False),
    ("recurq.index", "search", "index.search", None, False),
    ("recurq.index", "evaluate", "index.evaluate", None, False),
    ("recurq.io", "load_model", "io.load_model", None, False),
    ("recurq.io", "load_codes", "io.load_codes", _file_bytes, False),
    ("recurq.io", "read_labels", "io.read_labels", None, False),
    ("recurq.io", "save_codes", "io.save_codes", None, False),
    ("recurq.io", "read_fvecs", "io.read_fvecs", None, False),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, attrs_fn, malloc in WRAPS:
        tracer.wrap(module, attr, name, attrs_fn, malloc)


def metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every span of the traced pass.

    ``.s`` is total time and ``.self_s`` total self time, in seconds; ``.calls``
    counts calls. A layer the workload does not reach reads 0.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    peak_mb = 0.0
    for s, self_s in zip(spans, selfs):
        name = s.name
        if name == "index.adc_distances":
            name = f"{name}.{s.attrs['kind']}"
            attr_sum["items_scanned"] = attr_sum.get("items_scanned", 0) + s.attrs["items"]
        total[name] = total.get(name, 0.0) + (s.end - s.start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        for key in ("bytes", "rows"):
            if key in s.attrs:
                attr_sum[key] = attr_sum.get(key, 0) + s.attrs[key]
        peak_mb = max(peak_mb, s.attrs.get("peak_mb", 0.0))

    def rate(amount, name):
        return amount / total[name] if total.get(name) else 0.0

    return {
        "io.load_codes.s": total.get("io.load_codes", 0.0),
        "io.load_codes.mb_per_s": rate(attr_sum.get("bytes", 0) / 1e6, "io.load_codes"),
        "io.load_model.s": total.get("io.load_model", 0.0),
        "io.read_labels.s": total.get("io.read_labels", 0.0),
        "io.save_codes.s": total.get("io.save_codes", 0.0),
        "io.read_fvecs.s": total.get("io.read_fvecs", 0.0),
        "core.encode_batch.s": total.get("core.encode_batch", 0.0),
        "core.encode_batch.vectors_per_s": rate(attr_sum.get("rows", 0), "core.encode_batch"),
        "index.encode_database.self_s": own.get("index.encode_database", 0.0),
        "index.build_adc_table.s": total.get("index.build_adc_table", 0.0),
        "index.build_adc_table.calls": calls.get("index.build_adc_table", 0),
        "index.adc_distances.self_s.full": own.get("index.adc_distances.full", 0.0),
        "index.adc_distances.self_s.prefix": own.get("index.adc_distances.prefix", 0.0),
        "index.adc_distances.items_scanned": attr_sum.get("items_scanned", 0),
        "index.search.self_s": own.get("index.search", 0.0),
        "index.evaluate.self_s": own.get("index.evaluate", 0.0),
        "train.kmeans_init.s": total.get("train.kmeans_init", 0.0),
        "train.adam_step.s": total.get("train.adam_step", 0.0),
        "train.adam_step.calls": calls.get("train.adam_step", 0),
        "train.grad_hard_distortion.s": total.get("train.grad_hard_distortion", 0.0),
        "train.grad_hard_distortion.calls": calls.get("train.grad_hard_distortion", 0),
        "train.grad_soft_distortion.s": total.get("train.grad_soft_distortion", 0.0),
        "train.grad_soft_distortion.calls": calls.get("train.grad_soft_distortion", 0),
        "train.train.self_s": own.get("train.train", 0.0),
        "train.distortion_losses.s": total.get("train.distortion_losses", 0.0),
        "train.distortion_losses.calls": calls.get("train.distortion_losses", 0),
        "train.distortion_losses.peak_mb": peak_mb,
        "cli.train.self_s": own.get("cli.train", 0.0),
        "cli.encode.self_s": own.get("cli.encode", 0.0),
    }

"""Command-line surface: synth, train, encode, search, eval.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
Training logs are line-delimited JSON records; evaluation output is one
metric per line so other tools can parse it without a reporting dependency.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import sys

from . import io as rio
from .core import DomainError, FeatureMatrix, _hard_errors, packed_size
from .index import _QUERY_BLOCK, _prefix_reconstructions, encode_database, evaluate_prefixes, search_batch
from .synth import synth_dataset
from .train import TrainConfig, train

try:  # glibc only; elsewhere freed memory is left to the allocator
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

FLAG_NAMES = {
    "hard": "hard_distortion",
    "soft": "soft_distortion",
    "joint": "joint_central",
}


def _parse_flags(csv: str) -> frozenset[str]:
    """The comma-separated flag names with short names expanded; :class:`TrainConfig` checks them."""
    names = (name.strip() for name in csv.split(","))
    return frozenset(FLAG_NAMES.get(name, name) for name in names if name)


@contextlib.contextmanager
def _output(path):
    """A text stream writing to the file at ``path``, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as f:
        yield f


def cmd_synth(args) -> int:
    fm = synth_dataset(args.n, args.d, args.clusters, args.spread, args.seed)
    rio.write_fvecs(fm.data, args.out)
    if args.labels:
        rio.write_labels(fm.label_sets(), args.labels)
    print(f"wrote {fm.n} vectors of dim {fm.dim} to {args.out}")
    return 0


def cmd_train(args) -> int:
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    config = TrainConfig(**{name: value for name, value in vars(args).items() if name in fields})
    features = FeatureMatrix(rio.read_fvecs(args.input))
    with _output(args.log) as log_out:
        resolved = {k: sorted(v) if isinstance(v, frozenset) else v for k, v in vars(config).items()}
        print(json.dumps({"record": "config", **resolved}), file=log_out)
        model, log = train(features, config)
        for record in log:
            print(json.dumps({"record": "epoch", **record}), file=log_out)
    rio.save_model(model, args.out)
    bits = model.code_bits
    print(f"saved model to {args.out} ({model.k}x{model.dim} codebook, "
          f"M={model.levels}, {bits}-bit codes)")
    return 0


def cmd_encode(args) -> int:
    model = rio.load_model(args.model)
    packed_size(model.levels, model.k)  # a K the code file cannot hold fails before any row is read
    data = rio.read_fvecs(args.input)
    db = encode_database(data, model)
    rio.save_codes(db, args.out)
    if data.shape[0]:
        for m, err in enumerate(_hard_errors(data, db.codes, model), start=1):
            print(f"level={m} mean_e_hard={err:.6f}")
    print(f"encoded {db.n} vectors to {args.out}")
    if args.reconstruct:
        recon = _prefix_reconstructions(db.codes, model, model.levels)
        rio.write_fvecs(recon, args.reconstruct)
        print(f"wrote reconstructions to {args.reconstruct}")
    return 0


def cmd_search(args) -> int:
    model = rio.load_model(args.model)
    db = rio.load_codes(args.codes, model)
    queries = rio.read_fvecs(args.queries)
    with _output(args.out) as out:
        for start in range(0, len(queries), _QUERY_BLOCK):
            block_ids, block_dists = search_batch(queries[start : start + _QUERY_BLOCK], db, args.topk, args.prefix_m)
            for qi, ids, dists in zip(range(start, len(queries)), block_ids, block_dists):
                for rank, (i, dist) in enumerate(zip(ids, dists), start=1):
                    print(f"query={qi} rank={rank} id={i} dist={dist:.9g}", file=out)
    return 0


def _prefix_lengths(text, levels: int) -> list[int | None]:
    """``eval --prefix-m``: [None] (full length) when absent, 1..M for ``all``,
    else the comma-separated lengths; :func:`evaluate_prefixes` checks each."""
    if text is None:
        return [None]
    if text.strip() == "all":
        return list(range(1, levels + 1))
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(f"--prefix-m takes comma-separated integers or 'all', got '{text}'") from None


def cmd_eval(args) -> int:
    model = rio.load_model(args.model)
    prefixes = _prefix_lengths(args.prefix_m, model.levels)
    if args.pr_curve and len(prefixes) > 1:
        raise DomainError("--pr-curve takes a single --prefix-m length")
    db = rio.load_codes(args.codes, model)
    data = rio.read_fvecs(args.queries)
    query_labels = rio.read_labels(args.query_labels)
    if len(query_labels) != data.shape[0]:
        raise DomainError("label file row count does not match vectors")
    queries = FeatureMatrix(data, multi_labels=query_labels)
    db_labels = rio.read_labels(args.db_labels)
    try:
        precision_at = tuple(int(v) for v in args.precision_at.split(",") if v.strip()) if args.precision_at else ()
    except ValueError:
        raise DomainError(f"--precision-at takes comma-separated integers, got '{args.precision_at}'") from None
    reports = evaluate_prefixes(queries, db, db_labels, args.map_cutoff, prefixes, precision_at)
    with _output(args.out) as out:
        for m, report in zip(prefixes, reports):
            if len(prefixes) > 1:
                print(f"prefix={m}", file=out)
            print(f"map@{args.map_cutoff}={report.map_at_r:.6f}", file=out)
            for r, p in report.precision_at_r:
                print(f"precision@{r}={p:.6f}", file=out)
    if args.pr_curve:
        with open(args.pr_curve, "w") as f:
            for rec, prec in reports[0].pr_curve:
                print(f"{rec:.6f} {prec:.6f}", file=f)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recurq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic Gaussian-mixture dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--labels")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a quantizer model")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    # TrainConfig fields: an option left out takes the field's default
    p.add_argument("--gamma", type=float, default=argparse.SUPPRESS)
    p.add_argument("--lr", type=float, default=argparse.SUPPRESS)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--epochs-stage2", type=int, default=argparse.SUPPRESS)
    p.add_argument("--epochs-stage3", type=int, default=argparse.SUPPRESS)
    p.add_argument("--loss-flags", type=_parse_flags, default=argparse.SUPPRESS)
    p.add_argument("--init", default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--log")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a vector file against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reconstruct")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("search", help="ADC search of queries against a code file")
    p.add_argument("--model", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--topk", type=int, required=True)
    p.add_argument("--prefix-m", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="retrieval-quality evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--map-cutoff", type=int, required=True)
    p.add_argument("--precision-at")
    p.add_argument("--pr-curve")
    p.add_argument("--prefix-m", help="a prefix length, a comma-separated list of them, or 'all'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    """Run one command, then give the heap pages its arrays freed back to the OS.

    After a large free, glibc serves arrays of up to 32 MB from its heap and keeps
    up to twice that free there, so without the trim a process that runs commands
    one after another in-process keeps one command's temporaries resident
    through the next. ``malloc_trim(0)`` trims every arena, so it also returns
    what the encode workers' threads freed in theirs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, rio.FileFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())

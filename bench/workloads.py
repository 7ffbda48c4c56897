"""The three workloads: build, serve and eval.

Every workload runs the same kinds of operation on its own index, so every
end-to-end metric is measured on every workload. The workload decides which
kind gets the timed ``--seconds`` window; the others run a small fixed amount.

- build: 100k x 64 base, model trained by ``recurq train`` on 20k held-out
  points (K=256, M=4), base encoded by ``recurq encode``. The timed window
  repeats train (twice) + encode. It is the only workload that trains its
  index model and the only one whose encode goes through ``cmd_encode``.
- serve: 100k x 64 base, M=8, codebook = K base points drawn by the seed with
  a fixed w (not trained, so training changes leave its index alone). The
  timed window is a closed loop of single-client searches, three full-length
  top-10 queries to one prefix-4 top-100 query.
- eval: 50k x 64 labelled base, M=8, same untrained model. The timed window
  repeats ``evaluate`` (mAP@100) at full length and at prefix_m=2.

After the index is built the run makes ROUNDS rounds. Each round reloads the
index twice (set-up samples), makes the fixed share of each secondary
operation and a 1/ROUNDS share of the timed window, so that every metric
samples the whole run rather than one stretch of it. Every operation is timed
between calibration blocks and reported at a reference host speed
(hostspeed.py): on the shared host the same work can run 2x slower from one
minute to the next.

recurq functions are looked up on their modules at call time, so the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hostspeed
import oracle

cli = importlib.import_module("recurq.cli")
core = importlib.import_module("recurq.core")
index = importlib.import_module("recurq.index")
rio = importlib.import_module("recurq.io")
synth = importlib.import_module("recurq.synth")

DIM = 64
K = 256
CLUSTERS = 100
SPREAD = 0.1
FIXED_W = 0.5  # scale of the untrained serve/eval model
GAMMA = 20.0
N_QUERIES = 200  # held-out query pool, cycled by the search loop
EVAL_BLOCK = 6  # queries per evaluate call
MAP_CUTOFF = 100
FULL_TOP_K = 10
PREFIX_TOP_K = 100
FULL_PER_PREFIX = 3  # search mix: three full-length queries, then one prefix query
TIMED = ("setup", "train", "encode", "full", "prefix", "eval_s")  # sample kinds holding (start, end) spans
ROUNDS = 3
EVAL_QUERIES = EVAL_BLOCK * ROUNDS  # labelled query set of mAP@100, one block per round
SECONDARY_QUERIES = 64  # searches per round where search is not the timed phase
SIDE_LEARN = 2_000  # learn set of the twice-per-round side training on serve and eval
BUILD_TRAINS = 2  # recurq train runs per build step
GREEDY_SAMPLE = 500  # rows re-encoded by the oracle after each encode
TRAIN_ARGS = ["--k", str(K), "--epochs-stage2", "1", "--epochs-stage3", "1"]


@dataclass(frozen=True)
class Profile:
    n_db: int
    levels: int
    prefix: int  # prefix length used by prefix searches and prefix evaluation
    timed: str  # phase that gets the --seconds window: "build", "search" or "eval"
    n_learn: int = 0  # > 0: train the index model on this many held-out points


PROFILES = {
    "build": Profile(n_db=100_000, levels=4, prefix=2, timed="build", n_learn=20_000),
    "serve": Profile(n_db=100_000, levels=8, prefix=4, timed="search"),
    "eval": Profile(n_db=50_000, levels=8, prefix=2, timed="eval"),
}


@dataclass
class Inputs:
    base: np.ndarray
    labels: np.ndarray
    queries: np.ndarray
    query_labels: np.ndarray
    files: dict


def prepare(profile: Profile, seed: int, work: str) -> Inputs:
    """Generate the workload's inputs from its seed and write them to files."""
    n_db, n_learn = profile.n_db, profile.n_learn
    fm = synth.synth_dataset(n_db + n_learn + N_QUERIES, DIM, CLUSTERS, SPREAD, seed)
    data = fm.data.astype(np.float32).astype(np.float64)  # the values an fvecs file holds
    files = {name: os.path.join(work, name) for name in
             ("base.fvecs", "base.labels", "learn.fvecs", "model.drqm", "side.drqm", "codes.drqc", "train.log")}
    rio.write_fvecs(data[:n_db], files["base.fvecs"])
    rio.write_labels([frozenset((int(label),)) for label in fm.labels[:n_db]], files["base.labels"])
    if n_learn:
        rio.write_fvecs(data[n_db:n_db + n_learn], files["learn.fvecs"])
    else:
        rio.write_fvecs(data[:SIDE_LEARN], files["learn.fvecs"])
        pick = np.random.default_rng([seed, 1]).choice(n_db, K, replace=False)
        rio.save_model(core.RqModel(data[pick], FIXED_W, GAMMA, profile.levels), files["model.drqm"])
    return Inputs(data[:n_db], fm.labels[:n_db], data[n_db + n_learn:], fm.labels[n_db + n_learn:], files)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Run:
    """One pass over a workload, with its samples and failures.

    ``plan`` holds how many times each loop ran; a traced pass replays the
    untraced pass's plan so both do identical work.
    """

    profile: Profile
    inputs: Inputs
    seed: int
    seconds: float
    tracer: object
    replay: dict | None = None
    plan: dict = field(default_factory=dict)
    samples: dict = field(default_factory=lambda: {
        "setup": [], "train": [], "encode": [], "encode_rows": [], "full": [], "prefix": [], "eval_s": [], "eval_q": []})
    attempted: int = 0
    failures: list = field(default_factory=list)
    op_spans: list = field(default_factory=list)
    clock: hostspeed.Clock = field(default_factory=hostspeed.Clock)
    results: list = field(default_factory=list)
    recall: list = field(default_factory=list)
    block_maps: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    _searches: int = 0
    _blocks: int = 0
    _oracle: dict = field(default_factory=dict)

    # -- bookkeeping -------------------------------------------------------

    def _op(self, kind: str, fn):
        """Run one operation between calibration ticks; returns (result,
        (start, end)), result None if it raised."""
        self.attempted += 1
        self.clock.tick()
        with self.tracer.operation(kind):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # an operation that raises is a failed operation
                result = None
                self.failures.append((kind, repr(exc)))
            span = (t0, time.perf_counter())
        self.clock.tick()
        self.op_spans.append(span)
        return result, span

    def op_seconds(self) -> float:
        """Host-speed-scaled total time of every operation."""
        return sum(map(self.clock.seconds, self.op_spans))

    def _fail(self, kind: str, reason: str | None) -> bool:
        if reason is not None:
            self.failures.append((kind, reason))
        return reason is None

    def _loop(self, key: str, kind: str, step, fixed: int, window: float) -> None:
        """Call ``step()`` until the window ends (at least once) if ``kind``
        is the workload's timed kind, else ``fixed`` times; a replay repeats
        the recorded count."""
        if self.replay is not None:
            count = self.replay[key]
        else:
            count = None if self.profile.timed == kind else fixed
        deadline = time.perf_counter() + window
        i = 0
        while (i < count) if count is not None else (i == 0 or time.perf_counter() < deadline):
            step()
            i += 1
        self.plan[key] = i

    def _cli(self, kind: str, argv: list[str]):
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                return cli.main(argv)

        code, span = self._op(kind, call)
        if code not in (0, None):
            self.failures.append((kind, f"exit code {code}: {out.getvalue()[-300:]}"))
        return code == 0, span

    # -- operations ----------------------------------------------------------

    def execute(self) -> "Run":
        p = self.profile
        self.build_index()
        window = self.seconds / ROUNDS
        for r in range(ROUNDS):
            # two set-up samples per round, between the other operations;
            # on serve and eval two side trainings and encoded slices
            for half in (0, 1):
                self.setup()
                if not p.n_learn:
                    # random init: k-means stops after a data-dependent number of
                    # iterations, which would make this sample vary with the seed
                    self.train("side.drqm", "random")
                    self.encode_slice(2 * r + half)
                if half == 0:
                    self._loop(f"search{r}", "search", self.search_step, SECONDARY_QUERIES, window)
            self._loop(f"eval{r}", "eval", self.eval_step, 1, window)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_searches()
        return self

    def train(self, out: str, init: str) -> None:
        f = self.inputs.files
        ok, span = self._cli("train", ["train", "--input", f["learn.fvecs"], "--m", str(self.profile.levels),
                                       *TRAIN_ARGS, "--init", init, "--seed", str(self.seed),
                                       "--log", f["train.log"], "--out", f[out]])
        if ok:
            self.samples["train"].append(span)

    def build_index(self) -> None:
        """build: ``recurq train`` twice (same seed, same model: one 8-second
        sample would leave train_s to one stretch of the host) + ``recurq
        encode``, repeated for the timed window. serve/eval:
        ``encode_database`` of the base with the fixed model, saved with
        ``save_codes`` (preparation, not timed)."""
        f = self.inputs.files
        p = self.profile
        if p.n_learn:
            def step():
                for _ in range(BUILD_TRAINS):
                    self.train("model.drqm", "kmeans")
                ok, span = self._cli("encode", ["encode", "--model", f["model.drqm"],
                                                "--input", f["base.fvecs"], "--out", f["codes.drqc"]])
                if ok and self._fail("encode", self.check_codes()):
                    self.samples["encode"].append(span)
                    self.samples["encode_rows"].append(p.n_db)

            self._loop("build", "build", step, 1, self.seconds)
            return
        db, _ = self._op("encode", lambda: index.encode_database(self.inputs.base, rio.load_model(f["model.drqm"])))
        if db is None:
            raise RuntimeError(f"encode failed: {self.failures[-1]}")
        rio.save_codes(db, f["codes.drqc"])
        reason = self.check_codes()
        if reason is None and not np.array_equal(db.codes, self._oracle["codes"]):
            reason = "written codes differ from the encoded codes"
        self._fail("encode", reason)

    def encode_slice(self, i: int) -> None:
        """encode_vps sample of serve/eval: ``encode_database`` of the i-th
        of 2 * ROUNDS slices of the base, checked against the index's codes."""
        n, parts = self.profile.n_db, 2 * ROUNDS
        rows = slice(i * n // parts, (i + 1) * n // parts)
        db, span = self._op("encode", lambda: index.encode_database(self.inputs.base[rows], self.model))
        if db is not None and self._fail("encode", None if np.array_equal(db.codes, self._oracle["codes"][rows])
                                         else "slice codes differ from the index's codes"):
            self.samples["encode"].append(span)
            self.samples["encode_rows"].append(db.n)

    def setup(self) -> None:
        """Load model, codes and database labels: one setup_s sample.

        The previous load is dropped and collected first, so every sample
        starts from the same heap, as a fresh process would."""
        f = self.inputs.files
        self.model = self.db = self.db_labels = None
        gc.collect()

        def load():
            model = rio.load_model(f["model.drqm"])
            return model, rio.load_codes(f["codes.drqc"], model), rio.read_labels(f["base.labels"])

        loaded, span = self._op("setup", load)
        if loaded is None:
            raise RuntimeError(f"setup failed: {self.failures[-1]}")
        model, db, labels = loaded
        reason = None
        if not np.array_equal(db.codes, self._oracle["codes"]):
            reason = "loaded codes differ from the file's codes"
        elif len(labels) != self.profile.n_db:
            reason = "label count differs from N"
        if self._fail("setup", reason):
            self.samples["setup"].append(span)
        self.model, self.db, self.db_labels = model, db, labels

    def search_step(self) -> None:
        i = self._searches
        self._searches += 1
        qi = i % N_QUERIES
        if i % (FULL_PER_PREFIX + 1) == FULL_PER_PREFIX:
            kind, top_k, prefix_m = "prefix", PREFIX_TOP_K, self.profile.prefix
        else:
            kind, top_k, prefix_m = "full", FULL_TOP_K, None
        result, span = self._op(kind, lambda: index.search(self.inputs.queries[qi], self.db, top_k, prefix_m))
        if result is not None:
            self.results.append((kind, qi, top_k, result))
            self.samples[kind].append(span)

    def eval_step(self) -> None:
        """evaluate one block of the labelled query set at full length, and on
        eval also at the prefix."""
        block = self._blocks % (EVAL_QUERIES // EVAL_BLOCK)
        self._blocks += 1
        rows = slice(block * EVAL_BLOCK, (block + 1) * EVAL_BLOCK)
        fm = core.FeatureMatrix(self.inputs.queries[rows], labels=self.inputs.query_labels[rows])
        for prefix_m in (None, self.profile.prefix) if self.profile.timed == "eval" else (None,):
            report, span = self._op(
                "eval", lambda: index.evaluate(fm, self.db, self.db_labels, MAP_CUTOFF, (), prefix_m))
            if report is not None and self._fail("eval", self.check_map(report.map_at_r, prefix_m, rows)):
                self.samples["eval_s"].append(span)
                self.samples["eval_q"].append(EVAL_BLOCK)
                self.block_maps[(prefix_m, block)] = report.map_at_r

    # -- oracle checks -----------------------------------------------------

    def check_codes(self) -> str | None:
        """Decode the written code and model files with the oracle's own
        parsers and check size, code range, norms and greedy assignment."""
        f = self.inputs.files
        try:
            codebook, w, levels = oracle.read_model(f["model.drqm"])
            codes, norms = oracle.read_codes(f["codes.drqc"])
        except (oracle.OracleError, OSError, ValueError) as exc:
            return f"written files do not decode: {exc}"
        p = self.profile
        if levels != p.levels or codes.shape != (p.n_db, p.levels) or codebook.shape != (K, DIM):
            return f"shape mismatch: codes {codes.shape}, codebook {codebook.shape}, M={levels}"
        if codes.min() < 0 or codes.max() >= K:
            return "code out of range"
        recon = oracle.reconstruct(codes, codebook, w, levels)
        exact = np.einsum("nd,nd->n", recon, recon)
        if np.any(np.abs(norms - exact) > np.spacing(exact.astype(np.float32)).astype(np.float64)):
            return "stored norms differ from the reconstruction norms"
        rows = np.random.default_rng([self.seed, 2]).choice(p.n_db, GREEDY_SAMPLE, replace=False)
        bad = oracle.greedy_mismatches(self.inputs.base[rows], codes[rows], codebook, w)
        if bad:
            return f"{bad} of {GREEDY_SAMPLE} sampled rows are not greedily encoded"
        self._oracle = {"codes": codes, "norms": norms, "codebook": codebook, "w": w, "recon": recon,
                        "e_hard": float(np.linalg.norm(self.inputs.base - recon, axis=1).mean())}
        return None

    def _scan(self, prefix_m: int | None) -> oracle.Scan:
        key = ("scan", prefix_m)
        if key not in self._oracle:
            o = self._oracle
            if prefix_m is None:
                self._oracle[key] = oracle.Scan(o["recon"], o["norms"])
            else:
                self._oracle[key] = oracle.Scan(oracle.reconstruct(o["codes"], o["codebook"], o["w"], prefix_m))
        return self._oracle[key]

    def check_searches(self) -> None:
        """Every search result against the exact scan; full queries give recall@10."""
        for kind, qi, top_k, (ids, dists) in self.results:
            scan = self._scan(None if kind == "full" else self.profile.prefix)
            reason, top = scan.check(self.inputs.queries[qi], ids, dists, top_k)
            if self._fail(kind, reason) and kind == "full":
                self.recall.append(len(np.intersect1d(ids, top)) / len(top))

    def check_map(self, value: float, prefix_m: int | None, rows: slice) -> str | None:
        """mAP@100 of a block against the oracle's own AP. At full length the
        program may rank by the stored f32 norms or by exact norms; either is
        accepted."""
        key = ("ap", prefix_m)
        if key not in self._oracle:
            scan = self._scan(prefix_m)
            exact = np.array([scan.distances(x) for x in self.inputs.queries[:EVAL_QUERIES]])
            variants = [exact]
            if prefix_m is None:
                variants.append(exact - scan.sq + self._oracle["norms"])
            labels = self.inputs.query_labels[:EVAL_QUERIES]
            self._oracle[key] = [oracle.average_precisions(v, self.inputs.labels, labels, MAP_CUTOFF)
                                 for v in variants]
        expected = [float(aps[rows].mean()) for aps in self._oracle[key]]
        if min(abs(value - e) for e in expected) > 1e-9:
            return f"mAP@{MAP_CUTOFF} {value!r} differs from the oracle's {expected}"
        return None

    # -- results -------------------------------------------------------------

    def _map(self, prefix_m: int | None) -> float:
        """mAP@100 over the whole labelled query set (the mean of its equal blocks)."""
        return statistics.fmean(self.block_maps[(prefix_m, b)] for b in range(EVAL_QUERIES // EVAL_BLOCK))

    def metrics(self) -> tuple[dict, dict]:
        """(end-to-end metric values, wall-time medians, tail percentiles and
        sample counts). Times are host-speed-scaled (see hostspeed.py)."""
        seconds, wall = self.clock.seconds, (lambda span: span[1] - span[0])
        s = {k: [seconds(x) for x in v] if k in TIMED else v for k, v in self.samples.items()}
        full_ms = [t * 1e3 for t in s["full"]]
        prefix_ms = [t * 1e3 for t in s["prefix"]]
        full_tail, full_pct = tail(full_ms)
        prefix_tail, prefix_pct = tail(prefix_ms)
        values = {
            "setup_s": statistics.median(s["setup"]),
            "train_s": statistics.median(s["train"]),
            "encode_vps": sum(s["encode_rows"]) / sum(s["encode"]),
            "search_p50_ms": statistics.median(full_ms),
            "search_tail_ms": full_tail,
            "prefix_search_p50_ms": statistics.median(prefix_ms),
            "prefix_search_tail_ms": prefix_tail,
            "eval_qps": sum(s["eval_q"]) / sum(s["eval_s"]),
            "peak_rss_mb": self.peak_rss_mb,
            "bytes_per_vector": os.path.getsize(self.inputs.files["codes.drqc"]) / self.profile.n_db,
            "recall_at_10": statistics.fmean(self.recall),
            "map_at_100": self._map(None),
            "e_hard": self._oracle["e_hard"],
        }
        tails = {
            "calibration_ms": {"median": self.clock.median_ms(), "blocks": len(self.clock.took),
                               "reference_ms": hostspeed.REFERENCE_S * 1e3},
            "wall_median_s": {k: statistics.median(map(wall, self.samples[k])) for k in TIMED},
            "search_tail_ms": {"percentile": full_pct, "samples": len(full_ms)},
            "prefix_search_tail_ms": {"percentile": prefix_pct, "samples": len(prefix_ms)},
            "map_at_100_prefix": self._map(self.profile.prefix) if self.profile.timed == "eval" else None,
            "samples": {k: s[k] for k in ("setup", "train", "encode")},
            "plan": self.plan,
        }
        return values, tails

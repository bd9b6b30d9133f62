"""Build and serve a semsearch engine through its CLI, and time every phase.

    python3 perfbench/run.py --workload build-2k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is the checkout's own
``src/semsearch``, put first on the path of this process and of every
child. A run has three phases:

1. setup: generate the workload's inputs from the seed (several times;
   the median is ``setup_s``).
2. build: ``semsearch ingest``, ``train`` and ``build-index`` processes,
   twice, each time into a fresh engine directory.
3. serve, in ten interleaved rounds: ``semsearch query --json``
   processes; a closed loop of in-process ``SearchEngine.query`` calls
   from one caller, whole passes over the query list, for ``--seconds``
   in all; ``ExactOracle.query`` over part of the list; a ``semsearch
   eval`` process.

Then every correctness check in ``checks.py`` runs. With ``--trace 1`` the
run also repeats the build and a one-shot query in-process, with a span
around each call into the program's modules, and reports per-layer
metrics instead of end-to-end ones. The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every child, so timings do not depend on
# what else shares the machine's cores. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

K = 10
SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S of set-up time is measured
SETUP_MIN_S = 1.0
WARMUP_QUERIES = 100
REWARM_QUERIES = 20
SERVE_ROUNDS = 10
EVALS = 5
# the loop makes at least this many whole passes over the query list; the
# p99 is taken over each query's median latency across its passes, so a
# burst of interference from outside the run must slow most passes of a
# query to move it. Workloads have at least 1,000 queries, so ten or more
# lie beyond the p99.
MIN_PASSES = 5
BIT_EQUAL_QUERIES = 10
BUILD_PASSES = 2
RUN_LIMIT_S = 170  # children still running this long after the start are killed
# traced run only
IMPORT_REPEATS = 5
ONESHOT_REPLICAS = 3
LAYER_QUERIES = 200
SCAN_QUERIES = 30
SWEEP = (25, 100, 400)


class Fatal(Exception):
    """A step the rest of the run depends on failed."""


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    out: str
    err: str


START = time.monotonic()


def run_child(args: list[str], cwd: Path, env: dict, tag: str) -> Proc:
    """Run a child to completion; wall time and peak RSS from wait4."""
    out_path, err_path = cwd / f".{tag}.out", cwd / f".{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(START + RUN_LIMIT_S - time.monotonic(), 0), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss * 1024 / 1e6, p.returncode,
                out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median(xs) -> float:
    return float(statistics.median(xs))


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, sem):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sem = sem  # the imported semsearch package
        self.work = WORK / workload.name
        self.phases: dict[str, list[int]] = {}
        self.errors: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.e2e: dict[str, tuple[float, str]] = {}
        self.layer: dict[str, tuple[float, str]] = {}

    # --- bookkeeping -------------------------------------------------------

    def op(self, phase: str, ok: bool) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += 1
        counts[1] += 0 if ok else 1

    def check(self, fn, *args):
        """``fn(*args)``, or None with the failure recorded."""
        try:
            return fn(*args)
        except checks.CheckError as e:
            self.errors.append(f"{fn.__name__}: {e}")
            return None

    def cli(self, phase: str, tag: str, *args) -> Proc:
        proc = run_child([sys.executable, "-m", "semsearch", *map(str, args)],
                         self.work, self.env, tag)
        self.op(phase, proc.code == 0)
        if proc.code != 0:
            print(f"{tag} exited {proc.code}: {proc.err.strip()[-400:]}", file=sys.stderr)
        return proc

    def artifacts(self, d: Path) -> list[Path]:
        return [d / self.sem.search.RECORDS_NAME, d / self.sem.search.MODEL_NAME,
                d / self.sem.search.INDEX_NAME]

    # --- phases ------------------------------------------------------------

    def setup(self) -> None:
        times, digests = [], set()
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            if times:
                shutil.rmtree(inputs.csv_path.parent)
            d = self.work / f"inputs{len(times)}"
            t0 = time.perf_counter()
            inputs = make_inputs(self.w, self.seed, d, self.sem.gen_synthetic)
            times.append(time.perf_counter() - t0)
            self.op("setup", True)
            digests.add(inputs.digest())
        self.check(checks.check_same, len(digests), 1, "input digests across setups")
        self.inputs = inputs
        self.e2e["setup_s"] = (median(times), "s")

    def build(self) -> None:
        """BUILD_PASSES builds from the same inputs, each into a fresh engine
        directory; the last one is served. Same seed, same artifact bytes."""
        w = self.w
        self.build_passes: list[dict[str, Proc]] = []
        digests = []
        for b in range(BUILD_PASSES):
            if b:
                shutil.rmtree(self.engine_dir)
            e = self.engine_dir = self.work / f"engine{b}"
            steps = [
                ("ingest", ["ingest", self.inputs.csv_path, "--text-columns",
                            ",".join(self.inputs.text_columns), "--id-column", "id",
                            "--engine-dir", e]),
                ("train", ["train", "--engine-dir", e, "--dim", w.dim,
                           "--epochs", w.epochs, "--seed", self.seed]),
                ("build_index", ["build-index", "--engine-dir", e, "--trees", w.trees,
                                 "--seed", self.seed]),
            ]
            procs = {}
            for name, args in steps:
                proc = self.cli("build", name, *args)
                if proc.code != 0:
                    raise Fatal(f"{name} failed")
                procs[name] = proc
            self.build_passes.append(procs)
            digests.append([sha256(p) for p in self.artifacts(e)])
        self.check(checks.check_same, digests[0], digests[-1],
                   "artifact digests of two builds in one run")
        self.build_procs = self.build_passes[-1]
        sizes = [p.stat().st_size for p in self.artifacts(self.engine_dir)]
        self.e2e["build_s"] = (median(sum(p.wall_s for p in procs.values())
                                      for procs in self.build_passes), "s")
        self.e2e["build_rss_mb"] = (median(max(p.rss_mb for p in procs.values())
                                           for procs in self.build_passes), "MB")
        self.e2e["engine_mb"] = (sum(sizes) / 1e6, "MB")
        self.sizes = sizes
        self.digests = digests[-1]

    def serve(self) -> None:
        """One-shot processes, the closed loop, the exact scan and eval, in
        interleaved rounds, so that every median draws on the whole phase and
        not on one stretch of a machine whose speed drifts."""
        w, texts = self.w, self.inputs.queries
        records_p, model_p, index_p = self.artifacts(self.engine_dir)
        engine = self.engine = self.sem.build_engine(model_p, index_p, records_p)
        oracle = self.oracle = self.sem.ExactOracle.from_unit(engine.index.items)
        vecs = self.exact_vecs = [self.sem.embed_query(engine.model, t)[0]
                                  for t in texts[: w.exact_queries]]
        for text in texts[:WARMUP_QUERIES]:
            engine.query(text, k=K)
        oracle.query(vecs[0], K)

        oneshots, samples, exact_ns, evals = [], [], [], []
        per_query: list[list[int]] = [[] for _ in texts]  # loop latencies, ns
        self.oracle_answers = [None] * len(vecs)
        answers: list = []  # the first pass over the query list; None where it failed
        loop_s, cursor = 0.0, 0

        def loop_query() -> None:
            nonlocal cursor
            i = cursor % len(texts)
            t0 = time.perf_counter_ns()
            try:
                results, _ = engine.query(texts[i], k=K)
            except self.sem.SemSearchError:
                self.op("serve.loop", False)
                results = None
            else:
                samples.append(time.perf_counter_ns() - t0)
                per_query[i].append(samples[-1])
                self.op("serve.loop", True)
            if cursor < len(texts):
                answers.append(results)
            cursor += 1

        def spread(n: int, r: int) -> range:
            """The items of ``n`` that fall to round ``r``, evenly spaced."""
            return range(-(-n * r // SERVE_ROUNDS), -(-n * (r + 1) // SERVE_ROUNDS))

        for r in range(SERVE_ROUNDS):
            for i in spread(w.oneshots, r):
                proc = self.cli("serve.oneshot", f"query{i}", "query", "--engine-dir",
                                self.engine_dir, "--json", texts[i])
                oneshots.append((texts[i], proc))

            # closed loop, one caller: this round's share of --seconds, after
            # untimed queries that refill the caches the other work evicted
            for text in texts[:REWARM_QUERIES]:
                engine.query(text, k=K)
            t_round = time.perf_counter()
            while loop_s + time.perf_counter() - t_round < self.seconds * (r + 1) / SERVE_ROUNDS:
                loop_query()
            loop_s += time.perf_counter() - t_round

            # the exhaustive scan eval pays per query
            for j in range(r, len(vecs), SERVE_ROUNDS):
                t0 = time.perf_counter_ns()
                self.oracle_answers[j] = oracle.query(vecs[j], K)
                exact_ns.append(time.perf_counter_ns() - t0)
                self.op("serve.exact", True)

            for _ in spread(EVALS, r):
                proc = self.cli("serve.eval", f"eval{r}", "eval", "--engine-dir",
                                self.engine_dir, "--queries", self.inputs.queries_path,
                                "-k", K)
                if proc.code == 0:
                    m = re.search(r"evaluated (\d+) queries", proc.out)
                    self.check(checks.check_same, int(m.group(1)) if m else None,
                               w.eval_queries, "queries eval scored and queries in its file")
                    evals.append(proc.wall_s)
        # whole passes only, and enough of them for a median per query
        while cursor % len(texts) or cursor < MIN_PASSES * len(texts):
            loop_query()
        self.answers = answers

        good = [p for _, p in oneshots if p.code == 0]
        if not good or not evals:
            raise Fatal("every one-shot query or every eval failed")
        self.e2e["oneshot_p50_ms"] = (median(p.wall_s for p in good) * 1e3, "ms")
        self.e2e["oneshot_rss_mb"] = (median(p.rss_mb for p in good), "MB")
        self.e2e["query_p50_us"] = (median(samples) / 1e3, "us")
        per_query_p50 = [median(ns) for ns in per_query if ns]
        self.e2e["query_p99_us"] = (float(np.percentile(per_query_p50, 99)) / 1e3, "us")
        self.e2e["exact_p50_us"] = (median(exact_ns) / 1e3, "us")
        self.e2e["eval_s"] = (median(evals), "s")
        for text, proc in oneshots:
            if proc.code == 0:
                results, dropped = engine.query(text, k=K)
                expected = {"query": text, "dropped": dropped,
                            "results": [r.to_dict() for r in results]}
                self.check(checks.check_oneshot, proc.out, expected)

    # --- correctness -------------------------------------------------------

    def verify(self) -> None:
        w, texts, engine = self.w, self.inputs.queries, self.engine
        index = engine.index
        model = checks.read_model(self.engine_dir / "model.bin")
        own_q, ok = checks.embed(model, texts)
        self.check(checks.check_same, int(ok.sum()), len(texts), "embeddable queries")
        scan = checks.ExactScan(index.items)

        imap = index.item_map
        cells = checks.read_cells(self.engine_dir / "records.ndjson")
        item_cells, item_vecs = checks.own_items(model, cells)
        self.check(checks.check_items, index.items, imap.row_ids, imap.col_ids,
                   item_cells, item_vecs)
        del item_vecs
        for tree in index.trees:
            self.check(checks.check_tree, tree.leaf_bounds, tree.leaf_items, index.size)
        item_of = {(row, self.inputs.text_columns[c]): i
                   for i, (row, c, _) in enumerate(item_cells)}

        # query by query against the own float64 scan: the loop's answers
        # (recall is scored from the distances recomputed for the cells
        # they name) and ExactOracle's
        answered = [(i, ans) for i, ans in enumerate(self.answers) if ans is not None]
        kth = np.empty(len(texts))
        hits = 0
        for lo in range(0, len(texts), 32):
            for i, row in enumerate(scan.distances(own_q[lo:lo + 32]), start=lo):
                kth[i] = np.partition(row, K - 1)[K - 1]
                ans = self.answers[i]
                if i < len(self.oracle_answers):
                    self.check(checks.check_oracle, row, *self.oracle_answers[i], K)
                if ans is None:
                    continue
                ids = self.check(checks.answer_items, ans, item_of, item_cells)
                own = None if ids is None else self.check(
                    checks.check_walk, row, ids, [r.distance for r in ans], K)
                hits += 0 if own is None else checks.recall_hits(own, kth[i])
        self.e2e["recall_at_10"] = (hits / (K * max(len(answered), 1)), "ratio")
        self.own_q, self.kth, self.scan = own_q, kth, scan

        for v, ans in list(zip(self.exact_vecs, self.oracle_answers))[:BIT_EQUAL_QUERIES]:
            self.check(checks.check_bit_equal, index.query_vector(v, K, search_k=index.size), ans)

        for i, ans in answered:
            text, kind = texts[i], self.inputs.kinds[i]
            if kind == "indexed":
                self.check(checks.check_exact_text, ans[0].distance, text)

        if w.kind == "gen-data" and w.epochs > 0:
            for i, ans in answered:
                text, c = texts[i], self.inputs.clusters[i]
                got = [int(re.search(r"\d+$", r.record.text("state")).group()) for r in ans]
                self.check(checks.check_cluster, c, got, text)
            m = re.search(r"epoch mean losses: (.*)", self.build_procs["train"].out)
            losses = [float(x) for x in m.group(1).split(",")] if m else []
            self.check(checks.check_losses_fall, losses)

        self.cells = cells

    # --- traced run ----------------------------------------------------------

    def traced(self) -> None:
        sem, w, tr = self.sem, self.w, Tracer()
        engine, texts = self.engine, self.inputs.queries
        index, oracle = engine.index, self.oracle
        L = self.layer

        # query-level layers, on the untraced run's loaded engine
        tr.run_id = "queries"
        for text in texts[:LAYER_QUERIES]:
            tr.call("search.query", engine.query, text, k=K)
            vec, _ = tr.call("search.embed_query", sem.embed_query, engine.model, text)
            tr.call("ann.query_vector", index.query_vector, vec, K)
        # what query adds to the embedding and the walk, query by query
        q = "queries"
        diffs = [a - b - c for a, b, c in zip(tr.durations("search.query", q),
                                               tr.durations("search.embed_query", q),
                                               tr.durations("ann.query_vector", q))]
        L["search.embed_query_us"] = (tr.median("search.embed_query") * 1e6, "us")
        L["search.materialize_us"] = (median(diffs) * 1e6, "us")

        vecs = [sem.embed_query(engine.model, t)[0] for t in texts[:LAYER_QUERIES]]
        sweep = {sk: [] for sk in SWEEP}
        for sk in SWEEP:
            name = f"ann.query_vector.sk{sk}"
            for v in vecs:
                with tr.span(name):
                    sweep[sk].append(index.query_vector(v, K, search_k=sk))
            L[f"ann.query_us.sk{sk}"] = (tr.median(name) * 1e6, "us")
        # recall from the distances the own scan gives the answered items
        hits = dict.fromkeys(SWEEP, 0)
        own_q = self.own_q[:len(vecs)]
        for lo in range(0, len(vecs), 32):
            for i, row in enumerate(self.scan.distances(own_q[lo:lo + 32]), start=lo):
                for sk in SWEEP:
                    own = self.check(checks.check_walk, row, *sweep[sk][i], K)
                    hits[sk] += 0 if own is None else checks.recall_hits(own, self.kth[i])
        for sk in SWEEP:
            L[f"ann.recall_at_10.sk{sk}"] = (hits[sk] / (K * len(vecs)), "ratio")
        for v in vecs[:SCAN_QUERIES]:
            with tr.span("ann.query_vector.scan"):
                index.query_vector(v, K, search_k=index.size)
            with tr.span("evaluate.ExactOracle.query"):
                oracle.query(v, K)
        L["ann.scan_us"] = (tr.median("ann.query_vector.scan") * 1e6, "us")
        L["evaluate.oracle_us"] = (tr.median("evaluate.ExactOracle.query") * 1e6, "us")
        del self.engine, engine, index, oracle, self.oracle

        # a fresh interpreter importing the package: each CLI process pays it
        imports = []
        for i in range(IMPORT_REPEATS):
            proc = run_child([sys.executable, "-c", "import semsearch; print(semsearch.__file__)"],
                             self.work, self.env, f"import{i}")
            self.check(checks.check_same, Path(proc.out.strip()).resolve().parent,
                       (SRC / "semsearch").resolve(), "package a child imports")
            imports.append(proc.wall_s)
        import_s = median(imports)
        L["cli.import_s"] = (import_s, "s")
        for name in self.build_procs:
            L[f"cli.{name}_s"] = (median(procs[name].wall_s for procs in self.build_passes), "s")

        # the three build commands, in-process, call by call
        rep = self.work / "replica"
        rep.mkdir()
        records_p, model_p, index_p = self.artifacts(rep)
        tr.run_id = "build"
        with tr.span("cli.ingest"):
            records = tr.call("corpus.load_csv", sem.load_csv, self.inputs.csv_path,
                              self.inputs.text_columns, id_column="id")
            tr.call("corpus.save_records", sem.save_records, records, records_p)
        with tr.span("cli.train"):
            records = tr.call("corpus.load_records", sem.load_records, records_p)
            config = sem.TrainConfig(dim=w.dim, epochs=w.epochs, seed=self.seed)
            vocab = tr.call("corpus.build_vocab", sem.build_vocab,
                            sem.corpus.iter_cell_tokens(records), min_count=config.min_count)
            stream = tr.call("corpus.encode_sentences", sem.encode_sentences, records, vocab)
            digest = tr.call("corpus.records_digest", sem.corpus.records_digest, records)
            model = tr.call("embeddings.train", sem.train, stream, vocab, config,
                            corpus_hash=digest)
            tr.call("embeddings.save_model", sem.save_model, model, model_p)
        with tr.span("cli.build_index"):
            records = tr.call("corpus.load_records", sem.load_records, records_p)
            model = tr.call("embeddings.load_model", sem.load_model, model_p)
            matrix, item_map, _ = tr.call("search.cell_vectors", sem.search.cell_vectors,
                                          model, records)
            config = sem.IndexConfig(n_trees=w.trees, seed=self.seed)
            built = tr.call("ann.build_index", sem.build_index, matrix, config,
                            corpus_hash=model.corpus_hash, item_map=item_map)
            tr.call("ann.save_index", sem.save_index, built, index_p)
        self.check(checks.check_same, [sha256(p) for p in (records_p, model_p, index_p)],
                   self.digests, "artifact digests of the CLI and the in-process build")
        tr.run_id = "pairs"
        pairs = tr.call("embeddings.scheduled_pairs", sem.embeddings.scheduled_pairs,
                        stream, vocab, model.config)
        splits = sum(t.n_splits for t in built.trees)
        texts_all = [t for _, _, t in self.cells]
        del records, model, matrix, item_map, built, stream

        # one-shot `query --json`, in-process, call by call
        for i in range(ONESHOT_REPLICAS):
            tr.run_id = f"oneshot{i}"
            with tr.span("cli.query"):
                records = tr.call("corpus.load_records", sem.load_records, records_p)
                model = tr.call("embeddings.load_model", sem.load_model, model_p)
                loaded = tr.call("ann.load_index", sem.load_index, index_p)
                eng = tr.call("search.engine_check", sem.SearchEngine,
                              records=records, model=model, index=loaded)
                results, dropped = tr.call("search.query", eng.query, texts[0], k=K)
                json.dumps({"query": texts[0], "dropped": dropped,
                            "results": [r.to_dict() for r in results]}, sort_keys=True)
            del records, model, loaded, eng

        b = "build"
        L.update({
            "corpus.load_csv_s": (tr.median("corpus.load_csv", b), "s"),
            "corpus.save_records_s": (tr.median("corpus.save_records", b), "s"),
            "corpus.load_records_s": (tr.median("corpus.load_records", "oneshot"), "s"),
            "corpus.records_digest_s": (tr.median("corpus.records_digest", b), "s"),
            "corpus.build_vocab_s": (tr.median("corpus.build_vocab", b), "s"),
            "corpus.encode_sentences_s": (tr.median("corpus.encode_sentences", b), "s"),
            "corpus.cells": (len(texts_all), "count"),
            "corpus.distinct_cells": (len(set(texts_all)), "count"),
            "corpus.records_bytes": (self.sizes[0], "bytes"),
            "embeddings.scheduled_pairs_s": (tr.median("embeddings.scheduled_pairs"), "s"),
            "embeddings.train_s": (tr.median("embeddings.train", b), "s"),
            "embeddings.pairs": (pairs, "count"),
            "embeddings.train_us_per_pair": (
                tr.median("embeddings.train", b) * 1e6 / max(pairs, 1), "us"),
            "embeddings.save_model_s": (tr.median("embeddings.save_model", b), "s"),
            "embeddings.load_model_s": (tr.median("embeddings.load_model", "oneshot"), "s"),
            "embeddings.model_bytes": (self.sizes[1], "bytes"),
            "ann.build_index_s": (tr.median("ann.build_index", b), "s"),
            "ann.splits": (splits, "count"),
            "ann.save_index_s": (tr.median("ann.save_index", b), "s"),
            "ann.load_index_s": (tr.median("ann.load_index", "oneshot"), "s"),
            "ann.index_bytes": (self.sizes[2], "bytes"),
            "search.cell_vectors_s": (tr.median("search.cell_vectors", b), "s"),
            "search.engine_check_s": (tr.median("search.engine_check", "oneshot"), "s"),
        })

        # spans plus one interpreter start per process against the untraced walls
        own = tr.self_times()
        steps = [(i, s) for i, s in enumerate(tr.spans) if s.name.startswith("cli.")]
        build_spans = sum(s.seconds for _, s in steps if s.run_id == b)
        traced_build = build_spans + 3 * import_s
        untraced_build = self.e2e["build_s"][0]
        traced_oneshot = tr.median("cli.query") + import_s
        untraced_oneshot = self.e2e["oneshot_p50_ms"][0] / 1e3
        L.update({
            "trace.build_traced_s": (traced_build, "s"),
            "trace.build_untraced_s": (untraced_build, "s"),
            "trace.build_overhead": (traced_build / untraced_build - 1, "ratio"),
            "trace.build_unspanned_s": (sum(own[i] for i, s in steps if s.run_id == b), "s"),
            "trace.oneshot_traced_ms": (traced_oneshot * 1e3, "ms"),
            "trace.oneshot_untraced_ms": (untraced_oneshot * 1e3, "ms"),
            "trace.oneshot_overhead": (traced_oneshot / untraced_oneshot - 1, "ratio"),
        })

        totals = tr.write(self.work / "spans.jsonl")
        print("self time by span name (s):", file=sys.stderr)
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {t:10.4f}  {name}", file=sys.stderr)

    # --- the whole run -------------------------------------------------------

    def run(self) -> dict:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        for step in (self.setup, self.build, self.serve, self.verify) + (
                (self.traced,) if self.trace else ()):
            t0 = time.perf_counter()
            step()
            print(f"{step.__name__} took {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        for phase, (attempted, failed) in sorted(self.phases.items()):
            print(f"phase {phase}: attempted {attempted}, failed {failed}")
        for msg in self.errors:
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        metrics = self.layer if self.trace else self.e2e
        return {
            "correct": not self.errors,
            "attempted": sum(a for a, _ in self.phases.values()),
            "failed": sum(f for _, f in self.phases.values()),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the in-process closed loop measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "semsearch" / "__init__.py").is_file():
        print(f"perfbench: no semsearch package at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semsearch

    if Path(semsearch.__file__).resolve().parent != (SRC / "semsearch").resolve():
        print(f"perfbench: imported {semsearch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), semsearch)
    try:
        result = run.run()
    except Fatal as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

One executable, ``semsearch``, with pipeline subcommands (ingest, train,
build-index), query subcommands (query, repl), and evaluation
subcommands (eval, bench, gen-data).

Pipeline commands write either to an explicit ``--out`` path or into an
``--engine-dir`` using conventional file names plus a manifest; the two
targets are mutually exclusive, and nothing is ever written outside the
chosen one.

Exit codes: 0 success, 1 expected failures (bad usage, bad input files,
unresolvable queries), 2 unexpected internal errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ann import IndexConfig, load_index, save_index
from .corpus import (
    build_vocab,
    encode_sentences,
    iter_cell_tokens,
    load_csv,
    load_records,
    save_records,
)
from .embeddings import TrainConfig, load_model, save_model, train
from .errors import ConfigError, SemSearchError, UnresolvableQueryError
from .evaluate import (
    ExactOracle,
    bench,
    gaussian_vectors,
    gen_synthetic,
)
from .search import (
    INDEX_NAME,
    MODEL_NAME,
    RECORDS_NAME,
    SearchEngine,
    build_engine,
    embed_query,
    index_records,
    update_manifest,
)

log = logging.getLogger(__name__)


class Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors, per the exit-code contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed(value: int | None) -> int:
    """--seed flag, else SEMSEARCH_SEED from the environment, else 0."""
    if value is not None:
        return value
    env = os.environ.get("SEMSEARCH_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SEMSEARCH_SEED must be an integer, got {env!r}")


def _out_path(args: argparse.Namespace, conventional: str) -> Path:
    """Resolve the write target from --out xor --engine-dir."""
    if args.engine_dir and args.out:
        raise ConfigError("--out and --engine-dir are mutually exclusive")
    if args.engine_dir:
        d = Path(args.engine_dir)
        d.mkdir(parents=True, exist_ok=True)
        return d / conventional
    if args.out:
        return Path(args.out)
    raise ConfigError("one of --out or --engine-dir is required")


def _in_path(
    explicit: str | None, engine_dir: str | None, conventional: str, flag: str
) -> Path:
    if explicit and engine_dir:
        raise ConfigError(f"{flag} and --engine-dir are mutually exclusive")
    if explicit:
        return Path(explicit)
    if engine_dir:
        return Path(engine_dir) / conventional
    raise ConfigError(f"one of {flag} or --engine-dir is required")


def _load_engine(args: argparse.Namespace) -> SearchEngine:
    return build_engine(
        _in_path(args.model, args.engine_dir, MODEL_NAME, "--model"),
        _in_path(args.index, args.engine_dir, INDEX_NAME, "--index"),
        _in_path(args.records, args.engine_dir, RECORDS_NAME, "--records"),
    )


def _add_engine_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine-dir", help="directory holding the pipeline artifacts")
    p.add_argument("--records", help="record store path")
    p.add_argument("--model", help="model file path")
    p.add_argument("--index", help="index file path")


# --- subcommand implementations --------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    out = _out_path(args, RECORDS_NAME)
    columns = [c.strip() for c in args.text_columns.split(",") if c.strip()]
    records = load_csv(args.csv, columns, id_column=args.id_column)
    digest = save_records(records, out)
    if args.engine_dir:
        update_manifest(
            args.engine_dir,
            {
                "corpus_hash": digest.hex(),
                "text_columns": records.text_columns,
            },
        )
    print(
        f"ingested {args.csv}: kept {records.kept} rows, "
        f"dropped {records.dropped} with missing values -> {out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    out = _out_path(args, MODEL_NAME)
    records_path = _in_path(
        args.records, args.engine_dir, RECORDS_NAME, "--records"
    )
    records = load_records(records_path)
    config = TrainConfig(
        dim=args.dim,
        window=args.window,
        min_count=args.min_count,
        negatives=args.negatives,
        epochs=args.epochs,
        initial_lr=args.lr,
        subsample_t=args.subsample_t,
        seed=_resolve_seed(args.seed),
    )
    vocab = build_vocab(iter_cell_tokens(records), min_count=config.min_count)
    stream = encode_sentences(records, vocab)
    model = train(stream, vocab, config, corpus_hash=records.corpus_hash)
    save_model(model, out)
    if args.engine_dir:
        update_manifest(
            args.engine_dir,
            {"dim": config.dim, "train_seed": config.seed},
        )
    losses = ", ".join(f"{x:.4f}" for x in model.epoch_losses) or "none"
    print(
        f"trained {vocab.size} tokens x {config.dim} dims over "
        f"{stream.total_tokens} corpus tokens -> {out}\n"
        f"epoch mean losses: {losses}"
    )
    return 0


def cmd_build_index(args: argparse.Namespace) -> int:
    out = _out_path(args, INDEX_NAME)
    records = load_records(
        _in_path(args.records, args.engine_dir, RECORDS_NAME, "--records")
    )
    model = load_model(
        _in_path(args.model, args.engine_dir, MODEL_NAME, "--model")
    )
    config = IndexConfig(
        n_trees=args.trees,
        leaf_capacity=args.leaf_capacity,
        seed=_resolve_seed(args.seed),
    )
    index, skipped = index_records(model, records, config)
    save_index(index, out)
    if args.engine_dir:
        update_manifest(args.engine_dir, {"n_trees": config.n_trees})
    note = f" ({skipped} cells had no vocabulary tokens)" if skipped else ""
    print(
        f"indexed {index.size} text cells across {config.n_trees} trees"
        f"{note} -> {out}"
    )
    return 0


def _print_results(results, dropped, as_json: bool, query_text: str) -> None:
    if dropped:
        print(
            "note: ignored out-of-vocabulary tokens: " + ", ".join(dropped),
            file=sys.stderr,
        )
    if as_json:
        print(
            json.dumps(
                {"query": query_text, "dropped": dropped,
                 "results": [r.to_dict() for r in results]},
                sort_keys=True,
            )
        )
        return
    if not results:
        print("no results")
        return
    for r in results:
        meta = " ".join(f"{k}={v}" for k, v in r.record.metadata)
        tail = f"  [{meta}]" if meta else ""
        print(f"{r.rank:>3}  {r.distance:.6f}  row {r.row_id:<6} "
              f"{r.column}: {r.text}{tail}")


def cmd_query(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    results, dropped = engine.query(args.text, k=args.k, search_k=args.search_k)
    _print_results(results, dropped, args.json, args.text)
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    k = args.k
    search_k = args.search_k
    print(
        "semsearch repl. Type a query, :k N, :searchk N, or :quit.",
        file=sys.stderr,
    )
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split()
            if parts[0] in (":q", ":quit", ":exit"):
                break
            try:
                if parts[0] == ":k" and len(parts) == 2:
                    k = int(parts[1])
                elif parts[0] == ":searchk" and len(parts) == 2:
                    search_k = int(parts[1])
                else:
                    print(f"unknown directive: {line}", file=sys.stderr)
            except ValueError:
                print(f"bad directive argument: {line}", file=sys.stderr)
            continue
        try:
            results, dropped = engine.query(line, k=k, search_k=search_k)
        except UnresolvableQueryError as e:
            print(f"error: {e}", file=sys.stderr)
            continue
        _print_results(results, dropped, args.json, line)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    queries = [
        line.strip()
        for line in Path(args.queries).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if not queries:
        raise ConfigError(f"{args.queries}: no queries")
    oracle = ExactOracle.from_unit(engine.index.items)
    recs, precs, f1s = [], [], []
    skipped = 0
    for text in queries:
        try:
            vec, _ = embed_query(engine.model, text)
        except UnresolvableQueryError:
            skipped += 1
            continue
        exact_d = oracle.query(vec, args.k)[1]
        approx_d = engine.index.query_vector(vec, args.k, args.search_k)[1]
        # a hit ties or beats the exact k-th distance (computed bit-identically)
        hits = int(np.count_nonzero(approx_d <= exact_d[-1]))
        p, r = hits / len(approx_d), hits / len(exact_d)
        precs.append(p)
        recs.append(r)
        f1s.append(2.0 * p * r / (p + r) if hits else 0.0)
    if not recs:
        raise ConfigError("no evaluable queries (all were out of vocabulary)")
    note = f" ({skipped} queries skipped as out of vocabulary)" if skipped else ""
    print(
        f"evaluated {len(recs)} queries at k={args.k}"
        f"{'' if args.search_k is None else f', search_k={args.search_k}'}{note}\n"
        f"precision {np.mean(precs):.4f}  recall {np.mean(recs):.4f}  "
        f"f1 {np.mean(f1s):.4f}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    index = load_index(
        _in_path(args.index, args.engine_dir, INDEX_NAME, "--index")
    )
    oracle = ExactOracle.from_unit(index.items)
    queries = gaussian_vectors(
        _resolve_seed(args.seed), args.n_queries, index.dim
    )
    search_ks: list[int | None] = [None]
    if args.search_k:
        search_ks += [int(s) for s in args.search_k.split(",")]
    else:
        search_ks += [index.default_search_k(args.k)]
    rows = bench(index, oracle, queries, args.k, search_ks,
                 warmup=args.warmup, reps=args.reps)
    print(f"{'setting':>16}  {'mean_us':>10}  {'p50_us':>10}  "
          f"{'p95_us':>10}  {'p99_us':>10}  {'recall':>7}")
    for row in rows:
        print(f"{row.label:>16}  {row.mean_us:>10.1f}  {row.p50_us:>10.1f}  "
              f"{row.p95_us:>10.1f}  {row.p99_us:>10.1f}  {row.recall:>7.4f}")
    return 0


def cmd_gen_data(args: argparse.Namespace) -> int:
    gen_synthetic(
        args.out, args.rows, n_clusters=args.clusters, seed=_resolve_seed(args.seed)
    )
    print(f"wrote {args.rows} synthetic rows ({args.clusters} clusters) -> {args.out}")
    return 0


# --- parser wiring ----------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="semsearch", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="clean a CSV into a record store")
    p.add_argument("csv", help="input CSV file with a header row")
    p.add_argument(
        "--text-columns", required=True,
        help="comma-separated columns to index as text",
    )
    p.add_argument("--id-column", help="column to report as the record id")
    p.add_argument("--out", help="record store output path")
    p.add_argument("--engine-dir", help="write into an engine directory instead")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train word embeddings from a record store")
    p.add_argument("--records", help="record store path")
    p.add_argument("--engine-dir", help="engine directory to read and write")
    p.add_argument("--out", help="model output path")
    p.add_argument("--dim", type=int, default=100, help="embedding size")
    p.add_argument("--window", type=int, default=5, help="max context window")
    p.add_argument("--min-count", type=int, default=1, help="vocabulary floor")
    p.add_argument("--negatives", type=int, default=5,
                   help="negative samples per pair")
    p.add_argument("--epochs", type=int, default=5, help="training passes")
    p.add_argument("--lr", type=float, default=0.025, help="initial learning rate")
    p.add_argument("--subsample-t", type=float, default=0.0,
                   help="frequent-token subsampling threshold (0 disables)")
    p.add_argument("--seed", type=int, help="random seed (or SEMSEARCH_SEED)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("build-index", help="build the ANN index for a model")
    p.add_argument("--records", help="record store path")
    p.add_argument("--model", help="model file path")
    p.add_argument("--engine-dir", help="engine directory to read and write")
    p.add_argument("--out", help="index output path")
    p.add_argument("--trees", type=int, default=10, help="trees in the forest")
    p.add_argument("--leaf-capacity", type=int, default=16,
                   help="max items per leaf")
    p.add_argument("--seed", type=int, help="random seed (or SEMSEARCH_SEED)")
    p.set_defaults(fn=cmd_build_index)

    p = sub.add_parser("query", help="answer one free-text query")
    _add_engine_inputs(p)
    p.add_argument("text", help="query text")
    p.add_argument("-k", type=int, default=10, help="results to return")
    p.add_argument("--search-k", type=int, help="distinct candidates to examine")
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("repl", help="interactive query loop on stdin")
    _add_engine_inputs(p)
    p.add_argument("-k", type=int, default=10, help="results per query")
    p.add_argument("--search-k", type=int, help="distinct candidates to examine")
    p.add_argument("--json", action="store_true", help="emit JSON documents")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("eval", help="score ANN answers against the exact oracle")
    _add_engine_inputs(p)
    p.add_argument("--queries", required=True,
                   help="text file with one query per line")
    p.add_argument("-k", type=int, default=10, help="depth of both rankings")
    p.add_argument("--search-k", type=int, help="distinct candidates to examine")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="measure query latency and recall")
    p.add_argument("--index", help="index file path")
    p.add_argument("--engine-dir", help="engine directory holding the index")
    p.add_argument("-k", type=int, default=10, help="results per query")
    p.add_argument("--search-k",
                   help="comma-separated search_k settings (default n_trees*k)")
    p.add_argument("--n-queries", type=int, default=50,
                   help="random query vectors to draw")
    p.add_argument("--warmup", type=int, default=3, help="untimed runs per query")
    p.add_argument("--reps", type=int, default=10, help="timed runs per query")
    p.add_argument("--seed", type=int, help="query seed (or SEMSEARCH_SEED)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen-data", help="write a synthetic clustered CSV corpus")
    p.add_argument("out", help="CSV output path")
    p.add_argument("--rows", type=int, required=True, help="data rows to write")
    p.add_argument("--clusters", type=int, default=8, help="cluster count")
    p.add_argument("--seed", type=int, help="random seed (or SEMSEARCH_SEED)")
    p.set_defaults(fn=cmd_gen_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except (SemSearchError, FileNotFoundError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

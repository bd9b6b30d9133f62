"""CLI behavior: exit codes, pipeline wiring, output formats."""

import hashlib
import json
import re
import resource
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semsearch import rng
from semsearch.ann import load_index, save_index
from semsearch.cli import main
from semsearch.corpus import _header_digest
from semsearch.embeddings import load_model, save_model
from semsearch.errors import TruncatedFileError
from semsearch.evaluate import ExactOracle, gaussian_vectors, recall_at_k, tied_hits
from semsearch.search import build_engine, embed_query

from conftest import STUDENTS_CSV, child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def engine_dir(tmp_path_factory):
    """A small engine built through the real CLI commands."""
    d = tmp_path_factory.mktemp("engine")
    assert main(["ingest", str(STUDENTS_CSV),
                 "--text-columns", "student_name,center_name,state",
                 "--id-column", "id", "--engine-dir", str(d)]) == 0
    assert main(["train", "--engine-dir", str(d), "--dim", "16",
                 "--epochs", "1", "--window", "3", "--negatives", "2",
                 "--seed", "5"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "4",
                 "--seed", "5"]) == 0
    return d


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "semsearch" in capsys.readouterr().out


def test_bad_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query"])  # missing required positional
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "text" in err or "usage" in err


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_query_without_engine_is_error(capsys):
    code, _, err = run(capsys, "query", "anything")
    assert code == 1
    assert "--engine-dir" in err


def test_ingest_requires_out_or_engine_dir(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "state")
    assert code == 1 and "--out" in err
    code, _, err = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "state",
                       "--out", str(tmp_path / "r"), "--engine-dir",
                       str(tmp_path))
    assert code == 1 and "mutually exclusive" in err


def test_ingest_reports_counts(capsys, tmp_path):
    code, out, _ = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "center_name,state",
                       "--out", str(tmp_path / "r.ndjson"))
    assert code == 0
    assert "kept 97" in out and "dropped 3" in out


def test_ingest_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", str(tmp_path / "absent.csv"),
                       "--text-columns", "a", "--out", str(tmp_path / "r"))
    assert code == 1
    assert "error" in err
    # a failed ingest leaves no engine directory behind
    code, _, _ = run(capsys, "ingest", str(tmp_path / "absent.csv"),
                     "--text-columns", "a", "--engine-dir", str(tmp_path / "e"))
    assert code == 1 and not (tmp_path / "e").exists()


def test_ingest_unknown_column_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "nope", "--out", str(tmp_path / "r"))
    assert code == 1
    assert "nope" in err


def test_ingest_repeated_text_column_exits_one(capsys, tmp_path):
    out = tmp_path / "r.ndjson"
    code, _, err = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "center_name,center_name", "--out", str(out))
    assert code == 1
    assert "'center_name' is named twice" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["query", "--engine-dir", "{f}", "x"],
    ["ingest", str(STUDENTS_CSV), "--text-columns", "state", "--engine-dir", "{f}"],
])
def test_engine_dir_naming_a_file_exits_one(capsys, tmp_path, argv):
    f = tmp_path / "afile"
    f.write_text("not a directory\n")
    code, _, err = run(capsys, *[a.format(f=f) for a in argv])
    assert code == 1
    assert err.startswith("error: ") and str(f) in err


def test_readme_quick_start_digests(capsys, tmp_path):
    """The README quick start's build commands, run in process, write the
    sha256 prefixes and train the pair count that the README states."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n\n```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line.replace("/tmp", str(tmp_path)))[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("semsearch ")]
    build = [argv for argv in commands
             if argv[0] in ("gen-data", "ingest", "train", "build-index")]
    assert [argv[0] for argv in build] == ["gen-data", "ingest", "train", "build-index"]
    outs = []
    for argv in build:
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        outs.append(out)
    pairs = int(re.search(r"pairs trained: (\d+)", outs[2]).group(1))
    assert re.search(r"`train` reports ([\d,]+)\s+pairs", text).group(1) == f"{pairs:,}"
    stated = re.findall(r"`(records\.ndjson|model\.bin|index\.ann)`\s+`([0-9a-f]+)…`", text)
    assert [name for name, _ in stated] == ["records.ndjson", "model.bin", "index.ann"]
    for name, prefix in stated:
        digest = hashlib.sha256((tmp_path / "engine" / name).read_bytes()).hexdigest()
        assert digest.startswith(prefix), name


def test_query_plain_and_json(capsys, engine_dir):
    code, out, _ = run(capsys, "query", "--engine-dir", str(engine_dir),
                       "cedar park academy", "-k", "3")
    assert code == 0
    assert out.splitlines()[0].lstrip().startswith("1")

    code, out, _ = run(capsys, "query", "--engine-dir", str(engine_dir),
                       "cedar park academy", "-k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["query"] == "cedar park academy"
    assert len(doc["results"]) == 3
    assert doc["results"][0]["rank"] == 1


def test_query_oov_tokens_warn_but_answer(capsys, engine_dir):
    code, out, err = run(capsys, "query", "--engine-dir", str(engine_dir),
                         "cedar zzzqqq", "-k", "1")
    assert code == 0
    assert "zzzqqq" in err
    assert out.strip()


def test_query_unresolvable_exits_one(capsys, engine_dir):
    code, _, err = run(capsys, "query", "--engine-dir", str(engine_dir),
                       "zzzqqq")
    assert code == 1
    assert "zzzqqq" in err


def test_query_search_k_flag(capsys, engine_dir):
    code, out, _ = run(capsys, "query", "--engine-dir", str(engine_dir),
                       "vermont", "-k", "2", "--search-k", "291", "--json")
    assert code == 0
    assert json.loads(out)["results"][0]["distance"] <= 1e-5


def test_repl_directives_and_queries(capsys, engine_dir, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(
        sys, "stdin",
        io.StringIO(":k 2\nvermont\n:searchk 50\n:bogus\ncedar\n:quit\n"),
    )
    code, out, err = run(capsys, "repl", "--engine-dir", str(engine_dir))
    assert code == 0
    assert "unknown directive" in err
    # two queries answered, two results each
    assert sum(1 for line in out.splitlines() if line.lstrip().startswith("1 ")) == 2


def test_eval_command(capsys, engine_dir, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("cedar park\nvermont\nzzzqqq\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--engine-dir", str(engine_dir),
                       "--queries", str(queries), "-k", "5")
    assert code == 0
    assert "evaluated 2 queries" in out
    assert "recall" in out and "precision" in out


def test_eval_empty_queries_exits_one(capsys, engine_dir, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--engine-dir", str(engine_dir),
                       "--queries", str(queries))
    assert code == 1
    assert "no queries" in err


def test_bench_command(capsys, engine_dir):
    code, out, _ = run(capsys, "bench", "--engine-dir", str(engine_dir),
                       "-k", "3", "--n-queries", "4", "--reps", "2",
                       "--warmup", "1", "--seed", "8")
    assert code == 0
    lines = out.splitlines()
    assert "mean_us" in lines[0]
    assert any("exact" in line for line in lines[1:])
    assert any("search_k=" in line for line in lines[1:])


def test_gen_data_seed(capsys, tmp_path, monkeypatch):
    """``--seed`` is the only seed source, and it defaults to 0."""
    paths = [tmp_path / f"{name}.csv" for name in ("a", "b", "c")]
    # an environment variable of the name an older release read changes nothing
    monkeypatch.setenv("SEMSEARCH_SEED", "33")
    for path, seed in zip(paths, ([], ["--seed", "0"], ["--seed", "33"])):
        assert run(capsys, "gen-data", str(path), "--rows", "40", *seed)[0] == 0
    a, b, c = (path.read_bytes() for path in paths)
    assert a == b != c


def test_unexpected_error_exits_two(capsys, monkeypatch):
    import semsearch.cli as cli

    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_gen_data", boom)
    code = cli.main(["gen-data", "/tmp/never.csv", "--rows", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" in err and "wires crossed" in err


def _restamped(header_line, corpus_hash):
    """A store header line with ``corpus_hash`` and its header digest
    recomputed, as a store rewritten whole would have them."""
    header = {**json.loads(header_line), "corpus_hash": corpus_hash}
    header["header_digest"] = _header_digest(header)
    return json.dumps(header)


def test_corrupt_store_exits_one(capsys, tmp_path):
    bad = tmp_path / "records.ndjson"
    assert run(capsys, "ingest", str(STUDENTS_CSV), "--text-columns", "state",
               "--out", str(bad))[0] == 0
    lines = bad.read_text(encoding="utf-8").splitlines()
    cases = [
        ("not json\n", "bad header line"),
        ("\n".join(lines[:5] + [lines[5][:-3]]) + "\n", "line 6"),
    ]
    # the content hash covers only the record lines, not the header's fields
    for field, value in [
        ("columns", 5), ("columns", ["id", 7]), ("text_columns", "state"),
        ("id_column", 3), ("kept", "100"), ("kept", -1), ("kept", True),
        ("dropped", None), ("corpus_hash", 7),
    ]:
        header = {**json.loads(lines[0]), field: value}
        cases.append(("\n".join([json.dumps(header), *lines[1:]]) + "\n",
                      f"line 1: header field {field!r}"))

    # the hash vouches for record lines, not for the types of their values
    def restamped(lineno, field, value):
        body = lines[1:]
        obj = json.loads(body[lineno - 2])
        obj[field] = value
        body[lineno - 2] = json.dumps(obj, separators=(",", ":"))
        digest = hashlib.sha256("".join(b + "\n" for b in body).encode()).hexdigest()
        return "\n".join([_restamped(lines[0], digest), *body]) + "\n"

    meta = json.loads(lines[2])["meta"]
    # byte 0xff inside line 4, as it is and with the hash recomputed
    raw = [line.encode() for line in lines]
    raw[3] = raw[3].replace(b'"text":["', b'"text":["\xff', 1)
    body = b"".join(line + b"\n" for line in raw[1:])
    header = _restamped(lines[0], hashlib.sha256(body).hexdigest())
    for head in (raw[0], header.encode()):
        cases.append((head + b"\n" + body,
                      "line 4: bad record (UnicodeDecodeError: 'utf-8' codec"))
    for lineno, field, value, why in [
        (2, "text", [5], "TypeError: sequence item 0"),
        (3, "meta", [None, *meta[1:]], "TypeError: sequence item 1"),
        (2, "text", "v", "TypeError: text and meta must be lists"),
        (4, "meta", {"a": "b"}, "TypeError: text and meta must be lists"),
        (2, "row_id", "0", "ValueError: row_id '0'"),
        (3, "row_id", True, "ValueError: row_id True"),
        (2, "row_id", 0.0, "ValueError: row_id 0.0"),
        (5, "row_id", 7, "ValueError: row_id 7 is not the record's position 3"),
    ]:
        cases.append((restamped(lineno, field, value),
                      f"line {lineno}: bad record ({why}"))
    for text, named in cases:
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, _, err = run(capsys, "train", "--records", str(bad),
                           "--out", str(tmp_path / "m.bin"), "--epochs", "0")
        assert code == 1
        assert "error" in err and "internal error" not in err
        assert named in err


@pytest.mark.parametrize("old, new", [
    (b'"grade"]', b'"grads"]'),
    (b'"id_column":"id"', b'"id_column":"grade"'),
], ids=["column-renamed", "id-column-moved"])
def test_store_header_edit_exits_one(capsys, engine_dir, tmp_path, old, new):
    """A header edit that keeps the header well formed, such as a renamed
    column, fails the header digest: exit 1, never an answer under the
    wrong names."""
    header, body = (engine_dir / "records.ndjson").read_bytes().split(b"\n", 1)
    assert header.count(old) == 1
    bad = tmp_path / "records.ndjson"
    bad.write_bytes(header.replace(old, new) + b"\n" + body)
    code, out, err = run(capsys, "query", "--records", str(bad),
                         "--model", str(engine_dir / "model.bin"),
                         "--index", str(engine_dir / "index.ann"), "vermont")
    assert code == 1 and out == ""
    assert "line 1: header digest mismatch" in err and "internal error" not in err


def test_build_index_rejects_model_of_other_records(capsys, engine_dir, tmp_path):
    other = tmp_path / "other.ndjson"
    assert run(capsys, "ingest", str(STUDENTS_CSV), "--text-columns",
               "student_name,state", "--out", str(other))[0] == 0
    code, _, err = run(capsys, "build-index", "--records", str(other),
                       "--model", str(engine_dir / "model.bin"),
                       "--out", str(tmp_path / "i.ann"))
    assert code == 1
    assert "different corpus" in err
    assert not (tmp_path / "i.ann").exists()


def test_eval_counts_tied_hits(capsys, tmp_path):
    """Hits that tie the exact k-th distance count, whatever their ids."""
    rows = [f"{i},{'alpha beta' if i % 3 else f'gamma{i} delta{i}'}"
            for i in range(60)]
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("id,name\n" + "\n".join(rows) + "\n", encoding="utf-8")
    d = tmp_path / "engine"
    assert main(["ingest", str(csv_path), "--text-columns", "name",
                 "--id-column", "id", "--engine-dir", str(d)]) == 0
    assert main(["train", "--engine-dir", str(d), "--dim", "8",
                 "--epochs", "0", "--seed", "1"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "2",
                 "--leaf-capacity", "4", "--seed", "0"]) == 0
    engine = build_engine(d / "model.bin", d / "index.ann", d / "records.ndjson")
    vec, _ = embed_query(engine.model, "alpha beta")
    exact_ids, exact_d = ExactOracle.from_unit(engine.index.items).query(vec, 5)
    ids, dists = engine.index.query_vector(vec, 5, search_k=8)
    assert recall_at_k(ids, exact_ids) < 1.0
    assert np.all(dists <= exact_d[-1])
    queries = tmp_path / "q.txt"
    queries.write_text("alpha beta\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--engine-dir", str(d), "--queries",
                       str(queries), "-k", "5", "--search-k", "8")
    assert code == 0
    assert "precision 1.0000  recall 1.0000  f1 1.0000" in out


def test_bench_recall_counts_tied_hits(capsys, tmp_path):
    """bench scores recall by the same tie-aware rule as eval."""
    rows = [f"{i},{'alpha beta' if i % 3 else f'gamma{i} delta{i}'}"
            for i in range(60)]
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("id,name\n" + "\n".join(rows) + "\n", encoding="utf-8")
    d = tmp_path / "engine"
    assert main(["ingest", str(csv_path), "--text-columns", "name",
                 "--id-column", "id", "--engine-dir", str(d)]) == 0
    assert main(["train", "--engine-dir", str(d), "--dim", "8",
                 "--epochs", "0", "--seed", "1"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "2",
                 "--leaf-capacity", "4", "--seed", "0"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "bench", "--engine-dir", str(d), "-k", "5",
                       "--search-k", "8", "--n-queries", "20", "--seed", "3",
                       "--reps", "1", "--warmup", "0")
    assert code == 0
    recall = {line.split()[0]: float(line.split()[-1]) for line in out.splitlines()[1:]}
    # the same 20 queries, scored tie-aware and by id
    index = build_engine(d / "model.bin", d / "index.ann", d / "records.ndjson").index
    oracle = ExactOracle.from_unit(index.items)
    tied, by_id = [], []
    for q in gaussian_vectors(3, 20, index.dim):
        ids, dists = index.query_vector(q, 5, search_k=8)
        exact_ids, exact_dists = oracle.query(q, 5)
        tied.append(tied_hits(dists, exact_dists) / 5)
        by_id.append(recall_at_k(ids, exact_ids))
    assert recall == {"exact": 1.0, "search_k=8": round(float(np.mean(tied)), 4)}
    # the walk misses some ties, and scoring by id would miss more
    assert np.mean(by_id) < np.mean(tied) < 1.0
    assert np.mean(tied) == pytest.approx(0.66)
    assert np.mean(by_id) == pytest.approx(0.58)


def test_train_reports_throughput(capsys, tmp_path):
    d = tmp_path / "engine"
    assert main(["ingest", str(STUDENTS_CSV), "--text-columns", "center_name",
                 "--engine-dir", str(d)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "train", "--engine-dir", str(d), "--dim", "8",
                       "--epochs", "2", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(r"epoch mean losses: \d+\.\d{4}, \d+\.\d{4}", lines[1])
    m = re.fullmatch(r"pairs trained: (\d+) in [\d.]+ s \((\d+) pairs/s\), "
                     r"final lr ([\d.e-]+)", lines[2])
    assert m and int(m.group(1)) > 0 and int(m.group(2)) > 0
    assert 0 < float(m.group(3)) < 0.025


@pytest.mark.parametrize("texts, coins", [
    ([f"tok{i}" for i in range(100)], "zero"),
    (["same words here"] * 100, "some"),
], ids=["distinct", "identical"])
def test_build_index_reports_stages(capsys, tmp_path, texts, coins):
    """build-index says where its time went and how many splits fell back
    to coin flips: none over distinct random vectors, some over 100
    identical rows."""
    csv_path = tmp_path / "c.csv"
    rows = "".join(f"{i},{t}\n" for i, t in enumerate(texts))
    csv_path.write_text("id,name\n" + rows, encoding="utf-8")
    d = tmp_path / "engine"
    assert main(["ingest", str(csv_path), "--text-columns", "name",
                 "--engine-dir", str(d)]) == 0
    assert main(["train", "--engine-dir", str(d), "--dim", "8",
                 "--epochs", "0", "--seed", "1"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "build-index", "--engine-dir", str(d), "--trees", "3",
                       "--leaf-capacity", "4", "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"indexed 100 text cells across 3 trees -> {d / 'index.ann'}"
    m = re.fullmatch(r"cell vectors (\d+\.\d{3}) s, forest (\d+\.\d{3}) s: "
                     r"(\d+) splits, (\d+) by coin flips", lines[1])
    assert m, lines[1]
    index = load_index(d / "index.ann")
    assert int(m.group(3)) == sum(t.n_splits for t in index.trees) > 0
    assert (int(m.group(4)) == 0) == (coins == "zero")


def test_ingest_serializes_each_record_once(capsys, tmp_path, monkeypatch):
    """``load_csv`` formats each kept row's line once, and ``save_records``
    writes those bytes without formatting any record again."""
    import semsearch.corpus
    from semsearch.corpus import _record_line, load_csv, load_records, records_digest

    line = semsearch.corpus._store_line
    calls = []

    def counting(row_id, text, meta):
        calls.append(row_id)
        return line(row_id, text, meta)

    monkeypatch.setattr(semsearch.corpus, "_store_line", counting)
    p = tmp_path / "records.ndjson"
    assert main(["ingest", str(STUDENTS_CSV), "--text-columns", "center_name,state",
                 "--id-column", "id", "--out", str(p)]) == 0
    stored = load_records(p)
    assert calls == list(range(stored.kept)) and stored.kept > 0
    monkeypatch.setattr(semsearch.corpus, "_store_line", line)
    records = load_csv(STUDENTS_CSV, ["center_name", "state"], id_column="id")
    assert stored.corpus_hash == records_digest(records.records) == records.corpus_hash
    body = p.read_bytes().split(b"\n", 1)[1]
    assert body == "".join(_record_line(r) + "\n" for r in records).encode("utf-8")


def test_engine_opens_without_rehashing(capsys, tmp_path, monkeypatch):
    """A store's verified header hash is the corpus hash: no record is
    serialized again to train on it or to open an engine over it."""
    import semsearch.corpus

    d = tmp_path / "engine"
    assert main(["ingest", str(STUDENTS_CSV), "--text-columns",
                 "center_name,state", "--engine-dir", str(d)]) == 0

    def refuse(*line):
        raise AssertionError("record serialized again")

    monkeypatch.setattr(semsearch.corpus, "_store_line", refuse)
    assert main(["train", "--engine-dir", str(d), "--dim", "8",
                 "--epochs", "1", "--seed", "2"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "2",
                 "--seed", "2"]) == 0
    assert main(["query", "--engine-dir", str(d), "vermont"]) == 0
    engine = build_engine(d / "model.bin", d / "index.ann", d / "records.ndjson")
    assert engine.query("vermont", k=1)[0]


def test_call_by_call_build_writes_the_cli_files(capsys, tmp_path):
    """The build through the library calls perfbench's traced replay
    makes, one by one, writes the three files ``ingest``, ``train`` and
    ``build-index`` write, byte for byte."""
    import semsearch as sem
    from semsearch.corpus import iter_cell_tokens, records_digest
    from semsearch.search import cell_vectors

    csv_path, cli, d = tmp_path / "c.csv", tmp_path / "cli", tmp_path / "calls"
    assert main(["gen-data", str(csv_path), "--rows", "300", "--clusters", "3",
                 "--seed", "4"]) == 0
    assert main(["ingest", str(csv_path), "--text-columns", "center_name,state",
                 "--id-column", "id", "--engine-dir", str(cli)]) == 0
    assert main(["train", "--engine-dir", str(cli), "--dim", "16", "--epochs", "2",
                 "--seed", "9"]) == 0
    assert main(["build-index", "--engine-dir", str(cli), "--trees", "3",
                 "--seed", "9"]) == 0
    d.mkdir()
    names = ("records.ndjson", "model.bin", "index.ann")
    records_p, model_p, index_p = (d / name for name in names)
    records = sem.load_csv(csv_path, ["center_name", "state"], id_column="id")
    sem.save_records(records, records_p)
    records = sem.load_records(records_p)
    config = sem.TrainConfig(dim=16, epochs=2, seed=9)
    vocab = sem.build_vocab(iter_cell_tokens(records), min_count=config.min_count)
    stream = sem.encode_sentences(records, vocab)
    model = sem.train(stream, vocab, config, corpus_hash=records_digest(records))
    sem.save_model(model, model_p)
    records = sem.load_records(records_p)
    model = sem.load_model(model_p)
    matrix, item_map, _ = cell_vectors(model, records)
    assert matrix.dtype == np.float32
    built = sem.build_index(matrix, sem.IndexConfig(n_trees=3, seed=9),
                            corpus_hash=model.corpus_hash, item_map=item_map)
    sem.save_index(built, index_p)
    for name in names:
        assert (d / name).read_bytes() == (cli / name).read_bytes(), name


def _twin_items(index):
    """Two distinct items with identical rows: cells with the same text."""
    _, first, counts = np.unique(index.items, axis=0, return_index=True,
                                 return_counts=True)
    a = int(first[np.flatnonzero(counts > 1)[0]])
    b = int(np.flatnonzero(np.all(index.items == index.items[a], axis=1))[1])
    return a, b


def _own_rows(index):
    """The index's item matrix, made its rows with no row map, so that a
    change to one item's row reaches that item alone in the saved file."""
    index.rows, index.row_map = index.items, None
    return index.rows


@pytest.mark.parametrize("damage, named", [
    (lambda ix: ix.trees[0].children.fill(0), "tree 0: split 0 has child split 0"),
    (lambda ix: ix.trees[2].leaf_items.__setitem__(7, ix.size + 3),
     "tree 2: leaf item"),
    (lambda ix: ix.trees[1].leaf_items.__setitem__(7, ix.trees[1].leaf_items[8]),
     "tree 1: leaf items are not a permutation"),
    (lambda ix: ix.trees[3].leaf_bounds.__setitem__(2, ix.size),
     "tree 3: leaf 2 ends before it starts"),
    (lambda ix: _own_rows(ix).__setitem__((5, 3), np.nan), "item row 5"),
    (lambda ix: _own_rows(ix).__setitem__(11, ix.items[11] * np.float32(1.001)),
     "item row 11"),
    (lambda ix: ix.item_map.col_ids.__setitem__(9, 3), "item row 9 names column 3"),
    (lambda ix: ix.item_map.row_ids.__setitem__(9, ix.item_map.row_ids[9] ^ 1),
     "item row 9 names cell"),
    (lambda ix: ix.trees[1].pairs.__setitem__((4, 1), ix.size + 2),
     "tree 1: split 4 is the bisector of item"),
    (lambda ix: ix.trees[0].pairs.__setitem__(0, _twin_items(ix)), "which coincide"),
    (lambda ix: setattr(ix.item_map, "model_digest", hashlib.sha256(b"other").digest()),
     "index was built from a different model (digest "
     + hashlib.sha256(b"other").hexdigest()[:12]),
], ids=["zeroed-children", "leaf-item-out-of-range", "leaf-item-twice",
        "leaf-bounds-decrease", "nan-row", "non-unit-row", "column-out-of-range",
        "row-id-out-of-order",
        "pair-out-of-range", "pair-coincides", "model-digest-swapped"])
def test_corrupt_index_exits_one(engine_dir, tmp_path, damage, named):
    """A damaged index fails with a named error, at load or, for a tree, on
    the first walk: never a hang, never an internal error, never an answer."""
    index = load_index(engine_dir / "index.ann")
    damage(index)
    bad = tmp_path / "index.ann"
    save_index(index, bad)
    proc = subprocess.run(
        [sys.executable, "-m", "semsearch", "query", "--records",
         str(engine_dir / "records.ndjson"), "--model", str(engine_dir / "model.bin"),
         "--index", str(bad), "vermont", "--search-k", "5"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert "internal error" not in proc.stderr
    assert named in proc.stderr
    assert proc.stdout == ""


def test_empty_index_exits_one(capsys, engine_dir, tmp_path):
    """An empty index.ann, which ``mmap`` cannot map, is a truncated file:
    exit 1 by name, never an internal error."""
    empty = tmp_path / "index.ann"
    empty.write_bytes(b"")
    with pytest.raises(TruncatedFileError):
        load_index(empty)
    code, out, err = run(capsys, "query", "--records", str(engine_dir / "records.ndjson"),
                         "--model", str(engine_dir / "model.bin"),
                         "--index", str(empty), "vermont")
    assert code == 1 and out == ""
    assert "internal error" not in err
    assert f"{empty}: needed 4 bytes at offset 0, only 0 remain" in err


def _first_count(data):
    """Offset of the first token's count in a model.bin: the vocabulary
    starts at byte 86, after the magic, version, shape, corpus hash and
    config, and the count follows the token's length and bytes."""
    (tlen,) = struct.unpack_from("<I", data, 86)
    return 86 + 4 + tlen


def _set_top_bit(data, pos):
    data[pos] |= 0x80


@pytest.mark.parametrize("name, damage, named", [
    ("model.bin", lambda d: _set_top_bit(d, _first_count(d) + 7),
     "token 0 count 92233720368547"),
    # the vocabulary size, after the magic, the version and the dim
    ("model.bin", lambda d: d.__setitem__(slice(10, 14), b"\xff" * 4),
     "4294967295 tokens of dim 16 need at least"),
    # the split-try count and the metric code follow the magic, the
    # version, the shape and two config fields
    ("index.ann", lambda d: d.__setitem__(slice(22, 26), struct.pack("<I", 2)),
     "split-try count 2, not 3"),
    ("index.ann", lambda d: d.__setitem__(26, 1), "metric code 1, not 0 (angular)"),
], ids=["count-top-bit", "vocab-size-max", "split-tries-2", "metric-code-1"])
def test_damaged_header_exits_one(capsys, engine_dir, tmp_path, name, damage, named):
    """A header value the writer never stores fails by name: exit 1, never
    an internal error or an answer."""
    paths = {n: engine_dir / n for n in ("records.ndjson", "model.bin", "index.ann")}
    data = bytearray(paths[name].read_bytes())
    damage(data)
    paths[name] = tmp_path / name
    paths[name].write_bytes(bytes(data))
    code, out, err = run(capsys, "query", "--records", str(paths["records.ndjson"]),
                         "--model", str(paths["model.bin"]),
                         "--index", str(paths["index.ann"]), "vermont")
    assert code == 1 and out == ""
    assert "internal error" not in err
    assert named in err


@pytest.mark.parametrize("offset", [-1, 46], ids=["w_out-last-byte", "window"])
def test_changed_model_byte_exits_one(capsys, engine_dir, tmp_path, offset):
    """The index records the sha256 of model.bin, so a model that still
    loads but differs in one bit, here in the last byte of ``w_out`` or in
    the ``window`` at offset 46, is refused by name: exit 1, no answer."""
    data = bytearray((engine_dir / "model.bin").read_bytes())
    data[offset] ^= 1
    (tmp_path / "model.bin").write_bytes(bytes(data))
    load_model(tmp_path / "model.bin")
    code, out, err = run(capsys, "query", "--records", str(engine_dir / "records.ndjson"),
                         "--model", str(tmp_path / "model.bin"),
                         "--index", str(engine_dir / "index.ann"), "vermont")
    assert code == 1 and out == ""
    assert "internal error" not in err
    assert "index was built from a different model" in err


def test_eval_reports_route(capsys, engine_dir, tmp_path):
    queries = tmp_path / "q.txt"
    queries.write_text("cedar park\nvermont\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--engine-dir", str(engine_dir),
                       "--queries", str(queries), "-k", "5")
    assert code == 0
    assert out.splitlines()[0] == "evaluated 2 queries at k=5"
    assert out.splitlines()[2] == "answered by exact scan"
    assert "recall 1.0000" in out
    code, out, _ = run(capsys, "eval", "--engine-dir", str(engine_dir),
                       "--queries", str(queries), "-k", "5", "--search-k", "12")
    assert code == 0
    assert out.splitlines()[0] == "evaluated 2 queries at k=5, search_k=12"
    assert out.splitlines()[2] == "answered by forest walk at search_k=12"


@pytest.mark.parametrize("argv", [
    ["query", "vermont", "-k", "0", "--engine-dir", "e"],
    ["query", "vermont", "-k", "-3", "--engine-dir", "e"],
    ["query", "vermont", "--search-k", "0", "--engine-dir", "e"],
    ["repl", "-k", "0", "--engine-dir", "e"],
    ["repl", "--search-k", "-3", "--engine-dir", "e"],
    ["eval", "--queries", "q.txt", "-k", "0", "--engine-dir", "e"],
    ["eval", "--queries", "q.txt", "-k", "-3", "--engine-dir", "e"],
    ["eval", "--queries", "q.txt", "--search-k", "0", "--engine-dir", "e"],
    ["bench", "-k", "0", "--engine-dir", "e"],
    ["bench", "--search-k", "0", "--engine-dir", "e"],
    ["bench", "--search-k", "5,0", "--engine-dir", "e"],
    ["bench", "--search-k", "5,-3", "--engine-dir", "e"],
    ["bench", "--n-queries", "0", "--engine-dir", "e"],
    ["bench", "--reps", "0", "--engine-dir", "e"],
    ["gen-data", "x.csv", "--rows", "5", "--clusters", "0"],
    ["gen-data", "x.csv", "--rows", "0"],
    ["gen-data", "x.csv", "--rows", "-3"],
], ids=" ".join)
def test_nonpositive_count_is_usage_error(capsys, argv):
    """A count of 0 or less is bad usage: exit 1 with a usage line, before
    any file is read or written."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage:")
    assert "must be a positive integer" in captured.err
    assert captured.out == ""


def _csv_not_utf8(tmp_path, engine_dir):
    csv_path = tmp_path / "c.csv"
    csv_path.write_bytes(b"id,name\n1,alpha\n2,be\xfft\n3,gamma\n")
    out = tmp_path / "r.ndjson"
    return ["ingest", str(csv_path), "--text-columns", "name", "--out", str(out)], out


def _queries_not_utf8(tmp_path, engine_dir):
    queries = tmp_path / "q.txt"
    queries.write_bytes(b"vermont\ncedar \xff park\n")
    return ["eval", "--engine-dir", str(engine_dir), "--queries", str(queries)], None


def _diverging_train(tmp_path, engine_dir):
    out = tmp_path / "m.bin"
    return ["train", "--records", str(engine_dir / "records.ndjson"), "--out", str(out),
            "--dim", "8", "--epochs", "2", "--lr", "1e30"], out


def _non_finite_model(name, value):
    def build_index(tmp_path, engine_dir):
        # save_model refuses such a model, so the value is written in place:
        # the file ends with w_in, then w_out, each size x dim float32
        data = bytearray((engine_dir / "model.bin").read_bytes())
        dim, size = struct.unpack_from("<II", data, 6)
        matrix = len(data) - (2 if name == "w_in" else 1) * size * dim * 4
        struct.pack_into("<f", data, matrix + (3 * dim + 1) * 4, value)
        (tmp_path / "m.bin").write_bytes(bytes(data))
        out = tmp_path / "i.ann"
        return ["build-index", "--records", str(engine_dir / "records.ndjson"),
                "--model", str(tmp_path / "m.bin"), "--out", str(out)], out
    return build_index


def _nan_subsample_train(tmp_path, engine_dir):
    out = tmp_path / "m.bin"
    return ["train", "--records", str(engine_dir / "records.ndjson"), "--out", str(out),
            "--dim", "8", "--subsample-t", "nan"], out


def _renamed_text_column(tmp_path, engine_dir):
    # record lines hold no column names, so a store of the same cells under
    # a renamed header has the corpus hash the index was built from
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen-data", str(a), "--rows", "300", "--seed", "3"]) == 0
    head, body = a.read_text(encoding="utf-8").split("\n", 1)
    b.write_text(head.replace("center_name", "title") + "\n" + body, encoding="utf-8")
    e, store = tmp_path / "e1", tmp_path / "r2.ndjson"
    assert main(["ingest", str(a), "--text-columns", "center_name,state",
                 "--engine-dir", str(e)]) == 0
    assert main(["train", "--engine-dir", str(e), "--dim", "16", "--epochs", "1",
                 "--seed", "1"]) == 0
    assert main(["build-index", "--engine-dir", str(e), "--seed", "1"]) == 0
    assert main(["ingest", str(b), "--text-columns", "title,state",
                 "--out", str(store)]) == 0
    return ["query", "--records", str(store), "--model", str(e / "model.bin"),
            "--index", str(e / "index.ann"), "harbor3 quarry3"], None


@pytest.mark.parametrize("case, named", [
    (_csv_not_utf8, "c.csv: row 3: not UTF-8"),
    (_queries_not_utf8, "q.txt: not UTF-8 text"),
    (_diverging_train, "training diverged in epoch 1: mean loss nan"),
    (_nan_subsample_train, "subsample_t must be >= 0"),
    (_non_finite_model("w_in", np.nan), "m.bin: w_in holds a value that is not finite"),
    (_non_finite_model("w_out", -np.inf), "m.bin: w_out holds a value that is not finite"),
    (_renamed_text_column, "index was built over text columns ['center_name', 'state'], "
                           "the record store has ['title', 'state']"),
], ids=["csv-not-utf8", "queries-not-utf8", "train-diverges", "train-subsample-nan",
        "model-w_in-nan", "model-w_out-inf", "renamed-text-column"])
def test_bad_input_exits_one_named(capsys, engine_dir, tmp_path, case, named):
    """Input a command cannot use ends in exit 1 with a named error, never
    an internal error, and writes nothing."""
    argv, out = case(tmp_path, engine_dir)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert named in err and "internal error" not in err
    assert out is None or not out.exists()


@pytest.mark.parametrize("lr", ["5", "100"])
def test_diverging_train_prints_no_numpy_warning(engine_dir, tmp_path, lr):
    """A diverging `train` ends in its named error alone: numpy's overflow
    and invalid-value warnings on the way there stay off stderr."""
    out = tmp_path / "m.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "semsearch", "train", "--records",
         str(engine_dir / "records.ndjson"), "--out", str(out),
         "--dim", "8", "--epochs", "2", "--lr", lr],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 1
    assert "error: training diverged in epoch 1" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_repl_rejects_nonpositive_directives(capsys, engine_dir, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(":k 0\n:searchk 0\n:k -3\nvermont\n:quit\n"))
    code, out, err = run(capsys, "repl", "--engine-dir", str(engine_dir))
    assert code == 0
    assert err.count("bad directive argument") == 3
    assert "must be a positive integer, not '0'" in err
    # the loop goes on at the default k and search_k
    assert len(out.splitlines()) == 10


def _damaged_engine(engine_dir, d, lineno, damage):
    """A copy of ``engine_dir`` with record line ``lineno`` damaged, the
    store's hash recomputed and stamped into the model and the index too,
    and the re-saved model's digest into the index."""
    raw = (engine_dir / "records.ndjson").read_bytes().split(b"\n")[:-1]
    raw[lineno - 1] = damage(raw[lineno - 1])
    body = b"".join(line + b"\n" for line in raw[1:])
    digest = hashlib.sha256(body).digest()
    header = _restamped(raw[0], digest.hex())
    d.mkdir()
    (d / "records.ndjson").write_bytes(header.encode() + b"\n" + body)
    model = load_model(engine_dir / "model.bin")
    model.corpus_hash = digest
    save_model(model, d / "model.bin")
    index = load_index(engine_dir / "index.ann")
    index.corpus_hash = digest
    index.item_map.model_digest = model.digest
    save_index(index, d / "index.ann")
    return d


def test_query_parses_only_returned_lines(capsys, engine_dir, monkeypatch):
    import semsearch.corpus

    parsed = []
    parse = semsearch.corpus._parse_line

    def counting(raw, row, *rest):
        parsed.append(row)
        return parse(raw, row, *rest)

    monkeypatch.setattr(semsearch.corpus, "_parse_line", counting)
    engine = build_engine(engine_dir / "model.bin", engine_dir / "index.ann",
                          engine_dir / "records.ndjson")
    assert parsed == []
    results, _ = engine.query("cedar park academy", k=3)
    assert 1 <= len(parsed) <= 3
    assert sorted(parsed) == sorted({r.row_id for r in results})
    engine.query("cedar park academy", k=3)  # kept rows are not parsed again
    assert len(parsed) == len(set(parsed)) <= 3
    parsed.clear()
    assert run(capsys, "query", "--engine-dir", str(engine_dir), "vermont",
               "-k", "3")[0] == 0
    assert 1 <= len(parsed) <= 3


@pytest.mark.parametrize("damage, why", [
    (lambda line: line[:-5], "JSONDecodeError"),
    (lambda line: line.replace(b'"text":["', b'"text":[7,"', 1), "ValueError"),
    (lambda line: line.replace(b'"text":["', b'"text":["\xff', 1),
     "UnicodeDecodeError"),
], ids=["truncated-json", "extra-value", "bad-utf8"])
def test_damaged_line_fails_when_read(capsys, engine_dir, tmp_path, damage, why):
    """With the hash recomputed over a damaged line, queries that do not
    return it answer as before; one that returns it, and train, exit 1."""
    target_text = "cedar park academy"
    clean = run(capsys, "query", "--engine-dir", str(engine_dir), target_text,
                "-k", "1", "--json")
    target = json.loads(clean[1])["results"][0]["row_id"]
    other = run(capsys, "query", "--engine-dir", str(engine_dir), "vermont",
                "-k", "5", "--json")
    assert target not in {r["row_id"] for r in json.loads(other[1])["results"]}

    d = _damaged_engine(engine_dir, tmp_path / "damaged", target + 2, damage)
    assert run(capsys, "query", "--engine-dir", str(d), "vermont", "-k", "5",
               "--json") == other
    named = f"line {target + 2}: bad record ({why}"
    code, out, err = run(capsys, "query", "--engine-dir", str(d), target_text,
                         "-k", "1")
    assert code == 1 and out == ""
    assert named in err and "internal error" not in err
    code, _, err = run(capsys, "train", "--records", str(d / "records.ndjson"),
                       "--out", str(tmp_path / "m.bin"), "--epochs", "0")
    assert code == 1
    assert named in err and "internal error" not in err


def test_crlf_store_is_a_hash_mismatch(capsys, engine_dir, tmp_path):
    """The store is read as bytes: CRLF line ends change what is hashed."""
    crlf = tmp_path / "records.ndjson"
    crlf.write_bytes((engine_dir / "records.ndjson").read_bytes()
                     .replace(b"\n", b"\r\n"))
    for argv in (["train", "--records", str(crlf), "--out",
                  str(tmp_path / "m.bin"), "--epochs", "0"],
                 ["query", "--records", str(crlf), "--model",
                  str(engine_dir / "model.bin"), "--index",
                  str(engine_dir / "index.ann"), "vermont"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "content hash mismatch" in err


def test_index_of_retrained_model_exits_one(capsys, tmp_path):
    """An index built before the model was retrained is refused by name:
    exit 1, never an answer from the old vectors."""
    d = tmp_path / "engine"
    assert main(["ingest", str(STUDENTS_CSV), "--text-columns", "center_name,state",
                 "--engine-dir", str(d)]) == 0
    train = ["train", "--engine-dir", str(d), "--dim", "8", "--epochs", "1"]
    assert main(train + ["--seed", "1"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "2"]) == 0
    built_with = load_index(d / "index.ann").item_map.model_digest
    assert built_with == load_model(d / "model.bin").digest
    assert main(["query", "--engine-dir", str(d), "vermont"]) == 0
    assert main(train + ["--seed", "2"]) == 0
    retrained = load_model(d / "model.bin").digest
    capsys.readouterr()
    code, out, err = run(capsys, "query", "--engine-dir", str(d), "vermont")
    assert code == 1 and out == ""
    assert "internal error" not in err
    assert (f"index was built from a different model (digest {built_with.hex()[:12]}.. "
            f"!= {retrained.hex()[:12]}..)") in err


def test_build_commands_report_peak_rss(capsys, tmp_path):
    """ingest, train and build-index end their summary with the process's
    peak resident memory so far, as getrusage reports it."""
    d = tmp_path / "engine"
    for argv in (
        ["ingest", str(STUDENTS_CSV), "--text-columns", "center_name,state",
         "--engine-dir", str(d)],
        ["train", "--engine-dir", str(d), "--dim", "8", "--epochs", "1", "--seed", "2"],
        ["build-index", "--engine-dir", str(d), "--trees", "2", "--seed", "2"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        m = re.fullmatch(r"peak rss (\d+\.\d) MB", out.splitlines()[-1])
        assert m, out
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        assert 1.0 < float(m.group(1)) <= peak + 0.05


def _phrase_engine(tmp_path, rows):
    """An engine directory with a store and a 0-epoch model, dim 64, over
    ``rows`` phrases of 3 to 7 words drawn from 800."""
    sm = rng.SplitMix64(7)
    phrases = [" ".join(f"w{sm.next_below(800)}" for _ in range(3 + sm.next_below(5)))
               for _ in range(rows)]
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("id,phrase,tag\n" + "".join(
        f"{i},{p},t{i % 7}\n" for i, p in enumerate(phrases)), encoding="utf-8")
    d = tmp_path / "engine"
    assert main(["ingest", str(csv_path), "--text-columns", "phrase",
                 "--engine-dir", str(d)]) == 0
    assert main(["train", "--engine-dir", str(d), "--dim", "64", "--epochs", "0",
                 "--seed", "1"]) == 0
    return d


def test_build_index_memory_is_bounded(capsys, tmp_path):
    """build-index holds each cell vector once: the parsed records, the
    float64 cell matrix and the built trees' planes are not kept while the
    forest grows. Over 3,000 cells at dim 64 (0.77 MB of float32 items)
    the traced peak was 6.78 MB when all three were kept and 4.02 MB
    without them; the bound is 7 times the items."""
    d = _phrase_engine(tmp_path, 3000)
    tracemalloc.start()
    try:
        assert main(["build-index", "--engine-dir", str(d), "--trees", "10",
                     "--seed", "1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    items = load_index(d / "index.ann").items
    assert items.shape == (3000, 64)
    assert peak < 7 * items.nbytes


def test_train_reads_the_store_once(capsys, tmp_path, monkeypatch):
    """train parses each record line once and tokenizes each cell once."""
    import semsearch.corpus

    d = _phrase_engine(tmp_path, 300)
    tokenize, parse = semsearch.corpus.tokenize, semsearch.corpus._record
    tokenized, parsed = [], []

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    def counting_parse(obj, row, *rest):
        parsed.append(row)
        return parse(obj, row, *rest)

    monkeypatch.setattr(semsearch.corpus, "tokenize", counting_tokenize)
    monkeypatch.setattr(semsearch.corpus, "_record", counting_parse)
    assert main(["train", "--engine-dir", str(d), "--dim", "8", "--epochs", "1",
                 "--seed", "1"]) == 0
    assert parsed == list(range(300))
    assert len(tokenized) == 300

"""CLI behavior: exit codes, pipeline wiring, output formats."""

import json

import numpy as np
import pytest

from semsearch.cli import main
from semsearch.evaluate import ExactOracle, recall_at_k
from semsearch.search import build_engine, embed_query

from conftest import STUDENTS_CSV


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


def test_ingest_unknown_column_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", str(STUDENTS_CSV),
                       "--text-columns", "nope", "--out", str(tmp_path / "r"))
    assert code == 1
    assert "nope" in err


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


def test_gen_data_and_env_seed(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("SEMSEARCH_SEED", "33")
    assert run(capsys, "gen-data", str(a), "--rows", "40")[0] == 0
    monkeypatch.delenv("SEMSEARCH_SEED")
    assert run(capsys, "gen-data", str(b), "--rows", "40", "--seed", "33")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_env_seed_exits_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SEMSEARCH_SEED", "not-a-number")
    code, _, err = run(capsys, "gen-data", str(tmp_path / "x.csv"),
                       "--rows", "5")
    assert code == 1
    assert "SEMSEARCH_SEED" in err


def test_unexpected_error_exits_two(capsys, monkeypatch):
    import semsearch.cli as cli

    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_gen_data", boom)
    code = cli.main(["gen-data", "/tmp/never.csv", "--rows", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "internal error" in err and "wires crossed" in err


def test_corrupt_store_exits_one(capsys, tmp_path):
    bad = tmp_path / "records.ndjson"
    assert run(capsys, "ingest", str(STUDENTS_CSV), "--text-columns", "state",
               "--out", str(bad))[0] == 0
    lines = bad.read_text(encoding="utf-8").splitlines()
    truncated_line_6 = "\n".join(lines[:5] + [lines[5][:-3]]) + "\n"
    for text in ("not json\n", truncated_line_6):
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "train", "--records", str(bad),
                           "--out", str(tmp_path / "m.bin"), "--epochs", "0")
        assert code == 1
        assert "error" in err and "internal error" not in err
    assert "line 6" in err


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


def test_engine_opens_without_rehashing(capsys, tmp_path, monkeypatch):
    """A store's verified header hash is the corpus hash: no record is
    serialized again to train on it or to open an engine over it."""
    import semsearch.corpus

    d = tmp_path / "engine"
    assert main(["ingest", str(STUDENTS_CSV), "--text-columns",
                 "center_name,state", "--engine-dir", str(d)]) == 0

    def refuse(rec):
        raise AssertionError("record serialized again")

    monkeypatch.setattr(semsearch.corpus, "_record_line", refuse)
    assert main(["train", "--engine-dir", str(d), "--dim", "8",
                 "--epochs", "1", "--seed", "2"]) == 0
    assert main(["build-index", "--engine-dir", str(d), "--trees", "2",
                 "--seed", "2"]) == 0
    assert main(["query", "--engine-dir", str(d), "vermont"]) == 0
    engine = build_engine(d / "model.bin", d / "index.ann", d / "records.ndjson")
    assert engine.query("vermont", k=1)[0]

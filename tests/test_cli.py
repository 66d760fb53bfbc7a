import csv
import io
import json

import pytest

from conftest import naive_occurrences
from srindex import cli, toolkit


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.fixture
def corpus(tmp_path, capsys):
    path = tmp_path / "corp.txt"
    run(["gen-corpus", "-o", str(path), "--base-size", "2000",
         "--copies", "4", "--seed", "5"], capsys)
    return path


class TestGenCorpus:
    def test_writes_file(self, corpus):
        data = corpus.read_bytes()
        assert len(data) == 8000
        assert set(data) <= set(b"ACGT")


class TestBuildAndQuery:
    @pytest.mark.parametrize("kind", ["rlbwt", "r-index", "sr-index",
                                      "r-csa", "sr-csa"])
    def test_build_query_roundtrip(self, kind, corpus, tmp_path, capsys):
        idx = tmp_path / "ix.bin"
        rc, out, _ = run(["build", str(corpus), "-o", str(idx),
                          "--kind", kind, "--s", "4", "--B", "8"], capsys)
        assert rc == 0 and idx.exists()
        data = corpus.read_bytes()
        pats = [data[10:18], data[100:103], b"ZZZZ"]
        pfile = tmp_path / "pats.txt"
        pfile.write_bytes(b"\n".join(pats) + b"\n")
        rc, out, _ = run(["query", str(idx), str(pfile)], capsys)
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for i, pat in enumerate(pats):
            ident, occ = lines[i].split("\t")
            assert int(ident) == i
            assert int(occ) == len(naive_occurrences(data, pat))

    def test_locate_mode(self, corpus, tmp_path, capsys):
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", "sr-index",
             "--s", "2", "--variant", "1"], capsys)
        data = corpus.read_bytes()
        pat = data[50:58]
        pfile = tmp_path / "pats.txt"
        pfile.write_bytes(pat + b"\n")
        rc, out, _ = run(["query", str(idx), str(pfile), "--mode", "locate",
                          "--sorted"], capsys)
        fields = out.strip().split("\t")
        want = naive_occurrences(data, pat)
        assert int(fields[1]) == len(want)
        assert [int(x) for x in fields[2:]] == want


class TestStats:
    def test_text_stats_json(self, corpus, capsys):
        rc, out, _ = run(["stats", str(corpus), "--bins", "5"], capsys)
        st = json.loads(out)
        assert st["psi_runs"] == st["r"]
        assert len(st["mark_histogram"]) == 5

    def test_index_stats_json(self, corpus, tmp_path, capsys):
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", "r-index"],
            capsys)
        rc, out, _ = run(["stats", str(idx)], capsys)
        st = json.loads(out)
        assert st["kind"] == "r-index"
        assert st["locating_bps"] > 0

    @pytest.mark.parametrize("kind", ["r-index", "sr-csa"])
    def test_index_stats_decode_times(self, corpus, tmp_path, capsys, kind):
        # one decode time per section of the envelope, under its name
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", kind]
            + (["--s", "4", "--variant", "2"] if kind == "sr-csa" else []),
            capsys)
        rc, out, _ = run(["stats", str(idx)], capsys)
        st = json.loads(out)
        assert rc == 0
        assert set(st["section_decode_s"]) == set(st["section_bps"])
        assert all(type(t) is float for t in st["section_decode_s"].values())

    @pytest.mark.parametrize("kind", ["r-index", "r-csa", "sr-csa"])
    def test_index_stats_encode_times(self, corpus, tmp_path, capsys, kind):
        # the seconds serialize takes per section, next to the decode ones
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", kind]
            + (["--s", "4", "--variant", "2"] if kind == "sr-csa" else []),
            capsys)
        rc, out, _ = run(["stats", str(idx)], capsys)
        st = json.loads(out)
        assert rc == 0
        assert set(st["section_encode_s"]) == set(st["section_decode_s"])
        assert all(type(t) is float and t >= 0
                   for t in st["section_encode_s"].values())

    @pytest.mark.parametrize("variant", [0, 2])
    def test_index_stats_memory(self, corpus, tmp_path, capsys, variant):
        # the loaded index's tables by in-memory bytes: the per-gap phi
        # tables stand where the format's mark and validity tables were,
        # the per-run sample slots where `removed` was
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", "sr-index",
             "--s", "4", "--variant", str(variant)], capsys)
        rc, out, _ = run(["stats", str(idx)], capsys)
        st = json.loads(out)
        mem = st["memory_bytes"]
        assert rc == 0 and all(type(b) is int for b in mem.values())
        for table in ("offs", "marks", "samples_sub", "slot", "rl.starts",
                      "rl.bucket", "rl.img", "rl.lex_starts", "rl.lex_img"):
            assert mem[table] > 0, table
        # the total next to the tables, and per BWT run
        assert st["memory_bytes_total"] == sum(mem.values())
        assert st["memory_bytes_per_run"] == pytest.approx(
            st["memory_bytes_total"] / st["r"])
        assert not {"mark_map", "valid", "valid_area", "removed",
                    "rl.start", "rl.letters"} & set(mem)
        # 8 bytes or more per mark gap; lim is None at variant 0
        gaps = toolkit.load_index(idx.read_bytes()).ix.marks.ones + 1
        assert mem["offs"] >= 8 * gaps
        assert (mem["lim"] >= 8 * gaps) == (variant == 2)


class TestVerify:
    def test_exit_code_ok(self, corpus, capsys):
        rc, out, err = run(["verify", str(corpus), "--seed", "1"], capsys)
        assert rc == 0
        assert "OK" in err
        report = json.loads(out)
        assert all(k["mismatches"] == 0 for k in report["kinds"].values())


class TestBench:
    def test_csv_schema(self, corpus, tmp_path, capsys):
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", "sr-csa",
             "--s", "4", "--B", "4"], capsys)
        data = corpus.read_bytes()
        pfile = tmp_path / "pats.txt"
        pfile.write_bytes(data[20:30] + b"\n" + data[600:610] + b"\n")
        rc, out, _ = run(["bench", str(idx), str(pfile), "--reps", "2"],
                         capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["kind"] == "sr-csa"
        assert {"s", "variant", "bps", "us_per_occ", "steps_avg"} <= set(row)


class TestErrors:
    def test_build_rejects_bad_params(self, corpus, tmp_path, capsys):
        with pytest.raises(ValueError):
            run(["build", str(corpus), "-o", str(tmp_path / "x"),
                 "--kind", "r-index", "--variant", "1"], capsys)

    @pytest.mark.parametrize("argv", [
        ["verify", "CORPUS", "--kinds", "sr-idx"],
        ["query", "INDEX", "CORPUS", "--mode", "locate"],
        ["query", "CORPUS", "CORPUS"],
        ["build", "MISSING", "-o", "OUT"],
        ["query", "INDEX", "MISSING"],
        ["stats", "CORPUS", "--bins", "0"],
        ["gen-corpus", "-o", "OUT", "--base-size", "0"],
        ["bench", "INDEX", "CORPUS", "--reps", "0"],
        # s and B are u64 header fields
        ["build", "CORPUS", "-o", "OUT", "--kind", "sr-index",
         "--s", str(2**64)],
        ["build", "CORPUS", "-o", "OUT", "--kind", "r-csa",
         "--B", str(2**64)],
    ])
    def test_one_line_error_exit_2(self, argv, corpus, tmp_path, capsys):
        idx = tmp_path / "ix.bin"
        run(["build", str(corpus), "-o", str(idx), "--kind", "rlbwt"], capsys)
        paths = {"CORPUS": corpus, "INDEX": idx, "OUT": tmp_path / "out",
                 "MISSING": tmp_path / "missing.txt"}
        argv = [str(paths.get(a, a)) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

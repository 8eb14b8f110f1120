import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lzindex import cli, index
from lzindex._io import Reader, Writer

from conftest import random_text
from reference import naive_locate


def write_text(tmp_path, data: bytes):
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    return path


def build_index(tmp_path, data: bytes, extra=()):
    src = write_text(tmp_path, data)
    out = tmp_path / "text.idx"
    rc = cli.main(["build", "-i", str(src), "-o", str(out), *extra])
    assert rc == 0
    return out


class TestBuild:
    def test_build_and_stats(self, tmp_path, capsys):
        data = (b"the quick brown fox " * 40)[:600]
        idx_path = build_index(tmp_path, data)
        assert cli.main(["stats", "-x", str(idx_path)]) == 0
        out = capsys.readouterr().out
        stats = dict(line.split(": ") for line in out.strip().splitlines())
        assert int(stats["n"]) == len(data)
        assert int(stats["phrases"]) < len(data)
        # every section is listed and the sizes add up to the file
        sections = {k for k in stats if k.startswith("bytes[")}
        assert sum(int(stats[k]) for k in sections) == idx_path.stat().st_size
        # loading recomputes the dictionaries, so the file holds none
        assert int(stats["bytes[dictionaries]"]) == 0

    def test_stats_paper_terms(self, tmp_path, capsys):
        data = random_text(random.Random(113), 4, 3000) * 2
        idx_path = build_index(tmp_path, data)
        assert cli.main(["stats", "-x", str(idx_path)]) == 0
        stats = dict(line.split(": ") for line in capsys.readouterr().out.strip().splitlines())
        n, z = len(data), int(stats["z"])
        assert z == int(stats["phrases"])
        lg = int(stats["lg_n_over_z"])
        assert 2 ** (lg - 1) * z < n <= 2 ** lg * z  # lg(n/z) rounded up
        assert int(stats["z_lg_n_over_z"]) == z * lg
        words = idx_path.stat().st_size / 8 / (z * lg)
        assert float(stats["words_per_z_lg_n_over_z"]) == pytest.approx(words, abs=1e-3)

    def test_empty_input_fails(self, tmp_path, capsys):
        src = write_text(tmp_path, b"")
        rc = cli.main(["build", "-i", str(src), "-o", str(tmp_path / "x.idx")])
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_rebuild_is_byte_identical(self, tmp_path):
        data = random_text(random.Random(111), 26, 400)
        a = build_index(tmp_path, data, extra=["--seed", "3"])
        blob = a.read_bytes()
        b = tmp_path / "again.idx"
        src = tmp_path / "input.txt"
        assert cli.main(["build", "-i", str(src), "-o", str(b), "--seed", "3"]) == 0
        assert b.read_bytes() == blob

    def test_tau_override(self, tmp_path, capsys):
        data = random_text(random.Random(112), 4, 300)
        idx_path = build_index(tmp_path, data, extra=["--tau", "5"])
        cli.main(["stats", "-x", str(idx_path)])
        assert "tau: 5" in capsys.readouterr().out


class TestLocate:
    def test_positions_one_per_line(self, tmp_path, capsys):
        idx_path = build_index(tmp_path, b"abcabcabc")
        assert cli.main(["locate", "-x", str(idx_path), "-p", "abc"]) == 0
        assert capsys.readouterr().out.split() == ["1", "4", "7"]

    def test_json_output(self, tmp_path, capsys):
        idx_path = build_index(tmp_path, b"abcabcabc")
        assert cli.main(["locate", "-x", str(idx_path), "-p", "abc", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {"pattern": "abc", "count": 3, "positions": [1, 4, 7]}
        batch = tmp_path / "patterns.txt"
        batch.write_bytes(b"abc\nbc\nzz\n")
        assert cli.main(["locate", "-x", str(idx_path), "-f", str(batch), "--json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records == [
            {"pattern": "abc", "count": 3, "positions": [1, 4, 7]},
            {"pattern": "bc", "count": 3, "positions": [2, 5, 8]},
            {"pattern": "zz", "count": 0, "positions": []},
        ]

    def test_symbols_outside_alphabet(self, tmp_path, capsys):
        idx_path = build_index(tmp_path, b"abcabcabc")
        assert cli.main(["locate", "-x", str(idx_path), "-p", "zzz"]) == 0
        assert capsys.readouterr().out == ""

    def test_batch_file(self, tmp_path, capsys):
        idx_path = build_index(tmp_path, b"abcabcabc")
        batch = tmp_path / "patterns.txt"
        batch.write_bytes(b"abc\nbc\nzz\n")
        assert cli.main(["locate", "-x", str(idx_path), "-f", str(batch)]) == 0
        assert capsys.readouterr().out.split() == ["1", "4", "7", "2", "5", "8"]

    def test_missing_pattern_is_usage_error(self, tmp_path):
        idx_path = build_index(tmp_path, b"abcabcabc")
        with pytest.raises(SystemExit):
            cli.main(["locate", "-x", str(idx_path)])

    def test_pattern_argument_takes_any_byte(self, tmp_path):
        # a shell passes the argument as bytes, which need not be UTF-8
        idx_path = build_index(tmp_path, b"ab\xffcd\xffab")
        batch = tmp_path / "patterns.txt"
        batch.write_bytes(b"\xff\n")
        src = Path(__file__).resolve().parent.parent / "src"
        answers = []
        for how in ([b"-p", b"\xff"], [b"-f", bytes(batch)]):
            proc = subprocess.run([sys.executable, "-m", "lzindex.cli", "locate",
                                   "-x", str(idx_path), *how],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            answers.append(proc.stdout.split())
        assert answers == [[b"3", b"6"]] * 2

    def test_matches_oracle_on_text(self, tmp_path, capsys):
        rng = random.Random(113)
        data = bytes(rng.choice(b"ab") for _ in range(500))
        idx_path = build_index(tmp_path, data)
        for _ in range(20):
            m = rng.randint(1, 10)
            s = rng.randint(0, len(data) - m)
            pattern = data[s : s + m]
            assert cli.main(["locate", "-x", str(idx_path), "-p", pattern.decode()]) == 0
            got = [int(v) for v in capsys.readouterr().out.split()]
            assert got == naive_locate(
                [b + 1 for b in data], [b + 1 for b in pattern]
            )


class TestExtract:
    def test_full_round_trip(self, tmp_path, capsysbinary):
        data = random_text(random.Random(114), 200, 700)
        idx_path = build_index(tmp_path, data)
        rc = cli.main(["extract", "-x", str(idx_path), "-i", "1", "-j", str(len(data))])
        assert rc == 0
        assert capsysbinary.readouterr().out == data

    def test_empty_range(self, tmp_path, capsysbinary):
        idx_path = build_index(tmp_path, b"abc")
        assert cli.main(["extract", "-x", str(idx_path), "-i", "3", "-j", "2"]) == 0
        assert capsysbinary.readouterr().out == b""

    def test_out_of_bounds(self, tmp_path, capsys):
        # Index.extract checks the range; main reports its error
        idx_path = build_index(tmp_path, b"abc")
        for i, j in (("1", "9"), ("0", "2"), ("-1", "3")):
            assert cli.main(["extract", "-x", str(idx_path), "-i", i, "-j", j]) == 1
            assert capsys.readouterr() == ("", "error: range out of bounds\n")

    def test_random_slices(self, tmp_path, capsysbinary):
        rng = random.Random(115)
        data = random_text(rng, 26, 600)
        idx_path = build_index(tmp_path, data)
        for _ in range(15):
            i = rng.randint(1, len(data))
            j = rng.randint(i, len(data))
            assert cli.main(["extract", "-x", str(idx_path), "-i", str(i), "-j", str(j)]) == 0
            assert capsysbinary.readouterr().out == data[i - 1 : j]


class TestStatsErrors:
    def test_missing_index_file(self, tmp_path, capsys):
        assert cli.main(["stats", "-x", str(tmp_path / "nope.idx")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"not an index at all")
        assert cli.main(["stats", "-x", str(bad)]) == 1
        assert "not an index file" in capsys.readouterr().err

    def test_header_phrase_count_0(self, tmp_path):
        # a checksummed file whose header says z = 0; stats would look for
        # the least t with 2^t z >= n for ever, so loading refuses it. It
        # runs in a child with a timeout, so that a regression fails
        # rather than hangs.
        blob = build_index(tmp_path, b"abcabcabc").read_bytes()
        r = Reader(blob)
        r.pos = index._CRC_AT + 4
        fields = [r.u() for _ in range(4)]
        w = Writer()
        w.raw(blob[: index._CRC_AT + 4])
        for k, v in enumerate(fields):
            w.u(0 if k == 0 else v)  # z
        w.raw(blob[r.pos :])
        data = bytes(w.buf)
        bad = tmp_path / "bad.idx"
        bad.write_bytes(data[: index._CRC_AT] + index._checksum(data).to_bytes(4, "little")
                        + data[index._CRC_AT + 4 :])
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "lzindex.cli", "stats", "-x", str(bad)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "corrupt index" in proc.stderr

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import antidict
from antidict import (
    Alphabet,
    build_factor_automaton,
    build_trie,
    l_automaton,
    mfw,
    mfw_circular,
    mfw_linear,
    reconstruction,
)
from antidict.cli import main

AB = Alphabet("ab")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMfwCommand:
    def test_linear(self, capsys):
        code, out, _ = run(capsys, "mfw", "aabbabb")
        assert code == 0
        assert out.split() == ["aaa", "aba", "baa", "bbb", "babba"]

    def test_circular(self, capsys):
        code, out, _ = run(capsys, "mfw", "aabbabb", "--circular")
        assert code == 0
        assert out.split() == ["aaa", "aba", "bbb", "aabbaa", "babbab"]

    def test_explicit_alphabet(self, capsys):
        code, out, _ = run(capsys, "mfw", "a", "--alphabet", "ab")
        assert code == 0
        assert out.split() == ["b", "aa"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mfw", "aabbabb", "--json")
        data = json.loads(out)
        assert data["word"] == "aabbabb"
        assert data["circular"] is False
        assert data["mfw"] == ["aaa", "aba", "baa", "bbb", "babba"]

    def test_bad_alphabet_is_input_error(self, capsys):
        code, _, err = run(capsys, "mfw", "aabbabb", "--alphabet", "a")
        assert code == 2
        assert "error" in err

    def test_member_symbol_cap_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr(mfw, "MAX_MEMBER_SYMBOLS", 10**4)
        code, out, err = run(capsys, "mfw", "--circular", "a" + "b" * 200)
        assert code == 2 and out == ""
        assert "more than the cap" in err
        # the circular automaton makes no member string: the cap is not hit
        code, out, _ = run(capsys, "automaton", "--circular", "--stats", "a" + "b" * 200)
        assert code == 0 and out.strip() == "states=401"


class TestAutomatonCommand:
    def test_circular_stats(self, capsys):
        code, out, _ = run(capsys, "automaton", "abaab", "--circular", "--stats")
        assert code == 0 and out.strip() == "states=9"

    def test_linear_stats(self, capsys):
        code, out, _ = run(capsys, "automaton", "abaab", "--stats")
        assert code == 0 and out.strip() == "states=6"
        code, out, _ = run(capsys, "automaton", "abaab", "--linear", "--stats")
        assert code == 0 and out.strip() == "states=6"

    def test_single_letter(self, capsys):
        code, out, _ = run(capsys, "automaton", "a", "--stats")
        assert code == 0 and out.strip() == "states=2"

    def test_dot_output(self, capsys, tmp_path):
        path = tmp_path / "fa.dot"
        code, _, _ = run(capsys, "automaton", "aabbabb", "--dot", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("digraph") and "->" in text and "dashed" in text

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "automaton", "ab", "--json")
        data = json.loads(out)
        assert data["states"] == 3
        assert data["finals"] == [0, 1, 2]


class TestWordInput:
    """``--input PATH|-`` carries words past argv's 128 KiB per-argument cap."""

    @pytest.fixture(scope="class")
    def long_word(self):
        rng = random.Random(131)
        return "".join(rng.choice("ab") for _ in range(140_000))  # > 128 KiB

    def test_long_word_from_file(self, capsys, tmp_path, long_word):
        path = tmp_path / "word.txt"
        path.write_text(long_word + "\n")
        code, out, _ = run(capsys, "mfw", "--input", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["word"] == long_word
        assert tuple(data["mfw"]) == mfw_linear(long_word).words

    def test_long_word_from_stdin(self, capsys, monkeypatch, long_word):
        monkeypatch.setattr("sys.stdin", io.StringIO(long_word + "\n"))
        code, out, _ = run(capsys, "automaton", "--input", "-", "--stats")
        assert code == 0
        assert out.strip() == f"states={build_factor_automaton(long_word).n_states}"

    def test_circular_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("aabbabb\r\n"))
        code, out, _ = run(capsys, "mfw", "--input", "-", "--circular")
        assert code == 0
        assert out.split() == ["aaa", "aba", "bbb", "aabbaa", "babbab"]

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_undecodable_byte_reads_the_same_from_file_and_stdin(
        self, capsysbinary, monkeypatch, tmp_path, encoding
    ):
        # both routes decode UTF-8 under surrogateescape, whatever the
        # encoding stdin came with: 0xff is the symbol U+DCFF, written back
        # as the byte
        raw = b"a\xffaa\xff\n"
        path = tmp_path / "word.txt"
        path.write_bytes(raw)
        from_file = main(["mfw", "--input", str(path)]), capsysbinary.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding=encoding))
        from_stdin = main(["mfw", "--input", "-"]), capsysbinary.readouterr()
        assert from_file == from_stdin
        assert from_file[0] == 0
        assert from_file[1].out == b"\xff\xff\naaa\n\xffa\xff\naa\xffa\n"

    def test_arguments_read_as_input_does_under_an_ascii_locale(self, tmp_path):
        # Python decodes argv as ASCII under this locale, each byte of β a
        # lone surrogate; the word and --alphabet are decoded as UTF-8, as
        # --input is
        word = "aββaβa"
        path = tmp_path / "word.txt"
        path.write_bytes(word.encode("utf-8") + b"\n")
        env = os.environ | {
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONPATH": str(Path(antidict.__file__).parents[1]),
        }
        env.pop("PYTHONIOENCODING", None)

        def cli(*argv):
            done = subprocess.run(
                [sys.executable, "-m", "antidict.cli", *argv], capture_output=True, env=env, timeout=120
            )
            return done.returncode, done.stdout, done.stderr

        def lines(*values):
            return (0, "".join(f"{v}\n" for v in values).encode("utf-8"), b"")

        expected = lines(json.dumps(mfw_linear(word).to_json()))
        assert cli("mfw", word, "--json") == cli("mfw", "--input", str(path), "--json") == expected
        assert cli("mfw", "--input", str(path), "--alphabet", "aβ") == lines(*mfw_linear(word).words)
        assert cli("mfw", word, "--alphabet", "βa") == lines(*mfw_linear(word, Alphabet("βa")).words)
        assert cli("automaton", word, "--stats") == lines(f"states={build_factor_automaton(word).n_states}")

    @pytest.mark.parametrize("command", ["mfw", "automaton"])
    def test_word_and_input_both_or_neither(self, capsys, tmp_path, command):
        path = tmp_path / "word.txt"
        path.write_text("abaab")
        for argv in ((command, "abaab", "--input", str(path)), (command,)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "either as an argument or with --input" in err

    @pytest.mark.parametrize("command", ["mfw", "automaton"])
    def test_missing_file(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--input", str(tmp_path / "absent.txt"))
        assert code == 2 and out == ""
        assert "No such file" in err


class TestLAutomatonCommand:
    def test_from_trie_file(self, capsys, tmp_path):
        trie = build_trie(["aa", "ba"], AB, antifactorial=True)
        path = tmp_path / "trie.json"
        path.write_text(json.dumps(trie.to_json()))
        code, out, _ = run(capsys, "l-automaton", "--from-trie", str(path), "--stats")
        assert code == 0 and out.strip() == "states=5"
        code, out, _ = run(
            capsys, "l-automaton", "--from-trie", str(path), "--strip-sinks", "--stats"
        )
        assert code == 0 and out.strip() == "states=3"

    def test_not_antifactorial(self, capsys, tmp_path):
        trie = build_trie(["b", "ab"], AB)
        path = tmp_path / "trie.json"
        path.write_text(json.dumps(trie.to_json()))
        code, _, err = run(capsys, "l-automaton", "--from-trie", str(path))
        assert code == 2 and "antifactorial" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"alphabet": "ab", "states": 2, "initial": 0, "finals": [1],
             "transitions": [[0, "a", 5]]},
            {"alphabet": "ab", "states": 3, "initial": 0, "finals": [1],
             "transitions": [[0, "a", 1], [1, "b", 2]]},
        ],
    )
    def test_malformed_trie(self, capsys, tmp_path, data):
        path = tmp_path / "trie.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "l-automaton", "--from-trie", str(path))
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "patch",
        [
            {"transitions": [[0, "a", 1], [0, "b", 2.5]]},
            {"transitions": [[0, "a", 1], [0, "b", 2.0]]},
            {"initial": False},
        ],
    )
    def test_state_ids_must_be_integers(self, capsys, tmp_path, patch):
        data = {"alphabet": "ab", "states": 3, "initial": 0, "finals": [1, 2],
                "transitions": [[0, "a", 1], [0, "b", 2]]}
        path = tmp_path / "trie.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "l-automaton", "--from-trie", str(path))
        assert code == 0
        path.write_text(json.dumps(data | patch))
        code, _, err = run(capsys, "l-automaton", "--from-trie", str(path))
        assert code == 2 and "integers" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "l-automaton", "--from-trie", str(path))
        assert code == 2 and "nested too deeply" in err


class TestReconstructCommand:
    def test_linear_round_trip(self, capsys, tmp_path):
        _, out, _ = run(capsys, "mfw", "aabbabb", "--json")
        path = tmp_path / "mfw.json"
        path.write_text(out)
        code, out, _ = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 0 and out.strip() == "aabbabb"

    def test_circular_round_trip_via_stdin(self, capsys, monkeypatch):
        _, out, _ = run(capsys, "mfw", "abaab", "--circular", "--json")
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "reconstruct", "--mfw", "-")
        # canonical linearization of the conjugacy class of abaab
        assert code == 0 and out.strip() == "aabab"

    def test_non_antifactorial_set(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alphabet": "ab", "circular": False, "mfw": ["aa", "aab"]}))
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2

    @pytest.mark.parametrize("data", [{"mfw": ["aa"]}, ["aa", "ba"]])
    def test_malformed_schema(self, capsys, tmp_path, data):
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and "error" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and "nested too deeply" in err

    def test_circular_that_is_no_bool(self, capsys, tmp_path):
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps({"alphabet": "ab", "circular": "false", "mfw": ["aa"]}))
        code, out, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and not out and "'circular'" in err

    @pytest.mark.parametrize("symbol, raw", [("\ud800", b"\xed\xa0\x80"), ("\udcff", b"\xff")])
    def test_lone_surrogate_symbol(self, capsysbinary, tmp_path, symbol, raw):
        # a lone surrogate is written in UTF-8 under surrogatepass, as it is
        # encoded, unless it stands for an undecodable input byte
        def written(text):
            return text.encode("utf-8", "surrogatepass").replace(symbol.encode("utf-8", "surrogatepass"), raw)

        word, alphabet = f"a{symbol}aa{symbol}", symbol + "a"
        mfws = mfw_linear(word, Alphabet(alphabet))
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps(mfws.to_json()))
        assert main(["reconstruct", "--mfw", str(path)]) == 0
        assert capsysbinary.readouterr().out == written(word + "\n")
        assert main(["mfw", word, "--alphabet", alphabet]) == 0
        assert capsysbinary.readouterr().out == written("".join(f"{m}\n" for m in mfws.words))

    def test_not_a_single_word(self, capsys, tmp_path):
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps({"alphabet": "ab", "circular": False, "mfw": ["aa", "ba"]}))
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and "infinite" in err


    @pytest.mark.parametrize("circular", [False, True])
    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 8.00 GiB"), "error: out of memory: Unable to allocate 8.00 GiB\n"),
        ],
    )
    def test_trie_table_too_large_for_memory(self, capsys, monkeypatch, tmp_path, circular, exc, message):
        # bad input, exit 2, not a failed verification, and no traceback
        def too_large(words, alphabet):
            raise exc

        monkeypatch.setattr(reconstruction, "_trie_tables", too_large)
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps({"alphabet": "ab", "circular": circular, "mfw": ["aa", "bb"]}))
        assert run(capsys, "reconstruct", "--mfw", str(path)) == (2, "", message)


class TestJsonInput:
    """``reconstruct --mfw`` and ``l-automaton --from-trie`` read their JSON
    as UTF-8 whatever the locale, from a file and from stdin alike."""

    @pytest.mark.parametrize("route", ["file", "stdin"])
    def test_raw_utf8_under_an_ascii_locale(self, tmp_path, route):
        word, alphabet = "aββaβa", Alphabet("aβ")
        linear, circular = mfw_linear(word, alphabet), mfw_circular(word, alphabet)
        trie = build_trie(linear.words, alphabet)
        runs = [
            (["reconstruct", "--mfw"], linear.to_json(), word),
            (["reconstruct", "--mfw"], circular.to_json(), circular.source),
            (["l-automaton", "--stats", "--from-trie"], trie.to_json(), f"states={l_automaton(trie).n_states}"),
        ]
        env = os.environ | {
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONPATH": str(Path(antidict.__file__).parents[1]),
        }
        env.pop("PYTHONIOENCODING", None)
        for argv, document, expected in runs:
            raw = json.dumps(document, ensure_ascii=False).encode("utf-8")
            path = tmp_path / "document.json"
            path.write_bytes(raw)
            source = "-" if route == "stdin" else str(path)
            done = subprocess.run(
                [sys.executable, "-m", "antidict.cli", *argv, source],
                input=raw if route == "stdin" else None,
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert (done.returncode, done.stderr) == (0, b""), argv
            assert done.stdout == (expected + "\n").encode("utf-8"), argv


class TestFibCheckCommand:
    def test_upto_eight(self, capsys):
        code, out, _ = run(capsys, "fib-check", "--upto", "8")
        assert code == 0
        lines = [line for line in out.splitlines() if line and line[0].isdigit() is False]
        assert "all 8 rank(s) verified" in out
        assert out.count(" pass") == 8

    def test_single_rank_json(self, capsys):
        code, out, _ = run(capsys, "fib-check", "--n", "5", "--json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["circular_states"] == 9 and report["passed"] is True

    def test_guard(self, capsys):
        code, _, err = run(capsys, "fib-check", "--upto", "200")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("flag", ["--n", "--upto"])
    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_below_one(self, capsys, flag, rank):
        code, out, err = run(capsys, "fib-check", flag, rank)
        assert code == 2 and not out
        assert err == f"error: {flag} {rank}: Fibonacci ranks start at 1\n"


class TestVerifyCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--maxlen", "6")
        assert code == 0
        assert "all 7 checks passed" in out
        assert out.count("PASS") == 7

    def test_maxlen_cap(self, capsys):
        code, _, err = run(capsys, "verify", "--maxlen", "30")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("maxlen", ["0", "-1"])
    def test_maxlen_below_one(self, capsys, maxlen):
        code, out, err = run(capsys, "verify", "--maxlen", maxlen)
        assert code == 2 and not out
        assert err == f"error: --maxlen {maxlen} is below 1\n"


class TestParser:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

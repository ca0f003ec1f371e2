import io
import json
import random

import pytest

from antidict import Alphabet, build_factor_automaton, build_trie, mfw, mfw_linear
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

    def test_not_a_single_word(self, capsys, tmp_path):
        path = tmp_path / "mfw.json"
        path.write_text(json.dumps({"alphabet": "ab", "circular": False, "mfw": ["aa", "ba"]}))
        code, _, err = run(capsys, "reconstruct", "--mfw", str(path))
        assert code == 2 and "infinite" in err


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

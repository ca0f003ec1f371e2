"""The compiled suffix-automaton kernel against the plain-Python reference,
and the build and guards around it."""

import pytest
from hypothesis import given, settings, strategies as st

from antidict import Alphabet, LimitExceeded, build_factor_automaton, mfw_linear
from antidict import _kernel, factor_automaton
from antidict.factor_automaton import _suffix_automaton
from antidict.words import _encode

from .helpers import all_words, suffix_automaton_reference


def assert_same_tables(word: str, alphabet: Alphabet) -> None:
    coded = _encode(word, alphabet)
    assert coded.tolist() == [alphabet.rank(c) for c in word]
    trans, link, length, endpos = _suffix_automaton(coded, len(alphabet))
    cols, ref_link, ref_length, ref_endpos, size = suffix_automaton_reference(
        coded.tolist(), len(alphabet)
    )
    assert trans.shape == (size, len(alphabet)), word
    assert link.size == length.size == endpos.size == size, word
    for c, col in enumerate(cols):
        assert trans[:, c].tolist() == col[:size], (word, c)
    assert link.tolist() == ref_link[:size], word
    assert length.tolist() == ref_length[:size], word
    assert endpos.tolist() == ref_endpos[:size], word


class TestAgainstReference:
    @pytest.mark.parametrize("symbols, bound", [("ab", 12), ("abc", 8), ("acgt", 6)])
    def test_every_small_word(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for word in all_words(symbols, bound):
            assert_same_tables(word, alphabet)

    def test_non_ascii_alphabet(self):
        alphabet = Alphabet("αβγ")
        for word in all_words("αβγ", 6):
            assert_same_tables(word, alphabet)

    def test_alphabet_order_is_not_code_point_order(self):
        for alphabet in (Alphabet("cab"), Alphabet("γaβ")):
            symbols = "".join(alphabet.symbols)
            for word in all_words(symbols, 6):
                assert_same_tables(word, alphabet)

    def test_letters_missing_from_the_word(self):
        assert_same_tables("ca", Alphabet("abcd"))
        assert_same_tables("bbbbbbbbbb", Alphabet("abc"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        word = data.draw(st.text("".join(symbols), min_size=1, max_size=200))
        assert_same_tables(word, Alphabet(symbols))


class TestBuild:
    def test_cold_cache(self, tmp_path):
        cache = tmp_path / "cache"
        lib = _kernel.build(cache)
        built = list(cache.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        # a second build loads the cached file
        again = _kernel.build(cache)
        assert list(cache.iterdir()) == built
        coded = _encode("abaab", Alphabet("ab"))
        assert again.least_rotation(coded, coded.size) == 2
        assert lib.least_rotation(coded, coded.size) == 2

    def test_compiler_errors_raise_import_error(self, tmp_path, monkeypatch):
        broken = tmp_path / "_kernel.c"
        broken.write_text("int suffix_automaton(void) { return undeclared; }\n")
        monkeypatch.setattr(_kernel, "SOURCE", broken)
        with pytest.raises(ImportError, match="undeclared"):
            _kernel.build(tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []

    def test_missing_compiler_raises_import_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        with pytest.raises(ImportError, match="C compiler"):
            _kernel.build(tmp_path / "cache")


class TestStateBound:
    def test_guard_fires_before_allocating(self, monkeypatch):
        # 2n + 2 states of a 6-symbol word: 14
        monkeypatch.setattr(factor_automaton, "MAX_STATES", 13)
        with pytest.raises(LimitExceeded):
            build_factor_automaton("abcabc")
        with pytest.raises(LimitExceeded):
            mfw_linear("abcabc")
        monkeypatch.setattr(factor_automaton, "MAX_STATES", 14)
        assert build_factor_automaton("abcabc").n_states == 7

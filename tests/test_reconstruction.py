import random

import pytest
from hypothesis import given, settings, strategies as st

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    MfwSet,
    ReconstructionError,
    check_cardinality_bounds,
    circular_factor_dfa,
    fibonacci_word,
    is_primitive,
    mfw_circular,
    mfw_linear,
    reconstruct_circular,
    reconstruct_word,
)
from antidict import automata, mfw

from .helpers import all_words

AB = Alphabet("ab")


class TestReconstructWord:
    def test_running_example(self):
        mfws = MfwSet.build(["aaa", "aba", "bbb", "baa", "babba"], AB)
        assert reconstruct_word(mfws) == "aabbabb"

    def test_single_letter(self):
        assert reconstruct_word(MfwSet.build(["b", "aa"], AB)) == "a"

    def test_whole_alphabet_gives_empty_word(self):
        assert reconstruct_word(MfwSet.build(["a", "b"], AB)) == ""

    def test_infinite_language_rejected(self):
        with pytest.raises(ReconstructionError, match="infinite"):
            reconstruct_word(MfwSet.build(["aa", "ba"], AB))

    def test_ambiguous_longest_word_rejected(self):
        # avoiding {aa, ab, ba, bb} leaves {eps, a, b}: two longest words
        with pytest.raises(ReconstructionError, match="not unique"):
            reconstruct_word(MfwSet.build(["aa", "ab", "ba", "bb"], AB))
        # the two longest words aba and bba end in the same state
        with pytest.raises(ReconstructionError, match="not unique"):
            reconstruct_word(MfwSet.build(["aa", "abb", "bab", "bbb"], AB))

    def test_verification_reads_members_in_any_order(self):
        shuffled = MfwSet(tuple(reversed(mfw_linear("aabbabb", AB).words)), AB)
        assert reconstruct_word(shuffled) == "aabbabb"
        # M(abba) without aba: the longest avoiding word is still abba
        with pytest.raises(ReconstructionError, match="verification failed"):
            reconstruct_word(MfwSet(("aa", "bab", "bbb"), AB))

    def test_non_antifactorial_rejected(self):
        with pytest.raises(ReconstructionError):
            reconstruct_word(MfwSet.build(["a", "ab"], AB))

    @pytest.mark.parametrize("module, cap", [(mfw, "MAX_MEMBER_SYMBOLS"), (automata, "MAX_STATES")])
    def test_size_refusals_stay_limits(self, monkeypatch, module, cap):
        # the set is valid: a cap on the members' symbols or the trie's
        # states refuses its size, not its form
        mfws = mfw_linear("aabbabb")
        monkeypatch.setattr(module, cap, 10)
        with pytest.raises(LimitExceeded):
            reconstruct_word(mfws)

    def test_round_trip(self):
        for w in all_words("ab", 9):
            assert reconstruct_word(mfw_linear(w, AB)) == w, w
        for w in all_words("abc", 5):
            assert reconstruct_word(mfw_linear(w)) == w, w


class TestReconstructCircular:
    def test_quoted_set(self):
        mfws = MfwSet.build(["aaa", "aba", "bbb", "aabbaa", "babbab"], AB, "circular")
        assert reconstruct_circular(mfws) == CircularWord("aabbabb")

    def test_fifth_fibonacci(self):
        mfws = MfwSet.build(["bb", "aaa", "aabaa", "babab"], AB, "circular")
        assert reconstruct_circular(mfws) == CircularWord("abaab")

    def test_two_letter_cycle(self):
        assert reconstruct_circular(MfwSet.build(["aa", "bb"], AB)) == CircularWord("ab")

    def test_cycle_length_matches_word_length(self):
        for w in ("ab", "aab", "aabab", "aabbabb"):
            cw = reconstruct_circular(mfw_circular(w))
            assert cw.length == len(w)

    def test_acyclic_rejected(self):
        # the antidictionary of a finite word leaves no cycle to read
        with pytest.raises(ReconstructionError, match="acyclic"):
            reconstruct_circular(mfw_linear("aabbabb", AB))

    def test_verification_catches_wrong_cycles(self):
        # avoiding {aba, bab} is cyclic (a* among others) but is not the
        # factor language of any single circular word
        with pytest.raises(ReconstructionError, match="verification failed"):
            reconstruct_circular(MfwSet.build(["aba", "bab"], AB))

    def test_verification_reads_members_in_any_order(self):
        shuffled = MfwSet(tuple(reversed(mfw_circular("aabab", AB).words)), AB)
        assert str(reconstruct_circular(shuffled)) == "aabab"
        # M(aab) without bb: the first cycle closed still spells aab
        with pytest.raises(ReconstructionError, match="verification failed"):
            reconstruct_circular(MfwSet(("aaa", "bab"), AB))

    def test_round_trip(self):
        seen = set()
        for w in all_words("ab", 9):
            cw = CircularWord(w, AB)
            if cw.reduced or cw in seen:
                continue
            seen.add(cw)
            assert reconstruct_circular(mfw_circular(cw, AB)) == cw, w


def random_primitive_word(symbols: str, length: int, seed: int) -> str:
    rng = random.Random(seed)
    while True:
        word = "".join(rng.choice(symbols) for _ in range(length))
        if is_primitive(word):
            return word


class TestRoundTripAtScale:
    def test_fibonacci_circular(self):
        word = fibonacci_word(20)  # 6,765 symbols
        assert reconstruct_circular(mfw_circular(word)) == CircularWord(word)

    @pytest.mark.parametrize("symbols, length", [("ab", 2**12), ("acgt", 2**11)])
    def test_random_linear(self, symbols, length):
        word = random_primitive_word(symbols, length, seed=length)
        assert reconstruct_word(mfw_linear(word, Alphabet(symbols))) == word

    @pytest.mark.parametrize("symbols", ["ab", "acgt"])
    def test_random_necklace_of_100000_symbols(self, symbols):
        # the state and cardinality bounds and both round trips; untimed
        alphabet = Alphabet(symbols)
        word = random_primitive_word(symbols, 10**5, seed=len(symbols))
        cw = CircularWord(word, alphabet)
        assert circular_factor_dfa(cw, alphabet).n_states <= 2 * len(word) - 1
        assert check_cardinality_bounds(cw, alphabet).passed
        assert reconstruct_circular(mfw_circular(cw, alphabet)) == cw
        assert reconstruct_word(mfw_linear(word, alphabet)) == word

    def test_random_word_of_a_million_symbols(self):
        # untimed; about 2 s, the verifying mfw_linear included
        rng = random.Random(10**6)
        word = "".join(rng.choices("ab", k=10**6))
        assert reconstruct_word(mfw_linear(word, AB)) == word


@st.composite
def words_over_ordered_alphabets(draw):
    """A word, and an alphabet in a drawn order that may hold letters the
    word does not use."""
    symbols = "".join(draw(st.permutations("abcd"))[: draw(st.integers(1, 4))])
    used = symbols[: draw(st.integers(1, len(symbols)))]
    return draw(st.text(used, min_size=1, max_size=24)), Alphabet(symbols)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(words_over_ordered_alphabets())
    def test_linear(self, case):
        word, alphabet = case
        assert reconstruct_word(mfw_linear(word, alphabet)) == word

    @settings(max_examples=300, deadline=None)
    @given(words_over_ordered_alphabets())
    def test_circular(self, case):
        word, alphabet = case
        cw = CircularWord(word, alphabet)
        assert reconstruct_circular(mfw_circular(cw, alphabet)) == cw

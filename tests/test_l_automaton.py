import random
import sys

import pytest

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    build_factor_automaton,
    build_trie,
    circular_factor_dfa,
    circular_factor_set,
    fibonacci_word,
    isomorphic,
    l_automaton,
    mfw_linear,
    minimize,
    strip_sinks,
)
from antidict import factor_automaton

from .helpers import (
    all_words,
    check_failure_semantics,
    circular_factor_dfa_reference,
    words_avoiding,
)

AB = Alphabet("ab")


class TestAvoidanceConstruction:
    def test_figure_example_complete_automaton(self):
        trie = build_trie(["aa", "ba"], AB, antifactorial=True)
        dfa = l_automaton(trie)
        assert dfa.n_states == trie.n_states == 5
        sigma = len(dfa.alphabet)
        assert all(t >= 0 for t in dfa.flat)  # complete over the alphabet
        assert dfa.finals.count(1) == 3
        assert dfa.enumerate_language(8) == words_avoiding(["aa", "ba"], "ab", 8)

    def test_figure_example_after_sink_removal(self):
        trie = build_trie(["aa", "ba"], AB, antifactorial=True)
        core = strip_sinks(l_automaton(trie))
        assert core.n_states == 3
        expected = {"b" * i for i in range(9)} | {"a" + "b" * i for i in range(8)}
        assert core.enumerate_language(8) == expected
        # the construction must not minimize: the witness has one spare state
        assert minimize(core).n_states == 2

    def test_all_letters_forbidden(self):
        trie = build_trie(["a", "b"], AB, antifactorial=True)
        dfa = l_automaton(trie)
        assert dfa.enumerate_language(4) == {""}

    def test_avoiding_language_exhaustive(self):
        for words in (["aa"], ["aa", "bb"], ["aba"], ["aa", "bab"], ["b"], ["aaa", "bb"]):
            trie = build_trie(words, AB, antifactorial=True)
            dfa = l_automaton(trie)
            assert dfa.enumerate_language(8) == words_avoiding(words, "ab", 8), words

    def test_antifactorial_input_required(self):
        trie = build_trie(["b", "ab"], AB)  # b occurs inside ab
        with pytest.raises(ValueError):
            l_automaton(trie)

    def test_failure_links_follow_suffix_definition(self):
        corpora = [["aa", "ba"], ["aaa", "bb"], ["aba", "baab"]]
        corpora += [list(mfw_linear(w, AB).words) for w in ("aabbabb", "abaab", "babab")]
        for words in corpora:
            dfa = l_automaton(build_trie(words, AB, antifactorial=True))
            check_failure_semantics(dfa, max(len(w) for w in words) + 2, all_representatives=False)


class TestLinearTheorem:
    def test_antidictionary_rebuilds_factor_automaton(self):
        for w in ("aabbabb", "abaab", "aaabbb", "a"):
            mfws = mfw_linear(w, AB)
            rebuilt = strip_sinks(l_automaton(build_trie(mfws.words, AB, antifactorial=True)))
            assert isomorphic(rebuilt, build_factor_automaton(w, AB)), w


class TestCircularFactorDfa:
    def test_fifth_fibonacci(self):
        assert circular_factor_dfa("abaab").n_states == 9

    def test_one_a_then_bs(self):
        # ab^(n-1) attains the 2n-1 state maximum
        for n in range(3, 10):
            dfa = circular_factor_dfa("a" + "b" * (n - 1))
            assert dfa.n_states == 2 * n - 1, n

    def test_single_letter(self):
        dfa = circular_factor_dfa(CircularWord("a", AB), AB)
        assert dfa.n_states == 1
        assert dfa.enumerate_language(5) == {"a" * i for i in range(6)}

    def test_language_is_circular_factor_set(self):
        seen = set()
        for w in all_words("ab", 7):
            cw = CircularWord(w, AB)
            if cw.reduced or cw in seen:
                continue
            seen.add(cw)
            dfa = circular_factor_dfa(cw, AB)
            horizon = len(w) + 3
            assert dfa.enumerate_language(horizon) == circular_factor_set(cw, horizon), w

    def test_already_minimal(self):
        for w in ("ab", "aab", "aabab", "aabbabb", "abaab"):
            dfa = circular_factor_dfa(w)
            assert minimize(dfa).n_states == dfa.n_states, w

    def test_accepts_string_or_circular_word(self):
        assert isomorphic(circular_factor_dfa("abaab"), circular_factor_dfa(CircularWord("abaab")))


def random_word(symbols: str, n: int, seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(symbols) for _ in range(n))


NECKLACES_AT_SCALE = {
    "random-ab-1e5": lambda: random_word("ab", 10**5, 2),
    "random-acgt-1e5": lambda: random_word("acgt", 10**5, 4),
    "fibonacci-24": lambda: fibonacci_word(24),
}


class TestCircularFactorDfaAtScale:
    """Untimed: the automaton is read off the suffix automaton, so no member
    is made and a·b^(n-1), whose members hold about n^2/2 symbols, is
    linear."""

    @pytest.mark.parametrize("make", NECKLACES_AT_SCALE.values(), ids=NECKLACES_AT_SCALE)
    def test_same_as_the_string_route(self, make):
        word = make()
        dfa, ref = circular_factor_dfa(word), circular_factor_dfa_reference(word)
        assert (dfa.n_states, dfa.initial, dfa.finals) == (ref.n_states, ref.initial, ref.finals)
        assert dfa.flat == ref.flat and dfa.failure == ref.failure

    def test_guard_fires_before_the_kernel_runs(self, monkeypatch):
        # the suffix automaton of the doubled aab: 2 * 6 + 2 = 14 states
        def no_kernel():
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(factor_automaton, "MAX_STATES", 13)
        for module in (factor_automaton, sys.modules["antidict.l_automaton"]):
            monkeypatch.setattr(module, "kernel", no_kernel)
        with pytest.raises(LimitExceeded):
            circular_factor_dfa("aab")
        monkeypatch.undo()
        monkeypatch.setattr(factor_automaton, "MAX_STATES", 14)
        assert circular_factor_dfa("aab").n_states == 5

    def test_one_a_then_bs(self):
        n = 10**5
        dfa = circular_factor_dfa("a" + "b" * (n - 1))
        assert dfa.n_states == 2 * n - 1
        assert dfa.accepts("b" * (n - 1)) and dfa.accepts("b" * (n - 1) + "a")
        assert not dfa.accepts("aa") and not dfa.accepts("b" * n)

    def test_fibonacci(self):
        word = fibonacci_word(25)
        assert circular_factor_dfa(word, AB).n_states == 2 * len(word) - 1

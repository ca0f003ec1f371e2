import random

import pytest
from hypothesis import given, settings, strategies as st

from antidict import (
    Alphabet,
    build_factor_automaton,
    build_trie,
    equivalent,
    factor_set,
    fibonacci_word,
    isomorphic,
    l_automaton,
    mfw_linear,
    minimize,
    strip_sinks,
)

from .helpers import (
    all_words,
    check_failure_semantics,
    longest_paths_from_initial,
    prefix_acceptor,
)

AB = Alphabet("ab")


class TestLanguage:
    def test_running_example(self):
        dfa = build_factor_automaton("aabbabb")
        assert dfa.enumerate_language(7) == factor_set("aabbabb")
        assert 8 <= dfa.n_states <= 12
        assert dfa.finals == b"\x01" * dfa.n_states

    def test_exhaustive_binary(self):
        for w in all_words("ab", 9):
            dfa = build_factor_automaton(w, AB)
            assert dfa.enumerate_language(len(w)) == factor_set(w), w

    def test_single_letter(self):
        dfa = build_factor_automaton("a")
        assert dfa.n_states == 2
        assert dfa.finals == b"\x01\x01"


class TestMinimality:
    def test_suffix_automaton_alone_is_not_enough(self):
        # the all-final suffix automaton of abbb has 7 states; minimal is 5
        assert build_factor_automaton("abbb").n_states == 5

    def test_against_minimized_prefix_tree(self):
        for symbols, bound in (("ab", 9), ("abc", 5)):
            alphabet = Alphabet(symbols)
            for w in all_words(symbols, bound):
                direct = build_factor_automaton(w, alphabet)
                oracle = minimize(prefix_acceptor(factor_set(w), alphabet))
                assert direct.n_states == oracle.n_states, w
                assert equivalent(direct, oracle), w

    def test_state_bounds(self):
        for w in all_words("ab", 12, min_len=4):
            n = len(w)
            states = build_factor_automaton(w, AB).n_states
            assert n + 1 <= states <= 2 * n - 2, w

    def test_fibonacci_words_attain_lower_bound(self):
        for n in range(1, 13):
            f = fibonacci_word(n)
            assert build_factor_automaton(f, AB).n_states == len(f) + 1


class TestFailureLinks:
    def test_depth_strictly_decreases(self):
        for w in all_words("ab", 9):
            dfa = build_factor_automaton(w, AB)
            depth = longest_paths_from_initial(dfa)
            for state in range(dfa.n_states):
                target = dfa.failure[state]
                if state == dfa.initial:
                    assert target == -1
                else:
                    assert target >= 0
                    assert depth[target] < depth[state], w

    def test_longest_different_suffix_definition(self):
        for w in all_words("ab", 8):
            check_failure_semantics(build_factor_automaton(w, AB), len(w))
        for w in ("aabbabb", "abaababa", "aabcabc"):
            check_failure_semantics(build_factor_automaton(w), len(w))


class TestEdgeCases:
    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            build_factor_automaton("")

    def test_explicit_larger_alphabet(self):
        over_two = build_factor_automaton("aaa", AB)
        over_one = build_factor_automaton("aaa")
        assert over_two.n_states == over_one.n_states == 4
        assert not over_two.accepts("b")

    def test_word_not_covered_by_alphabet(self):
        with pytest.raises(ValueError):
            build_factor_automaton("abc", AB)


@st.composite
def words_with_merges(draw):
    """Words ``x + u + y + u`` and ``x + c^k``: a repeated suffix lets
    suffix-automaton states merge into their suffix links."""
    symbols = "abcd"[: draw(st.integers(1, 4))]
    x = draw(st.text(symbols, max_size=12))
    if draw(st.booleans()):
        u = draw(st.text(symbols, min_size=1, max_size=12))
        y = draw(st.text(symbols, max_size=4))
        word = x + u + y + u
    else:
        word = x + draw(st.sampled_from(symbols)) * draw(st.integers(1, 28))
    return word, Alphabet(symbols)


class TestSuffixLinkMerges:
    """States merge into their suffix links exactly where futures agree."""

    @settings(max_examples=300, deadline=None)
    @given(words_with_merges())
    def test_repeated_suffixes_against_minimized_prefix_tree(self, case):
        word, alphabet = case
        direct = build_factor_automaton(word, alphabet)
        oracle = minimize(prefix_acceptor(factor_set(word), alphabet))
        assert direct.n_states == oracle.n_states
        assert equivalent(direct, oracle)
        check_failure_semantics(direct, len(word))

    def test_long_repeated_suffix_matches_avoidance_route(self):
        rng = random.Random(12)
        word = "".join(rng.choice("ab") for _ in range(2**12 - 200))
        word += word[1000:1200]
        mfws = mfw_linear(word, AB)
        rebuilt = strip_sinks(l_automaton(build_trie(mfws.words, AB)))
        assert isomorphic(build_factor_automaton(word, AB), rebuilt)

    def test_deep_merge_cascade(self):
        # every prefix state of ab^(n-1) merges into the suffix chain
        word = "a" + "b" * 10**5
        dfa = build_factor_automaton(word, AB)
        assert dfa.n_states == len(word) + 1


class TestPlainIntegers:
    def test_step_out_edges_transitions(self):
        # the ndarray-backed tables must not leak numpy scalars at any size
        tiny = build_factor_automaton("abbb", AB)
        large = build_factor_automaton(fibonacci_word(20), AB)
        assert large.n_states > 4096
        for dfa in (tiny, large):
            assert type(dfa.step(0, "a")) is int
            assert all(type(t) is int for _, t in dfa.out_edges(0))
            assert all(type(p) is int and type(q) is int for p, _, q in dfa.transitions())

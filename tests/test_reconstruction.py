import itertools
import random
import re
from array import array

import numpy as np
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
from antidict import automata, mfw, reconstruction

from .helpers import (
    all_words,
    antifactorial_core,
    christoffel_word,
    circular_outcome,
    circular_outcome_by_recomputation,
    de_bruijn_ordered_set,
    distinct_factor_count,
)

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


class TestCountCertificate:
    """reconstruct_word certifies its word u by counting: the set M is M(u)
    exactly when as many words avoid M as u has factors.  On small sets the
    count test is compared with recomputing M(u)."""

    @pytest.mark.parametrize("symbols, max_len, accepted, rejected", [("ab", 4, 57, 86), ("abc", 3, 37, 6)])
    def test_agrees_with_recomputation(self, symbols, max_len, accepted, rejected):
        # every antifactorial set of up to four words whose avoiding
        # language is finite with a unique longest word u
        alphabet, outcomes = Alphabet(symbols), []
        for k in range(5):
            for words in itertools.combinations(all_words(symbols, max_len), k):
                if any(u != v and u in v for u in words for v in words):
                    continue
                mfws = MfwSet(words, alphabet)
                try:
                    u = reconstruction._walk(mfws, circular=False)[0]
                except ReconstructionError:
                    continue
                try:
                    certified = reconstruct_word(mfws) == u
                except ReconstructionError as exc:
                    assert str(exc) == f"verification failed: {u!r} has a different antidictionary"
                    certified = False
                assert certified is (mfw_linear(u, alphabet) == mfws), words
                outcomes.append(certified)
        assert (outcomes.count(True), outcomes.count(False)) == (accepted, rejected)

    def test_a_count_past_int64_is_rejected(self):
        # 2**94 words avoid these 514 words of length 11; the unique longest
        # is the de Bruijn word of order 10, whose factors are far fewer
        words, count, longest = de_bruijn_ordered_set(11)
        assert count > 2**63
        with pytest.raises(ReconstructionError, match=f"^verification failed: '{longest}' has"):
            reconstruct_word(MfwSet(words, AB))


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


class TestCircularCertificate:
    """reconstruct_circular certifies the circular word u that the walk's
    first cycle spells by counting the paths from the root into that cycle,
    once it has refused a second cycle, a second edge out of a cycle state
    and a state that leads into no cycle.  On small sets the certificate is
    compared with recomputing M(u), verdict and message alike."""

    @pytest.mark.parametrize(
        "symbols, bound, accepted, rejected",
        [("ab", 11, 412, 7527), ("abc", 7, 508, 7887), ("acgt", 5, 294, 3946)],
    )
    def test_antidictionaries_of_small_words(self, symbols, bound, accepted, rejected):
        # M(w) read circularly, the circular M(w) and the circular M(w)
        # with each member dropped
        alphabet, seen, outcomes = Alphabet(symbols), set(), []
        for w in all_words(symbols, bound):
            circular = mfw_circular(w, alphabet).words
            dropped = [circular[:i] + circular[i + 1 :] for i in range(len(circular))]
            for words in [mfw_linear(w, alphabet).words, circular, *dropped]:
                if words in seen:
                    continue
                seen.add(words)
                mfws = MfwSet(words, alphabet)
                outcome = circular_outcome(mfws)
                assert outcome == circular_outcome_by_recomputation(mfws), (w, words)
                outcomes.append(isinstance(outcome, CircularWord))
        # accepted: exactly the antidictionaries of the primitive necklaces
        assert (outcomes.count(True), outcomes.count(False)) == (accepted, rejected)

    @pytest.mark.parametrize(
        "symbols, max_len, size, accepted, rejected",
        [("ab", 4, 4, 8, 7483), ("abc", 3, 3, 6, 6365)],
    )
    def test_every_small_set(self, symbols, max_len, size, accepted, rejected):
        alphabet, outcomes = Alphabet(symbols), []
        for k in range(size + 1):
            for words in itertools.combinations(all_words(symbols, max_len), k):
                if any(u != v and u in v for u in words for v in words):
                    continue
                mfws = MfwSet(words, alphabet)
                outcome = circular_outcome(mfws)
                assert outcome == circular_outcome_by_recomputation(mfws), words
                outcomes.append(isinstance(outcome, CircularWord))
        assert (outcomes.count(True), outcomes.count(False)) == (accepted, rejected)

    @pytest.mark.parametrize(
        "words, outcome",
        [
            # a cycle state with a second edge into a non-sink
            (["ba"], "[a]"),
            (["bb"], "[a]"),
            # a second cycle
            (["ab"], "[a]"),
            (["aab"], "[a]"),
            # a state with no path into the cycle
            (["aa", "ab", "ba"], "[b]"),
            (["aa", "ab", "bba"], "[b]"),
            # a single cycle that too many paths lead into
            (["aa", "ba"], "[b]"),
            (["ab", "bb"], "[a]"),
        ],
    )
    def test_each_refusal(self, words, outcome):
        # each set is refused by one condition, and would be accepted if
        # that condition were dropped from the walk
        mfws = MfwSet.build(words, AB)
        message = f"verification failed: {outcome} has a different antidictionary"
        assert circular_outcome(mfws) == circular_outcome_by_recomputation(mfws) == message

    def test_a_count_past_int64_is_refused(self):
        # 2**94 words over ab avoid the 514 de Bruijn members, and after each
        # the letter c leads into the one cycle, c*, that ca and cb leave
        words, count, _ = de_bruijn_ordered_set(11)
        assert count > 2**63
        mfws = MfwSet.build(words + ["ca", "cb"], Alphabet("abc"))
        message = "verification failed: [c] has a different antidictionary"
        assert circular_outcome(mfws) == circular_outcome_by_recomputation(mfws) == message
        assert reconstruction._walk(mfws, circular=True)[2] == 2**63 - 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_sets_near_antidictionaries(self, data):
        symbols = "".join(data.draw(st.permutations("abcd"))[: data.draw(st.integers(1, 4))])
        alphabet = Alphabet(symbols)
        word = data.draw(st.text(symbols, min_size=1, max_size=20))
        members = list(mfw_circular(word, alphabet).words)
        extra = data.draw(st.lists(st.text(symbols, min_size=1, max_size=6), max_size=3))
        dropped = data.draw(st.sets(st.integers(0, len(members) - 1), max_size=2)) if members else set()
        words = [m for i, m in enumerate(members) if i not in dropped] + extra
        mfws = MfwSet(tuple(antifactorial_core(words)), alphabet)
        assert circular_outcome(mfws) == circular_outcome_by_recomputation(mfws)


class TestCompletionFailures:
    """The kernel walk completes the avoidance table itself; a completion
    that fails raises the ReconstructionError it raised as a call of its own."""

    RECONSTRUCTIONS = [reconstruct_word, reconstruct_circular]

    @pytest.mark.parametrize("reconstruct", RECONSTRUCTIONS)
    def test_not_antifactorial(self, reconstruct):
        message = "the set is not antifactorial: a member occurs inside another"
        for words in (["b", "ab"], ["aba", "ba"], ["aa", "bab", "bb", "abb"]):
            with pytest.raises(ReconstructionError, match=f"^{re.escape(message)}$"):
                reconstruct(MfwSet.build(words, AB))

    @pytest.mark.parametrize("reconstruct", RECONSTRUCTIONS)
    def test_not_prefix_free(self, reconstruct):
        message = "'ab' extends another member: the set is not prefix-free"
        with pytest.raises(ReconstructionError, match=f"^{re.escape(message)}$"):
            reconstruct(MfwSet.build(["a", "ab"], AB))

    @pytest.mark.parametrize("reconstruct", RECONSTRUCTIONS)
    @pytest.mark.parametrize(
        "flat, finals",
        [
            ([1, -1, 2, -1, -1, -1], b"\x00\x01\x00"),  # a member end with an edge
            ([1, 1, -1, -1], b"\x00\x01"),  # two parents
            ([2, -1, -1, -1], b"\x00\x01"),  # a state out of range
            ([1, -1, 0, -1], b"\x00\x01"),  # the root as a child
        ],
    )
    def test_a_table_that_is_no_tree(self, monkeypatch, reconstruct, flat, finals):
        # a forged trie in place of the one the members would build
        forged = lambda words, alphabet: (array("i", flat), np.frombuffer(finals, np.uint8).copy())
        monkeypatch.setattr(reconstruction, "_trie_tables", forged)
        message = "the transition table is not a tree rooted at state 0"
        with pytest.raises(ReconstructionError, match=f"^{re.escape(message)}$"):
            reconstruct(MfwSet.build(["aa"], AB))


@pytest.mark.parametrize("symbols", ["\ud800a", "b\udfffa"])
class TestLoneSurrogateSymbols:
    """A lone surrogate is a symbol like any other: it is decoded as it
    was encoded, and survives the JSON hand-off."""

    def test_linear(self, symbols):
        alphabet = Alphabet(symbols)
        for w in all_words(symbols, 6):
            mfws = mfw_linear(w, alphabet)
            assert reconstruct_word(mfws) == w, w
            assert reconstruct_word(MfwSet.from_json(mfws.to_json())) == w, w

    def test_circular(self, symbols):
        alphabet = Alphabet(symbols)
        for w in all_words(symbols, 6):
            cw = CircularWord(w, alphabet)
            if cw.reduced:
                continue
            mfws = mfw_circular(cw, alphabet)
            assert reconstruct_circular(mfws) == cw, w
            assert reconstruct_circular(MfwSet.from_json(mfws.to_json())) == cw, w


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

    def test_fibonacci_of_rank_25(self):
        # 75,025 symbols: members as long as the word, the deepest paths the
        # trie fill resumes from
        word = fibonacci_word(25)
        assert reconstruct_word(mfw_linear(word)) == word
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
        # untimed; about 1 s, the count certificate included
        rng = random.Random(10**6)
        word = "".join(rng.choices("ab", k=10**6))
        assert reconstruct_word(mfw_linear(word, AB)) == word


class TestCompletenessAtScale:
    """The walk's count of the words avoiding mfw_linear(w) equals the
    number of distinct factors of w, counted from a suffix array and LCP
    array that share no code with the suffix automaton.  The soundness
    certificate of tests/test_mfw.py::TestSoundnessAtScale, on the same
    words, shows every member a minimal forbidden factor of w, so every
    factor of w avoids the members; equal counts then make the avoiding
    language w's factor language, and mfw_linear(w) is exactly M(w).  Only
    the oracle is independent: the count comes from the walk, which shares
    its kernels (trie fill, completion and walk) with reconstruct_word."""

    @pytest.mark.parametrize("symbols", ["ab", "acgt"])
    def test_random_words(self, symbols):
        rng = random.Random(symbols)
        w = "".join(rng.choice(symbols) for _ in range(10**5))
        assert reconstruction._walk(mfw_linear(w), circular=False)[2] == distinct_factor_count(w)

    def test_fibonacci_word(self):
        w = fibonacci_word(25)
        assert reconstruction._walk(mfw_linear(w), circular=False)[2] == distinct_factor_count(w)


class TestCircularCertificateAtScale:
    """At 10^5 symbols the circular certificate accepts a necklace's
    antidictionary, refuses it with its shortest or its longest member
    dropped, and agrees with recomputing the antidictionary; untimed."""

    NECKLACES = {
        "binary": lambda: random_primitive_word("ab", 10**5, seed=10**5),
        "acgt": lambda: random_primitive_word("acgt", 10**5, seed=10**5),
        "fibonacci": lambda: fibonacci_word(25),
        "christoffel": lambda: christoffel_word(38_197, 61_803),
    }

    @pytest.mark.parametrize("name", NECKLACES)
    def test_accepts_the_antidictionary_and_refuses_a_member_dropped(self, name):
        word = self.NECKLACES[name]()
        alphabet = Alphabet("ab" if name != "acgt" else "acgt")
        cw = CircularWord(word, alphabet)
        members = mfw_circular(cw, alphabet).words
        assert circular_outcome(MfwSet(members, alphabet)) == cw
        for words in (members[1:], members[:-1]):
            mfws = MfwSet(words, alphabet)
            outcome = circular_outcome(mfws)
            assert outcome.startswith("verification failed: ")
            assert outcome == circular_outcome_by_recomputation(mfws)


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

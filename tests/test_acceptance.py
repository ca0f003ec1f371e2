"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured quantities (run pytest with
``-s`` to see them); the assertions pin the exact values and tolerances.
The corpora are exhaustive: every binary word up to length 12, every ternary
word up to length 8, and every primitive binary necklace up to length 12.
"""

import random
import time

from antidict import (
    Alphabet,
    CircularWord,
    MfwSet,
    ReconstructionError,
    build_factor_automaton,
    build_trie,
    check_cardinality_bounds,
    circular_factor_dfa,
    fibonacci_family,
    fibonacci_word,
    l_automaton,
    mfw_circular,
    mfw_fibonacci_closed_form,
    mfw_linear,
    minimize,
    reconstruct_word,
    strip_sinks,
)
from antidict.checks import (
    check_circular_minimality,
    check_circular_oracle_agreement,
    check_linear_avoidance_isomorphism,
    check_linear_oracle_agreement,
    check_round_trips,
    primitive_necklaces,
)

AB = Alphabet("ab")

FIBONACCI_TABLE = {
    1: {"a"},
    2: {"b"},
    3: {"aa", "bb"},
    4: {"bb", "aaa", "bab"},
    5: {"bb", "aaa", "aabaa", "babab"},
    6: {"bb", "aaa", "babab", "aabaabaa", "babaabab"},
    7: {"bb", "aaa", "babab", "aabaabaa", "aabaababaabaa", "babaababaabab"},
    8: {
        "bb",
        "aaa",
        "babab",
        "aabaabaa",
        "babaababaabab",
        "aabaababaabaababaabaa",
        "babaababaabaababaabab",
    },
}


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion:2d}: {message}")


def test_c01_linear_antidictionary_of_running_example():
    result = mfw_linear("aabbabb", AB).as_set()
    assert result == {"aaa", "aba", "bbb", "baa", "babba"}
    report(1, "antidictionary of aabbabb matches the quoted five-word set")


def test_c02_circular_antidictionary_fixtures():
    assert mfw_circular("aabbabb", AB).as_set() == {"aaa", "aba", "bbb", "aabbaa", "babbab"}
    assert mfw_circular("aaababbb", AB).as_set() == {
        "aaaa", "aabb", "abaa", "abba", "baab", "baba", "bbab", "bbbb",
    }
    assert mfw_circular("aabbab", AB).as_set() == {"aaa", "bbb", "aaba", "abab", "babb", "bbaa"}
    report(2, "circular antidictionaries of aabbabb, aaababbb, aabbab match quoted sets")


def test_c03_fibonacci_antidictionaries_table_and_closed_form():
    started = time.perf_counter()
    for n, expected in FIBONACCI_TABLE.items():
        assert mfw_circular(fibonacci_word(n), AB).as_set() == expected, n
    for n in range(4, 21):
        computed = mfw_circular(fibonacci_word(n), AB).as_set()
        assert computed == mfw_fibonacci_closed_form(n).as_set(), n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"table ranks 1-8 verbatim, closed form ranks 4-20, in {elapsed:.1f}s")


def test_c04_fibonacci_state_counts():
    for n in range(3, 21):
        length = len(fibonacci_word(n))
        circular = circular_factor_dfa(fibonacci_word(n), AB).n_states
        assert circular == 2 * length - 1, n
        linear = build_factor_automaton(fibonacci_word(n), AB).n_states
        assert linear == length + 1, n
    report(4, "circular automata have 2F(n)-1 states and linear ones F(n)+1, ranks 3-20")


def test_c05_circular_minimality_over_corpus():
    started = time.perf_counter()
    result = check_circular_minimality(max_binary=12, max_ternary=7)
    elapsed = time.perf_counter() - started
    assert result.passed, result.failures
    assert elapsed < 120.0
    report(5, f"minimality verified on {result.cases} primitive necklaces in {elapsed:.1f}s")


def test_c06_avoidance_automaton_is_factor_automaton():
    result = check_linear_avoidance_isomorphism(max_binary=12, max_ternary=8)
    assert result.passed, result.failures
    report(6, f"antidictionary pipeline isomorphic to the factor automaton on {result.cases} words")


def test_c07_two_word_non_minimality_witness():
    trie = build_trie(["aa", "ba"], AB, antifactorial=True)
    stripped = strip_sinks(l_automaton(trie))
    assert stripped.n_states == 3
    assert minimize(stripped).n_states == 2
    expected = {"b" * i for i in range(9)} | {"a" + "b" * i for i in range(8)}
    assert stripped.enumerate_language(8) == expected
    report(7, "the {aa, ba} avoidance automaton keeps its extra state (3 vs 2)")


def test_c08_doubled_word_route_equals_definition():
    result = check_circular_oracle_agreement(max_len=12)
    assert result.passed, result.failures
    report(8, f"doubled-word route matches the definitional route on {result.cases} necklaces")


def test_c09_cardinality_bounds_and_tight_witnesses():
    checked = 0
    for w in primitive_necklaces("ab", 12):
        assert check_cardinality_bounds(CircularWord(w, AB), AB).passed, w
        checked += 1
    lower = check_cardinality_bounds(CircularWord("a", AB), AB)
    assert lower.count == lower.lower == 1
    for n in range(2, 13):
        tight = check_cardinality_bounds(CircularWord("a" * (n - 1) + "b"), AB)
        assert tight.count == n == tight.upper, n
    de_bruijn = check_cardinality_bounds(CircularWord("aaababbb"), AB)
    assert de_bruijn.count == 8
    distinct = check_cardinality_bounds(CircularWord("abc"), Alphabet("abc"))
    assert distinct.count == 6
    report(9, f"bounds hold on {checked} necklaces; witnesses tight at both ends")


def test_c10_circular_state_bound():
    equality_cases = []
    for w in primitive_necklaces("ab", 12):
        states = circular_factor_dfa(CircularWord(w, AB), AB).n_states
        assert states <= 2 * len(w) - 1, w
        if states == 2 * len(w) - 1:
            equality_cases.append(w)
    for n in range(3, 13):
        word = "a" + "b" * (n - 1)
        assert circular_factor_dfa(CircularWord(word, AB), AB).n_states == 2 * n - 1, n
        assert CircularWord(word, AB).linearization in equality_cases
    report(10, f"state bound holds; {len(equality_cases)} necklaces attain it (single-a family included)")


def test_c11_round_trips_and_rejection():
    result = check_round_trips(max_binary=12, max_ternary=8, max_circular=12)
    assert result.passed, result.failures
    try:
        reconstruct_word(MfwSet.build(["aa", "ba"], AB))
        raise AssertionError("the {aa, ba} set must be rejected")
    except ReconstructionError:
        pass
    report(11, f"reconstruction inverts both pipelines on {result.cases} inputs; {{aa, ba}} rejected")


def test_c12_linear_oracle_agreement():
    result = check_linear_oracle_agreement(max_binary=12, max_ternary=8)
    assert result.passed, result.failures
    report(12, f"automaton route equals brute force on {result.cases} words")


def test_c13_bispecial_factors_of_doubled_fibonacci():
    from antidict import bispecial_factors

    for n in range(3, 13):
        doubled = fibonacci_word(n) * 2
        expected = {fibonacci_family(i).central for i in range(3, n + 1)}
        assert bispecial_factors(doubled, AB) == expected, n
    report(13, "bispecial factors of doubled Fibonacci words are the central words, ranks 3-12")


def test_c14_performance_on_a_million_symbols():
    rng = random.Random(0xF1B0)
    word = "".join(rng.choices("ab", k=10**6))
    build_factor_automaton(word[:10_000], AB)  # warm allocator and numpy paths

    started = time.perf_counter()
    mfws = mfw_linear(word, AB)
    mfw_seconds = time.perf_counter() - started
    assert mfw_seconds < 5.0

    started = time.perf_counter()
    automaton = build_factor_automaton(word, AB)
    build_seconds = time.perf_counter() - started
    assert build_seconds < 5.0

    n = len(word)
    assert n + 1 <= automaton.n_states <= 2 * n - 2
    report(
        14,
        f"10^6 symbols: antidictionary ({len(mfws)} words) in {mfw_seconds:.2f}s, "
        f"automaton ({automaton.n_states} states) in {build_seconds:.2f}s",
    )


def test_c15_antidictionaries_counted_without_spelling():
    # a.b^(n-1) has n circular members and n + 1 in its square, holding
    # about n^2/2 symbols: the sets hold sites and spell none of them.
    # Measured on a 2-core host: 0.01-0.04 s for both sets at n = 10^5,
    # 0.13-0.16 s for the random 10^6 word; each bound leaves more than 3x
    # headroom.
    n = 10**5
    word = "a" + "b" * (n - 1)
    started = time.perf_counter()
    circular = mfw_circular(word, AB)
    squared = mfw_linear(word + word, AB)
    family_seconds = time.perf_counter() - started
    assert len(circular) == n and len(squared) == n + 1
    assert circular.max_length() == n and squared.max_length() == n + 2
    assert family_seconds < 0.5

    rng = random.Random(0x5175)
    text = "".join(rng.choices("ab", k=10**6))
    started = time.perf_counter()
    mfws = mfw_linear(text, AB)
    text_seconds = time.perf_counter() - started
    assert text_seconds < 1.0
    assert len(mfws) == len(mfws.words)
    report(
        15,
        f"a.b^(n-1), n = 10^5: {len(circular)} circular and {len(squared)} squared members "
        f"in {family_seconds:.3f}s; random 10^6 word: {len(mfws)} members in {text_seconds:.2f}s",
    )

"""The compiled kernels against the plain-Python references, and the build
and guards around them."""

import itertools
import random
import re
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    MfwSet,
    Trie,
    build_factor_automaton,
    build_trie,
    circular_factor_dfa,
    fibonacci_word,
    l_automaton,
    mfw_circular,
    mfw_linear,
    strip_sinks,
)
from antidict import _kernel, automata, factor_automaton
from antidict.automata import _avoidance_tables
from antidict.factor_automaton import _suffix_automaton_buffer
from antidict.l_automaton import _mf_automaton
from antidict.mfw import _forbidden_sites
from antidict.reconstruction import _walk
from antidict.words import _encode

from .helpers import (
    all_words,
    assemble_reference,
    avoidance_reference,
    circular_factor_dfa_reference,
    find_cycle_reference,
    forbidden_sites_reference,
    longest_path_reference,
    merge_candidates_reference,
    suffix_automaton_reference,
    suffix_automaton_tables,
    trie_reference,
)


def assert_same_tables(word: str, alphabet: Alphabet) -> None:
    coded = _encode(word, alphabet)
    assert coded.tolist() == [alphabet.rank(c) for c in word]
    trans, link, length, endpos = suffix_automaton_tables(coded, len(alphabet))
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

    def test_fresh_build_removes_stale_libraries(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / f"_kernel-0000000000000000.{sys.implementation.cache_tag}.so"
        other_tag = cache / "_kernel-0000000000000000.cpython-0.so"
        stale.write_bytes(b"")
        other_tag.write_bytes(b"")
        _kernel.build(cache)
        assert not stale.exists() and other_tag.exists()
        (built,) = set(cache.iterdir()) - {other_tag}
        # a cache hit removes nothing
        stale.write_bytes(b"")
        _kernel.build(cache)
        assert set(cache.iterdir()) == {built, other_tag, stale}

    def test_compiler_errors_raise_import_error(self, tmp_path, monkeypatch):
        broken = tmp_path / "_kernel.c"
        broken.write_text("int suffix_automaton(void) { return undeclared; }\n")
        monkeypatch.setattr(_kernel, "SOURCE", broken)
        with pytest.raises(ImportError, match="undeclared"):
            _kernel.build(tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []

    def test_registered_names_are_the_exports(self):
        # a definition at the start of a line without `static` is exported
        source = _kernel.SOURCE.read_text()
        exports = re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b(\w+)\(", source, re.MULTILINE)
        assert sorted(exports) == sorted(name for name, _, _ in _kernel.SIGNATURES)

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


def assert_same_classes(word: str, alphabet: Alphabet) -> None:
    """The kernel's merge of the suffix automaton gives the reference's
    tables byte for byte: class numbers and failure links included."""
    dfa, ref = build_factor_automaton(word, alphabet), assemble_reference(word, alphabet)
    assert dfa.n_states == ref.n_states, word
    assert dfa.flat == ref.flat, word
    assert dfa.failure == ref.failure, word
    assert dfa.finals == ref.finals, word


def assert_same_candidates(word: str, alphabet: Alphabet) -> None:
    """The kernel decides exactly the reference's merge candidates, in the
    same order: the filter prunes without changing any table, so only the
    list the kernel leaves in its scratch shows it."""
    sigma, code = len(alphabet), _encode(word, alphabet)
    _, link, length, endpos = suffix_automaton_tables(code, sigma)
    tables, cap, size = _suffix_automaton_buffer(code, sigma)
    scratch = np.empty(2 * size + 1, dtype=np.int32)
    _kernel.kernel().factor_classes(tables, cap, size, len(word), sigma, scratch)
    candidates = scratch[: scratch.tolist().index(-1)].tolist()
    assert candidates == merge_candidates_reference(link, length, endpos, len(word)).tolist(), word


class TestFactorClasses:
    """The minimal factor automaton merged in the kernel against the numpy
    and Python merge."""

    def test_candidates(self):
        ab = Alphabet("ab")
        for word in all_words("ab", 10):
            assert_same_candidates(word, ab)
        rng = random.Random(3)
        for symbols in ("ab", "acgt"):
            for n in (10**2, 10**4):
                assert_same_candidates("".join(rng.choice(symbols) for _ in range(n)), Alphabet(symbols))
        assert_same_candidates("a" + "b" * 99, ab)  # 99 candidates of 199 states

    @pytest.mark.parametrize("symbols, bound", [("ab", 12), ("abc", 7), ("acgt", 5)])
    def test_every_small_word(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for word in all_words(symbols, bound):
            assert_same_classes(word, alphabet)

    def test_merge_cascades_and_none(self):
        # a.b^(n-1) merges a chain of n - 2 states, each deciding on the next;
        # a Fibonacci word merges nothing
        ab = Alphabet("ab")
        for n in (2, 3, 10, 1000):
            assert_same_classes("a" + "b" * (n - 1), ab)
            assert_same_classes("ab" * n + "b", ab)
            assert build_factor_automaton("a" + "b" * (n - 1), ab).n_states == n + 1
        for rank in (1, 2, 5, 12, 20):
            assert_same_classes(fibonacci_word(rank), ab)
        assert_same_classes("abbb" * 1000 + "aaaa", ab)
        assert_same_classes("ca", Alphabet("abcd"))
        assert_same_classes("γaβaa", Alphabet("γaβ"))

    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4, 10**5])
    def test_random_words(self, n):
        rng = random.Random(n)
        for symbols in ("ab", "acgt"):
            assert_same_classes("".join(rng.choice(symbols) for _ in range(n)), Alphabet(symbols))


def assert_same_sites(word: str, alphabet: Alphabet, max_len: int) -> None:
    coded = _encode(word, alphabet)
    sites = _forbidden_sites(coded, len(alphabet), max_len)
    assert sites.dtype == np.int32 and sites.shape == (len(sites), 3), (word, max_len)
    assert list(map(tuple, sites.tolist())) == forbidden_sites_reference(
        coded.tolist(), len(alphabet), max_len
    ), (word, max_len)


class TestForbiddenSites:
    """The breadth-first walk's sites, in order, against a full scan of the
    reference suffix automaton sorted by shortest word and letter."""

    @pytest.mark.parametrize("symbols, bound", [("ab", 10), ("abc", 6), ("acgt", 5)])
    def test_every_small_word(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for word in all_words(symbols, bound):
            assert_same_sites(word, alphabet, len(word) + 1)
            assert_same_sites(word + word, alphabet, len(word))  # the circular route

    def test_alphabet_orders_and_missing_letters(self):
        for alphabet in (Alphabet("ba"), Alphabet("cab"), Alphabet("γaβ")):
            symbols = "".join(alphabet.symbols)
            for word in all_words(symbols, 6):
                assert_same_sites(word, alphabet, len(word) + 1)
                assert_same_sites(word + word, alphabet, len(word))
        for word in ("", "ca", "bbbbbb", "dadd"):
            assert_same_sites(word, Alphabet("abcd"), len(word) + 1)

    def test_cap_at_every_length(self):
        # the walk stops at the first state whose members are too long
        for word in ("abaab", "aabbabb", "abcacba", "a" + "b" * 9):
            alphabet = Alphabet.of_word(word)
            for max_len in range(1, 2 * len(word) + 3):
                assert_same_sites(word + word, alphabet, max_len)

    def test_circular_cap_is_exact(self):
        # the circular words abaab and aaaab each have a member of length |w|
        for word, longest in (("abaab", "aabaa"), ("aaaab", "aaaaa")):
            alphabet = Alphabet("ab")
            ww = _encode(word + word, alphabet)
            for max_len, present in ((len(word), True), (len(word) - 1, False)):
                members = {
                    (word + word)[a:b] + alphabet.symbols[c]
                    for a, b, c in _forbidden_sites(ww, 2, max_len).tolist()
                }
                assert (longest in members) is present, (word, max_len)
                assert max(map(len, members)) <= max_len

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        word = data.draw(st.text("".join(symbols), max_size=120))
        max_len = data.draw(st.integers(1, len(word) + 2))
        assert_same_sites(word, Alphabet(symbols), max_len)


def frontier_widths(word: str, alphabet: Alphabet, max_len: int) -> list[int]:
    """The queue length left behind as each state leaves forbidden_sites'
    breadth-first walk, the width its wide/narrow switch reads, replayed on
    the kernel's suffix automaton."""
    trans, link, length, _ = suffix_automaton_tables(_encode(word, alphabet), len(alphabet))
    trans, link, length = trans.tolist(), link.tolist(), length.tolist()
    queue, widths = [0], []
    for head, p in enumerate(queue):  # the loop sees the children it appends
        shortest = length[link[p]] + 1 if p else 0
        if shortest + 1 > max_len:
            break
        widths.append(len(queue) - head - 1)
        queue += [t for t in trans[p] if t >= 0 and length[link[t]] == shortest]
    return widths


SENTINEL = -7


def sites_buffer(word: str, alphabet: Alphabet, max_len: int):
    """forbidden_sites' output buffer, sized as mfw._forbidden_sites sizes it
    and filled with a sentinel first, with the state and site counts."""
    sigma = len(alphabet)
    tables, cap, size = _suffix_automaton_buffer(_encode(word, alphabet), sigma)
    out = np.full(size + 1 + 3 * (size * (sigma - 1) + 2), SENTINEL, dtype=np.int32)
    count = _kernel.kernel().forbidden_sites(tables, cap, size, sigma, max_len, out)
    return out, size, count


class TestWideFrontier:
    """Sites across the kernel's switch between the narrow, branching loop
    and the wide, branch-free one, and the spare slots the latter writes."""

    WIDE = int(re.search(r"WIDE_FRONTIER = (\d+)", _kernel.SOURCE.read_text())[1])

    @pytest.mark.parametrize("sigma", [2, 3, 4, 5])
    def test_random_words_cross_the_switch_both_ways(self, sigma):
        symbols = "abcde"[:sigma]
        rng = random.Random(sigma)
        word = "".join(rng.choice(symbols) for _ in range(2**12))
        alphabet = Alphabet(symbols)
        for text, max_len in ((word, len(word) + 1), (word + word, len(word))):
            widths = frontier_widths(text, alphabet, max_len)
            wide = [i for i, width in enumerate(widths) if width >= self.WIDE]
            assert wide and widths[0] < self.WIDE and wide[-1] < len(widths) - 1, sigma
            assert_same_sites(text, alphabet, max_len)

    @pytest.mark.parametrize(
        "word",
        [fibonacci_word(18), fibonacci_word(19)[:3000], "a" + "b" * 2000, "ab" * 1000 + "a"],
        ids=["fib18", "fib19-prefix", "ab^k", "(ab)^k.a"],
    )
    def test_narrow_words(self, word):
        alphabet = Alphabet("ab")
        for text, max_len in ((word, len(word) + 1), (word + word, len(word))):
            assert max(frontier_widths(text, alphabet, max_len)) < self.WIDE
            assert_same_sites(text, alphabet, max_len)

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100])
    def test_unary_words_meet_the_site_bound(self, n):
        # a^n has n + 1 states and the one site a^(n+1): size*(sigma-1) + 1
        alphabet = Alphabet("a")
        out, size, count = sites_buffer("a" * n, alphabet, n + 1)
        assert size == n + 1 and count == size * (len(alphabet) - 1) + 1
        assert out[size + 1 : size + 4].tolist() == [0, n, 0]
        # a queue one state wide takes the narrow path, which leaves the
        # spare triple unwritten
        assert out[size + 4 :].tolist() == [SENTINEL] * 3
        assert_same_sites("a" * n, alphabet, n + 1)

    @pytest.mark.parametrize("symbols, order", [("ab", 10), ("acgt", 5)])
    def test_spare_queue_entry_and_triple(self, symbols, order):
        # in a de Bruijn word nearly every state's shortest word is one of
        # the order's length, so the walk's last level is wide: the linear
        # cap queues every state, and the wide rows after the last one is
        # queued write a discarded child to the spare queue entry
        word = de_bruijn(symbols, order)
        alphabet = Alphabet(symbols)
        out, size, count = sites_buffer(word, alphabet, len(word) + 1)
        assert sorted(out[:size].tolist()) == list(range(size))
        assert -1 <= out[size] < size  # written over the sentinel
        # nothing past the spare triple
        assert (out[size + 1 + 3 * (count + 1) :] == SENTINEL).all()
        assert_same_sites(word, alphabet, len(word) + 1)


def de_bruijn(symbols: str, order: int) -> str:
    """A word holding every word of the given length over the symbols once,
    by appending the last symbol that makes a new window (Martin, 1934)."""
    word, seen = symbols[0] * order, {symbols[0] * order}
    while True:
        for c in reversed(symbols):
            window = word[len(word) - order + 1 :] + c
            if window not in seen:
                seen.add(window)
                word += c
                break
        else:
            return word


class TestSpellSites:
    @pytest.mark.parametrize(
        "text, units, encoding, width",
        [("abcab", "abc\n", "ascii", 1), ("aβγaβ", "aβγ\x00", "utf-32-le", 4)],
    )
    def test_members_each_followed_by_the_separator(self, text, units, encoding, width):
        # the members text[0:0]+units[1], text[1:4]+units[0], text[3:5]+units[2]
        sites = np.array([[0, 0, 1], [1, 4, 0], [3, 5, 2]], dtype=np.int32)
        expected = "".join(text[a:b] + units[c] + units[3] for a, b, c in sites.tolist())
        out = np.full((len(expected) + 1) * width, 0xEE, dtype=np.uint8)  # and one unit beyond
        _kernel.kernel().spell_sites(
            np.frombuffer(text.encode(encoding), np.uint8),
            width,
            sites,
            len(sites),
            np.frombuffer(units.encode(encoding), np.uint8),
            3,
            out,
        )
        assert out[: len(expected) * width].tobytes().decode(encoding) == expected
        assert out[len(expected) * width :].tolist() == [0xEE] * width


class TestShortlexRun:
    """The kernel's order check on members joined by a separator: the
    index of the first member out of order, else the member count."""

    @staticmethod
    def run(members, encoding="ascii", sep="\n", count=None):
        data = sep.join(members).encode(encoding)
        count = len(members) if count is None else count
        width = 4 if encoding == "utf-32-be" else 1
        return _kernel.kernel().shortlex_run(data, len(data), width, sep.encode(encoding), count)

    @pytest.mark.parametrize("encoding", ["ascii", "utf-32-be"])
    def test_neighbours(self, encoding):
        cases = [
            ([], 0),
            (["a"], 1),
            (["a", "b", "aa", "ab", "ba", "aaa"], 6),
            (["ab", "ab"], 1),  # equal neighbours
            (["a", "b", "b", "ba"], 2),
            (["a", "ab"], 2),  # a proper prefix first: shorter, so in order
            (["ab", "a"], 1),  # a length decrease
            (["b", "ab", "a"], 2),
            (["ab", "aa"], 1),  # as long, and smaller at the last symbol
            (["ba", "bb", "ab"], 2),
            ([""], 0),  # the empty member first, in the middle, last
            (["a", "", "b"], 1),
            (["a", "b", ""], 2),
        ]
        for members, expected in cases:
            assert self.run(members, encoding) == expected, members

    def test_big_endian_units(self):
        # chr(1) < chr(0x100) in code-point order; little-endian bytes would
        # compare them the other way round
        assert self.run(["\x01", "\u0100"], "utf-32-be", "\x00") == 2
        assert self.run(["\u0100", "\x01"], "utf-32-be", "\x00") == 1
        # a unit whose bytes hold the separator's byte is no separator
        assert self.run(["\u0a00", "\u0a0a"], "utf-32-be", "\n") == 2

    def test_separators_are_counted(self):
        # a separator inside a member is one too many: the last member holds it
        assert self.run(["b\nc", "a"]) == 1
        assert self.run(["a", "b\n"]) == 1
        assert self.run(["a", "b", "c"], count=2) == 1
        # one too few: the member that should end at it does not
        assert self.run(["a", "b"], count=3) == 1


def assert_same_mf_automaton(text: str, alphabet: Alphabet, max_len: int, members) -> None:
    """The kernel's pass over the suffix automaton of a text cut at max_len
    gives the stripped avoidance automaton of the members' trie, table for
    table."""
    dfa = _mf_automaton(text, alphabet, max_len)
    ref = strip_sinks(l_automaton(build_trie(members, alphabet)))
    assert (dfa.n_states, dfa.initial) == (ref.n_states, ref.initial), (text, max_len)
    assert dfa.flat == ref.flat, (text, max_len)
    assert dfa.failure == ref.failure, (text, max_len)
    assert dfa.finals == ref.finals, (text, max_len)


def assert_same_mf_automata(words, alphabet: Alphabet) -> None:
    """The linear cap |w| + 1 on every word, then, once per necklace, the
    circular cap |w| on ww and the circular factor automaton against the
    string route, JSON for JSON."""
    necklaces = set()
    for word in words:
        assert_same_mf_automaton(word, alphabet, len(word) + 1, mfw_linear(word, alphabet).words)
        if word:
            necklaces.add(CircularWord(word, alphabet).linearization)
    for w in sorted(necklaces):
        assert_same_mf_automaton(w + w, alphabet, len(w), mfw_circular(w, alphabet).words)
        expected = circular_factor_dfa_reference(w, alphabet).to_json()
        assert circular_factor_dfa(w, alphabet).to_json() == expected, w


class TestMfTrie:
    """The stripped avoidance automaton the kernel reads off the suffix
    automaton's spanning tree, against the string route: the members' trie,
    completed, then stripped of its sinks."""

    @pytest.mark.parametrize("symbols, bound", [("ab", 12), ("abc", 7), ("acgt", 5), ("a", 12)])
    def test_every_small_word(self, symbols, bound):
        assert_same_mf_automata(all_words(symbols, bound), Alphabet(symbols))

    def test_alphabet_orders(self):
        for alphabet in (Alphabet("ba"), Alphabet("cab"), Alphabet("γaβ")):
            symbols = "".join(alphabet.symbols)
            assert_same_mf_automata(all_words(symbols, 8 if len(symbols) == 2 else 5), alphabet)

    def test_letters_missing_from_the_word(self):
        words = ("", "a", "ca", "bbbbbb", "dadd", "dcdcdcd")
        assert_same_mf_automata(words, Alphabet("abcd"))
        assert_same_mf_automata(words[1:], Alphabet("dcba"))

    def test_cap_at_every_length(self):
        # cut at every length, the automaton is that of the members no
        # longer; d is missing from abcacba, so its root has a site even at
        # length 1
        cases = (("abaab", "ab"), ("aabbabb", "ab"), ("abcacba", "abcd"), ("a" + "b" * 9, "ab"))
        for word, symbols in cases:
            alphabet = Alphabet(symbols)
            members = mfw_linear(word + word, alphabet).words
            for max_len in range(0, 2 * len(word) + 3):
                kept = [m for m in members if len(m) <= max_len]
                assert_same_mf_automaton(word + word, alphabet, max_len, kept)

    def test_one_letter_then_another(self):
        # a.b^(n-1): n circular members of about n^2/2 symbols, a trie of
        # 3n - 1 nodes whose n leaves are never stored
        n, ab = 300, Alphabet("ab")
        w = "a" + "b" * (n - 1)
        assert _mf_automaton(w + w, ab, n).n_states == 2 * n - 1
        assert_same_mf_automaton(w + w, ab, n, mfw_circular(w, ab).words)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        word = data.draw(st.text("".join(symbols), max_size=120))
        assert_same_mf_automata([word], Alphabet(symbols))

    def test_failure_link_on_a_sink_raises(self, monkeypatch):
        # a forged suffix automaton whose walk yields the members ab and b:
        # the failure link of the leaf of ab lands on the leaf of b
        cap, sigma = 4, 2
        trans = [1, -1, -1, -1, -1, 3, -1, -1]
        link, length = [-1, 2, 0, 0], [0, 1, 0, 1]
        tables = np.array(trans + link + length + [0] * cap, dtype=np.int32)
        module = sys.modules["antidict.l_automaton"]
        out = np.empty(cap * (sigma + 1), dtype=np.int32)
        assert _kernel.kernel().mf_automaton(tables.copy(), cap, sigma, 2, out) == -1
        monkeypatch.setattr(module, "_suffix_automaton_buffer", lambda code, sigma: (tables, cap, 4))
        with pytest.raises(ValueError, match="not antifactorial"):
            _mf_automaton("ab", Alphabet("ab"), 2)


def assert_same_avoidance(words, alphabet: Alphabet) -> None:
    """The kernel's trie and completed tables equal the references; the
    words must be prefix-free and antifactorial."""
    trie = build_trie(words, alphabet)
    flat, finals = trie_reference(words, alphabet)
    assert trie.flat.typecode == "i", words
    assert trie.flat.tolist() == flat, words
    assert trie.finals == finals, words
    completed, failure = _avoidance_tables(trie)
    ref_completed, ref_failure = avoidance_reference(flat, finals, len(alphabet))
    assert completed.tolist() == ref_completed, words
    assert failure.tolist() == ref_failure, words


def prefix_free(words) -> bool:
    return not any(u != v and v.startswith(u) for u in words for v in words)


def antifactorial(words) -> bool:
    return not any(u != v and u in v for u in words for v in words)


class TestTrieAndAvoidance:
    @pytest.mark.parametrize("symbols, bound", [("ab", 12), ("abc", 8), ("acgt", 6)])
    def test_every_small_antidictionary(self, symbols, bound):
        alphabet = Alphabet(symbols)
        necklaces = set()
        for word in all_words(symbols, bound):
            assert_same_avoidance(mfw_linear(word, alphabet).words, alphabet)
            necklaces.add(CircularWord(word, alphabet).linearization)
        for word in necklaces:
            assert_same_avoidance(mfw_circular(word, alphabet).words, alphabet)

    def test_alphabet_orders(self):
        for alphabet in (Alphabet("cab"), Alphabet("γaβ")):
            symbols = "".join(alphabet.symbols)
            for word in all_words(symbols, 6):
                assert_same_avoidance(mfw_linear(word, alphabet).words, alphabet)
                assert_same_avoidance(mfw_circular(word, alphabet).words, alphabet)

    def test_empty_set_and_repeated_members(self):
        assert_same_avoidance([], Alphabet("ab"))
        assert_same_avoidance(["ab", "ba", "ab", "aa", "ba"], Alphabet("ab"))
        assert build_trie(["ab", "ab"], Alphabet("ab")).n_states == 3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_sets(self, data):
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        alphabet = Alphabet(symbols)
        words = data.draw(st.lists(st.text("".join(symbols), min_size=1, max_size=12), max_size=12))
        if not prefix_free(words):
            with pytest.raises(ValueError, match="extends another member: the set is not prefix-free"):
                build_trie(words, alphabet)
        elif antifactorial(words):
            assert_same_avoidance(words, alphabet)
        else:
            with pytest.raises(ValueError):
                avoidance_reference(*trie_reference(words, alphabet), len(alphabet))
            with pytest.raises(ValueError, match="not antifactorial"):
                _avoidance_tables(build_trie(words, alphabet))

    def test_exact_messages(self):
        ab = Alphabet("ab")
        cases = [
            (["a", "ab"], "'ab' extends another member: the set is not prefix-free"),
            (["ab", "b", "a"], "'ab' extends another member: the set is not prefix-free"),
            (["", "a"], "the empty word cannot be a trie member"),
            (["ab", "ac"], "symbol 'c' of 'ac' is not in alphabet Alphabet('ab')"),
        ]
        for words, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build_trie(words, ab)
        message = "the set is not antifactorial: a member occurs inside another"
        for call in (
            lambda: build_trie(["b", "ab"], ab, antifactorial=True),
            lambda: l_automaton(build_trie(["aba", "ba"], ab)),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_table_is_sized_exactly(self):
        # the circular antidictionary of a.b^(n-1): n members, about n^2/2
        # symbols, and a trie of 3n - 1 nodes
        n = 300
        mfws = mfw_circular("a" + "b" * (n - 1))
        assert len(mfws) == n
        trie = build_trie(mfws.words, mfws.alphabet)
        assert trie.n_states == 3 * n - 1
        assert len(trie.flat) == (3 * n - 1) * 2

    def test_tables_that_are_no_tree_are_refused(self):
        # two parents, a state out of range, the root as a child
        ab = Alphabet("ab")
        for flat in ([1, 1, -1, -1], [2, -1, -1, -1], [1, -1, 0, -1]):
            with pytest.raises(ValueError, match="not a tree"):
                l_automaton(Trie(ab, 2, 0, b"\x00\x01", array("i", flat)))
        trie = Trie(ab, 3, 0, b"\x00\x01\x01", array("i", [1, 2, -1, -1, -1, -1]))
        assert l_automaton(trie).n_states == 3

    def test_a_member_end_with_an_edge_is_no_tree(self):
        # state 1 is final, a member's end and so a sink, yet has a child
        trie = Trie(Alphabet("ab"), 3, 0, b"\x00\x01\x00", array("i", [1, -1, 2, -1, -1, -1]))
        with pytest.raises(ValueError, match="not a tree"):
            l_automaton(trie)
        assert not trie.is_antifactorial()

    def test_guard_fires_before_allocating(self, monkeypatch):
        # the trie of {aa, ab, b} has 5 states
        monkeypatch.setattr(automata, "MAX_STATES", 4)
        with pytest.raises(LimitExceeded):
            build_trie(["aa", "ab", "b"], Alphabet("ab"))
        monkeypatch.setattr(automata, "MAX_STATES", 5)
        assert build_trie(["aa", "ab", "b"], Alphabet("ab")).n_states == 5


def walk_outcome(walk, *args, **kwargs) -> str:
    """The word a walk reads, or the class of the error it raises."""
    try:
        word = walk(*args, **kwargs)
    except ValueError as exc:
        return next(kind for kind in ("infinite", "not unique", "acyclic") if kind in str(exc))
    return "acyclic" if word is None else word


def assert_same_walks(words, alphabet: Alphabet) -> None:
    """The kernel's longest-path and cycle walks read what the references
    read on the stripped automaton; the words must be antifactorial."""
    mfws = MfwSet.build(words, alphabet)
    dfa = strip_sinks(l_automaton(build_trie(words, alphabet)))
    for circular, reference in ((False, longest_path_reference), (True, find_cycle_reference)):
        assert walk_outcome(_walk, mfws, circular=circular) == walk_outcome(reference, dfa), words


def antifactorial_core(words) -> list[str]:
    """The words, shortest first, that contain no shorter word kept before."""
    kept: list[str] = []
    for word in sorted(set(words), key=len):
        if not any(u in word for u in kept):
            kept.append(word)
    return kept


class TestWalks:
    """Reading the word back: the kernel's walks on the completed avoidance
    table against the reference walks on the stripped automaton."""

    @pytest.mark.parametrize("symbols, bound", [("ab", 10), ("abc", 6), ("ba", 8), ("cab", 5)])
    def test_every_small_antidictionary(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for word in all_words(symbols, bound):
            assert_same_walks(mfw_linear(word, alphabet).words, alphabet)
            assert_same_walks(mfw_circular(word, alphabet).words, alphabet)

    def test_named_sets(self):
        ab = Alphabet("ab")
        cases = [
            (["aa", "abb", "bab", "bbb"], "not unique", "acyclic"),  # aba and bba tie
            (["aa", "ab", "bba", "bbb"], "not unique", "acyclic"),  # ba and bb tie
            (["aa", "ba"], "infinite", "b"),
            ([], "infinite", "a"),
            (["a"], "infinite", "b"),
            (["a", "b"], "", "acyclic"),
            (["b", "aa"], "a", "acyclic"),
        ]
        for words, longest, cycle in cases:
            mfws = MfwSet.build(words, ab)
            assert walk_outcome(_walk, mfws, circular=False) == longest, words
            assert walk_outcome(_walk, mfws, circular=True) == cycle, words
            assert_same_walks(words, ab)
        assert walk_outcome(_walk, MfwSet.build([], Alphabet("ba")), circular=True) == "b"

    def test_every_small_binary_set(self):
        # every antifactorial set of up to four binary words of length <= 3
        ab = Alphabet("ab")
        for k in range(5):
            for words in itertools.combinations(all_words("ab", 3), k):
                if antifactorial(words):
                    assert_same_walks(words, ab)

    def test_letters_missing_from_the_word(self):
        for word in ("a", "ca", "dadd", "bbbbbb"):
            alphabet = Alphabet("abcd")
            assert_same_walks(mfw_linear(word, alphabet).words, alphabet)
            assert_same_walks(mfw_circular(word, alphabet).words, alphabet)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_sets(self, data):
        # antifactorial sets, nearly all of which belong to no word
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        words = data.draw(st.lists(st.text("".join(symbols), min_size=1, max_size=8), max_size=12))
        assert_same_walks(antifactorial_core(words), Alphabet(symbols))

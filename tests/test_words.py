import re

import pytest

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    MfwSet,
    bispecial_factors,
    build_factor_automaton,
    build_trie,
    canonical_rotation,
    circular_factor_dfa,
    circular_factor_membership,
    circular_factor_set,
    count_occurrences,
    factor_set,
    fibonacci_word,
    is_balanced,
    is_primitive,
    mfw_circular,
    mfw_linear,
    primitive_root,
    reversal,
    rotations,
)
from antidict.words import FACTOR_ENUMERATION_LIMIT, _circular_input, _encode, _ranks

from .helpers import all_words, substrings


class TestAlphabet:
    def test_order_is_declaration_order(self):
        ab = Alphabet("ba")
        assert ab.rank("b") == 0 and ab.rank("a") == 1
        words = ["ab", "a", "ba", "b", "bb"]
        ab.sort(words)
        assert words == ["b", "bb", "ba", "a", "ab"]

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet(["aa"])
        with pytest.raises(ValueError):
            Alphabet("aba")

    def test_of_word(self):
        assert Alphabet.of_word("bab").symbols == ("a", "b")
        with pytest.raises(ValueError):
            Alphabet.of_word("")

    def test_check_word(self):
        ab = Alphabet("ab")
        ab.check_word("abba")
        with pytest.raises(ValueError):
            ab.check_word("abc")

    @pytest.mark.parametrize(
        "symbols, word, stray",
        [
            ("ab", "abcab", "c"),  # a stray ASCII symbol
            ("ab", "abβa", "β"),  # a non-ASCII symbol under an ASCII alphabet
            ("aβ", "aβcβ", "c"),  # non-ASCII alphabets
            ("αβ", "αβa", "a"),
        ],
    )
    def test_check_word_messages(self, symbols, word, stray):
        alphabet = Alphabet(symbols)
        alphabet.check_word(word.replace(stray, ""))
        message = f"symbol {stray!r} of {word!r} is not in alphabet Alphabet({symbols!r})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            alphabet.check_word(word)

    def test_check_word_agrees_with_sets(self):
        for symbols in ("ab", "ba", "acgt", "aβ", "αβγ"):
            alphabet = Alphabet(symbols)
            for word in all_words("abcβ", 4, min_len=0):
                covered = set(word) <= set(symbols)
                assert (_ranks(word, symbols) is not None) == covered, (symbols, word)
                if covered:
                    alphabet.check_word(word)
                else:
                    with pytest.raises(ValueError):
                        alphabet.check_word(word)

    @pytest.mark.parametrize("symbols", ["aβγδ", "\ud800]^-\\é", "\x00\nβ"])
    def test_covers_a_non_ascii_alphabet(self, symbols):
        # a lone surrogate and characters special to a pattern are symbols
        # like any other
        alphabet = Alphabet(symbols)
        word = symbols * 3
        for covered in (word, ""):
            alphabet.check_word(covered)
            assert _ranks(covered, symbols) is not None
        for stray in ("c", "[", "\ud801", "ε"):
            for outside in (stray + word, word[:4] + stray + word[4:], word + stray):
                assert _ranks(outside, symbols) is None, (symbols, outside)
                with pytest.raises(ValueError, match=re.escape(repr(stray))):
                    alphabet.check_word(outside)


class TestReversal:
    def test_examples(self):
        assert reversal("aabbabb") == "bbabbaa"
        assert reversal("") == ""
        assert reversal("aba") == "aba"  # palindrome

    def test_involution(self):
        for w in all_words("ab", 8):
            assert reversal(reversal(w)) == w


class TestCounting:
    def test_examples(self):
        assert count_occurrences("a", "aabbabb") == 3
        assert count_occurrences("b", "") == 0
        assert count_occurrences("a", "abaab") == 3

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            count_occurrences("c", "ab", Alphabet("ab"))
        with pytest.raises(ValueError):
            count_occurrences("ab", "ab")


class TestFactorSet:
    def test_examples(self):
        assert factor_set("ab", 2) == {"", "a", "b", "ab"}
        assert factor_set("aab", 1) == {"", "a", "b"}

    def test_abaab_count(self):
        # 11 nonempty factors plus the empty word
        fs = factor_set("abaab", 5)
        assert fs == substrings("abaab")
        assert len(fs) == 12

    def test_max_len_cut(self):
        assert factor_set("abc", 2) == {"", "a", "b", "c", "ab", "bc"}
        with pytest.raises(ValueError):
            factor_set("abc", -1)

    def test_guard(self):
        with pytest.raises(LimitExceeded):
            factor_set("a" * (FACTOR_ENUMERATION_LIMIT + 1))


class TestPrimitivity:
    def test_examples(self):
        assert not is_primitive("abab") and primitive_root("abab") == "ab"
        assert is_primitive("abaab") and primitive_root("abaab") == "abaab"
        assert not is_primitive("aaa") and primitive_root("aaa") == "a"

    def test_empty_word(self):
        with pytest.raises(ValueError):
            primitive_root("")

    def test_root_against_definition(self):
        for w in all_words("abc", 8):
            root = next(w[:d] for d in range(1, len(w) + 1) if w[:d] * (len(w) // d) == w)
            assert primitive_root(w) == root, w

    def test_distinct_rotation_count(self):
        for w in all_words("ab", 10):
            assert is_primitive(w) == (len(set(rotations(w))) == len(w))


class TestCanonicalRotation:
    def test_examples(self):
        assert canonical_rotation("bab") == "abb"
        assert canonical_rotation("aabbabb") == "aabbabb"
        assert canonical_rotation("aaa") == "aaa"

    def test_against_min_of_rotations(self):
        for symbols, bound in (("ab", 10), ("abc", 6)):
            for w in all_words(symbols, bound):
                assert canonical_rotation(w) == min(rotations(w))

    def test_idempotent_and_conjugacy_invariant(self):
        for w in all_words("ab", 8):
            canon = canonical_rotation(w)
            assert canonical_rotation(canon) == canon
            for rot in rotations(w):
                assert canonical_rotation(rot) == canon

    def test_respects_alphabet_order(self):
        assert canonical_rotation("ab", Alphabet("ba")) == "ba"
        assert canonical_rotation("aab", Alphabet("ba")) == "baa"

    @pytest.mark.parametrize("symbols, bound", [("cab", 7), ("βaγ", 6)])
    def test_against_min_of_rotations_in_alphabet_order(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for w in all_words(symbols, bound):
            least = min(rotations(w), key=lambda r: [symbols.index(c) for c in r])
            assert canonical_rotation(w, alphabet) == least, w

    def test_empty(self):
        with pytest.raises(ValueError):
            canonical_rotation("")


class TestCircularWord:
    def test_reduces_powers(self):
        cw = CircularWord("aaaaa")
        assert cw.linearization == "a" and cw.reduced and cw.length == 1
        assert not CircularWord("aab").reduced

    def test_equality_across_rotations(self):
        assert CircularWord("bab") == CircularWord("abb")
        assert CircularWord("abab") == CircularWord("ab")
        assert CircularWord("ab") != CircularWord("ba", Alphabet("ba"))
        assert len({CircularWord("aab"), CircularWord("aba"), CircularWord("baa")}) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CircularWord("")

    def test_one_scan_agrees_with_root_then_rotation(self):
        # the kernel's scan flags a proper power, whose least rotation
        # starts with the least rotation of its root
        powers = ["ab" * 3, "abaab" * 4, "b" * 7, "aab" * 5, "βaγ" * 3]
        for w in [*all_words("ab", 12), *powers]:
            cw, root = CircularWord(w), primitive_root(w)
            assert cw.linearization == canonical_rotation(root, cw.alphabet), w
            assert cw.reduced is (root != w), w
        for w in ("ab" * 3, "abaab" * 4, "baab" * 2):
            cw = CircularWord(w, Alphabet("ba"))
            assert cw.linearization == canonical_rotation(primitive_root(w), Alphabet("ba")), w


class TestCircularInput:
    def test_other_alphabet_is_checked(self):
        cw = CircularWord("abb", Alphabet("ab"))
        with pytest.raises(ValueError, match="'b'"):
            _circular_input(cw, Alphabet("a"))
        assert _circular_input(cw, Alphabet("ba"))[1:] == (Alphabet("ba"), "abb")
        assert _circular_input(cw, None)[1:] == (Alphabet("ab"), "abb")

    def test_string_is_checked_once(self, monkeypatch):
        # the constructor's encoding is the check: one pass of _ranks over
        # the word, and no check_word
        calls = []
        check = Alphabet.check_word

        def ranks(word, symbols):
            calls.append(("_ranks", word))
            return _ranks(word, symbols)

        def check_word(alphabet, word):
            calls.append(("check_word", word))
            check(alphabet, word)

        monkeypatch.setattr("antidict.words._ranks", ranks)
        monkeypatch.setattr(Alphabet, "check_word", check_word)
        for alphabet in (Alphabet("ab"), None):
            calls.clear()
            cw, _, linearization = _circular_input("babab", alphabet)
            assert calls == [("_ranks", "babab")] and linearization == "ababb"
        calls.clear()
        _circular_input(cw, cw.alphabet)
        assert calls == []


class TestEncode:
    @pytest.mark.parametrize("symbols", ["aβγδ", "βaγ", "γβα", "a\U0001f600b", "\ud800aβ", "b\udfffa"])
    def test_code_points_against_ranks(self, symbols):
        # non-ASCII alphabets, astral and lone-surrogate symbols included
        alphabet = Alphabet(symbols)
        for w in [*all_words(symbols, 5), symbols * 50]:
            code = _encode(w, alphabet)
            assert code.dtype == "int32", symbols
            assert code.tolist() == [alphabet.rank(c) for c in w], w

    @pytest.mark.parametrize("symbols", ["ba", "aβγδ", "a\U0001f600b", "\ud800aβ"])
    def test_ranks_reject_symbols_outside(self, symbols):
        # points below, between and above the symbols' points
        for stray in ("\x00", "`", "c", "é", "\U0001f601", "\U0010ffff"):
            if stray not in symbols:
                assert _ranks(symbols + stray + symbols, symbols) is None, stray
        assert _ranks(symbols[::-1], symbols).tolist() == list(range(len(symbols)))[::-1]
        assert _ranks("", symbols).tolist() == []


def among_members(word: str, alphabet: Alphabet) -> list[str]:
    """The word as the one member of three holding a stray symbol, which
    the error must name."""
    return [alphabet.symbols[0] * 2, word, alphabet.symbols[-1]]


class TestSymbolGate:
    """Every route to the kernel refuses a symbol outside the alphabet
    with check_word's message, whatever the alphabet's kind."""

    # ASCII, reordered, non-ASCII, astral and lone-surrogate alphabets
    ALPHABETS = ["ab", "tgca", "aβγδ", "a\U0001f600b", "\ud800a"]
    STRAYS = ["\x00", "z", "é", "\U0001f601", "\udfff"]
    ENTRY_POINTS = {
        "mfw_linear": mfw_linear,
        "mfw_circular": mfw_circular,
        "build_factor_automaton": build_factor_automaton,
        "circular_factor_dfa": circular_factor_dfa,
        "CircularWord": CircularWord,
        "canonical_rotation": canonical_rotation,
        "build_trie": lambda word, alphabet: build_trie(among_members(word, alphabet), alphabet),
        "MfwSet.from_json": lambda word, alphabet: MfwSet.from_json(
            {"alphabet": "".join(alphabet.symbols), "mfw": among_members(word, alphabet)}
        ),
    }

    @pytest.mark.parametrize("symbols", ALPHABETS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_stray_symbol_refused(self, entry, symbols):
        alphabet, call = Alphabet(symbols), self.ENTRY_POINTS[entry]
        for stray in self.STRAYS:
            for word in (stray + symbols, symbols + stray + symbols, symbols * 2 + stray):
                message = f"symbol {stray!r} of {word!r} is not in alphabet Alphabet({symbols!r})"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(word, alphabet)

    @pytest.mark.parametrize("symbols", ALPHABETS)
    def test_encode_never_passes_a_stray(self, symbols):
        alphabet = Alphabet(symbols)
        for word in all_words(symbols + "z\udfff", 3, min_len=0):
            if set(word) <= set(symbols):
                code = _encode(word, alphabet)
                assert code.tolist() == [alphabet.rank(c) for c in word], word
                assert code.dtype == "int32" and (code < len(alphabet)).all(), word
            else:
                with pytest.raises(ValueError, match="is not in alphabet"):
                    _encode(word, alphabet)


class TestCircularFactors:
    def test_membership_examples(self):
        assert circular_factor_membership(CircularWord("ab"), "abab")
        # a circular factor that no single linearization of aabbabb contains
        assert circular_factor_membership(CircularWord("aabbabb"), "babba")
        assert not circular_factor_membership(CircularWord("ab"), "aa")
        assert circular_factor_membership(CircularWord("ab"), "")

    def test_membership_stable_under_bigger_powers(self):
        # the chosen power bound is enough: higher powers find nothing new
        for w in ("ab", "aab", "aabb", "abbab"):
            cw = CircularWord(w)
            for x in all_words("ab", 2 * len(w) + 2):
                k = -(-len(x) // len(w)) + 1
                member = circular_factor_membership(cw, x)
                assert member == (x in cw.linearization * (k + 1))
                assert member == (x in cw.linearization * (k + 3))

    def test_factor_set_examples(self):
        assert circular_factor_set(CircularWord("ab"), 3) == {
            "", "a", "b", "ab", "ba", "aba", "bab",
        }
        assert circular_factor_set(CircularWord("a", Alphabet("ab")), 2) == {"", "a", "aa"}

    def test_factor_set_abaab(self):
        cw = CircularWord("abaab")
        fs = circular_factor_set(cw, 5)
        assert len(fs) == 20
        # cross-check against the membership oracle over all candidates
        expected = {x for x in all_words("ab", 5) if circular_factor_membership(cw, x)}
        expected.add("")
        assert fs == expected

    def test_rotation_and_power_invariance(self):
        for w in ("aab", "aabab", "abbab"):
            reference = circular_factor_set(CircularWord(w), len(w))
            for rot in rotations(w):
                assert circular_factor_set(CircularWord(rot), len(w)) == reference
            assert circular_factor_set(CircularWord(w * 3), len(w)) == reference

    def test_linear_factors_are_circular_factors(self):
        for w in all_words("ab", 7):
            if is_primitive(w):
                assert factor_set(w, len(w)) <= circular_factor_set(CircularWord(w), len(w))


class TestBalance:
    def test_examples(self):
        assert is_balanced("abaab")
        assert not is_balanced("aabb")
        assert is_balanced("")

    def test_fibonacci_squares_balanced(self):
        for n in range(3, 10):
            f = fibonacci_word(n)
            assert is_balanced(f)
            assert is_balanced(f + f)

    def test_non_ascii_alphabet(self):
        greek = str.maketrans("ab", "αβ")
        for word in all_words("ab", 10, min_len=0):
            image = word.translate(greek)
            assert is_balanced(image, Alphabet("αβ")) == is_balanced(word, Alphabet("ab")), word
            assert is_balanced(image) == is_balanced(word), word

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            is_balanced("abc")


class TestBispecial:
    def test_examples(self):
        assert bispecial_factors("abaaba") == {"", "a"}
        assert bispecial_factors("abaababaab") == {"", "a", "aba"}
        assert bispecial_factors("aaaa") == set()

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            bispecial_factors("abc")

    def test_stray_symbol_refused(self):
        # as is_balanced does, and under a one-letter alphabet too
        for symbols, word, stray in (("ab", "abcab", "c"), ("a", "aab", "b")):
            with pytest.raises(ValueError, match=re.escape(f"symbol {stray!r} of {word!r}")):
                bispecial_factors(word, Alphabet(symbols))

    def test_definition_directly(self):
        for w in all_words("ab", 7):
            fs = factor_set(w)
            expected = {
                v for v in fs
                if "a" + v in fs and "b" + v in fs and v + "a" in fs and v + "b" in fs
            }
            assert bispecial_factors(w, Alphabet("ab")) == expected

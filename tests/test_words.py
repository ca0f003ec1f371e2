import re

import pytest

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    bispecial_factors,
    canonical_rotation,
    circular_factor_membership,
    circular_factor_set,
    count_occurrences,
    factor_set,
    fibonacci_word,
    is_balanced,
    is_primitive,
    primitive_root,
    reversal,
    rotations,
)
from antidict.words import FACTOR_ENUMERATION_LIMIT, _circular_input, _encode

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
                assert alphabet._covers(word) == (set(word) <= set(symbols)), (symbols, word)

    @pytest.mark.parametrize("symbols", ["aβγδ", "\ud800]^-\\é", "\x00\nβ"])
    def test_covers_a_non_ascii_alphabet(self, symbols):
        # one character class of the escaped symbols: a lone surrogate and
        # the class's metacharacters are symbols like any other
        alphabet = Alphabet(symbols)
        word = symbols * 3
        assert alphabet._covers(word) and alphabet._covers("")
        for stray in ("c", "[", "\ud801", "ε"):
            for covered in (stray + word, word[:4] + stray + word[4:], word + stray):
                assert not alphabet._covers(covered), (symbols, covered)
                with pytest.raises(ValueError, match=re.escape(repr(stray))):
                    alphabet.check_word(covered)


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
        calls = []
        check = Alphabet.check_word

        def counted(alphabet, word):
            calls.append(word)
            check(alphabet, word)

        monkeypatch.setattr(Alphabet, "check_word", counted)
        for alphabet in (Alphabet("ab"), None):
            calls.clear()
            cw, _, linearization = _circular_input("babab", alphabet)
            assert calls == ["babab"] and linearization == "ababb"
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

    def test_definition_directly(self):
        for w in all_words("ab", 7):
            fs = factor_set(w)
            expected = {
                v for v in fs
                if "a" + v in fs and "b" + v in fs and v + "a" in fs and v + "b" in fs
            }
            assert bispecial_factors(w, Alphabet("ab")) == expected

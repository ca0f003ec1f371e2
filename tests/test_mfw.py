import copy
import json
import pickle
import random
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from antidict import (
    Alphabet,
    CircularWord,
    LimitExceeded,
    MfwSet,
    check_cardinality_bounds,
    circular_factor_dfa,
    circular_factor_membership,
    factor_set,
    fibonacci_word,
    mfw_circular,
    mfw_circular_bruteforce,
    mfw_linear,
    mfw_linear_bruteforce,
    rotations,
)
from antidict import mfw
from antidict.words import _member_ranks

from .helpers import CJK_300, all_words, unsound_members, words_avoiding

AB = Alphabet("ab")
ABC = Alphabet("abc")


def key_sort(words, symbols: str) -> tuple[str, ...]:
    """The MfwSet order by definition: distinct words by length, then by
    their symbols' ranks."""
    return tuple(sorted(set(words), key=lambda w: (len(w), [symbols.index(c) for c in w])))


EMPTY_MEMBER = "the empty word '' cannot be a minimal forbidden factor"


def refusal(words, alphabet: Alphabet) -> str | None:
    """The message a member list is refused with, or None: the first
    member holding a symbol outside the alphabet is named, else the empty
    member is."""
    for word in words:
        for symbol in word:
            if symbol not in alphabet:
                return f"symbol {symbol!r} of {word!r} is not in alphabet {alphabet}"
    return EMPTY_MEMBER if "" in words else None


class TestMfwSet:
    def test_sorted_by_length_then_lexicographic(self):
        s = MfwSet.build(["babba", "bbb", "aaa", "baa", "aba"], AB)
        assert s.words == ("aaa", "aba", "baa", "bbb", "babba")

    def test_respects_alphabet_order(self):
        s = MfwSet.build(["ab", "ba", "b", "a"], Alphabet("ba"))
        assert s.words == ("b", "a", "ba", "ab")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_build_against_a_key_sort(self, data):
        symbols = "".join(data.draw(st.permutations("abcé")))
        alphabet = Alphabet(symbols)
        words = data.draw(st.lists(st.text(symbols, max_size=6), max_size=40))
        if "" in words:  # refused in any order, then left out
            for members in (words, key_sort(words, symbols)):
                with pytest.raises(ValueError, match=f"^{re.escape(EMPTY_MEMBER)}$"):
                    MfwSet.build(members, alphabet)
            words = [w for w in words if w]
        expected = key_sort(words, symbols)
        assert MfwSet.build(words, alphabet).words == expected
        assert MfwSet.build(expected, alphabet).words == expected
        assert MfwSet.build(expected + expected[::2], alphabet).words == expected

    @pytest.mark.parametrize("ws", [("aa", "bab", "bbb", "abaa"), ("b", "aa", "abb", "ba")])
    def test_constructor_orders_members(self, ws):
        canonical = MfwSet(key_sort(ws, "ab"), AB)
        assert canonical.words == key_sort(ws, "ab")
        for mfws in (MfwSet(reversed(ws), AB), MfwSet(ws + ws[1:2], AB)):
            assert mfws.words == canonical.words
            assert mfws == canonical and hash(mfws) == hash(canonical)
            assert mfws.max_length() == max(map(len, ws))
            assert pickle.loads(pickle.dumps(mfws)).words == canonical.words

    def test_container_protocol(self):
        s = mfw_linear("aabbabb")
        assert len(s) == 5
        assert "aba" in s and "ab" not in s
        assert set(s) == s.as_set()
        assert s.max_length() == 5

    def test_check_antifactorial(self):
        mfw_linear("aabbabb").check_antifactorial()
        with pytest.raises(ValueError):
            MfwSet.build(["a", "ab"], AB).check_antifactorial()

    def test_json_round_trip(self):
        s = mfw_circular("aabbabb")
        data = json.loads(json.dumps(s.to_json()))
        assert data["circular"] is True
        back = MfwSet.from_json(data)
        assert back.words == s.words
        assert back.alphabet == s.alphabet
        assert back.kind == "circular"

    def test_json_repeated_member_comes_back_once(self):
        members = ["bb", "aaa", "bb", "aabaa", "aaa", "bb"]
        data = {"alphabet": "ab", "circular": True, "mfw": members}
        assert MfwSet.from_json(data).words == ("bb", "aaa", "aabaa")
        assert data["mfw"] == ["bb", "aaa", "bb", "aabaa", "aaa", "bb"]  # not sorted in place

    @pytest.mark.parametrize(
        "data",
        [
            {"mfw": ["aa"]},
            ["aa", "bb"],
            {"alphabet": "ab", "mfw": "aa"},
            {"alphabet": "ab", "mfw": ["aa", 3]},
            {"alphabet": "ab", "mfw": ["aa"], "word": 7},
            {"alphabet": 5, "mfw": []},
            # to_json writes "circular" as a bool: nothing else selects a kind
            {"alphabet": "ab", "mfw": ["aa"], "circular": "false"},
            {"alphabet": "ab", "mfw": ["aa"], "circular": 1},
            {"alphabet": "ab", "mfw": ["aa"], "circular": 0},
        ],
    )
    def test_json_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            MfwSet.from_json(data)

    @pytest.mark.parametrize(
        "members, named",
        [(["aa", "c", "bb"], "'c'"), (["ab", "aβ"], "'aβ'"), (["c", "aa", "", "aa"], "'c'"), (["bb", "", "aa"], "''")],
    )
    def test_json_rejects_stray_and_empty_members(self, members, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            MfwSet.from_json({"alphabet": "ab", "mfw": members})


class TestOrderCheck:
    """MfwSet.build keeps words the kernel finds in order and sorts the
    rest as before."""

    ALPHABETS = ["ab", "ba", "acgt", "tgca", "aβγδ", "δγβa"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shuffled_and_repeated_members(self, data):
        symbols = data.draw(st.sampled_from(self.ALPHABETS))
        alphabet = Alphabet(symbols)
        word = data.draw(st.text(symbols, min_size=1, max_size=40))
        compute = data.draw(st.sampled_from([mfw_linear, mfw_circular]))
        mfws = compute(word, alphabet)
        members = list(mfws.words)
        members += data.draw(st.lists(st.sampled_from(members), max_size=5)) if members else []
        shuffled = data.draw(st.permutations(members))
        back = MfwSet.from_json({"alphabet": symbols, "mfw": shuffled})
        assert back.words == MfwSet.build(shuffled, alphabet).words == mfws.words
        assert back.words == key_sort(shuffled, symbols)

    @pytest.mark.parametrize("symbols", ALPHABETS)
    def test_canonical_input_is_not_sorted(self, monkeypatch, symbols):
        rng = random.Random(symbols)
        word = "".join(rng.choice(symbols) for _ in range(2000))
        alphabet = Alphabet(symbols)
        documents = [mfw_linear(word, alphabet).to_json(), mfw_circular(word, alphabet).to_json()]

        def refuse(words, alphabet):
            raise AssertionError("canonical members were sorted")

        monkeypatch.setattr(mfw, "_sort", refuse)
        for data in documents:
            assert MfwSet.from_json(json.loads(json.dumps(data))).words == tuple(data["mfw"])
        with pytest.raises(AssertionError, match="sorted"):
            MfwSet.from_json({"alphabet": symbols, "mfw": documents[0]["mfw"][::-1]})

    @pytest.mark.parametrize(
        "members", [["", "aa", "bb"], ["aa", "", "bb"], ["aa", "bb", ""], ["b", "", "a", ""]]
    )
    def test_empty_member_anywhere_is_named(self, members):
        for symbols in ("ab", "ba"):
            with pytest.raises(ValueError, match=re.escape("''")):
                MfwSet.from_json({"alphabet": symbols, "mfw": members})

    @pytest.mark.parametrize(
        "symbols, member",
        # the separator of each alphabet, after the rank translation for "ba"
        [("ab", "a\x00b"), ("ba", "a\x02b"), ("aβ", "a\x00β"), ("δγβa", "a\x04δ")],
    )
    def test_member_holding_the_separator_is_named(self, symbols, member):
        with pytest.raises(ValueError, match=re.escape(repr(member))):
            MfwSet.from_json({"alphabet": symbols, "mfw": [symbols[0], member, symbols[1] * 3]})

    def test_words_holding_the_separator_are_refused(self):
        # split at the separator, these would read as b, c, a: in order for
        # two members, though "a" comes first; an ASCII alphabet given a
        # non-ASCII word refuses it too
        for words in (["b\x00c", "a"], ["a", "b\x00"], ["é", "a"]):
            with pytest.raises(ValueError, match=f"^{re.escape(refusal(words, ABC))}$"):
                MfwSet.build(words, ABC)

    @pytest.mark.parametrize(
        "words, symbols", [(["é", "a"], "abc"), (["a\x00b"], "ab"), (["", "a"], "ab")]
    )
    def test_constructor_refuses_as_from_json_does(self, words, symbols):
        message = refusal(words, Alphabet(symbols))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MfwSet(words, Alphabet(symbols))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MfwSet.from_json({"alphabet": symbols, "mfw": words})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rank_units_agree_with_the_sort(self, data):
        # every alphabet maps its members to rank units, the last one too
        # many ranks for one byte a unit; a list holding a stray symbol, the
        # separator among them, or the empty word is refused alike by the
        # constructor and by from_json; the valid members round-trip
        symbols = data.draw(st.sampled_from([*self.ALPHABETS, "γaβ", "βa", CJK_300]))
        alphabet = Alphabet(symbols)
        strays = ["", "\x00", "\x01", "b", "z", "é", "\ud800", "\U0001f600", "\U0010ffff"]
        letters = symbols + data.draw(st.sampled_from(strays))
        words = data.draw(st.lists(st.text(letters, max_size=6), max_size=12))
        message = refusal(words, alphabet)
        if message is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MfwSet(words, alphabet)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                MfwSet.from_json({"alphabet": symbols, "mfw": words})
            words = [w for w in words if refusal([w], alphabet) is None]
        mfws = MfwSet(words, alphabet)
        back = MfwSet.from_json(json.loads(json.dumps(mfws.to_json())))
        assert back == mfws and back.words == mfws.words == key_sort(words, symbols)
        for members in (words, list(mfw._sort(words, alphabet))):
            expected = tuple(members) == key_sort(members, symbols)
            # the kernel's verdict: the first member out of MfwSet order
            first_out = _member_ranks(members, alphabet)[1][len(members) + 2]
            assert (first_out == len(members)) == expected, members

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_order_verdict_against_the_sort(self, data):
        # the constructor keeps a list exactly when it equals its own sort
        # and holds no empty member, and refuses a stray or the empty member
        # with from_json's message; lists of actual members, shuffled or not,
        # with repeats, the empty member or a member holding the separator
        symbols = data.draw(st.sampled_from(["ab", "δγβa", CJK_300]))
        alphabet = Alphabet(symbols)
        word = data.draw(st.text(symbols[:5], min_size=1, max_size=30))
        words = list(data.draw(st.sampled_from([mfw_linear, mfw_circular]))(word, alphabet).words)
        words += data.draw(st.lists(st.sampled_from(words), max_size=3)) if words else []
        if data.draw(st.booleans()):
            words = data.draw(st.permutations(words))
        else:
            words = list(mfw._sort(words, alphabet))
        sep = "\x00"  # the separator of all three alphabets
        extras = st.sampled_from(["", sep, "a" + sep, symbols[0] + sep + symbols[-1]])
        for extra in data.draw(st.lists(extras, max_size=2)):
            words.insert(data.draw(st.integers(0, len(words))), extra)
        message, ordered = refusal(words, alphabet), mfw._sort(words, alphabet)
        document = {"alphabet": symbols, "mfw": words}
        for build in (lambda: MfwSet(words, alphabet), lambda: MfwSet.from_json(document)):
            with mock.patch.object(mfw, "_sort", wraps=mfw._sort) as spy:
                if message is None:
                    assert build().words == ordered
                else:
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        build()
            if message is None or message == EMPTY_MEMBER:
                # the sort runs exactly when the kernel's verdict is no
                assert spy.call_count == (tuple(words) != ordered or "" in words), words
            else:
                assert spy.call_count == 0, words  # a stray is refused before any sort


class TestSiteForm:
    """A set held as the kernel's sites and the same members built from
    strings read alike; the sites are read without spelling."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_the_string_form(self, data):
        symbols = data.draw(st.sampled_from(["ab", "acgt", "aβγδ"]))
        alphabet = Alphabet(symbols)
        compute = data.draw(st.sampled_from([mfw_linear, mfw_circular]))
        word, other = data.draw(st.lists(st.text(symbols, min_size=1, max_size=40), min_size=2, max_size=2))
        sites = compute(word, alphabet)
        again, rival = compute(word, alphabet), compute(other, alphabet)
        read = len(sites), sites.max_length(), hash(sites)
        assert sites == again and hash(again) == read[2]
        assert sites._words is None is again._words  # none of the above spelled a member
        same = word == other if compute is mfw_linear else CircularWord(word) == CircularWord(other)
        assert (sites == rival) is same and (rival != sites) is not same
        strings = MfwSet.build(list(sites.words), alphabet, sites.kind, sites.source)
        assert sites == strings and strings == sites and hash(strings) == read[2]
        assert (len(strings), strings.max_length()) == read[:2]
        assert strings.as_set() == sites.as_set() == again.as_set()
        assert json.dumps(strings.to_json()) == json.dumps(sites.to_json())
        assert (rival == strings) is same

    def test_threads_spelling_one_set_agree(self):
        # the kernel spells with the interpreter lock released, so threads
        # race to keep their tuples; each must read the same members
        alphabet = Alphabet("acgt")
        word = "".join(random.Random(7).choices("acgt", k=20_000))
        expected = mfw_linear(word, alphabet).words
        mfws = mfw_linear(word, alphabet)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(mfws.words)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 and all(words == expected for words in results)
        assert mfws.words == expected

    def test_immutable_and_copied_in_either_form(self):
        for mfws in (mfw_linear("abaab"), MfwSet.build(["aa", "bab"], AB)):
            with pytest.raises(AttributeError):
                mfws.kind = "circular"
            for back in (copy.copy(mfws), pickle.loads(pickle.dumps(mfws))):
                assert back == mfws and back.words == mfws.words and back.kind == mfws.kind


class TestMemberSymbolCap:
    """The cap guards spelling the members, not computing the set: the
    sites are counted and measured whatever the members would hold."""

    def test_cap_is_exact(self, monkeypatch):
        word = "a" + "b" * 40
        for compute in (mfw_linear, mfw_circular):
            members = compute(word).words
            total = sum(map(len, members))
            monkeypatch.setattr(mfw, "MAX_MEMBER_SYMBOLS", total)
            assert compute(word).words == members
            monkeypatch.setattr(mfw, "MAX_MEMBER_SYMBOLS", total - 1)
            mfws = compute(word)  # computing never raises
            assert len(mfws) == len(members) and mfws.max_length() == 41
            with pytest.raises(LimitExceeded, match="more than the cap"):
                mfws.words
            monkeypatch.undo()

    def test_quadratic_family_refused(self, monkeypatch):
        # a.b^k, circular or squared, has about k^2/2 member symbols
        monkeypatch.setattr(mfw, "MAX_MEMBER_SYMBOLS", 10**4)
        word = "a" + "b" * 200
        circular, squared = mfw_circular(word), mfw_linear(word * 2)
        assert len(circular) == 201 and len(squared) == 202
        for mfws in (circular, squared):
            for read in (lambda m: m.words, list, MfwSet.as_set, MfwSet.to_json, lambda m: "a" in m):
                with pytest.raises(LimitExceeded):
                    read(mfws)
        assert mfw_linear(word).as_set() == {"aa", "ba", "b" * 201}
        # circular_factor_dfa reads its automaton off the suffix automaton
        # and makes no member, so the cap does not apply to it
        assert circular_factor_dfa(word).n_states == 2 * 201 - 1


class TestSpellingRoutes:
    """Spelling the members in the kernel and slicing them out of the word
    give the same tuples; SPELL_MEAN_LENGTH forces either route."""

    @staticmethod
    def assert_same_routes(monkeypatch, word: str, alphabet: Alphabet) -> None:
        routes = []
        for mean in (0, 10**9):  # slicing, then spelling
            monkeypatch.setattr(mfw, "SPELL_MEAN_LENGTH", mean)
            routes.append((mfw_linear(word, alphabet).words, mfw_circular(word, alphabet).words))
        monkeypatch.undo()
        assert routes[0] == routes[1], (word, alphabet)

    @pytest.mark.parametrize("symbols, bound", [("ab", 10), ("abc", 6)])
    def test_every_small_word(self, monkeypatch, symbols, bound):
        for word in all_words(symbols, bound):
            self.assert_same_routes(monkeypatch, word, Alphabet(symbols))

    @pytest.mark.parametrize(
        "symbols",
        # non-ASCII, controls among the symbols, a lone surrogate, and all
        # 128 ASCII symbols, whose separator is not ASCII
        ["aβ", "βaγ", "\x00ab", "a\nb", "\n\x00", "a\ud800", "".join(map(chr, range(128)))],
        ids=["a-beta", "beta-a-gamma", "nul-a-b", "a-newline-b", "newline-nul", "a-surrogate", "ascii"],
    )
    def test_alphabets(self, monkeypatch, symbols):
        rng = random.Random(len(symbols))
        for size in (1, 2, 5, 40, 300):
            word = "".join(rng.choice(symbols) for _ in range(size))
            self.assert_same_routes(monkeypatch, word, Alphabet(symbols))

    def test_empty_antidictionary(self, monkeypatch):
        for mean in (0, 10**9):
            monkeypatch.setattr(mfw, "SPELL_MEAN_LENGTH", mean)
            assert mfw_circular("a", Alphabet("a")).words == ()

    def test_long_members(self, monkeypatch):
        self.assert_same_routes(monkeypatch, "a" + "b" * 299, AB)
        assert mfw_circular("a" + "b" * 299).words[-1] == "b" * 300

    @pytest.mark.parametrize("symbols", ["ab", "acgt", "aβγδ"])
    def test_random_long_words(self, monkeypatch, symbols):
        rng = random.Random(len(symbols))
        word = "".join(rng.choice(symbols) for _ in range(10**5))
        self.assert_same_routes(monkeypatch, word, Alphabet(symbols))


class TestLinear:
    def test_running_example(self):
        assert mfw_linear("aabbabb").as_set() == {"aaa", "aba", "bbb", "baa", "babba"}

    def test_quadratic_family(self):
        # a b^n a forbids a b^i a for every smaller i
        for n in range(2, 7):
            word = "a" + "b" * n + "a"
            result = mfw_linear(word, AB).as_set()
            for i in range(n):
                assert "a" + "b" * i + "a" in result
            assert result == mfw_linear_bruteforce(word, AB).as_set()

    def test_single_letter_with_wider_alphabet(self):
        assert mfw_linear("a", AB).as_set() == {"b", "aa"}
        assert mfw_linear("a", Alphabet("a")).as_set() == {"aa"}

    def test_empty_word(self):
        assert mfw_linear("", AB).as_set() == {"a", "b"}
        with pytest.raises(ValueError):
            mfw_linear("")

    def test_alphabet_must_cover_word(self):
        with pytest.raises(ValueError):
            mfw_linear("abc", AB)

    def test_against_brute_force(self):
        # whole tuples: the fast route emits its members already in order
        for w in all_words("ab", 9):
            assert mfw_linear(w, AB).words == mfw_linear_bruteforce(w, AB).words, w
        for w in all_words("abc", 5):
            assert mfw_linear(w, ABC).words == mfw_linear_bruteforce(w, ABC).words, w

    def test_brute_force_guard(self):
        with pytest.raises(LimitExceeded):
            mfw_linear_bruteforce("ab" * 40)

    def test_definition_invariants(self):
        for w in ("aabbabb", "abaababa", "babbabab"):
            fs = factor_set(w)
            result = mfw_linear(w, AB)
            result.check_antifactorial()
            for v in result:
                if len(v) == 1:
                    assert v not in fs
                else:
                    assert v not in fs and v[:-1] in fs and v[1:] in fs

    def test_avoidance_bijection(self):
        # words avoiding the antidictionary, cut at |w|, are exactly the factors
        for w in all_words("ab", 8):
            avoiding = words_avoiding(mfw_linear(w, AB).words, "ab", len(w))
            assert avoiding == factor_set(w), w


class TestCircular:
    def test_quoted_sets(self):
        assert mfw_circular("aabbabb").as_set() == {"aaa", "aba", "bbb", "aabbaa", "babbab"}
        assert mfw_circular("aaababbb").as_set() == {
            "aaaa", "aabb", "abaa", "abba", "baab", "baba", "bbab", "bbbb",
        }
        assert mfw_circular("aabbab").as_set() == {"aaa", "bbb", "aaba", "abab", "babb", "bbaa"}

    def test_one_letter_circular(self):
        assert mfw_circular(CircularWord("a", AB), AB).as_set() == {"b"}

    def test_any_linearization_works(self):
        # doubled-rotation route, straight from the formula, no canonicalization
        for w in ("aabbabb", "aabab", "abbba"):
            expected = mfw_circular(w).as_set()
            for rot in rotations(w):
                doubled = mfw_linear(rot + rot, AB)
                filtered = {v for v in doubled if len(v) <= len(w)}
                assert filtered == expected, rot

    def test_power_reduction(self):
        assert mfw_circular("abab").as_set() == mfw_circular("ab").as_set()

    def test_against_definitional_route(self):
        seen = set()
        for w in all_words("ab", 8):
            cw = CircularWord(w, AB)
            if cw.reduced or cw in seen:
                continue
            seen.add(cw)
            assert mfw_circular(cw, AB).words == mfw_circular_bruteforce(cw, AB).words, w

    def test_doubled_word_filtered_to_the_word_length(self):
        for symbols, bound in (("ab", 10), ("abc", 6)):
            alphabet = Alphabet(symbols)
            for w in all_words(symbols, bound):
                cw = CircularWord(w, alphabet)
                v = cw.linearization
                doubled = mfw_linear(v + v, alphabet).words
                expected = tuple(m for m in doubled if len(m) <= len(v))
                assert mfw_circular(cw, alphabet).words == expected, w

    def test_definition_with_membership_oracle(self):
        for w in ("aabbabb", "aabab", "aaababbb"):
            cw = CircularWord(w)
            for v in mfw_circular(cw, AB):
                assert not circular_factor_membership(cw, v)
                if len(v) >= 2:
                    assert circular_factor_membership(cw, v[:-1])
                    assert circular_factor_membership(cw, v[1:])

    def test_member_length_bounded_by_word_length(self):
        for w in all_words("ab", 8):
            cw = CircularWord(w, AB)
            assert mfw_circular(cw, AB).max_length() <= cw.length, w
        # tight for Fibonacci words, not tight for aabbab
        assert mfw_circular("abaab").max_length() == 5
        assert mfw_circular("aabbab").max_length() == 4


class TestSoundnessAtScale:
    """Every member of a large antidictionary satisfies the definition,
    checked by hashed window lookups that share no code with the suffix
    automaton."""

    def test_certificate_against_the_definition(self):
        # every candidate a + u + b over the factors u of a word, member or not
        for w in ("aabbabb", "abaababa", "abcacba"):
            present = factor_set(w)
            candidates = sorted({a + u + b for u in present for a in set(w) for b in set(w)})
            candidates += sorted(set(w))
            flagged = set(unsound_members(candidates, w))
            for v in candidates:
                sound = v not in present and v[:-1] in present and v[1:] in present
                assert (v in flagged) is not sound, (w, v)

    @pytest.mark.parametrize("symbols", ["ab", "acgt"])
    def test_random_words(self, symbols):
        rng = random.Random(symbols)
        w = "".join(rng.choice(symbols) for _ in range(10**5))
        assert unsound_members(mfw_linear(w).words, w) == []
        necklace = mfw_circular(w)
        v = necklace.source
        assert unsound_members(necklace.words, v + v[:-1]) == []

    def test_fibonacci_word(self):
        w = fibonacci_word(25)
        assert unsound_members(mfw_linear(w).words, w) == []
        assert unsound_members(mfw_circular(w).words, w + w[:-1]) == []


class TestOrder:
    """Both fast routes emit ``MfwSet.build``'s order without sorting: their
    tuples equal the sorted brute-force output, order included."""

    @staticmethod
    def assert_ordered(word: str, alphabet: Alphabet) -> None:
        assert mfw_linear(word, alphabet).words == mfw_linear_bruteforce(word, alphabet).words, word
        assert mfw_circular(word, alphabet).words == mfw_circular_bruteforce(word, alphabet).words, word

    @pytest.mark.parametrize(
        "symbols, bound", [("ba", 8), ("cab", 5), ("acgt", 4), ("βaγ", 5)]
    )
    def test_alphabet_orders(self, symbols, bound):
        alphabet = Alphabet(symbols)
        for w in all_words(symbols, bound):
            self.assert_ordered(w, alphabet)

    def test_letters_missing_from_the_word(self):
        for w in ("a", "ca", "bbbb", "dadd", "acca"):
            self.assert_ordered(w, Alphabet("abcd"))
            self.assert_ordered(w, Alphabet("dcba"))
        assert mfw_linear("", Alphabet("ba")).words == ("b", "a")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_words(self, data):
        symbols = data.draw(st.permutations("abcdé"))[: data.draw(st.integers(1, 5))]
        word = data.draw(st.text("".join(symbols), min_size=1, max_size=14))
        self.assert_ordered(word, Alphabet(symbols))


class TestCardinalityBounds:
    def test_lower_bound_tight(self):
        report = check_cardinality_bounds(CircularWord("aaaaa", AB), AB)
        assert report.length == 1  # reduced to the primitive root
        assert report.count == report.lower == 1
        assert report.passed

    def test_upper_bound_tight_binary(self):
        # a^(n-1) b reaches the bound: a^n plus b a^i b for i <= n-2
        for n in range(2, 13):
            report = check_cardinality_bounds(CircularWord("a" * (n - 1) + "b"), AB)
            assert report.count == n == report.upper
        expected = {"aaaaa", "bb", "bab", "baab", "baaab"}
        assert mfw_circular("aaaab").as_set() == expected

    def test_de_bruijn_word(self):
        report = check_cardinality_bounds(CircularWord("aaababbb"), AB)
        assert report.count == 8 == report.upper

    def test_all_distinct_letters(self):
        report = check_cardinality_bounds(CircularWord("abc"), ABC)
        assert report.count == 6 == report.upper  # n (n - 1)

    def test_ternary_gap_example(self):
        # a^2 b a^1 c of length 5 over three letters: 2n forbidden factors
        report = check_cardinality_bounds(CircularWord("aabac"), ABC)
        assert report.count == 10
        assert report.passed

    def test_bounds_hold_on_corpus(self):
        for w in all_words("ab", 9):
            cw = CircularWord(w, AB)
            assert check_cardinality_bounds(cw, AB).passed, w

    def test_count_is_the_antidictionary_size(self):
        for symbols, bound in (("ab", 9), ("abc", 6)):
            alphabet = Alphabet(symbols)
            for w in all_words(symbols, bound):
                if w:
                    assert check_cardinality_bounds(w, alphabet).count == len(mfw_circular(w, alphabet)), w

    def test_quadratic_family_is_counted_not_spelled(self):
        # the n members of a.b^(n-1) hold about n^2/2 symbols
        n = 10**5
        report = check_cardinality_bounds("a" + "b" * (n - 1), AB)
        assert report.count == n == report.upper
        assert report.passed


class TestInfiniteAntidictionary:
    """Finiteness is specific to single circular words: the factorial closure
    of the language generated by {b, aa} forbids b a^(2n+1) b for every n."""

    @staticmethod
    def closure_factors(max_len: int) -> set[str]:
        pieces = ("b", "aa")
        factors = {""}
        frontier = [""]
        # all concatenations of pieces up to a padded horizon, then factors
        horizon = max_len + 4
        words = {""}
        while frontier:
            nxt = []
            for w in frontier:
                for p in pieces:
                    grown = w + p
                    if len(grown) <= horizon and grown not in words:
                        words.add(grown)
                        nxt.append(grown)
            frontier = nxt
        for w in words:
            for i in range(len(w)):
                for j in range(i + 1, min(len(w), i + max_len) + 1):
                    factors.add(w[i:j])
        return factors

    def test_odd_a_runs_bracketed_by_b_are_forbidden(self):
        for n in range(1, 6):
            candidate = "b" + "a" * (2 * n + 1) + "b"
            present = self.closure_factors(len(candidate))
            assert candidate not in present
            assert candidate[:-1] in present and candidate[1:] in present

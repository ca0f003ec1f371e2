import json
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from antidict import (
    Alphabet,
    Dfa,
    LimitExceeded,
    Trie,
    build_factor_automaton,
    build_trie,
    circular_factor_dfa,
    equivalent,
    export_dot,
    factor_set,
    isomorphic,
    l_automaton,
    mfw_circular,
    mfw_linear,
    minimize,
    strip_sinks,
)
from antidict import automata
from antidict.l_automaton import _mf_automaton

from .helpers import all_words, prefix_acceptor

AB = Alphabet("ab")


def figure_trie() -> Trie:
    return build_trie(["aa", "ba"], AB, antifactorial=True)


def relabeled(dfa: Dfa) -> Dfa:
    """A copy of an automaton with every state id rotated by one."""
    n, sigma = dfa.n_states, len(dfa.alphabet)
    perm = [(i + 1) % n for i in range(n)]
    flat = array("i", [-1]) * (n * sigma)
    finals = bytearray(n)
    for s in range(n):
        finals[perm[s]] = dfa.finals[s]
        for i in range(sigma):
            t = dfa.flat[s * sigma + i]
            if t >= 0:
                flat[perm[s] * sigma + i] = perm[t]
    return Dfa(dfa.alphabet, n, perm[dfa.initial], bytes(finals), flat)


FIB5 = ["bb", "aaa", "aabaa", "babab"]  # antidictionary of the rank-5 Fibonacci word

# to_json and export_dot of figure_trie() and of the FIB5 trie, as the
# dict-per-node trie storage wrote them
PINNED_TRIE_OUTPUT = {
    "figure": (
        '{"alphabet": "ab", "states": 5, "initial": 0, "finals": [2, 4], "transitions": '
        '[[0, "a", 1], [0, "b", 3], [1, "a", 2], [3, "a", 4]]}',
        'digraph automaton {\n  rankdir=LR;\n  __start [shape=point, label=""];\n'
        "  __start -> q0;\n"
        '  q0 [shape=circle, label="0"];\n  q1 [shape=circle, label="1"];\n'
        '  q2 [shape=circle, label="2"];\n  q3 [shape=doublecircle, label="3"];\n'
        '  q4 [shape=doublecircle, label="4"];\n'
        '  q0 -> q1 [label="a"];\n  q0 -> q2 [label="b"];\n'
        '  q1 -> q3 [label="a"];\n  q2 -> q4 [label="a"];\n}\n',
    ),
    "fib5": (
        '{"alphabet": "ab", "states": 13, "initial": 0, "finals": [3, 6, 11, 12], "transitions": '
        '[[0, "a", 1], [0, "b", 7], [1, "a", 2], [2, "a", 3], [2, "b", 4], [4, "a", 5], '
        '[5, "a", 6], [7, "a", 8], [7, "b", 12], [8, "b", 9], [9, "a", 10], [10, "b", 11]]}',
        'digraph automaton {\n  rankdir=LR;\n  __start [shape=point, label=""];\n'
        "  __start -> q0;\n"
        '  q0 [shape=circle, label="0"];\n  q1 [shape=circle, label="1"];\n'
        '  q2 [shape=circle, label="2"];\n  q3 [shape=circle, label="3"];\n'
        '  q4 [shape=circle, label="4"];\n  q5 [shape=doublecircle, label="5"];\n'
        '  q6 [shape=doublecircle, label="6"];\n  q7 [shape=circle, label="7"];\n'
        '  q8 [shape=circle, label="8"];\n  q9 [shape=circle, label="9"];\n'
        '  q10 [shape=circle, label="10"];\n  q11 [shape=doublecircle, label="11"];\n'
        '  q12 [shape=doublecircle, label="12"];\n'
        '  q0 -> q1 [label="a"];\n  q0 -> q2 [label="b"];\n'
        '  q1 -> q3 [label="a"];\n  q2 -> q4 [label="a"];\n'
        '  q2 -> q5 [label="b"];\n  q3 -> q6 [label="a"];\n'
        '  q3 -> q7 [label="b"];\n  q4 -> q8 [label="b"];\n'
        '  q7 -> q9 [label="a"];\n  q8 -> q10 [label="a"];\n'
        '  q9 -> q11 [label="a"];\n  q10 -> q12 [label="b"];\n}\n',
    ),
}


class TestBuildTrie:
    def test_two_word_example(self):
        trie = figure_trie()
        assert trie.n_states == 5
        assert trie.finals.count(1) == 2
        assert sorted(trie.words()) == ["aa", "ba"]

    def test_single_word(self):
        assert build_trie(["a"], AB).n_states == 2

    def test_fifth_fibonacci_antidictionary(self):
        # 9 inner states plus 4 sinks
        trie = build_trie(FIB5, AB, antifactorial=True)
        assert trie.n_states == 13
        assert trie.finals.count(1) == 4

    @pytest.mark.parametrize("name", sorted(PINNED_TRIE_OUTPUT))
    def test_json_and_dot_are_pinned(self, name):
        trie = figure_trie() if name == "figure" else build_trie(FIB5, AB, antifactorial=True)
        json_text, dot = PINNED_TRIE_OUTPUT[name]
        assert json.dumps(trie.to_json()) == json_text
        assert export_dot(trie) == dot
        assert export_dot(Trie.from_json(json.loads(json_text))) == dot

    def test_words_of_a_deep_chain(self):
        member = "ab" * 25_000 + "a" * 50_000  # depth 10^5
        trie = build_trie([member, "b" * 3], AB)
        assert trie.n_states == 10**5 + 3 + 1
        assert trie.words() == [member, "bbb"]

    def test_words_in_alphabet_order(self):
        alphabet = Alphabet("ba")
        assert build_trie(FIB5, alphabet).words() == ["bb", "babab", "aabaa", "aaa"]

    def test_prefix_violation(self):
        with pytest.raises(ValueError):
            build_trie(["a", "ab"], AB)
        with pytest.raises(ValueError):
            build_trie(["ab", "a"], AB)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            build_trie(["", "a"], AB)

    def test_symbol_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            build_trie(["ab", "ac"], AB)

    def test_antifactorial_flag(self):
        build_trie(["b", "aa"], AB, antifactorial=True)
        with pytest.raises(ValueError):
            build_trie(["b", "ab"], AB, antifactorial=True)
        # without the flag the same set builds fine (b is a suffix, not a prefix)
        assert build_trie(["b", "ab"], AB).n_states == 4

    def test_json_round_trip(self):
        trie = figure_trie()
        data = json.loads(json.dumps(trie.to_json()))
        back = Trie.from_json(data)
        assert back.n_states == trie.n_states
        assert sorted(back.words()) == sorted(trie.words())
        assert back.finals == trie.finals

    def test_json_round_trip_of_empty_set(self):
        back = Trie.from_json(build_trie([], AB).to_json())
        assert back.n_states == 1 and back.finals == b"\x00"

    def test_json_refuses_failure_links_and_defaults_the_root(self):
        data = figure_trie().to_json()
        with pytest.raises(ValueError, match="no failure links"):
            Trie.from_json(data | {"failure": []})
        del data["initial"]
        back = Trie.from_json(data)
        assert back.initial == 0 and back.words() == ["aa", "ba"]

    def test_inherited_acceptor_agrees_with_words(self):
        # on M(w) and M°(w) of every binary word up to 10: each member is
        # accepted, each proper prefix and one-letter extension rejected
        for word in all_words("ab", 10):
            for mfws in (mfw_linear(word, AB), mfw_circular(word, AB)):
                trie = build_trie(mfws.words, AB)
                members = trie.words()
                assert sorted(members) == sorted(mfws.words), word
                longest = max(map(len, members))
                assert trie.enumerate_language(longest + 1) == set(members), word
                for member in members:
                    assert trie.accepts(member)
                    assert not any(trie.accepts(member[:i]) for i in range(len(member)))
                    assert not any(trie.accepts(member + sym) for sym in "ab")

    @pytest.mark.parametrize(
        "data",
        [
            # the final state 1 has a child: not prefix-free
            {"alphabet": "ab", "states": 3, "initial": 0, "finals": [1],
             "transitions": [[0, "a", 1], [1, "b", 2]]},
            {"alphabet": "ab", "states": 2, "finals": [1], "transitions": [[0, "a", 7]]},
            {"alphabet": "ab", "states": 2, "finals": [1], "transitions": [[-1, "a", 1]]},
            {"alphabet": "ab", "states": 2, "finals": [1], "transitions": [[0, "c", 1]]},
            {"alphabet": "ab", "states": 2, "finals": [1], "transitions": [[0, ["a"], 1]]},
            {"alphabet": "ab", "states": 2, "finals": [1], "transitions": [[1, "a", 0]]},
            # two parents for state 1; then a loop unreachable from the root
            {"alphabet": "ab", "states": 3, "finals": [1],
             "transitions": [[0, "a", 1], [0, "b", 1]]},
            {"alphabet": "ab", "states": 3, "finals": [1],
             "transitions": [[0, "a", 1], [2, "a", 2]]},
            {"alphabet": "ab", "states": 2, "initial": 1, "finals": [1],
             "transitions": [[0, "a", 1]]},
            {"alphabet": "ab", "states": 3, "finals": [], "transitions": []},
            {"alphabet": "ab", "states": 2, "transitions": [[0, "a", 1]]},
            [["alphabet", "ab"]],
            # state ids that are not integers are not truncated
            {"alphabet": "ab", "states": 3, "finals": [1, 2],
             "transitions": [[0, "a", 1], [0, "b", 2.5]]},
            {"alphabet": "ab", "states": 2.0, "finals": [1], "transitions": [[0, "a", 1]]},
            {"alphabet": "ab", "states": 2, "finals": [True], "transitions": [[0, "a", 1]]},
        ],
    )
    def test_json_rejects_non_trees(self, data):
        with pytest.raises(ValueError):
            Trie.from_json(data)


@st.composite
def prefix_free_sets(draw):
    symbols = "abc"[: draw(st.integers(1, 3))]
    words = draw(st.sets(st.text(symbols, min_size=1, max_size=6), max_size=8))
    return Alphabet(symbols), [w for w in words if not any(w != o and w.startswith(o) for o in words)]


class TestAntifactorialCriterion:
    @settings(max_examples=400, deadline=None)
    @given(prefix_free_sets())
    def test_failure_links_agree_with_pairwise_definition(self, case):
        alphabet, words = case
        pairwise = not any(m != other and m in other for m in words for other in words)
        assert build_trie(words, alphabet).is_antifactorial() == pairwise
        if pairwise:
            build_trie(words, alphabet, antifactorial=True)
        else:
            with pytest.raises(ValueError, match="antifactorial"):
                build_trie(words, alphabet, antifactorial=True)


class TestAccepts:
    def test_factor_automaton_membership(self):
        dfa = build_factor_automaton("aabbabb")
        assert dfa.accepts("abba")
        assert not dfa.accepts("aba")
        for factor in factor_set("aabbabb"):
            assert dfa.accepts(factor)
        for forbidden in ("aaa", "aba", "bbb", "baa", "babba"):
            assert not dfa.accepts(forbidden)

    def test_empty_word_uses_initial_finality(self):
        dfa = Dfa.from_edges(AB, 2, 0, [1], [(0, "a", 1)])
        assert not dfa.accepts("")
        assert dfa.accepts("a")

    def test_symbol_outside_alphabet(self):
        dfa = build_factor_automaton("ab")
        with pytest.raises(ValueError):
            dfa.accepts("abc")

    @pytest.mark.parametrize("state", [-1, 5])
    def test_step_and_out_edges_refuse_a_state_outside(self, state):
        dfa = circular_factor_dfa("aab")
        assert dfa.n_states == 5 and dfa.step(4, "a") == 2 and dfa.out_edges(4) == [("a", 2)]
        with pytest.raises(ValueError, match=f"state {state} is outside 0..4"):
            dfa.step(state, "a")
        with pytest.raises(ValueError, match=f"state {state} is outside 0..4"):
            dfa.out_edges(state)


class TestEnumerateLanguage:
    def test_avoiding_language_of_figure_example(self):
        stripped = strip_sinks(l_automaton(figure_trie()))
        minimal = minimize(stripped)
        assert minimal.enumerate_language(2) == {"", "a", "b", "ab", "bb"}

    def test_factor_automaton_language(self):
        assert build_factor_automaton("ab").enumerate_language(2) == {"", "a", "b", "ab"}

    def test_empty_language(self):
        dfa = Dfa.from_edges(AB, 1, 0, [], [])
        assert dfa.enumerate_language(3) == set()

    def test_guard(self):
        # complete two-letter loop accepts everything: exponential blowup
        dfa = Dfa.from_edges(AB, 1, 0, [0], [(0, "a", 0), (0, "b", 0)])
        with pytest.raises(LimitExceeded):
            dfa.enumerate_language(30, limit=1000)


class TestMinimize:
    def test_avoidance_witness_shrinks(self):
        stripped = strip_sinks(l_automaton(figure_trie()))
        assert stripped.n_states == 3
        assert minimize(stripped).n_states == 2

    def test_factor_automaton_already_minimal(self):
        dfa = build_factor_automaton("aabbabb")
        assert isomorphic(dfa, minimize(dfa))

    def test_single_state(self):
        dfa = Dfa.from_edges(Alphabet("a"), 1, 0, [0], [(0, "a", 0)])
        assert minimize(dfa).n_states == 1

    def test_idempotent_and_language_preserving(self):
        for w in all_words("ab", 6):
            dfa = build_factor_automaton(w, AB)
            small = minimize(dfa)
            assert equivalent(dfa, small)
            assert isomorphic(small, minimize(small))

    def test_unreachable_states_dropped(self):
        dfa = Dfa.from_edges(AB, 3, 0, [0, 2], [(0, "a", 0), (2, "b", 0)])
        assert minimize(dfa).n_states == 1

    def test_relabeled_copy_minimizes_to_equal_tables(self):
        dfa = build_factor_automaton("aabbabb")
        mini, again = minimize(dfa), minimize(relabeled(dfa))
        assert again.initial == mini.initial == 0
        assert (again.flat, again.finals) == (mini.flat, mini.finals)

    def test_empty_language_minimizes_to_one_state(self):
        dfa = Dfa.from_edges(AB, 2, 0, [], [(0, "a", 1), (1, "b", 0)])
        mini = minimize(dfa)
        assert mini.n_states == 1 and mini.finals == b"\x00"


class TestEquivalent:
    def test_prefix_tree_matches_factor_automaton(self):
        tree = prefix_acceptor(factor_set("ab"), AB)
        assert equivalent(tree, build_factor_automaton("ab"))

    def test_different_antidictionaries_differ(self):
        a = strip_sinks(l_automaton(figure_trie()))
        b = strip_sinks(l_automaton(build_trie(["aa"], AB)))
        assert not equivalent(a, b)  # `ba` tells them apart

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            equivalent(build_factor_automaton("ab"), build_factor_automaton("ac"))

    def test_minimization_equivalence(self):
        dfa = strip_sinks(l_automaton(build_trie(mfw_linear("abaab").words, AB)))
        assert equivalent(dfa, minimize(dfa))


class TestStripSinks:
    def test_figure_example(self):
        full = l_automaton(figure_trie())
        assert full.n_states == 5
        assert strip_sinks(full).n_states == 3

    def test_no_sinks_unchanged(self):
        dfa = build_factor_automaton("aabbabb")
        assert strip_sinks(dfa) is dfa

    def test_fifth_fibonacci_pipeline(self):
        trie = build_trie(FIB5, AB, antifactorial=True)
        assert strip_sinks(l_automaton(trie)).n_states == 9

    def test_failure_links_renumbered(self):
        # figure trie: states 2 and 4 are the sinks, so 3 becomes 2
        full = l_automaton(figure_trie())
        assert full.failure.tolist() == [-1, 0, 1, 0, 1]
        stripped = strip_sinks(full)
        assert stripped.failure.tolist() == [-1, 0, 0]
        assert stripped.flat.tolist() == [1, 2, -1, 2, -1, 2]
        assert stripped.finals == b"\x01\x01\x01"

    def test_initial_state_survives(self):
        dfa = Dfa.from_edges(AB, 1, 0, [], [(0, "a", 0), (0, "b", 0)])
        assert strip_sinks(dfa).n_states == 1


class TestIsomorphic:
    def test_relabeled_copy(self):
        dfa = build_factor_automaton("aabbabb")
        assert isomorphic(dfa, relabeled(dfa))

    def test_detects_difference(self):
        assert not isomorphic(build_factor_automaton("ab"), build_factor_automaton("aab"))

    def test_detects_different_finals_on_equal_tables(self):
        dfa = build_factor_automaton("aab")
        finals = dfa.finals[:-1] + b"\x00"
        assert not isomorphic(dfa, Dfa(AB, dfa.n_states, dfa.initial, finals, dfa.flat))


class TestDotExport:
    def test_trie_shape(self):
        dot = export_dot(figure_trie())
        assert dot.startswith("digraph")
        assert dot.count("->") == 1 + 4  # start arrow plus four tree edges
        assert dot.count("doublecircle") == 2
        assert dot.count("[shape=") == 1 + 5  # start point plus five states

    def test_failure_links_dashed(self):
        dfa = build_factor_automaton("aab")
        dot = export_dot(dfa)
        dashed = [line for line in dot.splitlines() if "dashed" in line]
        assert len(dashed) == dfa.n_states - 1  # every non-initial state
        assert dot.count("{") == dot.count("}") == 1

    def test_deterministic(self):
        dfa = build_factor_automaton("abaab")
        assert export_dot(dfa) == export_dot(dfa)


class TestDfaJson:
    def test_round_trip_with_failure(self):
        dfa = build_factor_automaton("aabbabb")
        data = json.loads(json.dumps(dfa.to_json()))
        back = Dfa.from_json(data)
        assert isomorphic(dfa, back)
        assert back.failure is not None
        assert [back.failure[s] for s in range(back.n_states)] == [
            dfa.failure[s] for s in range(dfa.n_states)
        ]

    def test_schema_keys(self):
        data = build_factor_automaton("ab").to_json()
        assert set(data) == {"alphabet", "states", "initial", "finals", "transitions", "failure"}
        assert all(len(item) == 3 for item in data["transitions"])

    def test_conflicting_edges_rejected(self):
        with pytest.raises(ValueError):
            Dfa.from_edges(AB, 2, 0, [0], [(0, "a", 0), (0, "a", 1)])

    @pytest.mark.parametrize(
        "initial, finals, edges, failure, bad",
        [
            (0, [1], [(-1, "a", 0)], None, -1),  # a source
            (0, [1], [(2, "a", 0)], None, 2),
            (0, [1], [(0, "a", 7)], None, 7),  # a target
            (0, [1], [(0, "a", -3)], None, -3),
            (2, [1], [], None, 2),  # the initial state
            (0, [5], [], None, 5),  # a final
            (0, [-1], [], None, -1),
            (0, [1], [(0, "a", 1)], {1: 2}, 2),  # a failure link
            (0, [1], [(0, "a", 1)], {-1: 0}, -1),
        ],
    )
    def test_states_out_of_range_rejected(self, initial, finals, edges, failure, bad):
        with pytest.raises(ValueError, match=f"^state {bad} is outside 0..1$"):
            Dfa.from_edges(AB, 2, initial, finals, edges, failure)
        Dfa.from_edges(AB, 2, 0, [0, 1], [(0, "a", 1), (1, "b", 0)], {1: 0})

    @pytest.mark.parametrize(
        "patch",
        [
            {"transitions": [[0, "a", 2]]},
            {"transitions": [[-1, "a", 1]]},
            {"transitions": [[0, ["a"], 1]]},
            {"initial": 5},
            {"finals": [0, 9]},
            {"failure": [[1, 4]]},
            {"states": "two"},
            {"alphabet": None},
            {"transitions": [[0, "a", 1.5]]},
            {"states": 2.0},
            {"initial": False},
            {"finals": [0, 1.0]},
            {"failure": [[True, 0]]},
        ],
    )
    def test_json_rejects_malformed(self, patch):
        data = {"alphabet": "ab", "states": 2, "initial": 0, "finals": [0, 1],
                "transitions": [[0, "a", 1]], "failure": [[1, 0]]}
        Dfa.from_json(data)
        with pytest.raises(ValueError):
            Dfa.from_json(data | patch)

    def test_state_count_bounded_before_allocating(self, monkeypatch):
        # one transition and one final account for at most 3 states
        data = {"alphabet": "ab", "states": 10**12, "initial": 0, "finals": [0],
                "transitions": [[0, "a", 1]]}
        with pytest.raises(ValueError, match="more than the 3 "):
            Dfa.from_json(data)
        assert Dfa.from_json(data | {"states": 3}).n_states == 3
        monkeypatch.setattr(automata, "MAX_STATES", 2)
        with pytest.raises(ValueError, match="more than the 2 "):
            Dfa.from_json(data | {"states": 3})

    @pytest.mark.parametrize("data", [[1, 2], {"alphabet": "ab", "states": 1}, "dfa"])
    def test_json_rejects_wrong_shape(self, data):
        with pytest.raises(ValueError):
            Dfa.from_json(data)


PRODUCERS = {
    "build_factor_automaton": lambda: build_factor_automaton("aabbabb"),
    "circular_factor_dfa": lambda: circular_factor_dfa("aabab"),
    "l_automaton": lambda: l_automaton(figure_trie()),
    "strip_sinks": lambda: strip_sinks(l_automaton(figure_trie())),
    "minimize": lambda: minimize(strip_sinks(l_automaton(figure_trie()))),
    "Dfa.from_edges": lambda: Dfa.from_edges(AB, 3, 0, [0, 2], [(0, "a", 1), (1, "b", 2)], {1: 0}),
    "Dfa.from_json": lambda: Dfa.from_json(build_factor_automaton("aabbabb").to_json()),
    "build_trie": lambda: build_trie(FIB5, AB),
    "_mf_automaton": lambda: _mf_automaton("aabbabb" * 2, AB, 7),
    "Trie.from_json": lambda: Trie.from_json(build_trie(FIB5, AB).to_json()),
}


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS)
def test_one_storage(produce):
    """Every producer hands Dfa int32 array tables and a bytes bitmap of
    finals, and accepts answers with a plain bool."""
    dfa = produce()
    assert isinstance(dfa, Dfa)
    tables = (dfa.flat, dfa.failure or dfa.flat)
    assert all(type(t) is array and t.typecode == "i" and t.itemsize == 4 for t in tables)
    assert type(dfa.finals) is bytes and len(dfa.finals) == dfa.n_states
    assert set(dfa.finals) <= {0, 1}
    assert all(type(dfa.accepts(w)) is bool for w in all_words("ab", 4))


def test_constructor_refuses_other_storages():
    table = array("i", [-1, -1])
    for flat, failure in (([-1, -1], None), (array("q", [-1, -1]), None), (table, [-1])):
        with pytest.raises(TypeError, match="array"):
            Dfa(AB, 1, 0, b"\x01", flat, failure)
    for finals in ({0}, b"\x01\x01", bytearray(b"\x01")):
        with pytest.raises(ValueError, match="bitmap"):
            Dfa(AB, 1, 0, finals, table)


def test_constructor_refuses_an_initial_state_out_of_range():
    for initial in (1, -1):
        with pytest.raises(ValueError, match=f"initial state {initial} is outside 0..0"):
            Dfa(AB, 1, initial, b"\x01", array("i", [-1, -1]))

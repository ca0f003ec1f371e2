"""From an antifactorial trie to the complete DFA of the avoiding language,
and the factor automaton of a circular word built on top of it.

Given the trie of an antifactorial set ``M``, the construction fills in the
missing transitions by Aho-Corasick-style failure borrowing and turns the
sinks into absorbing traps, yielding a complete automaton whose non-sink
states accept exactly the words containing no member of ``M``.  The output
is deliberately *not* minimized: for the antidictionary of a single linear
or primitive circular word it is already minimal after sink removal, and for
other inputs (``{aa, ba}`` is the classic witness) the redundancy is the
interesting part.
"""

from __future__ import annotations

from itertools import filterfalse

from .automata import Dfa, Trie, _avoidance_tables, build_trie, strip_sinks
from .mfw import mfw_circular
from .words import Alphabet, CircularWord


def l_automaton(trie: Trie) -> Dfa:
    """Complete DFA of the words avoiding the trie's language.

    Root transitions on absent letters become self-loops, every other state
    borrows its missing edges from its failure link, and sinks become
    absorbing traps; final states are all non-sinks.  Raises ``ValueError``
    when the language is not antifactorial, which the same breadth-first
    pass detects as a failure link landing on a sink.
    """
    flat, failure = _avoidance_tables(trie)
    n = trie.n_states
    finals = frozenset(filterfalse(trie.sinks.__contains__, range(n)))
    return Dfa(trie.alphabet, n, 0, finals, flat, failure)


def circular_factor_dfa(cw: CircularWord | str, alphabet: Alphabet | None = None) -> Dfa:
    """Factor automaton of a circular word: the minimal DFA of the factors
    of its powers.

    Runs the avoidance construction on the trie of the circular
    antidictionary and strips the absorbing sinks; primitivity of the input
    (enforced by the type) is what guarantees minimality of the result.
    """
    if isinstance(cw, str):
        cw = CircularWord(cw, alphabet)
    if alphabet is None:
        alphabet = cw.alphabet
    mfws = mfw_circular(cw, alphabet)
    return strip_sinks(l_automaton(build_trie(mfws.words, alphabet)))

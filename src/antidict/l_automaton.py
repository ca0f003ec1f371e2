"""From an antifactorial trie to the complete DFA of the avoiding language,
and the factor automaton of a circular word read straight off the suffix
automaton.

Given the trie of an antifactorial set ``M``, the construction of
Crochemore, Mignosi and Restivo ("Automata and forbidden words", IPL 67,
1998) fills in the missing transitions by Aho-Corasick failure borrowing
and turns the sinks into absorbing traps, yielding a complete automaton
whose non-sink states accept exactly the words containing no member of
``M``.  :func:`l_automaton` runs this completion on any trie, in the
compiled kernel.

For the antidictionary of a primitive circular word, stripping the sinks of
that automaton gives the word's minimal factor automaton, the paper's main
theorem.  :func:`circular_factor_dfa` builds that stripped automaton in one
kernel pass over the suffix automaton of the doubled word: the members'
trie is walked with its leaves left unnumbered, since they are exactly the
sinks stripping would drop, and completed in place.  No member is made as
a string and no leaf or sink is stored.  The reconstructions read the
completed table of a member trie in the kernel itself.  No output is
minimized: for the antidictionary of a single linear or primitive circular
word the stripped automaton is already minimal, and for other inputs
(``{aa, ba}`` is the classic witness) the redundancy is the interesting
part; :func:`~antidict.automata.strip_sinks` applies to those.
"""

from __future__ import annotations

import numpy as np

from ._kernel import kernel
from .automata import Dfa, Trie, _avoidance_tables, _int_table
from .factor_automaton import _suffix_automaton_buffer
from .words import Alphabet, CircularWord, _circular_input, _encode

# Swaps the bytes 0 and 1 of a finals bitmap: the trie's sinks become the
# avoidance automaton's only non-final states.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def l_automaton(trie: Trie) -> Dfa:
    """Complete DFA of the words avoiding the trie's language.

    Root transitions on absent letters become self-loops, every other state
    borrows its missing edges from its failure link, and sinks become
    absorbing traps; final states are all non-sinks.  Raises ``ValueError``
    when the language is not antifactorial, which the same breadth-first
    pass detects as a failure link landing on a sink.
    """
    finals = trie.finals.translate(_FLIP)
    return Dfa(trie.alphabet, trie.n_states, 0, finals, *_avoidance_tables(trie))


def _mf_automaton(text: str, alphabet: Alphabet, max_len: int) -> Dfa:
    """The avoidance automaton of the minimal forbidden factors of length at
    most ``max_len`` of a word, sinks stripped, built by the kernel from the
    word's suffix automaton: ``strip_sinks(l_automaton(build_trie(members)))``
    of those members, state numbers and failure links included, with no
    member, trie or sink made.

    The kernel writes the table and the failure links into one buffer of
    at most one row and one link per suffix-automaton state, so the only
    size guard is the suffix automaton's own, and the suffix automaton is
    dropped before the two are copied out.  Raises ``ValueError`` if a
    failure link lands on a sink, which an antidictionary rules out.
    """
    sigma = len(alphabet)
    tables, cap, size = _suffix_automaton_buffer(_encode(text, alphabet), sigma)
    out = np.empty(size * (sigma + 1), dtype=np.int32)  # k rows, then k failure links
    k = kernel().mf_automaton(tables, cap, sigma, max_len, out)
    del tables
    if k < 0:
        raise ValueError("the members are not antifactorial: one occurs inside another")
    flat, failure = _int_table(out[: k * sigma]), _int_table(out[k * sigma : k * (sigma + 1)])
    return Dfa(alphabet, k, 0, b"\x01" * k, flat, failure)


def circular_factor_dfa(cw: CircularWord | str, alphabet: Alphabet | None = None) -> Dfa:
    """Factor automaton of a circular word: the minimal DFA of the factors
    of its powers, every state accepting.

    It is the avoidance automaton of the circular antidictionary with its
    sinks stripped, which primitivity of the input (enforced by the type)
    makes minimal.  One kernel pass reads it off the suffix automaton of
    the doubled word, cut at the word's length: the states are the inner
    nodes of the members' trie in preorder, and ``failure`` holds their
    failure links.  Raises ``LimitExceeded`` before allocating when the
    suffix automaton of the doubled word would not fit the int32 tables.
    """
    _, alphabet, w = _circular_input(cw, alphabet)
    return _mf_automaton(w + w, alphabet, len(w))

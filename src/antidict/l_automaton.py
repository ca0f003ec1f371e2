"""From an antifactorial trie to the complete DFA of the avoiding language,
and the factor automaton of a circular word built on top of it.

Given the trie of an antifactorial set ``M``, the construction of
Crochemore, Mignosi and Restivo ("Automata and forbidden words", IPL 67,
1998) fills in the missing transitions by Aho-Corasick failure borrowing
and turns the sinks into absorbing traps, yielding a complete automaton
whose non-sink states accept exactly the words containing no member of
``M``.  The compiled kernel builds both the trie and this completion.
:func:`circular_factor_dfa` takes the trie of the circular antidictionary
straight off the suffix automaton of the doubled word, with no member made
as a string, and strips the sinks of the completion with
:func:`~antidict.automata.strip_sinks`; the reconstructions read the
completed table in the kernel itself.  The output is deliberately *not*
minimized: for the antidictionary of a single linear or primitive circular
word it is already minimal after sink removal, and for other inputs
(``{aa, ba}`` is the classic witness) the redundancy is the interesting
part.
"""

from __future__ import annotations

from .automata import Dfa, Trie, _avoidance_tables, strip_sinks
from .mfw import _mf_trie
from .words import Alphabet, CircularWord

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


def circular_factor_dfa(cw: CircularWord | str, alphabet: Alphabet | None = None) -> Dfa:
    """Factor automaton of a circular word: the minimal DFA of the factors
    of its powers.

    Runs the avoidance construction on the trie of the circular
    antidictionary and strips the absorbing sinks; primitivity of the input
    (enforced by the type) is what guarantees minimality of the result.
    The trie is read off the suffix automaton of the doubled word, cut at
    the word's length, with no member made as a string.
    """
    if isinstance(cw, str):
        cw = CircularWord(cw, alphabet)
    if alphabet is None:
        alphabet = cw.alphabet
    w = cw.linearization
    alphabet.check_word(w)
    return strip_sinks(l_automaton(_mf_trie(w + w, alphabet, len(w))))

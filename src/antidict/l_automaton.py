"""From an antifactorial trie to the complete DFA of the avoiding language,
and the factor automaton of a circular word built on top of it.

Given the trie of an antifactorial set ``M``, the construction of
Crochemore, Mignosi and Restivo ("Automata and forbidden words", IPL 67,
1998) fills in the missing transitions by Aho-Corasick failure borrowing
and turns the sinks into absorbing traps, yielding a complete automaton
whose non-sink states accept exactly the words containing no member of
``M``.  The compiled kernel builds both the trie and this completion; the
stripped automaton of :func:`circular_factor_dfa` is renumbered from the
kernel's tables in numpy, while the reconstructions read the completed
table in the kernel itself.  The output is deliberately *not* minimized: for
the antidictionary of a single linear or primitive circular word it is
already minimal after sink removal, and for other inputs (``{aa, ba}`` is
the classic witness) the redundancy is the interesting part.
"""

from __future__ import annotations

from itertools import filterfalse

import numpy as np

from .automata import Dfa, Trie, _avoidance_tables, build_trie
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
    return Dfa(trie.alphabet, n, 0, finals, flat.tolist(), failure.tolist())


def _stripped_l_automaton(trie: Trie) -> Dfa:
    """``strip_sinks(l_automaton(trie))``, read straight off the kernel's
    tables: every state is final.

    The sinks are dropped and the other states renumbered in order, in
    numpy; edges into a sink become missing edges.  The tables go to
    ``Dfa`` as plain lists, which ``Dfa.accepts`` reads fastest.  Raises
    ``ValueError`` like :func:`l_automaton`.
    """
    flat, failure = _avoidance_tables(trie)
    keep = np.ones(trie.n_states, dtype=bool)
    keep[np.fromiter(trie.sinks, np.intp, len(trie.sinks))] = False
    n = int(np.count_nonzero(keep))
    # new_id[s] numbers the kept states in order; its extra last entry, read
    # at index -1, sends a missing edge or link to -1, as it does each sink
    new_id = np.full(trie.n_states + 1, -1, dtype=np.int32)
    new_id[:-1][keep] = np.arange(n, dtype=np.int32)
    rows = flat.reshape(trie.n_states, len(trie.alphabet))[keep]
    return Dfa(
        trie.alphabet, n, 0, range(n), new_id[rows].ravel().tolist(), new_id[failure[keep]].tolist()
    )


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
    return _stripped_l_automaton(build_trie(mfws.words, alphabet))

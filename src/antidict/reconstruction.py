"""Recovering words from their antidictionaries.

A finite word is pinned down exactly by its set of minimal forbidden
factors; a primitive circular word likewise.  Both directions run the
avoidance construction on the trie of the candidate set, completing the
trie's own table in place, and read the word off the completed table, both
in one call of the compiled kernel, by one depth-first walk that reads an
edge into a member end (a final state of the trie, and a sink of the table)
as a missing edge: the first cycle it closes spells a circular word and,
when it closes none, the unique longest path spells a linear word.  Every
successful return is certified, so a set that is not of the expected form
fails loudly instead of corrupting.

A linear word u is certified by two counts.  The completion has shown the
set M antifactorial, and an antifactorial set is the antidictionary of the
language L(M) of the words avoiding it (Crochemore, Mignosi and Restivo,
IPL 67, 1998); the walk has shown that u avoids M, so every factor of u is
in L(M).  Hence M = M(u) exactly when L(M) and the factors of u are as
many: the walk counts the first, the paths from the root, and the kernel
counts the second on the suffix automaton of u's rank codes.

A circular word u is certified by one count.  The stripped avoidance
automaton of M(u) is the minimal factor automaton of u: one cycle of |u|
states, one edge out of each, and every other state leading into it.  The
walk keeps the first cycle it closes, labelled by a rotation of u, so every
factor of a power of u is in L(M).  It refuses a second cycle, a second
edge out of a cycle state and a state that leads into no cycle; past that,
L(M) has as many words of every large length as there are paths from the
root into the cycle, and the factors of the powers of u have |u| of every
length from |u| - 1 on.  Hence M = M(u) exactly when that count is |u|.
The cycle's label needs no primitivity test: a state of the avoidance
automaton is fixed by the last (longest member) - 1 symbols read, so a
simple cycle's label is primitive.
"""

from __future__ import annotations

import numpy as np

from ._kernel import kernel
from .automata import _check_avoidance, _trie_tables
from .factor_automaton import _suffix_automaton_room
from .mfw import MfwSet
from .words import CircularWord, LimitExceeded, _decode

# What the kernel walk returns when two longest words tie; a word's length
# is at least 0, a cycle's length comes back complemented, below TIED.
TIED = -1
# What the kernel walk returns when its completion of the table fails with
# status s, -1 or -2 as _check_avoidance reads it: AVOIDANCE_FAILED - s,
# below every complemented cycle length.
AVOIDANCE_FAILED = -(2**63)


class ReconstructionError(ValueError):
    """The given set is not the antidictionary of the requested kind of word."""


def _walk(mfws: MfwSet, circular: bool) -> tuple[str, np.ndarray, int]:
    """The word the kernel walk reads off the completed avoidance table of
    the set's trie, unverified, with the count that certifies it.  When
    ``circular``, the word is the labels of the first cycle a depth-first
    search closes, and the count the number of paths from the root into
    that cycle, 0 when the automaton has another cycle, a second edge out of
    a cycle state or a state that leads into no cycle.  Otherwise the word
    is the unique longest one, and the count the number of words avoiding
    the set.  Returns the word, its rank codes (a view of the walk's
    scratch) and the count.  A set too large to spell or to hold in a trie
    raises ``LimitExceeded``."""
    sigma = len(mfws.alphabet)
    # one kernel call completes the trie's own table in place, no copy of
    # it made, and walks it; the failure links and queue borrow the walk's
    # scratch, allocated once the fill's buffers are freed
    try:
        flat, end = _trie_tables(mfws.words, mfws.alphabet)
        n = len(end)
        scratch = np.empty(6 * n, dtype=np.int32)
        code = kernel().walk(np.frombuffer(flat, np.int32), n, sigma, end, scratch, circular)
        if code < AVOIDANCE_FAILED + 3:
            _check_avoidance(AVOIDANCE_FAILED - code)
    except LimitExceeded:
        raise
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    del flat
    if circular and code >= TIED:
        raise ReconstructionError(
            "the avoidance automaton is acyclic: not the antidictionary of a circular word"
        )
    if not circular and code < TIED:
        raise ReconstructionError(
            "the avoiding language is infinite: not the antidictionary of a finite word"
        )
    if code == TIED:
        raise ReconstructionError(
            "longest avoiding word is not unique: not the antidictionary of a single word"
        )
    # a cycle's labels are in the walk's tie area, from entry 3n on, and
    # the root's count is the int64 at entry 4n
    ranks = scratch[3 * n : 3 * n + ~code] if circular else scratch[:code]
    count = int(scratch[4 * n : 4 * n + 2].view(np.int64)[0])
    return _decode(ranks, mfws.alphabet), ranks, count


def reconstruct_word(mfws: MfwSet) -> str:
    """The unique word whose antidictionary is the given set.

    The word is the longest path from the initial state of the stripped
    avoidance automaton.  A cycle means the avoiding language is infinite
    and no finite word fits; a tie for the longest path means the set
    belongs to no single word.  The word is certified by counting: the set
    is its antidictionary exactly when as many words avoid the set as the
    word has factors, and a mismatch fails verification.
    """
    word, ranks, avoiding = _walk(mfws, circular=False)
    # copied out so that the walk's scratch is freed before the suffix
    # automaton's buffer is allocated
    ranks = ranks.copy()
    tables, _ = _suffix_automaton_room(ranks.size, len(mfws.alphabet))
    # the kernel counts the word's distinct factors, the empty one included
    if kernel().factor_count(ranks, ranks.size, len(mfws.alphabet), tables) != avoiding:
        raise ReconstructionError(
            f"verification failed: {word!r} has a different antidictionary"
        )
    return word


def reconstruct_circular(mfws: MfwSet) -> CircularWord:
    """The primitive circular word whose antidictionary is the given set.

    Any cycle of the stripped avoidance automaton spells a power of a
    rotation of the word, and a depth-first search finds one; the result is
    canonicalized.  It is certified by counting: the set is its
    antidictionary exactly when the automaton has no other cycle, no second
    edge out of a cycle state and no state leading into no cycle, and as
    many paths lead from the initial state into the cycle as the cycle has
    states; a mismatch fails verification.
    """
    labels, ranks, into = _walk(mfws, circular=True)
    cw = CircularWord(labels, mfws.alphabet)
    if into != ranks.size:
        raise ReconstructionError(
            f"verification failed: [{cw}] has a different antidictionary"
        )
    return cw

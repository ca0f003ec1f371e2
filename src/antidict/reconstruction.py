"""Recovering words from their antidictionaries.

A finite word is pinned down exactly by its set of minimal forbidden
factors; a primitive circular word likewise.  Both directions run the
avoidance construction on the trie of the candidate set and read the word
off the completed table in the compiled kernel, by one depth-first walk
that reads an edge into a member end (a final state of the trie, and a sink
of the table) as a missing edge: the first cycle it closes spells a
circular word and, when it closes none, the unique longest path spells a
linear word.  Every successful return is post-verified by recomputing the
antidictionary of the result and comparing it with the given set (by their
sites when both come from the kernel, else by their members), so a set
that is not of the expected form fails loudly instead of corrupting.
"""

from __future__ import annotations

import numpy as np

from ._kernel import kernel
from .automata import _avoidance_tables, build_trie
from .mfw import MfwSet, mfw_circular, mfw_linear
from .words import CircularWord, LimitExceeded, _decode

# What the kernel walk returns when two longest words tie; a word's length
# is at least 0, a cycle's length comes back complemented, below TIED.
TIED = -1


class ReconstructionError(ValueError):
    """The given set is not the antidictionary of the requested kind of word."""


def _walk(mfws: MfwSet, circular: bool) -> str:
    """The word the kernel walk reads off the completed avoidance table of
    the set's trie, unverified: the labels of the first cycle a depth-first
    search closes when ``circular``, else the unique longest word.  A set
    too large to spell or to hold in a trie raises ``LimitExceeded``."""
    sigma = len(mfws.alphabet)
    # the trie and its failure links are dropped before the walk's scratch is
    # allocated and the table after the walk, so that none adds to the
    # memory the scratch and the decode take; only the sinks' bitmap stays
    try:
        trie = build_trie(mfws.words, mfws.alphabet)
        flat = _avoidance_tables(trie)[0]
    except LimitExceeded:
        raise
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    end = np.frombuffer(trie.finals, np.uint8)
    del trie
    n = len(flat) // sigma
    scratch = np.empty(4 * n, dtype=np.int32)
    code = kernel().walk(np.frombuffer(flat, np.int32), n, sigma, end, scratch)
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
    return _decode(scratch[: ~code if circular else code], mfws.alphabet)


def reconstruct_word(mfws: MfwSet) -> str:
    """The unique word whose antidictionary is the given set.

    The word is the longest path from the initial state of the stripped
    avoidance automaton.  A cycle means the avoiding language is infinite
    and no finite word fits; a tie for the longest path, or a verification
    mismatch, means the set belongs to no single word.
    """
    word = _walk(mfws, circular=False)
    # a set the kernel computed from the same word compares its sites, so
    # the fresh set is not spelled
    if mfw_linear(word, mfws.alphabet) != mfws:
        raise ReconstructionError(
            f"verification failed: {word!r} has a different antidictionary"
        )
    return word


def reconstruct_circular(mfws: MfwSet) -> CircularWord:
    """The primitive circular word whose antidictionary is the given set.

    Any cycle of the stripped avoidance automaton spells a power of a
    rotation of the word, and a depth-first search finds one; the result is
    canonicalized and verified.
    """
    labels = _walk(mfws, circular=True)
    try:
        cw = CircularWord(labels, mfws.alphabet)
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    if mfw_circular(cw, mfws.alphabet) != mfws:
        raise ReconstructionError(
            f"verification failed: [{cw}] has a different antidictionary"
        )
    return cw

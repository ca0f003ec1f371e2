"""Factor automaton of a linear word: minimal DFA of its factors, plus the
failure (longest-suffix) links.

The construction is the classical online suffix-automaton build (Blumer et
al., "The smallest automaton recognizing the subwords of a text", TCS 40,
1985), run by the compiled kernel in ``_kernel.c`` on flat int32 tables,
followed by a merge of states that become indistinguishable once every
state accepts.  The suffix automaton alone is *not* always minimal as a
factor acceptor: in ``abbb`` the states reached by ``b`` and ``ab`` have
identical futures and must be merged.  Two facts about the suffix automaton
make the merge one linear pass:

- *Chain lemma.*  States with the same future have the same first end
  position, so their end-position sets meet and one is a suffix-link
  ancestor of the other.  Futures shrink down a chain and the root never
  merges, so every class is a segment of one suffix-link chain, and one bit
  per state, "``s`` has the future of ``link[s]``", decides the partition.
- *Transition lemma.*  With ``q = link[s]``, a defined ``δ(s, c)`` makes
  ``δ(q, c)`` either ``δ(s, c)`` or ``link[δ(s, c)]``.  So ``s`` merges
  into ``q`` exactly when every letter leads both to one state, or leads
  ``s`` to a state that merges into its own link.  Targets are longer than
  their sources, so deciding states by decreasing length settles every bit.

Each class is then the state nearest the root of its segment: transitions
are read from it and its failure link is the class of its suffix link.
"""

from __future__ import annotations

import numpy as np

from ._kernel import MAX_STATES, kernel
from .automata import Dfa, _int_table
from .words import Alphabet, LimitExceeded, _encode


def _suffix_automaton_buffer(code: np.ndarray, sigma: int) -> tuple[np.ndarray, int, int]:
    """The kernel's suffix automaton of a rank-coded word, as the one int32
    buffer it fills, the row capacity ``cap`` = 2n+2 of its four tables and
    the state count.

    ``code`` is the int32 array of :func:`~antidict.words._encode`.  Raises
    ``LimitExceeded`` before allocating when the state bound would not fit
    the int32 tables.
    """
    cap = 2 * code.size + 2
    if cap > MAX_STATES:
        raise LimitExceeded(
            f"a suffix automaton of {code.size} symbols could need {cap} states, "
            f"more than the {MAX_STATES} its tables can number"
        )
    tables = np.empty(cap * (sigma + 3), dtype=np.int32)
    return tables, cap, kernel().suffix_automaton(code, code.size, sigma, tables)


def _suffix_automaton(
    code: np.ndarray, sigma: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Suffix automaton of a rank-coded word, built by the compiled kernel.

    Returns int32 arrays ``(trans, link, length, endpos)`` with one row per
    state, state 0 the initial one: ``trans[s, c]`` is the transition on
    rank ``c`` (-1 when missing; the rows are views of one flat
    ``s * sigma + c`` table), ``link`` the suffix link (-1 at the root),
    ``length`` the length of the state's longest word and ``endpos`` the
    smallest 0-based text index at which its words end (a clone copies it
    from the state it splits, whose occurrences all come earlier; the root's
    entry is 0).  Every transition path from state 0 spells a factor of the
    input.  The views share the buffer of :func:`_suffix_automaton_buffer`.
    """
    tables, cap, size = _suffix_automaton_buffer(code, sigma)
    link, length, endpos = tables[cap * sigma :].reshape(3, cap)[:, :size]
    return tables[: size * sigma].reshape(size, sigma), link, length, endpos


def _assemble(
    alphabet: Alphabet,
    trans: np.ndarray,
    link: np.ndarray,
    length: np.ndarray,
    endpos: np.ndarray,
    n: int,
) -> Dfa:
    """Merge the suffix automaton into the minimal factor automaton.

    ``s`` can merge into ``q = link[s]`` only if both have the same first
    end position and every other end position of ``q`` lies in the tail
    of the word covered by its longest repeated suffix (the suffix after
    each must also follow an earlier end of ``s``).  numpy keeps those
    candidates; the transition lemma decides them in one Python pass over
    the letters on which a candidate and its parent differ.
    """
    size = link.size
    # the state of the whole word is made last, or just before its clone
    last = size - 1 if length[size - 1] == n else size - 2
    parent = link[1:]
    same = endpos[1:] == endpos[parent]
    # earliest end of each state outside its child of equal first end
    earliest = np.full(size, n, dtype=np.int32)
    others = np.flatnonzero(~same) + 1
    np.minimum.at(earliest, link[others], endpos[others])
    tail = n - 1 - int(length[link[last]])
    cand = np.flatnonzero(same & (earliest[parent] >= tail)) + 1

    # s merges when every letter leads it and q to one state, or leads s to
    # a state t that merges: one (s, t) test per differing letter, taken by
    # decreasing length of s so that every merged[t] is final when read
    merged = bytearray(size)
    if cand.size:
        order = cand[np.argsort(-length[cand], kind="stable")]
        rows, ups = trans[order], trans[link[order]]
        differ = rows != ups
        sound = ~(differ & (rows < 0)).any(axis=1)
        np.frombuffer(merged, dtype=np.uint8)[order[sound]] = 1
        i, c = np.nonzero(differ & sound[:, None])
        for s, t in zip(order[i].tolist(), rows[i, c].tolist()):
            if not merged[t]:
                merged[s] = 0

    # a class is numbered by its top member, the one nearest the root, so
    # the root stays 0; pointer jumping up merged links finds each top
    is_top = np.frombuffer(merged, dtype=np.uint8) == 0
    tops = np.flatnonzero(is_top)
    n_classes = tops.size
    top = np.where(is_top, np.arange(size), link)
    while True:
        up = top[top]
        if np.array_equal(up, top):
            break
        top = up
    # cls[s] is the class of s; its extra last entry, read at index -1,
    # sends a missing target or link to -1
    cls = np.append(np.cumsum(is_top, dtype=np.int32)[top] - 1, np.int32(-1))
    flat, failure = _int_table(cls[trans[tops]]), _int_table(cls[link[tops]])
    return Dfa(alphabet, n_classes, 0, b"\x01" * n_classes, flat, failure)


def build_factor_automaton(word: str, alphabet: Alphabet | None = None) -> Dfa:
    """Minimal DFA of the factors of ``word``; every state is accepting.

    The ``failure`` link of a state reached by ``u`` leads to the state of
    the longest suffix of ``u`` landing in a different state.  For a word of
    length ``n > 3`` the automaton has between ``n + 1`` and ``2n - 2``
    states.
    """
    if not word:
        raise ValueError("the factor automaton is defined for nonempty words")
    if alphabet is None:
        alphabet = Alphabet.of_word(word)
    alphabet.check_word(word)
    tables = _suffix_automaton(_encode(word, alphabet), len(alphabet))
    return _assemble(alphabet, *tables, len(word))

"""Factor automaton of a linear word: minimal DFA of its factors, plus the
failure (longest-suffix) links.

The construction is the classical online suffix-automaton build followed by a
merge of states that become indistinguishable once every state accepts.  The
suffix automaton alone is *not* always minimal as a factor acceptor: in
``abbb`` the states reached by ``b`` and ``ab`` have identical futures and
must be merged.  Two facts about the suffix automaton (Blumer et al., "The
smallest automaton recognizing the subwords of a text", TCS 40, 1985) make
the merge one linear pass:

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

from .automata import Dfa
from .words import Alphabet


def _encode(word: str, alphabet: Alphabet):
    """Word as rank-coded symbols: bytes when the alphabet is ASCII."""
    symbols = "".join(alphabet.symbols)
    if symbols.isascii() and len(alphabet) <= 256:
        table = bytes.maketrans(symbols.encode(), bytes(range(len(alphabet))))
        return word.encode().translate(table)
    rank = alphabet._rank
    return [rank[c] for c in word]


def _suffix_automaton(
    coded, sigma: int
) -> tuple[list[list[int]], list[int], list[int], list[int], int]:
    """Online suffix-automaton construction over rank-coded symbols.

    Returns ``(columns, suffix links, longest-word lengths, first ending
    positions, state count)`` where ``columns[c][state]`` is the transition
    on symbol ``c`` (-1 when missing) and the first ending position is the
    smallest 0-based text index at which the words of the state end (a clone
    copies it from the state it splits, whose occurrences all come earlier;
    the root's entry is 0).  State 0 is the initial state and every
    transition path from it spells a factor of the input.  Tables are
    preallocated at the 2n+2 state bound, so only the first ``state count``
    entries are meaningful; the binary case is unrolled since it carries the
    million-symbol workloads.
    """
    cap = 2 * len(coded) + 2
    cols = [[-1] * cap for _ in range(sigma)]
    link = [-1] * cap
    length = [0] * cap
    endpos = [0] * cap
    last = 0
    size = 1
    if sigma == 2:
        col0, col1 = cols
        cur_len = 0
        for pos, c in enumerate(coded):
            col = col1 if c else col0
            cur = size
            size += 1
            cur_len += 1
            length[cur] = cur_len
            endpos[cur] = pos
            p = last
            while p >= 0 and col[p] < 0:
                col[p] = cur
                p = link[p]
            if p < 0:
                link[cur] = 0
            else:
                q = col[p]
                split_len = length[p] + 1
                if split_len == length[q]:
                    link[cur] = q
                else:
                    clone = size
                    size += 1
                    length[clone] = split_len
                    endpos[clone] = endpos[q]
                    link[clone] = link[q]
                    col0[clone] = col0[q]
                    col1[clone] = col1[q]
                    while p >= 0 and col[p] == q:
                        col[p] = clone
                        p = link[p]
                    link[q] = clone
                    link[cur] = clone
            last = cur
        return cols, link, length, endpos, size
    cur_len = 0
    for pos, c in enumerate(coded):
        col = cols[c]
        cur = size
        size += 1
        cur_len += 1
        length[cur] = cur_len
        endpos[cur] = pos
        p = last
        while p >= 0 and col[p] < 0:
            col[p] = cur
            p = link[p]
        if p < 0:
            link[cur] = 0
        else:
            q = col[p]
            split_len = length[p] + 1
            if split_len == length[q]:
                link[cur] = q
            else:
                clone = size
                size += 1
                length[clone] = split_len
                endpos[clone] = endpos[q]
                link[clone] = link[q]
                for column in cols:
                    column[clone] = column[q]
                while p >= 0 and col[p] == q:
                    col[p] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    return cols, link, length, endpos, size


def _assemble(
    alphabet: Alphabet,
    cols: list[list[int]],
    link: list[int],
    length: list[int],
    endpos: list[int],
    size: int,
    n: int,
) -> Dfa:
    """Merge the suffix automaton into the minimal factor automaton.

    ``s`` can merge into ``q = link[s]`` only if both have the same first
    end position and every other end position of ``q`` lies in the tail
    of the word covered by its longest repeated suffix (the suffix after
    each must also follow an earlier end of ``s``).  numpy keeps those
    candidates; the transition lemma decides them in one Python pass.
    """
    sigma = len(alphabet)
    # the state of the whole word is made last, or just before its clone
    last = size - 1 if length[size - 1] == n else size - 2
    link_np = np.fromiter(link, np.int64, size)
    endpos_np = np.fromiter(endpos, np.int64, size)
    parent = link_np[1:]
    same = endpos_np[1:] == endpos_np[parent]
    # earliest end of each state outside its child of equal first end
    earliest = np.full(size, n, dtype=np.int64)
    others = np.flatnonzero(~same) + 1
    np.minimum.at(earliest, link_np[others], endpos_np[others])
    tail = n - 1 - length[link[last]]
    cand = np.flatnonzero(same & (earliest[parent] >= tail)) + 1

    merged = bytearray(size)
    order = sorted(cand.tolist(), key=length.__getitem__, reverse=True)
    for s in order:
        q = link[s]
        for col in cols:
            t = col[s]
            if t != col[q] and (t < 0 or not merged[t]):
                break
        else:
            merged[s] = 1

    # a class is numbered by its top member, the one nearest the root, so
    # the root stays 0; pointer jumping up merged links finds each top
    is_top = np.frombuffer(merged, dtype=np.uint8) == 0
    tops = np.flatnonzero(is_top)
    n_classes = tops.size
    top = np.where(is_top, np.arange(size), link_np)
    while True:
        up = top[top]
        if np.array_equal(up, top):
            break
        top = up
    cls = (np.cumsum(is_top) - 1)[top]

    ext = np.append(cls, -1)  # index -1 wraps here: missing target -> -1
    flat_np = np.empty(n_classes * sigma, dtype=np.int64)
    for i, col in enumerate(cols):
        flat_np[i::sigma] = ext[np.fromiter(col, np.int64, size)[tops]]
    fail_np = ext[link_np[tops]]

    # ndarrays index like the flat list contract expects; skip the copy
    return Dfa(alphabet, n_classes, 0, range(n_classes), flat_np, fail_np)


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
    sigma = len(alphabet)
    cols, link, length, endpos, size = _suffix_automaton(_encode(word, alphabet), sigma)
    return _assemble(alphabet, cols, link, length, endpos, size, len(word))

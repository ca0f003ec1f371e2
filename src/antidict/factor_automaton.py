"""Factor automaton of a linear word: minimal DFA of its factors, plus the
failure (longest-suffix) links.

The construction is the classical online suffix-automaton build followed by a
bottom-up merge of states that become indistinguishable once every state
accepts.  The suffix automaton alone is *not* always minimal as a factor
acceptor: in ``abbb`` the states reached by ``b`` and ``ab`` have identical
futures and must be merged.  Because the transition graph is acyclic and all
states accept, two states are equivalent exactly when their per-symbol
successor classes coincide.  The partition is found with numpy: group by
raw successors, then coarsen until stable.  When a deep merge cascade needs
more rounds than a cap allows, one pass over the states in decreasing order
of longest-word length (a reverse topological order) settles the same
partition instead.
"""

from __future__ import annotations

import numpy as np

from .automata import Dfa
from .words import Alphabet

# Vectorized coarsening rounds before falling back to the stratified pass.
_COARSEN_ROUND_CAP = 16


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
    on symbol ``c`` (-1 when missing) and the first ending position is some
    0-based text index at which every word of the state has an occurrence
    ending.  State 0 is the initial state and every transition path from it
    spells a factor of the input.  Tables are preallocated at the 2n+2 state
    bound, so only the first ``state count`` entries are meaningful; the
    binary case is unrolled since it carries the million-symbol workloads.
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


def _stratified_classes(
    cols: list[list[int]], length: list[int], size: int
) -> tuple[list[int], int]:
    """Single-pass equivalence classes, states taken by decreasing length.

    Every transition target is strictly longer than its source, so targets
    are always classified first.  Returns ``(class of each state, class
    count)``.
    """
    maxlen = max(length[:size])
    buckets: list[list[int]] = [[] for _ in range(maxlen + 1)]
    for s in range(size):
        buckets[length[s]].append(s)
    class_of = [-1] * size
    signatures: dict[int, int] = {}
    width = size + 1
    for stratum in range(maxlen, -1, -1):
        for s in buckets[stratum]:
            sig = 0
            for col in cols:
                t = col[s]
                sig = sig * width + (class_of[t] + 1 if t >= 0 else 0)
            class_of[s] = signatures.setdefault(sig, len(signatures))
    return class_of, len(signatures)


def _vectorized_classes(cols_np: list[np.ndarray], size: int) -> tuple[np.ndarray, int] | None:
    """Equivalence classes by iterated coarsening, or None past the round cap.

    States with identical raw successors merge immediately; afterwards each
    round merges states whose successor classes coincide.  On an acyclic
    all-accepting automaton the first stable round is exactly the Nerode
    partition.  Signatures are chained through pairwise ``np.unique`` so the
    int64 encoding never overflows.
    """
    single = len(cols_np) == 1
    cur = cols_np[0] + 1
    width = size + 2
    for col in cols_np[1:]:
        _, cur = np.unique(cur * width + (col + 1), return_inverse=True)
    if single:
        _, cur = np.unique(cur, return_inverse=True)
    cls = cur
    n = int(cls.max()) + 1
    for _ in range(_COARSEN_ROUND_CAP):
        ext = np.append(cls, -1)  # index -1 wraps here: missing target -> -1
        width = n + 2
        cur = ext[cols_np[0]] + 1
        for col in cols_np[1:]:
            _, cur = np.unique(cur * width + (ext[col] + 1), return_inverse=True)
        if single:
            _, cur = np.unique(cur, return_inverse=True)
        m = int(cur.max()) + 1
        if m == n:
            return cur, m
        cls, n = cur, m
    return None


def _assemble(
    alphabet: Alphabet,
    cols: list[list[int]],
    link: list[int],
    length: list[int],
    size: int,
) -> Dfa:
    sigma = len(alphabet)
    cols_np = [np.asarray(col[:size], dtype=np.int64) for col in cols]
    partition = _vectorized_classes(cols_np, size)
    if partition is None:  # pathologically deep merge cascade
        class_of, n_classes = _stratified_classes(cols, length, size)
        cls = np.asarray(class_of, dtype=np.int64)
    else:
        cls, n_classes = partition

    length_np = np.asarray(length[:size], dtype=np.int64)
    link_np = np.asarray(link[:size], dtype=np.int64)

    # deepest member of every class; merges are rare, so singleton classes
    # take the cheap scatter and only shared classes get sorted
    deep = np.empty(n_classes, dtype=np.int64)
    deep[cls] = np.arange(size, dtype=np.int64)
    counts = np.bincount(cls, minlength=n_classes)
    shared = counts > 1
    if shared.any():
        members = np.flatnonzero(shared[cls])
        members = members[np.lexsort((length_np[members], cls[members]))]
        member_cls = cls[members]
        ends = np.append(np.flatnonzero(member_cls[1:] != member_cls[:-1]), members.size - 1)
        deep[member_cls[ends]] = members[ends]

    ext = np.append(cls, -1)
    flat_np = np.empty(n_classes * sigma, dtype=np.int64)
    for i, col in enumerate(cols_np):
        flat_np[i::sigma] = ext[col[deep]]

    own = np.arange(n_classes, dtype=np.int64)
    cand = link_np[deep]
    while True:
        alive = cand >= 0
        same = np.zeros(n_classes, dtype=bool)
        same[alive] = cls[cand[alive]] == own[alive]
        if not same.any():
            break
        cand[same] = link_np[cand[same]]
    fail_np = ext[cand]

    init = int(cls[0])
    if init != 0:
        perm = np.arange(n_classes, dtype=np.int64)
        perm[[0, init]] = perm[[init, 0]]
        perm_ext = np.append(perm, -1)
        flat_np = perm_ext[flat_np].reshape(n_classes, sigma)
        flat_np[[0, init]] = flat_np[[init, 0]]
        flat_np = flat_np.reshape(-1)
        fail_np = perm_ext[fail_np]
        fail_np[[0, init]] = fail_np[[init, 0]]

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
    cols, link, length, _endpos, size = _suffix_automaton(_encode(word, alphabet), sigma)
    return _assemble(alphabet, cols, link, length, size)

"""Independent oracles and small-corpus utilities shared by the tests.

Everything here is deliberately naive (nested loops, direct scans) so that
the automaton-based implementations are checked against code with no shared
machinery.
"""

import itertools

import numpy as np

from antidict import (
    Alphabet,
    CircularWord,
    Dfa,
    build_trie,
    l_automaton,
    mfw_circular,
    strip_sinks,
)
from antidict.automata import _int_table
from antidict.factor_automaton import _suffix_automaton_buffer
from antidict.words import _encode


def all_words(symbols: str, max_len: int, min_len: int = 1):
    """Every word over ``symbols`` with length in [min_len, max_len]."""
    for length in range(min_len, max_len + 1):
        for tup in itertools.product(symbols, repeat=length):
            yield "".join(tup)


def substrings(word: str) -> set[str]:
    """All factors of a word, the obvious way."""
    out = {""}
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            out.add(word[i:j])
    return out


def prefix_acceptor(language: set[str], alphabet: Alphabet) -> Dfa:
    """All-final prefix-tree DFA of a prefix-closed finite language.

    Independent route to the minimal factor acceptor: feed it to
    ``minimize`` and compare.
    """
    assert "" in language, "a prefix-closed language contains the empty word"
    words = sorted(language)
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for w in words:
        for sym in alphabet.symbols:
            if w + sym in index:
                edges.append((index[w], sym, index[w + sym]))
    return Dfa.from_edges(alphabet, len(words), index[""], range(len(words)), edges)


def words_avoiding(forbidden, symbols: str, max_len: int) -> set[str]:
    """All words up to ``max_len`` containing no forbidden word, by scanning."""
    bad = list(forbidden)
    out = set()
    for length in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=length):
            w = "".join(tup)
            if not any(b in w for b in bad):
                out.add(w)
    return out


def longest_paths_from_initial(dfa: Dfa) -> list[int]:
    """Longest-path length from the initial state to each state (DAG only)."""
    indegree = [0] * dfa.n_states
    for _, _, t in dfa.transitions():
        indegree[t] += 1
    ready = [s for s in range(dfa.n_states) if indegree[s] == 0]
    order = []
    while ready:
        s = ready.pop()
        order.append(s)
        for _, t in dfa.out_edges(s):
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    assert len(order) == dfa.n_states, "cycle: longest paths undefined"
    depth = [-1] * dfa.n_states
    depth[dfa.initial] = 0
    for s in order:
        if depth[s] < 0:
            continue
        for _, t in dfa.out_edges(s):
            depth[t] = max(depth[t], depth[s] + 1)
    return depth


def check_failure_semantics(dfa: Dfa, max_len: int, all_representatives: bool = True) -> None:
    """Assert failure links obey the longest-different-suffix definition.

    Harvests every word of length <= max_len that the automaton can read and
    checks that the state of a word's longest proper suffix reaching a
    *different* state is the recorded failure target.  With
    ``all_representatives`` every word reaching a state must give the same
    answer (true for factor automata); otherwise only each state's shortest
    (BFS) word is checked, which is the definition an avoidance automaton
    built from a trie satisfies.
    """
    assert dfa.failure is not None
    state_of = {"": dfa.initial}
    label_of = {dfa.initial: ""}
    frontier = [("", dfa.initial)]
    for _ in range(max_len):
        nxt = []
        for word, state in frontier:
            for sym, target in dfa.out_edges(state):
                grown = word + sym
                if grown not in state_of:
                    state_of[grown] = target
                    label_of.setdefault(target, grown)
                    nxt.append((grown, target))
        frontier = nxt
    if all_representatives:
        pairs = [(w, s) for w, s in state_of.items() if w]
    else:
        pairs = [(w, s) for s, w in label_of.items() if w]
    for word, state in pairs:
        if state == dfa.initial:
            continue
        expected = None
        for cut in range(1, len(word) + 1):
            suffix = word[cut:]
            if suffix in state_of and state_of[suffix] != state:
                expected = state_of[suffix]
                break
        assert expected is not None, (word, state)
        assert dfa.failure[state] == expected, (word, state, dfa.failure[state], expected)


def suffix_automaton_reference(coded, sigma: int):
    """Online suffix-automaton construction in plain Python, over rank codes.

    The reference the compiled kernel is checked against, table for table.
    Returns ``(columns, suffix links, longest-word lengths, first ending
    positions, state count)``, with ``columns[c][state]`` the transition on
    rank ``c`` (-1 when missing); only the first ``state count`` entries of
    each table are meaningful.
    """
    cap = 2 * len(coded) + 2
    cols = [[-1] * cap for _ in range(sigma)]
    link = [-1] * cap
    length = [0] * cap
    endpos = [0] * cap
    last = 0
    size = 1
    for pos, c in enumerate(coded):
        col = cols[c]
        cur = size
        size += 1
        length[cur] = length[last] + 1
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


def suffix_automaton_tables(code: np.ndarray, sigma: int):
    """Suffix automaton of a rank-coded word, built by the compiled kernel.

    Returns int32 arrays ``(trans, link, length, endpos)`` with one row per
    state, state 0 the initial one: ``trans[s, c]`` is the transition on
    rank ``c`` (-1 when missing; the rows are views of one flat
    ``s * sigma + c`` table), ``link`` the suffix link (-1 at the root),
    ``length`` the length of the state's longest word and ``endpos`` the
    smallest 0-based text index at which its words end (a clone copies it
    from the state it splits, whose occurrences all come earlier; the root's
    entry is 0).  The views share the kernel's one buffer.
    """
    tables, cap, size = _suffix_automaton_buffer(code, sigma)
    link, length, endpos = tables[cap * sigma :].reshape(3, cap)[:, :size]
    return tables[: size * sigma].reshape(size, sigma), link, length, endpos


def merge_candidates_reference(link, length, endpos, n: int) -> np.ndarray:
    """The suffix-automaton states of a word of length ``n`` that may merge
    into their suffix links, by decreasing length (ties in state order).

    ``s`` can merge into ``q = link[s]`` only if both have the same first
    end position and every other end position of ``q`` lies in the tail
    of the word covered by its longest repeated suffix (the suffix after
    each must also follow an earlier end of ``s``).  The filter only
    prunes: the transition lemma alone decides every state correctly.
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
    return cand[np.argsort(-length[cand], kind="stable")]


def assemble_reference(word: str, alphabet: Alphabet) -> Dfa:
    """The minimal factor automaton by merging the kernel's suffix automaton
    in numpy and Python, the reference the kernel's ``factor_classes`` is
    checked against, class numbers and failure links included.

    numpy keeps the candidates of :func:`merge_candidates_reference`; the
    transition lemma decides them in one Python pass over the letters on
    which a candidate and its parent differ.
    """
    trans, link, length, endpos = suffix_automaton_tables(_encode(word, alphabet), len(alphabet))
    size = link.size
    order = merge_candidates_reference(link, length, endpos, len(word))

    # s merges when every letter leads it and q to one state, or leads s to
    # a state t that merges: one (s, t) test per differing letter, taken by
    # decreasing length of s so that every merged[t] is final when read
    merged = bytearray(size)
    if order.size:
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


def forbidden_sites_reference(coded, sigma: int, max_len: int):
    """Sites of the minimal forbidden factors of length at most ``max_len``,
    read off :func:`suffix_automaton_reference` by a full scan and a sort.

    A site is a state and a rank undefined there but defined at the suffix
    link (at the root: undefined); its member is the state's shortest word,
    ``coded[start:stop]``, followed by the rank.  Returns the ``(start,
    stop, rank)`` triples sorted by the shortest word's length, then the
    shortest word as a tuple of ranks, then the rank.
    """
    cols, link, length, endpos, size = suffix_automaton_reference(coded, sigma)
    keyed = []
    for s in range(size):
        shortest = length[link[s]] + 1 if s else 0
        if shortest + 1 > max_len:
            continue
        stop = endpos[s] + 1 if s else 0
        start = stop - shortest
        for c, col in enumerate(cols):
            if col[s] < 0 and (s == 0 or col[link[s]] >= 0):
                keyed.append(((shortest, tuple(coded[start:stop]), c), (start, stop, c)))
    keyed.sort()
    return [site for _, site in keyed]


def trie_reference(words, alphabet: Alphabet):
    """Trie insertion in plain Python, the reference the kernel's ``trie`` is
    checked against.

    Inserts the distinct words in alphabet order, numbering states as they
    are made.  Returns ``(flat table, finals bitmap)`` in the layout of
    ``Trie``; the words must be nonempty and prefix-free.
    """
    sigma = len(alphabet)
    flat = [-1] * sigma
    n_states = 1
    sinks = set()
    for word in sorted(set(words), key=lambda w: [alphabet.rank(c) for c in w]):
        state = 0
        for sym in word:
            slot = state * sigma + alphabet.rank(sym)
            state = flat[slot]
            if state < 0:
                flat[slot] = state = n_states
                n_states += 1
                flat += [-1] * sigma
        sinks.add(state)
    return flat, bytes(state in sinks for state in range(n_states))


def circular_factor_dfa_reference(cw: CircularWord | str, alphabet: Alphabet | None = None) -> Dfa:
    """The circular factor automaton by the string route: the circular
    members as strings, their trie by ``build_trie``, then the avoidance
    completion and sink stripping.  The reference the kernel pass of
    ``circular_factor_dfa`` is checked against."""
    mfws = mfw_circular(cw, alphabet)
    return strip_sinks(l_automaton(build_trie(mfws.words, mfws.alphabet)))


def avoidance_reference(flat, finals, sigma: int):
    """Breadth-first completion of a trie table in plain Python, the
    reference the kernel's ``avoidance`` is checked against.

    Returns the completed table and the failure links; raises
    ``ValueError`` when a failure link lands on a sink, a final state (the
    members are not antifactorial).
    """
    sinks = {state for state, final in enumerate(finals) if final}
    flat = list(flat)
    failure = [-1] * (len(flat) // sigma)
    queue = []
    for i in range(sigma):
        if flat[i] < 0:
            flat[i] = 0
        else:
            failure[flat[i]] = 0
            queue.append(flat[i])
    for p in queue:  # grows while it is read: breadth-first order
        base = p * sigma
        if p in sinks:
            flat[base : base + sigma] = [p] * sigma
            continue
        fail_base = failure[p] * sigma
        for i in range(sigma):
            child = flat[base + i]
            if child < 0:
                flat[base + i] = flat[fail_base + i]
            else:
                link = flat[fail_base + i]
                if link in sinks:
                    raise ValueError("a failure link lands on a sink")
                failure[child] = link
                queue.append(child)
    return flat, failure


def longest_path_reference(dfa: Dfa) -> str:
    """The unique longest word read from the initial state of a stripped
    avoidance automaton, by longest paths in Kahn's order in plain Python:
    the reference the kernel's ``longest_path`` is checked against.

    Raises ``ValueError`` naming the language "infinite" when the automaton
    has a cycle, and the longest word "not unique" when two paths tie.
    """
    n, symbols, flat = dfa.n_states, dfa.alphabet.symbols, dfa.flat
    sigma = len(symbols)
    # a state's distance is final when its last incoming edge has been relaxed
    indegree = [0] * n
    for target in flat:
        if target >= 0:
            indegree[target] += 1
    ready = [s for s in range(n) if indegree[s] == 0]
    dist = [-1] * n
    # the last edge of a longest path into each state: its source and rank
    best_from = [-1] * n
    best_rank = [-1] * n
    n_best = [0] * n
    dist[dfa.initial] = 0
    n_best[dfa.initial] = 1
    done = 0
    while ready:
        state = ready.pop()
        done += 1
        longer = dist[state] + 1  # 0 when the initial state does not reach it
        base = state * sigma
        for i in range(sigma):
            target = flat[base + i]
            if target < 0:
                continue
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
            if not longer:
                continue
            if longer > dist[target]:
                dist[target] = longer
                best_from[target] = state
                best_rank[target] = i
                n_best[target] = n_best[state]
            elif longer == dist[target]:
                n_best[target] = min(2, n_best[target] + n_best[state])
    if done != n:
        raise ValueError("the avoiding language is infinite")
    top = max(dist)
    ends = [s for s in range(n) if dist[s] == top]
    if len(ends) != 1 or n_best[ends[0]] != 1:
        raise ValueError("longest avoiding word is not unique")
    chars = []
    state = ends[0]
    while state != dfa.initial:
        chars.append(symbols[best_rank[state]])
        state = best_from[state]
    return "".join(reversed(chars))


def find_cycle_reference(dfa: Dfa) -> str | None:
    """The labels of the first cycle an iterative depth-first search from
    the initial state closes, edges taken in alphabet order, or ``None``:
    the reference the kernel's ``find_cycle`` is checked against."""
    WHITE, GRAY, BLACK = 0, 1, 2
    symbols, flat = dfa.alphabet.symbols, dfa.flat
    sigma = len(symbols)
    color = bytearray(dfa.n_states)
    depth = [0] * dfa.n_states  # position on the DFS stack of a gray state
    # The DFS stack, and for each of its states one past the rank of the
    # edge taken out of it: the ranks below the top spell the current path.
    stack = [dfa.initial]
    next_rank = [0]
    color[dfa.initial] = GRAY
    while stack:
        state = stack[-1]
        base = state * sigma
        i = next_rank[-1]
        while i < sigma and flat[base + i] < 0:
            i += 1
        if i == sigma:
            stack.pop()
            next_rank.pop()
            color[state] = BLACK
            continue
        next_rank[-1] = i + 1
        target = flat[base + i]
        if color[target] == GRAY:
            return "".join(symbols[r - 1] for r in next_rank[depth[target] :])
        if color[target] == WHITE:
            color[target] = GRAY
            depth[target] = len(stack)
            stack.append(target)
            next_rank.append(0)
    return None


# Two primes below 2**31 and a base for each: a product of two residues
# fits in an int64, and a window is keyed by both residues at once.
HASH_MODULI = (2**31 - 1, 2**31 - 19)
HASH_BASES = (1_000_003, 998_244_353)


def _powers(base: int, n: int, mod: int) -> np.ndarray:
    """base**0 .. base**n modulo mod, each block of the table the block
    before it times the next power of base."""
    out = np.ones(n + 1, dtype=np.int64)
    filled, step = 1, base % mod
    while filled <= n:
        block = min(filled, n + 1 - filled)
        out[filled : filled + block] = out[:block] * step % mod
        filled, step = filled + block, step * step % mod
    return out


class WindowHashes:
    """Polynomial hashes of the windows of a string, modulo two primes.

    The prefix sums ``H[i]`` of ``code[j] * base**j`` give the window
    ``s[i:i+L]`` the key ``(H[i+L] - H[i]) * base**-i``, so windows at
    different positions compare by key.  The code is the string's code
    points; nothing here reads an automaton.
    """

    def __init__(self, s: str):
        code = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), "<u4").astype(np.int64)
        self.tables = []
        for base, mod in zip(HASH_BASES, HASH_MODULI):
            prefix = np.zeros(len(code) + 1, dtype=np.int64)
            np.cumsum(code * _powers(base, len(code), mod)[:-1] % mod, out=prefix[1:])
            inverse = _powers(pow(base, -1, mod), len(code), mod)
            self.tables.append((prefix % mod, inverse, mod))

    def keys(self, starts: np.ndarray, length) -> np.ndarray:
        """The key of each window ``s[start:start+length]``; ``length`` is
        one for all or one per start."""
        key = np.zeros(len(starts), dtype=np.int64)
        for prefix, inverse, mod in self.tables:
            residue = (prefix[starts + length] - prefix[starts]) % mod * inverse[starts] % mod
            key = key << 31 | residue
        return key


def unsound_members(members, text: str) -> list[str]:
    """The members ``aub`` that fail the definition of a minimal forbidden
    factor of ``text``: ``aub`` occurs in it, or ``au`` or ``ub`` does not.
    A circular word is given as ``w + w[:-1]``, whose windows of at most
    ``|w|`` symbols are its factors.

    A soundness certificate that shares no code with the suffix automaton
    (after Mignosi, Restivo and Sciortino, TCS 273, 2002): the windows of
    the text of each length a member has, and one less, are kept as sorted
    arrays of hash keys, and every member, its prefix and its suffix are
    looked up there.  Only two different windows sharing both residues,
    which two moduli near 2**31 make unlikely at these sizes, could hide a
    failure.
    """
    members = list(members)
    if not members:
        return []
    lengths = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
    starts = np.zeros(len(members), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    member_hashes, text_hashes = WindowHashes("".join(members)), WindowHashes(text)
    whole = member_hashes.keys(starts, lengths)
    prefix = member_hashes.keys(starts, lengths - 1)
    suffix = member_hashes.keys(starts + 1, lengths - 1)
    windows = {}  # length -> sorted keys of the text's windows of that length

    def occur(keys, length):
        if length == 0:
            return np.ones(len(keys), dtype=bool)
        if length > len(text):
            return np.zeros(len(keys), dtype=bool)
        if length not in windows:
            windows[length] = np.sort(text_hashes.keys(np.arange(len(text) - length + 1), length))
        table = windows[length]
        at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        return table[at] == keys

    bad = np.zeros(len(members), dtype=bool)
    for length in np.unique(lengths).tolist():
        of_length = np.flatnonzero(lengths == length)
        bad[of_length] = (
            occur(whole[of_length], length)
            | ~occur(prefix[of_length], length - 1)
            | ~occur(suffix[of_length], length - 1)
        )
    return [members[i] for i in np.flatnonzero(bad).tolist()]

"""Tries and DFAs with the generic machinery: minimization, equivalence,
language enumeration, sink removal and DOT/JSON export.

There is one automaton type and one storage.  A :class:`Dfa` holds its
transitions in one flat ``array('i')`` indexed by ``state * sigma + rank``,
with ``-1`` marking a missing edge, and its final states as a bitmap.  That
keeps million-state automata cheap and lets the walks read the table
directly.  A :class:`Trie` is a ``Dfa`` too: the tree-shaped acceptor of a
finite set, final exactly at its leaves.  The compiled kernel
(``_kernel.c``) builds a trie's table through a numpy view of it, and
completes a copy of it, breadth first, into the avoidance automaton's table
and failure links.  Transition functions are partial everywhere; completion
with a dead state happens only inside :func:`minimize` and
:func:`equivalent`.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterable, Iterator, Mapping

import numpy as np

from ._kernel import MAX_STATES, kernel
from .words import Alphabet, LimitExceeded, _encode

# Cap on the number of words one language enumeration may touch.
ENUMERATION_LIMIT = 1_000_000


def _row_edges(flat, symbols: tuple[str, ...], state: int) -> list[tuple[str, int]]:
    """The (symbol, target) edges leaving a state of a flat table, in
    alphabet order."""
    base = state * len(symbols)
    return [(sym, flat[base + i]) for i, sym in enumerate(symbols) if flat[base + i] >= 0]


def _int_table(table: np.ndarray) -> array:
    """An int32 numpy table copied into the ``array('i')`` a Dfa holds."""
    out = array("i")
    out.frombytes(memoryview(np.ascontiguousarray(table, dtype=np.int32)).cast("B"))
    return out


def _state_id(value) -> int:
    """A state id or count read from JSON; anything but an int (a float or
    bool included) raises ``ValueError`` instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"state ids and counts must be integers, got {value!r}")
    return value


class Dfa:
    """Deterministic finite automaton over dense integer states.

    ``flat[state * sigma + rank]`` holds the target state or ``-1``, and
    ``failure``, when present, the per-state suffix link (``-1`` at the
    initial state); both are ``array('i')``, the kernel's int32 width.
    ``finals`` is a bitmap: ``bytes`` of length ``n_states``, 1 at each final
    state and 0 elsewhere.  ``initial`` is a state.  Instances are treated as
    immutable after construction; a :class:`Trie` is one of them.
    """

    __slots__ = ("alphabet", "n_states", "initial", "finals", "flat", "failure")

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        initial: int,
        finals: bytes,
        flat: array,
        failure: array | None = None,
    ):
        sigma = len(alphabet)
        tables = (flat,) if failure is None else (flat, failure)
        if not all(isinstance(t, array) and t.typecode == "i" for t in tables):
            raise TypeError("the tables of a Dfa are array('i')")
        if len(flat) != n_states * sigma:
            raise ValueError("flat transition table has the wrong size")
        if failure is not None and len(failure) != n_states:
            raise ValueError("failure table has the wrong size")
        if not isinstance(finals, bytes) or len(finals) != n_states:
            raise ValueError("finals must be a bitmap of one byte per state")
        if not 0 <= initial < n_states:
            raise ValueError(f"initial state {initial} is outside 0..{n_states - 1}")
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.finals = finals
        self.flat = flat
        self.failure = failure

    @classmethod
    def from_edges(
        cls,
        alphabet: Alphabet,
        n_states: int,
        initial: int,
        finals: Iterable[int],
        edges: Iterable[tuple[int, str, int]],
        failure: Mapping[int, int] | None = None,
    ) -> "Dfa":
        """A DFA of ``n_states`` states from its edges, final states and
        failure links.

        Raises ``ValueError`` before filling the tables when a source,
        target, initial, final or failure id lies outside
        ``0..n_states - 1``, or when two edges leave one state on one symbol
        for different targets.
        """
        edges, finals = list(edges), list(finals)
        states = [initial, *finals, *(s for src, _, dst in edges for s in (src, dst))]
        if failure is not None:
            states += [*failure.keys(), *failure.values()]
        if states and not 0 <= min(states) <= max(states) < n_states:
            bad = next(s for s in states if not 0 <= s < n_states)
            raise ValueError(f"state {bad} is outside 0..{n_states - 1}")
        sigma = len(alphabet)
        flat = array("i", [-1]) * (n_states * sigma)
        for src, sym, dst in edges:
            slot = src * sigma + alphabet.rank(sym)
            if flat[slot] not in (-1, dst):
                raise ValueError(f"conflicting transitions from state {src} on {sym!r}")
            flat[slot] = dst
        bitmap = bytearray(n_states)
        for state in finals:
            bitmap[state] = 1
        fail = None
        if failure is not None:
            fail = array("i", [-1]) * n_states
            for src, dst in failure.items():
                fail[src] = dst
        return cls(alphabet, n_states, initial, bytes(bitmap), flat, fail)

    def _check_state(self, state: int) -> None:
        """Raise ``ValueError`` for a state outside ``0..n_states - 1``,
        which would otherwise index another state's row or wrap around."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} is outside 0..{self.n_states - 1}")

    def step(self, state: int, symbol: str) -> int | None:
        self._check_state(state)
        target = self.flat[state * len(self.alphabet) + self.alphabet.rank(symbol)]
        return None if target < 0 else target

    def accepts(self, word: str) -> bool:
        """Run the word from the initial state; a missing transition rejects
        and a symbol outside the alphabet raises ``ValueError``."""
        state = self.initial
        flat, rank, sigma = self.flat, self.alphabet._rank, len(self.alphabet)
        try:
            for sym in word:
                state = flat[state * sigma + rank[sym]]
                if state < 0:
                    return False
        except (KeyError, TypeError):  # TypeError: an unhashable non-symbol
            raise ValueError(f"symbol {sym!r} is not in alphabet {self.alphabet}") from None
        return self.finals[state] != 0

    def out_edges(self, state: int) -> list[tuple[str, int]]:
        self._check_state(state)
        return _row_edges(self.flat, self.alphabet.symbols, state)

    def transitions(self) -> Iterator[tuple[int, str, int]]:
        """Every (source, symbol, target) edge, state by state."""
        symbols = self.alphabet.symbols
        for state in range(self.n_states):
            for sym, target in _row_edges(self.flat, symbols, state):
                yield state, sym, target

    def reachable(self) -> list[int]:
        """States reachable from the initial state, in BFS order."""
        seen = bytearray(self.n_states)
        seen[self.initial] = 1
        order = [self.initial]
        sigma = len(self.alphabet)
        head = 0
        while head < len(order):
            base = order[head] * sigma
            head += 1
            for i in range(sigma):
                t = self.flat[base + i]
                if t >= 0 and not seen[t]:
                    seen[t] = 1
                    order.append(t)
        return order

    def enumerate_language(self, max_len: int, *, limit: int = ENUMERATION_LIMIT) -> set[str]:
        """All accepted words of length at most ``max_len``, breadth first."""
        out: set[str] = set()
        finals = self.finals
        if finals[self.initial]:
            out.add("")
        frontier: list[tuple[int, str]] = [(self.initial, "")]
        sigma = len(self.alphabet)
        explored = 0
        for _ in range(max_len):
            nxt: list[tuple[int, str]] = []
            for state, word in frontier:
                base = state * sigma
                for i, sym in enumerate(self.alphabet.symbols):
                    t = self.flat[base + i]
                    if t < 0:
                        continue
                    explored += 1
                    if explored > limit:
                        raise LimitExceeded(
                            f"language enumeration exceeded {limit} words"
                        )
                    grown = word + sym
                    if finals[t]:
                        out.add(grown)
                    nxt.append((t, grown))
            frontier = nxt
        return out

    def to_json(self) -> dict:
        data = {
            "alphabet": "".join(self.alphabet.symbols),
            "states": self.n_states,
            "initial": self.initial,
            "finals": list(compress(range(self.n_states), self.finals)),
            "transitions": [[p, sym, q] for p, sym, q in self.transitions()],
        }
        if self.failure is not None:
            data["failure"] = [
                [state, target] for state, target in enumerate(self.failure) if target >= 0
            ]
        return data

    @classmethod
    def from_json(cls, data: Mapping) -> "Dfa":
        """Inverse of :meth:`to_json`; malformed data raise ``ValueError``."""
        try:
            alphabet = Alphabet(data["alphabet"])
            n = _state_id(data["states"])
            initial = _state_id(data["initial"])
            finals = [_state_id(s) for s in data["finals"]]
            edges = [(_state_id(p), sym, _state_id(q)) for p, sym, q in data["transitions"]]
            failure = None
            if "failure" in data:
                failure = {_state_id(p): _state_id(q) for p, q in data["failure"]}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed automaton JSON: {exc!r}") from None
        # a reachable state but the initial one is a transition's target: refuse
        # a larger count (finals allowed as slack) before allocating the tables
        bound = min(MAX_STATES, 1 + len(edges) + len(finals))
        if n > bound:
            raise ValueError(f"{n} states is more than the {bound} the document accounts for")
        return cls.from_edges(alphabet, n, initial, finals, edges, failure)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(states={self.n_states}, finals={self.finals.count(1)}, "
            f"alphabet={''.join(self.alphabet.symbols)!r})"
        )


class Trie(Dfa):
    """Tree-shaped acceptor of a finite language: a :class:`Dfa` whose
    members end at sink states.

    State 0 is the initial state, the root, and every other state has
    exactly one parent.  The final states are exactly the leaves other than
    the root: they carry no outgoing edges, so no accepted word may be a
    proper prefix of another -- :func:`build_trie` enforces that.  A trie
    has no failure links.
    """

    __slots__ = ()

    def words(self) -> list[str]:
        """The accepted language, read off root-to-sink paths in alphabet
        order.

        One symbol path is kept for the whole depth-first walk and joined
        only at sinks, so the cost is linear in the trie and the output.
        """
        symbols = self.alphabet.symbols
        sigma = len(symbols)
        flat, finals = self.flat.tolist(), self.finals
        backwards = tuple(reversed(list(enumerate(symbols))))
        out: list[str] = []
        # path[d] is the symbol entering the current state's ancestor at
        # depth d (the root's entry is empty); no depth exceeds n_states - 1
        path = [""] * self.n_states
        stack: list[tuple[int, int, str]] = [(0, 0, "")]
        while stack:
            state, depth, sym = stack.pop()
            path[depth] = sym
            if finals[state]:
                out.append("".join(path[: depth + 1]))
                continue
            base = state * sigma
            depth += 1
            for i, child_sym in backwards:  # popped back in alphabet order
                child = flat[base + i]
                if child >= 0:
                    stack.append((child, depth, child_sym))
        return out

    def is_antifactorial(self) -> bool:
        """Whether no member occurs inside another, by the failure-link test
        of :func:`_avoidance_tables`; linear in the trie size."""
        try:
            _avoidance_tables(self)
        except ValueError:
            return False
        return True

    @classmethod
    def from_json(cls, data: Mapping) -> "Trie":
        """Inverse of :meth:`Dfa.to_json`, with ``initial`` defaulting to 0.

        Raises ``ValueError`` unless the data describe a tree rooted at state
        0 whose finals are exactly its leaves (the root excepted: the trie of
        the empty set is a lone non-final root) and that has no failure
        links.  Anything else would break the prefix-free shape the
        failure-link test relies on.
        """
        try:
            data = {"initial": 0, **data}
        except TypeError as exc:  # not a mapping
            raise ValueError(f"malformed trie JSON: {exc!r}") from None
        if "failure" in data:
            raise ValueError("a trie has no failure links")
        trie = super().from_json(data)
        n, sigma, flat = trie.n_states, len(trie.alphabet), trie.flat
        if trie.initial != 0:
            raise ValueError("the root of a trie is state 0")
        targets = [t for t in flat if t >= 0]
        if len(targets) != n - 1 or len(set(targets)) != n - 1 or 0 in targets:
            raise ValueError("every state but the root needs exactly one parent")
        if len(trie.reachable()) != n:
            raise ValueError("some states are not reachable from the root")
        leaves = bytes(s > 0 and max(flat[s * sigma : (s + 1) * sigma]) < 0 for s in range(n))
        if trie.finals != leaves:
            raise ValueError("the finals must be exactly the non-root leaves")
        return trie


def build_trie(
    words: Iterable[str], alphabet: Alphabet, *, antifactorial: bool = False
) -> Trie:
    """Trie of a finite set of nonempty words, built by the compiled kernel.

    Raises if one word is a proper prefix of another (the sink-state shape
    cannot represent that) and, when ``antifactorial`` is set, if any word
    occurs inside another -- the signature of an invalid antidictionary --
    which the failure-link test of :func:`_avoidance_tables` decides in
    linear time.  The table is sized exactly before it is filled: sorted,
    each word adds the symbols after its common prefix with its predecessor.
    """
    members = list(words)
    alphabet.sort(members)
    if members and not members[0]:
        raise ValueError("the empty word cannot be a trie member")
    joined = "".join(members)
    if not alphabet._covers(joined):
        for word in members:  # name the first member holding a stray symbol
            alphabet.check_word(word)
    code = _encode(joined, alphabet)
    bounds = np.zeros(len(members) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, members), np.int64, len(members)), out=bounds[1:])
    lib = kernel()
    size = lib.trie_size(code, bounds, len(members))
    if size < 0:  # word -1 - size extends its sorted predecessor
        raise ValueError(
            f"{members[-1 - size]!r} extends another member: the set is not prefix-free"
        )
    if size > MAX_STATES:
        raise LimitExceeded(
            f"a trie of {size} states is more than the {MAX_STATES} its tables can number"
        )
    flat = array("i", [-1]) * (size * len(alphabet))
    finals = np.zeros(size, dtype=np.uint8)
    lib.trie(code, bounds, len(members), len(alphabet), np.frombuffer(flat, np.int32), finals)
    trie = Trie(alphabet, size, 0, finals.tobytes(), flat)
    if antifactorial:
        _avoidance_tables(trie)
    return trie


def _avoidance_tables(trie: Trie) -> tuple[array, array]:
    """Completed flat transition table and failure links of the avoidance
    automaton of a trie, as ``array('i')``, filled by the compiled kernel in
    one breadth-first pass over a copy of the trie's table.

    The sinks are the trie's final states, its members' ends, and loop every
    letter back to themselves.  Root transitions on absent letters become
    self-loops; every other state keeps its trie edges (the child's failure
    link is the failure's same-letter target) and borrows missing edges from
    its failure link.  A failure link landing on a sink means a member is a
    proper suffix of a prefix of another member, i.e. occurs inside it;
    since the trie shape already rules out prefixes, this is exactly the
    failure of antifactoriality, and it raises ``ValueError``, as does a
    table that is not a tree (a member end with an edge, a state with two
    parents, the root as a child or a state out of range).
    """
    n = trie.n_states
    flat, failure = trie.flat[:], array("i", [-1]) * n
    status = kernel().avoidance(
        np.frombuffer(flat, np.int32), n, len(trie.alphabet),
        np.frombuffer(trie.finals, np.uint8),
        np.frombuffer(failure, np.int32), np.empty(n, dtype=np.int32),
    )
    if status == -2:
        raise ValueError("the transition table is not a tree rooted at state 0")
    if status < 0:
        raise ValueError("the set is not antifactorial: a member occurs inside another")
    return flat, failure


def minimize(dfa: Dfa) -> Dfa:
    """The unique minimal DFA of the same language.

    Moore partition refinement over the completed automaton (one added dead
    state), then the dead class and unreachable states are dropped again
    and the rest numbered by :func:`_canonical`, so that equivalent
    automata minimize to equal tables.  Failure links do not survive
    minimization.
    """
    sigma = len(dfa.alphabet)
    reach = dfa.reachable()
    index = {s: i for i, s in enumerate(reach)}
    n = len(reach)
    dead = n
    table: list[list[int]] = []
    for s in reach:
        base = s * sigma
        table.append(
            [index[dfa.flat[base + i]] if dfa.flat[base + i] >= 0 else dead for i in range(sigma)]
        )
    table.append([dead] * sigma)
    is_final = [dfa.finals[s] for s in reach] + [0]

    cls_ids = [1 if f else 0 for f in is_final]
    n_classes = len(set(cls_ids))
    while True:
        sigs: dict[tuple, int] = {}
        new_ids = [0] * (n + 1)
        for s in range(n + 1):
            key = (cls_ids[s], tuple(cls_ids[t] for t in table[s]))
            found = sigs.get(key)
            if found is None:
                found = len(sigs)
                sigs[key] = found
            new_ids[s] = found
        cls_ids = new_ids
        if len(sigs) == n_classes:
            break
        n_classes = len(sigs)

    dead_cls = cls_ids[dead]
    init_cls = cls_ids[0]
    if init_cls == dead_cls:
        return Dfa(dfa.alphabet, 1, 0, b"\x00", array("i", [-1]) * sigma)

    rep: dict[int, int] = {}
    for s in range(n + 1):
        rep.setdefault(cls_ids[s], s)
    # the quotient over the class ids, edges into the dead class dropped
    quotient = array("i", [-1]) * (n_classes * sigma)
    finals = bytearray(n_classes)
    for c, s in rep.items():
        finals[c] = is_final[s]
        for i in range(sigma):
            t = cls_ids[table[s][i]]
            if t != dead_cls:
                quotient[c * sigma + i] = t
    return _canonical(Dfa(dfa.alphabet, n_classes, init_cls, bytes(finals), quotient))


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Whether two automata accept the same language (product walk)."""
    if set(a.alphabet.symbols) != set(b.alphabet.symbols):
        raise ValueError("cannot compare automata over different alphabets")
    dead = -1
    start = (a.initial, b.initial)
    seen = {start}
    stack = [start]
    while stack:
        p, q = stack.pop()
        fp = p != dead and a.finals[p] != 0
        fq = q != dead and b.finals[q] != 0
        if fp != fq:
            return False
        for sym in a.alphabet.symbols:
            tp = a.step(p, sym) if p != dead else None
            tq = b.step(q, sym) if q != dead else None
            pair = (dead if tp is None else tp, dead if tq is None else tq)
            if pair == (dead, dead):
                continue
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def _canonical(dfa: Dfa) -> Dfa:
    """The reachable part of an automaton, its states numbered in BFS order
    from the initial state, 0, taking edges in alphabet order: the one
    numbering isomorphic automata share.  Failure links are dropped."""
    order = np.array(dfa.reachable(), dtype=np.int32)
    # renum[s] numbers state s; its extra last entry keeps a missing edge -1
    renum = np.full(dfa.n_states + 1, -1, dtype=np.int32)
    renum[order] = np.arange(order.size, dtype=np.int32)
    rows = np.frombuffer(dfa.flat, dtype=np.int32).reshape(dfa.n_states, len(dfa.alphabet))
    finals = np.frombuffer(dfa.finals, dtype=np.uint8)[order].tobytes()
    return Dfa(dfa.alphabet, order.size, 0, finals, _int_table(renum[rows[order]]))


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Structural equality up to renaming of states (reachable parts)."""
    if a.alphabet.symbols != b.alphabet.symbols:
        return False
    a, b = _canonical(a), _canonical(b)
    return a.finals == b.finals and a.flat == b.flat


def strip_sinks(dfa: Dfa) -> Dfa:
    """Remove non-final states whose every outgoing edge loops back on itself.

    These are the absorbing sinks a complete avoidance automaton parks
    forbidden continuations in; removing them leaves the natural partial
    automaton.  The initial state is never removed.  Failure links into a
    removed state (none arise for antifactorial inputs) are dropped.  Only
    the non-final states are candidates, which for the output of
    :func:`~antidict.l_automaton.l_automaton` are just the trie's sinks.
    The kept states are renumbered in order, in numpy, on views of the
    tables.
    """
    n, sigma = dfa.n_states, len(dfa.alphabet)
    flat = np.frombuffer(dfa.flat, dtype=np.int32).reshape(n, sigma)
    finals = np.frombuffer(dfa.finals, dtype=np.uint8)
    cand = np.flatnonzero(finals == 0)
    rows = flat[cand]
    doomed = cand[((rows < 0) | (rows == cand[:, None])).all(axis=1) & (cand != dfa.initial)]
    if not doomed.size:
        return dfa
    keep = np.ones(n, dtype=bool)
    keep[doomed] = False
    kept = n - doomed.size
    # new_id[s] numbers the kept states in order; its extra last entry, read
    # at index -1, sends a missing edge or link to -1, as it does each sink
    new_id = np.full(n + 1, -1, dtype=np.int32)
    new_id[:-1][keep] = np.arange(kept, dtype=np.int32)
    failure = None
    if dfa.failure is not None:
        failure = _int_table(new_id[np.frombuffer(dfa.failure, dtype=np.int32)[keep]])
    initial, flat = int(new_id[dfa.initial]), _int_table(new_id[flat.compress(keep, axis=0)])
    return Dfa(dfa.alphabet, kept, initial, finals[keep].tobytes(), flat, failure)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(automaton: Dfa) -> str:
    """DOT rendering: double circles for finals, dashed edges for failure links.

    States are labelled by BFS discovery order so output is stable across runs.
    """
    flat, symbols = automaton.flat, automaton.alphabet.symbols
    initial, failure, is_final = automaton.initial, automaton.failure, automaton.finals
    n_states = automaton.n_states

    order = automaton.reachable()
    renum = {state: i for i, state in enumerate(order)}
    for state in range(n_states):  # unreachable states, if any, come last
        if state not in renum:
            renum[state] = len(renum)
            order.append(state)

    lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    lines.append(f"  __start -> q{renum[initial]};")
    for state in order:
        shape = "doublecircle" if is_final[state] else "circle"
        lines.append(f"  q{renum[state]} [shape={shape}, label={_dot_quote(str(renum[state]))}];")
    for state in order:
        for sym, target in _row_edges(flat, symbols, state):
            lines.append(f"  q{renum[state]} -> q{renum[target]} [label={_dot_quote(sym)}];")
    if failure is not None:
        for state in order:
            target = failure[state]
            if target >= 0:
                lines.append(
                    f"  q{renum[state]} -> q{renum[target]} "
                    "[style=dashed, constraint=false];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"

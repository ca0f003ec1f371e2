"""Recovering words from their antidictionaries.

A finite word is pinned down exactly by its set of minimal forbidden
factors; a primitive circular word likewise.  Both directions run the
avoidance construction on the trie of the candidate set, strip the sinks,
and then read the word off the automaton: as the unique longest path for a
linear word, as a cycle for a circular one.  Every successful return is
post-verified by recomputing the antidictionary of the result, so a set
that is not of the expected form fails loudly instead of corrupting.
"""

from __future__ import annotations

from .automata import Dfa, build_trie, strip_sinks
from .l_automaton import l_automaton
from .mfw import MfwSet, mfw_circular, mfw_linear
from .words import CircularWord


class ReconstructionError(ValueError):
    """The given set is not the antidictionary of the requested kind of word."""


def _avoidance_core(mfws: MfwSet) -> Dfa:
    try:
        complete = l_automaton(build_trie(mfws.words, mfws.alphabet))
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    return strip_sinks(complete)


def _topological_order(dfa: Dfa) -> list[int] | None:
    """Topological order of the states, or None if there is a cycle."""
    indegree = [0] * dfa.n_states
    for _, _, target in dfa.transitions():
        indegree[target] += 1
    ready = [s for s in range(dfa.n_states) if indegree[s] == 0]
    order: list[int] = []
    while ready:
        state = ready.pop()
        order.append(state)
        for _, target in dfa.out_edges(state):
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    if len(order) != dfa.n_states:
        return None
    return order


def reconstruct_word(mfws: MfwSet) -> str:
    """The unique word whose antidictionary is the given set.

    The word is the longest path from the initial state of the stripped
    avoidance automaton.  A cycle means the avoiding language is infinite
    and no finite word fits; a tie for the longest path, or a verification
    mismatch, means the set belongs to no single word.
    """
    dfa = _avoidance_core(mfws)
    order = _topological_order(dfa)
    if order is None:
        raise ReconstructionError(
            "the avoiding language is infinite: not the antidictionary of a finite word"
        )
    dist = [-1] * dfa.n_states
    best_in: list[tuple[int, str] | None] = [None] * dfa.n_states
    n_best = [0] * dfa.n_states
    dist[dfa.initial] = 0
    n_best[dfa.initial] = 1
    for state in order:
        if dist[state] < 0:
            continue
        for sym, target in dfa.out_edges(state):
            if dist[state] + 1 > dist[target]:
                dist[target] = dist[state] + 1
                best_in[target] = (state, sym)
                n_best[target] = n_best[state]
            elif dist[state] + 1 == dist[target]:
                n_best[target] = min(2, n_best[target] + n_best[state])
    top = max(dist)
    ends = [s for s in range(dfa.n_states) if dist[s] == top]
    if len(ends) != 1 or n_best[ends[0]] != 1:
        raise ReconstructionError(
            "longest avoiding word is not unique: not the antidictionary of a single word"
        )
    chars: list[str] = []
    state = ends[0]
    while state != dfa.initial:
        prev, sym = best_in[state]
        chars.append(sym)
        state = prev
    word = "".join(reversed(chars))
    if mfw_linear(word, mfws.alphabet).as_set() != mfws.as_set():
        raise ReconstructionError(
            f"verification failed: {word!r} has a different antidictionary"
        )
    return word


def _find_cycle(dfa: Dfa) -> list[str] | None:
    """Edge labels of some cycle reachable from the initial state, via DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * dfa.n_states
    on_path: dict[int, int] = {}
    path_syms: list[str] = []
    stack: list[tuple[int, list[tuple[str, int]]]] = [
        (dfa.initial, dfa.out_edges(dfa.initial))
    ]
    color[dfa.initial] = GRAY
    on_path[dfa.initial] = 0
    while stack:
        state, edges = stack[-1]
        if not edges:
            stack.pop()
            color[state] = BLACK
            del on_path[state]
            if path_syms:
                path_syms.pop()
            continue
        sym, target = edges.pop(0)
        if color[target] == GRAY:
            start = on_path[target]
            return path_syms[start:] + [sym]
        if color[target] == WHITE:
            color[target] = GRAY
            on_path[target] = len(path_syms) + 1
            path_syms.append(sym)
            stack.append((target, dfa.out_edges(target)))
    return None


def reconstruct_circular(mfws: MfwSet) -> CircularWord:
    """The primitive circular word whose antidictionary is the given set.

    Any cycle of the stripped avoidance automaton spells a power of a
    rotation of the word, and a depth-first search finds one; the result is
    canonicalized and verified.
    """
    dfa = _avoidance_core(mfws)
    labels = _find_cycle(dfa)
    if labels is None:
        raise ReconstructionError(
            "the avoidance automaton is acyclic: not the antidictionary of a circular word"
        )
    try:
        cw = CircularWord("".join(labels), mfws.alphabet)
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    if mfw_circular(cw, mfws.alphabet).as_set() != mfws.as_set():
        raise ReconstructionError(
            f"verification failed: [{cw}] has a different antidictionary"
        )
    return cw

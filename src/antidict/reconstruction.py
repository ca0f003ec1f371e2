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

from .automata import Dfa, build_trie
from .l_automaton import _stripped_l_automaton
from .mfw import MfwSet, mfw_circular, mfw_linear
from .words import CircularWord


class ReconstructionError(ValueError):
    """The given set is not the antidictionary of the requested kind of word."""


def _avoidance_core(mfws: MfwSet) -> Dfa:
    try:
        return _stripped_l_automaton(build_trie(mfws.words, mfws.alphabet))
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc


def reconstruct_word(mfws: MfwSet) -> str:
    """The unique word whose antidictionary is the given set.

    The word is the longest path from the initial state of the stripped
    avoidance automaton.  A cycle means the avoiding language is infinite
    and no finite word fits; a tie for the longest path, or a verification
    mismatch, means the set belongs to no single word.
    """
    dfa = _avoidance_core(mfws)
    n, symbols, flat = dfa.n_states, dfa.alphabet.symbols, dfa.flat
    sigma = len(symbols)
    # Longest paths in topological order (Kahn's algorithm): a state's
    # distance is final when its last incoming edge has been relaxed.
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
        raise ReconstructionError(
            "the avoiding language is infinite: not the antidictionary of a finite word"
        )
    top = max(dist)
    ends = [s for s in range(n) if dist[s] == top]
    if len(ends) != 1 or n_best[ends[0]] != 1:
        raise ReconstructionError(
            "longest avoiding word is not unique: not the antidictionary of a single word"
        )
    chars: list[str] = []
    state = ends[0]
    while state != dfa.initial:
        chars.append(symbols[best_rank[state]])
        state = best_from[state]
    word = "".join(reversed(chars))
    if mfw_linear(word, mfws.alphabet).as_set() != mfws.as_set():
        raise ReconstructionError(
            f"verification failed: {word!r} has a different antidictionary"
        )
    return word


def _find_cycle(dfa: Dfa) -> list[str] | None:
    """Edge labels of some cycle reachable from the initial state, via DFS."""
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
            return [symbols[r - 1] for r in next_rank[depth[target] :]]
        if color[target] == WHITE:
            color[target] = GRAY
            depth[target] = len(stack)
            stack.append(target)
            next_rank.append(0)
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

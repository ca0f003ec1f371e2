"""Factor automaton of a linear word: minimal DFA of its factors, plus the
failure (longest-suffix) links.

The construction is the classical online suffix-automaton build (Blumer et
al., "The smallest automaton recognizing the subwords of a text", TCS 40,
1985) followed by a merge of states that become indistinguishable once every
state accepts, both run by the compiled kernel in ``_kernel.c`` on one
buffer of flat int32 tables.  The suffix automaton alone is *not* always
minimal as a factor acceptor: in ``abbb`` the states reached by ``b`` and
``ab`` have identical futures and must be merged.  Two facts about the
suffix automaton make the merge one linear pass:

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
are read from it and its failure link is the class of its suffix link.  The
kernel's ``factor_classes`` keeps as candidates only the states whose merge
the end positions allow, decides them by decreasing length, numbers the
classes by their top states and writes the class rows and failure links
over the suffix automaton's own tables, from which they are copied once.
"""

from __future__ import annotations

import numpy as np

from ._kernel import MAX_STATES, kernel
from .automata import Dfa, _int_table
from .words import Alphabet, LimitExceeded, _encode


def _suffix_automaton_room(n: int, sigma: int) -> tuple[np.ndarray, int]:
    """An unfilled int32 buffer for the kernel's suffix automaton of a word
    of ``n`` symbols and the row capacity ``cap`` = 2n+2 of its four tables.
    Raises ``LimitExceeded`` before allocating when the state bound would
    not fit the int32 tables."""
    cap = 2 * n + 2
    if cap > MAX_STATES:
        raise LimitExceeded(
            f"a suffix automaton of {n} symbols could need {cap} states, "
            f"more than the {MAX_STATES} its tables can number"
        )
    return np.empty(cap * (sigma + 3), dtype=np.int32), cap


def _suffix_automaton_buffer(code: np.ndarray, sigma: int) -> tuple[np.ndarray, int, int]:
    """The kernel's suffix automaton of a rank-coded word, as the one int32
    buffer it fills, the row capacity ``cap`` = 2n+2 of its four tables and
    the state count.

    ``code`` is the int32 array of :func:`~antidict.words._encode`.
    """
    tables, cap = _suffix_automaton_room(code.size, sigma)
    return tables, cap, kernel().suffix_automaton(code, code.size, sigma, tables)


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
    sigma = len(alphabet)
    tables, cap, size = _suffix_automaton_buffer(_encode(word, alphabet), sigma)
    scratch = np.empty(2 * size + 1, dtype=np.int32)
    k = kernel().factor_classes(tables, cap, size, len(word), sigma, scratch)
    # the class rows lead the transition table, the failure links the endpos one
    endpos = cap * (sigma + 2)
    flat, failure = _int_table(tables[: k * sigma]), _int_table(tables[endpos : endpos + k])
    return Dfa(alphabet, k, 0, b"\x01" * k, flat, failure)

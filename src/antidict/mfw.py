"""Minimal forbidden factors (minimal absent words) of linear and circular
words, with an independent brute-force route for each.

A word ``aub`` is minimal forbidden for a factorial language when it is
absent but ``au`` and ``ub`` are present; the length-1 members are the
alphabet letters that never occur.  The fast linear route reads the set off
a suffix automaton: a state's shortest word ``x`` extended by a letter ``b``
is minimal forbidden exactly when ``b`` is undefined at the state but
defined at its suffix link (the tail of ``x`` lands on the suffix link
precisely because ``x`` is shortest).  The circular set is the set of the
doubled word filtered to length at most ``|w|``.  Both fast routes walk the
automaton breadth first in the compiled kernel, which emits every member
once and already in :class:`MfwSet` order, so neither sorts; the
brute-force routes and other foreign input go through its constructor,
which checks their order in one kernel pass and sorts only when it fails,
so the JSON hand-off, written in that order, is not sorted either.  The
walk yields sites, a text slice and a letter each, and the fast routes
return the set as those sites, the compact form of Barton, Heliou, Mouchard
and Pissis (2014): its size, longest member and equality with another such
set are read off them, and the members are spelled only when they are read.
Short members are spelled by the kernel into one buffer that one
``str.split`` cuts into strings, long ones are sliced out of the word.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, compress, groupby, islice
from operator import ne

import numpy as np

from .automata import build_trie
from ._kernel import kernel
from .factor_automaton import _suffix_automaton_buffer
from .words import (
    Alphabet,
    BRUTE_FORCE_WORD_LIMIT,
    CircularWord,
    LimitExceeded,
    _circular_input,
    _encode,
    _ranks,
    circular_factor_set,
    factor_set,
)


# Most symbols the members of one computed antidictionary may hold together
# when they are spelled.  mfw_linear and mfw_circular keep only the sites,
# and count, measure and compare them without this cap; the first read of
# MfwSet.words makes every member a Python string, copied out of the word
# once (and, for short members, once more through the kernel's spelling
# buffer), so a word whose antidictionary is long in total -- a.b^(n-1),
# circular or squared, has about n^2/2 symbols -- would otherwise fill
# memory.  Random binary and acgt words of 10^6 symbols need about 1.6 and
# 2.0 * 10^7, the circular Fibonacci word of rank 30 about 3.0 * 10^6.
MAX_MEMBER_SYMBOLS = 2**26

# Longest mean member length at which _spell spells the members
# in the kernel and splits them.  Slicing each member out of the word costs
# about 0.6 us a member; spelling costs a pass over every member symbol and,
# to encode the word, over every text symbol.  Measured break-even on acgt
# (one byte a symbol): 300-400 symbols a member when the members hold 8
# times the word's symbols, 150 when they hold an eighth; on a non-ASCII
# alphabet (UTF-32): 130 and 45.
SPELL_MEAN_LENGTH = 64

# How far past |w| mfw_circular_bruteforce scans its candidates, so that its
# test would also notice members longer than the word (there are none).
CIRCULAR_SLACK = 2


class MfwSet:
    """An antidictionary: the sorted set of minimal forbidden factors.

    ``words`` are ordered by length, then lexicographically under the
    alphabet order, each once: the constructor takes them in any order and
    possibly repeated, and sorts and deduplicates them unless one kernel
    pass finds them in that order already, each once and none empty, as
    those of :meth:`to_json` are.  :func:`mfw_linear` and
    :func:`mfw_circular` return a set held as the kernel's sites instead,
    in that order: a ``(count, 3)`` int32 array of triples
    ``(start, stop, letter)``, each the member ``text[start:stop]`` followed
    by the letter of that rank, where the text is ``source``, doubled for a
    circular set.  Such a set spells its members on the first read of
    ``words``, which raises ``LimitExceeded`` when they would hold more than
    ``MAX_MEMBER_SYMBOLS`` symbols, and keeps them; ``len``,
    :meth:`max_length`, ``==`` and ``hash`` read the sites and spell
    nothing.  ``kind`` records which pipeline produced the set
    (``"linear"`` or ``"circular"``) and ``source`` the word it was
    computed from.

    Two sets are equal when their alphabets and members are: two
    site-backed sets of the same source, kind and alphabet compare their
    triples, any other pair its members, both in the one order.
    """

    __slots__ = ("alphabet", "kind", "source", "_words", "_sites")

    def __init__(self, words, alphabet: Alphabet, kind: str = "linear", source: str | None = None):
        words = tuple(words)
        if not _in_order(words, alphabet):
            words = _sort(words, alphabet)
        self._fill(words, None, alphabet, kind, source)

    @classmethod
    def _of_sites(cls, sites: np.ndarray, alphabet: Alphabet, kind: str, source: str) -> "MfwSet":
        mfws = cls.__new__(cls)
        mfws._fill(None, sites, alphabet, kind, source)
        return mfws

    def _fill(self, words, sites, alphabet, kind, source) -> None:
        for name, value in zip(self.__slots__, (alphabet, kind, source, words, sites)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        if self._sites is None:
            return MfwSet, (self._words, self.alphabet, self.kind, self.source)
        return MfwSet._of_sites, (self._sites, self.alphabet, self.kind, self.source)

    @property
    def words(self) -> tuple[str, ...]:
        """The members, spelled from the sites on the first read and kept.
        Every spelling of a set gives an equal tuple, so threads racing to
        keep theirs leave the set as it would be after either."""
        words = self._words
        if words is None:
            text = self.source * 2 if self.kind == "circular" else self.source
            words = _spell(self._sites, text, self.alphabet)
            object.__setattr__(self, "_words", words)
        return words

    @classmethod
    def build(
        cls, words, alphabet: Alphabet, kind: str = "linear", source: str | None = None
    ) -> "MfwSet":
        """The constructor under its former name, which callers keep:
        ``perfbench/run.py`` times the sort of shuffled members through it."""
        return cls(words, alphabet, kind, source)

    def as_set(self) -> frozenset[str]:
        return frozenset(self.words)

    def max_length(self) -> int:
        # either form is in order, the longest member last
        sites = self._sites
        if sites is None:
            return len(self._words[-1]) if self._words else 0
        return int(sites[-1, 1] - sites[-1, 0]) + 1 if len(sites) else 0

    def check_antifactorial(self) -> None:
        """Raise ``ValueError`` unless no member is a proper factor of another."""
        build_trie(self.words, self.alphabet, antifactorial=True)

    def to_json(self) -> dict:
        return {
            "word": self.source,
            "alphabet": "".join(self.alphabet.symbols),
            "circular": self.kind == "circular",
            "mfw": list(self.words),
        }

    @classmethod
    def from_json(cls, data) -> "MfwSet":
        """Inverse of :meth:`to_json`; malformed data (a ``"circular"``
        that is not a bool or null among them), a member holding a symbol
        outside the alphabet and the empty member raise ``ValueError``.

        The members go through the constructor, so any order and repeats
        are accepted; members in the order :meth:`to_json` writes are
        checked in one kernel pass and not sorted.
        """
        try:
            alphabet = Alphabet(data["alphabet"])
            words, circular, source = data["mfw"], data.get("circular"), data.get("word")
            joined = "".join(words)  # TypeError unless every member is a string
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed antidictionary JSON: {exc!r}") from None
        if not isinstance(words, list):
            raise ValueError("'mfw' must be a list of strings")
        if not (source is None or isinstance(source, str)):
            raise ValueError("'word' must be a string or null")
        if not (circular is None or isinstance(circular, bool)):
            raise ValueError(f"'circular' must be true, false or null, got {circular!r}")
        if not alphabet._covers(joined):
            for word in words:  # name the first member holding a stray symbol
                alphabet.check_word(word)
        del joined  # not held across the order check, which joins them again
        mfws = cls(words, alphabet, "circular" if circular else "linear", source)
        if mfws.words[:1] == ("",):  # the shortest member comes first
            raise ValueError("the empty word '' cannot be a minimal forbidden factor")
        return mfws

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self._words if self._sites is None else self._sites)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MfwSet):
            return NotImplemented
        if self.alphabet != other.alphabet:
            return False
        mine, theirs = self._sites, other._sites
        if mine is not None and theirs is not None and (self.source, self.kind) == (other.source, other.kind):
            return np.array_equal(mine, theirs)
        return self.words == other.words

    def __hash__(self) -> int:
        return hash((self.alphabet, self.max_length()))

    def __repr__(self) -> str:
        return f"<MfwSet of {len(self)} {self.kind} members over {self.alphabet!r}>"


def _sort(words, alphabet: Alphabet) -> tuple[str, ...]:
    """The words by length, then in alphabet order, each once."""
    members = sorted(words, key=len)
    ordered = []
    for _, run in groupby(members, len):
        ordered += sorted(run, key=alphabet._key)
    # equal words are neighbours now; keep each one unequal to the last
    return tuple(compress(ordered, chain((True,), map(ne, islice(ordered, 1, None), ordered))))


def _byte_form(symbols: str) -> tuple[str, str, int]:
    """A separator, the first character not among ``symbols``, then the
    encoding and the bytes a symbol in which the symbols and the separator
    compare bytewise in code-point order: ASCII when all of them are ASCII,
    else big-endian UTF-32."""
    sep = next(chr(i) for i in range(len(symbols) + 1) if chr(i) not in symbols)
    return (sep, "ascii", 1) if (symbols + sep).isascii() else (sep, "utf-32-be", 4)


def _in_order(words: tuple[str, ...], alphabet: Alphabet) -> bool:
    """Whether the words are in :class:`MfwSet` order, each once and none
    empty: decided by the kernel's one pass over them joined by a separator.

    An alphabet whose order is not code-point order is compared by rank:
    the joined text is mapped to rank units by :func:`words._ranks`, the
    separator to the unit after the last rank.  Words holding a symbol
    outside the alphabet may be sent to the sort needlessly but never pass
    wrongly: such a symbol fails the rank lookup or the ASCII encoding, or
    is the separator, and the kernel counts the separators it meets against
    the words.
    """
    symbols = "".join(alphabet.symbols)
    sep, encoding, width = _byte_form(symbols)
    text = sep.join(words)
    if alphabet._key is not None:
        ranks = _ranks(text, symbols + sep)
        if ranks is None:  # a symbol outside the alphabet
            return False
        unit = np.dtype(np.uint8 if len(symbols) < 256 else ">u4")
        data, width = ranks.astype(unit).tobytes(), unit.itemsize
        sep_unit = np.array([len(symbols)], unit).tobytes()
    else:
        try:
            # surrogatepass: a lone surrogate is a symbol like any other
            data = text.encode(encoding, "surrogatepass")
        except UnicodeEncodeError:  # a symbol outside an ASCII alphabet
            return False
        sep_unit = sep.encode(encoding)
    count = len(words)
    return kernel().shortlex_run(data, len(data), width, sep_unit, count) == count


def _forbidden_sites(code: np.ndarray, sigma: int, max_len: int) -> np.ndarray:
    """Sites of the minimal forbidden factors of length at most ``max_len``
    of a rank-coded word, in :class:`MfwSet` order, found by the kernel's
    breadth-first walk of the word's suffix automaton.

    Returns a ``(count, 3)`` int32 array of the kernel's triples
    ``(start, stop, letter)``: the member of a site is the word's slice
    ``start:stop`` (the shortest word of its state, empty at the root)
    followed by the letter of rank ``letter``.  The kernel's buffer holds
    ``size + 1`` queue entries, then room for the ``size*(sigma-1) + 1``
    triples there can be and one spare: while its queue is wide the walk
    writes every child and every candidate triple and keeps only some, so
    a discarded write can land one past the queue's states or the last
    triple.  The triples are copied out of the buffer, so that its queue
    and slack are freed.
    """
    tables, cap, size = _suffix_automaton_buffer(code, sigma)
    out = np.empty(size + 1 + 3 * (size * (sigma - 1) + 2), dtype=np.int32)
    count = kernel().forbidden_sites(tables, cap, size, sigma, max_len, out)
    return out[size + 1 : size + 1 + 3 * count].reshape(count, 3).copy()


def _spell(sites: np.ndarray, text: str, alphabet: Alphabet) -> tuple[str, ...]:
    """The members of the sites on a text, in the sites' order.

    Each member's shortest-word part has an occurrence ending at its
    state's recorded text position, so it is copied straight out of the
    text instead of being rebuilt from parent edges.  Short members, at
    most ``SPELL_MEAN_LENGTH`` symbols on average, are spelled by the
    kernel into one buffer, separated by a symbol outside the alphabet,
    which is decoded once and split; longer ones are sliced out one by one,
    which reads none of the symbols a split would scan.  Raises
    ``LimitExceeded`` before copying when the members would hold more than
    ``MAX_MEMBER_SYMBOLS`` symbols together.
    """
    count = len(sites)
    total = int((sites[:, 1] - sites[:, 0]).sum(dtype=np.int64)) + count
    if total > MAX_MEMBER_SYMBOLS:
        raise LimitExceeded(
            f"the antidictionary's {count} members would hold {total} "
            f"symbols, more than the cap of {MAX_MEMBER_SYMBOLS}"
        )
    symbols = alphabet.symbols
    if total > SPELL_MEAN_LENGTH * count:
        return tuple([text[start:stop] + symbols[c] for start, stop, c in sites.tolist()])
    if not count:
        return ()  # "".split(sep) would be [""]
    # no member holds a symbol outside the alphabet, so none holds sep
    sep, encoding, width = _byte_form("".join(symbols))
    units = "".join(symbols) + sep
    # surrogatepass: a lone surrogate is a symbol like any other
    spelled = np.empty((total + count) * width, dtype=np.uint8)
    kernel().spell_sites(
        np.frombuffer(text.encode(encoding, "surrogatepass"), np.uint8),
        width,
        sites,
        count,
        np.frombuffer(units.encode(encoding, "surrogatepass"), np.uint8),
        len(symbols),
        spelled,
    )
    # every member is followed by sep; the last one's is left out
    return tuple(str(memoryview(spelled)[:-width], encoding, "surrogatepass").split(sep))


def mfw_linear(word: str, alphabet: Alphabet | None = None) -> MfwSet:
    """Minimal forbidden factors of a linear word, via its factor automaton.

    Builds the suffix automaton (an acceptor of the factor language whose
    suffix links are the failure function) and emits one forbidden word per
    (state, letter) pair where the letter is undefined at the state but
    defined at its suffix link; at the initial state the undefined letters
    are the alphabet letters missing from the word.  The set holds those
    sites and spells its members when they are first read.
    """
    if alphabet is None:
        alphabet = Alphabet.of_word(word)
    alphabet.check_word(word)
    # no member of a linear word is longer than |w| + 1
    sites = _forbidden_sites(_encode(word, alphabet), len(alphabet), len(word) + 1)
    return MfwSet._of_sites(sites, alphabet, "linear", word)


def _absent_words(present: set[str], symbols: tuple[str, ...], longest: int) -> list[str]:
    """The minimal forbidden words of a factorial language, given the set
    ``present`` of its words of at most ``longest`` symbols: the letters
    absent from it, then each ``a + u + b`` of at most ``longest`` symbols
    absent from it while ``a + u`` and ``u + b`` are in it."""
    out = [a for a in symbols if a not in present]
    for u in present:
        if len(u) > longest - 2:
            continue
        for a in symbols:
            if a + u not in present:
                continue
            for b in symbols:
                if u + b in present and a + u + b not in present:
                    out.append(a + u + b)
    return out


def mfw_linear_bruteforce(word: str, alphabet: Alphabet | None = None) -> MfwSet:
    """Minimal forbidden factors straight from the definition.

    Enumerates every candidate ``a + u + b`` over the factors ``u`` of the
    word and keeps those absent with both maximal proper factors present.
    Guarded brute force; this is the oracle the fast route is validated
    against.
    """
    if len(word) > BRUTE_FORCE_WORD_LIMIT:
        raise LimitExceeded(
            f"brute-force antidictionary limited to words of length {BRUTE_FORCE_WORD_LIMIT}"
        )
    if alphabet is None:
        alphabet = Alphabet.of_word(word)
    alphabet.check_word(word)
    # no member of a linear word is longer than |w| + 1
    out = _absent_words(factor_set(word), alphabet.symbols, len(word) + 1)
    return MfwSet(out, alphabet, "linear", word)


def mfw_circular(cw: CircularWord | str, alphabet: Alphabet | None = None) -> MfwSet:
    """Minimal forbidden factors of a circular word.

    Equal to the forbidden factors of the doubled linearization that are no
    longer than the word itself; any linearization gives the same set, and
    the canonical one is used.  The set holds the sites on the doubled
    word and spells its members when they are first read.
    """
    _, alphabet, w = _circular_input(cw, alphabet)
    sites = _forbidden_sites(_encode(w + w, alphabet), len(alphabet), len(w))
    return MfwSet._of_sites(sites, alphabet, "circular", w)


def mfw_circular_bruteforce(
    cw: CircularWord | str, alphabet: Alphabet | None = None
) -> MfwSet:
    """Circular minimal forbidden factors from the definition.

    Applies the absent-with-present-sides test against the factors of powers
    of the word, scanning candidates up to ``|w| + CIRCULAR_SLACK`` symbols.
    """
    cw, alphabet, w = _circular_input(cw, alphabet)
    horizon = len(w) + CIRCULAR_SLACK
    out = _absent_words(circular_factor_set(cw, horizon), alphabet.symbols, horizon)
    return MfwSet(out, alphabet, "circular", w)


@dataclass(frozen=True)
class CardinalityReport:
    """Size of a circular antidictionary against its provable bounds."""

    word: str
    length: int
    alphabet_size: int
    occurring_letters: int
    count: int

    @property
    def lower(self) -> int:
        return self.alphabet_size - 1

    @property
    def upper(self) -> int:
        return self.alphabet_size + (self.length - 1) * self.occurring_letters - self.length

    @property
    def lower_ok(self) -> bool:
        return self.lower <= self.count

    @property
    def upper_ok(self) -> bool:
        return self.count <= self.upper

    @property
    def passed(self) -> bool:
        return self.lower_ok and self.upper_ok


def check_cardinality_bounds(
    cw: CircularWord | str, alphabet: Alphabet | None = None
) -> CardinalityReport:
    """Count the circular antidictionary and compare with its bounds.

    For a circular word of length ``n`` over ``A`` with ``A(w)`` occurring
    letters, the count lies in ``[|A| - 1, |A| + (n - 1)|A(w)| - n]``.  The
    report is computed on the primitive reduction the type enforces.  The
    members are counted as the sites of :func:`mfw_circular` and none is
    spelled, so a word whose members hold about ``n^2/2`` symbols, such as
    a.b^(n-1), is counted in linear time.
    """
    mfws = mfw_circular(cw, alphabet)
    w = mfws.source
    return CardinalityReport(
        word=w,
        length=len(w),
        alphabet_size=len(mfws.alphabet),
        occurring_letters=len(set(w)),
        count=len(mfws),
    )

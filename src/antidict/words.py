"""Alphabets, words and circular words, plus the brute-force language oracles.

Words are plain Python strings.  An :class:`Alphabet` fixes the set of legal
symbols and, crucially, their order: the order drives every lexicographic
comparison in the package (least rotations, sorted antidictionaries).  The
enumeration oracles in this module are deliberately naive; they exist so that
the automaton-based algorithms elsewhere can be checked against something
that is obviously correct, and they refuse inputs large enough to hang.
"""

from __future__ import annotations

import re
from operator import methodcaller
from typing import Iterable, Iterator

import numpy as np

from ._kernel import kernel

# Largest word accepted by the quadratic all-substrings enumerations.
FACTOR_ENUMERATION_LIMIT = 1024
# Largest word accepted by the O(n^2) sliding-window balance scan.
BALANCE_SCAN_LIMIT = 1 << 15
# Largest word accepted by the cubic-ish brute-force antidictionary search.
BRUTE_FORCE_WORD_LIMIT = 64


class LimitExceeded(ValueError):
    """Input too large for a deliberately bounded brute-force routine."""


class Alphabet:
    """Nonempty ordered set of single-character symbols.

    The declaration order is the total order used for lexicographic
    comparisons, so ``Alphabet("ba")`` sorts ``b`` before ``a`` on purpose.
    """

    __slots__ = ("symbols", "_rank", "_ascii", "_pattern", "_key")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must contain at least one symbol")
        seen = set()
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
            if s in seen:
                raise ValueError(f"duplicate alphabet symbol {s!r}")
            seen.add(s)
        self.symbols = syms
        self._rank = {s: i for i, s in enumerate(syms)}
        joined = "".join(syms)
        # for _covers(): the symbols as bytes when all are ASCII, else a
        # pattern matching the words over them
        self._ascii = joined.encode() if joined.isascii() else None
        self._pattern = None if self._ascii is not None else re.compile(f"[{re.escape(joined)}]*")
        # sort key of the alphabet order: none when it is the code-point
        # order, else every symbol translated to the character of its rank
        self._key = (
            None
            if syms == tuple(sorted(syms))
            else methodcaller("translate", str.maketrans({s: chr(i) for i, s in enumerate(syms)}))
        )

    @classmethod
    def of_word(cls, word: str) -> "Alphabet":
        """Default alphabet of a word: its distinct letters, sorted."""
        if not word:
            raise ValueError("an explicit alphabet is required for the empty word")
        return cls(sorted(set(word)))

    def rank(self, symbol: str) -> int:
        try:
            return self._rank[symbol]
        except (KeyError, TypeError):  # TypeError: an unhashable non-symbol
            raise ValueError(f"symbol {symbol!r} is not in alphabet {self}") from None

    def sort(self, words: list[str]) -> None:
        """Sort words in place, lexicographically under this alphabet's order
        (symbol ranks compared left to right, a proper prefix first).

        Compared at C speed: a plain sort when the declaration order is the
        code-point order, otherwise a sort on the words with every symbol
        translated to the character of its rank (``_key``).
        """
        words.sort(key=self._key)

    def _covers(self, word: str) -> bool:
        """Whether every symbol of the word is in this alphabet.

        Decided at C speed for a string: under an ASCII alphabet a non-ASCII
        string fails at once, an ASCII one passes when deleting the
        alphabet's bytes from it leaves nothing; under any other alphabet
        by one match of a character class of its symbols.  Any other
        sequence by a set.
        """
        if not isinstance(word, str):
            return set(word) <= self._rank.keys()
        if self._ascii is not None:
            return word.isascii() and not word.encode().translate(None, self._ascii)
        return self._pattern.fullmatch(word) is not None

    def check_word(self, word: str) -> None:
        """Raise ``ValueError`` naming the first symbol of the word outside
        this alphabet, if there is one."""
        if self._covers(word):
            return
        for c in word:
            if c not in self._rank:
                raise ValueError(f"symbol {c!r} of {word!r} is not in alphabet {self}")

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._rank

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"


def _encode(word: str, alphabet: Alphabet) -> np.ndarray:
    """Rank codes of a word whose symbols are all in the alphabet, as an
    int32 array: translated as bytes when the alphabet is ASCII, else
    searched as code points by :func:`_ranks`."""
    symbols = "".join(alphabet.symbols)
    if symbols.isascii():
        # unchecked: a pass looking for outsiders would cost the hot path
        table = bytes.maketrans(symbols.encode(), bytes(range(len(symbols))))
        return np.frombuffer(word.encode().translate(table), np.uint8).astype(np.int32)
    ranks = _ranks(word, symbols)
    assert ranks is not None, "a symbol outside the alphabet"
    return ranks


def _ranks(word: str, symbols: str) -> np.ndarray | None:
    """The index in ``symbols`` of each symbol of the word, or None when the
    word holds a symbol outside them.  Under ASCII symbols its bytes are
    translated to a uint8 array, every other byte to 255; else its UTF-32
    code points are each found among the symbols' sorted points and mapped
    back to an int32 index.  surrogatepass admits a symbol that is a lone
    surrogate, though through the encoder's slow error handler."""
    if symbols.isascii():
        if not word.isascii():
            return None
        table = np.full(256, 255, dtype=np.uint8)
        table[np.frombuffer(symbols.encode(), np.uint8)] = np.arange(len(symbols))
        ranks = word.encode().translate(table.tobytes())
        return None if 255 in ranks else np.frombuffer(ranks, np.uint8)
    points = np.frombuffer(symbols.encode("utf-32-le", "surrogatepass"), "<u4")
    by_point = np.argsort(points).astype(np.int32)
    sorted_points = points[by_point]
    code = np.frombuffer(word.encode("utf-32-le", "surrogatepass"), "<u4")
    at = np.searchsorted(sorted_points, code)
    if not np.array_equal(sorted_points.take(at, mode="clip"), code):
        return None
    return by_point.take(at, mode="clip")


def _decode(code: np.ndarray, alphabet: Alphabet) -> str:
    """The word of an array of rank codes, the inverse of :func:`_encode`:
    gathered as UTF-32 code points in one pass."""
    points = np.array([ord(s) for s in alphabet.symbols], dtype="<u4")
    return points[code].tobytes().decode("utf-32-le")


def reversal(word: str) -> str:
    """The word read from right to left."""
    return word[::-1]


def count_occurrences(symbol: str, word: str, alphabet: Alphabet | None = None) -> int:
    """Number of positions of ``word`` holding ``symbol``."""
    if len(symbol) != 1:
        raise ValueError(f"expected a single symbol, got {symbol!r}")
    if alphabet is not None and symbol not in alphabet:
        raise ValueError(f"symbol {symbol!r} is not in alphabet {alphabet}")
    return word.count(symbol)


def factor_set(word: str, max_len: int | None = None) -> set[str]:
    """All distinct factors of ``word`` up to ``max_len``, including the empty word."""
    if max_len is None:
        max_len = len(word)
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if len(word) > FACTOR_ENUMERATION_LIMIT:
        raise LimitExceeded(
            f"factor enumeration is limited to words of length {FACTOR_ENUMERATION_LIMIT}"
        )
    factors = {""}
    n = len(word)
    for i in range(n):
        top = min(n, i + max_len)
        for j in range(i + 1, top + 1):
            factors.add(word[i:j])
    return factors


def primitive_root(word: str) -> str:
    """Shortest ``v`` such that the word is a power of ``v``.

    The first return of the word inside its square, at index ``p > 0``, is
    its smallest period that divides its length, so ``word[:p]`` is the root.
    """
    if not word:
        raise ValueError("the empty word has no primitive root")
    return word[: (word + word).find(word, 1)]


def is_primitive(word: str) -> bool:
    """True when the word is not a proper power."""
    return primitive_root(word) == word


def rotations(word: str) -> list[str]:
    """All rotations of the word, starting with the word itself."""
    return [word[i:] + word[:i] for i in range(len(word))]


def canonical_rotation(word: str, alphabet: Alphabet | None = None) -> str:
    """Lexicographically least rotation under the alphabet order.

    Two-pointer scan over the rank codes, linear time, run by the compiled
    kernel; the result is the canonical representative used for
    circular-word equality.
    """
    if not word:
        raise ValueError("the empty word has no rotations")
    if alphabet is None:
        alphabet = Alphabet.of_word(word)
    alphabet.check_word(word)
    return _least_rotation(word, alphabet)[0]


def _least_rotation(word: str, alphabet: Alphabet) -> tuple[str, bool]:
    """The least rotation of a nonempty word whose symbols are all in the
    alphabet, and whether the word is primitive, both from one kernel scan
    (which reports a proper power as ``-1 - start``)."""
    start = kernel().least_rotation(_encode(word, alphabet), len(word))
    primitive = start >= 0
    if not primitive:
        start = -1 - start
    return word[start:] + word[:start], primitive


class CircularWord:
    """Conjugacy class of a primitive word, keyed by its least rotation.

    A non-primitive input is reduced to its primitive root (the factors of
    arbitrary powers do not change under that reduction); ``reduced`` records
    that it happened.  Two circular words are equal exactly when their
    canonical linearizations are equal.
    """

    __slots__ = ("linearization", "alphabet", "reduced")

    def __init__(self, word: str, alphabet: Alphabet | None = None):
        if not word:
            raise ValueError("a circular word must be nonempty")
        if alphabet is None:
            alphabet = Alphabet.of_word(word)
        alphabet.check_word(word)
        rotation, primitive = _least_rotation(word, alphabet)
        self.reduced = not primitive
        # the least rotation of a power is that of its root, repeated
        self.linearization = rotation if primitive else rotation[: len(primitive_root(word))]
        self.alphabet = alphabet

    @property
    def length(self) -> int:
        return len(self.linearization)

    def rotations(self) -> list[str]:
        return rotations(self.linearization)

    def __len__(self) -> int:
        return len(self.linearization)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CircularWord) and self.linearization == other.linearization

    def __hash__(self) -> int:
        return hash(("CircularWord", self.linearization))

    def __str__(self) -> str:
        return self.linearization

    def __repr__(self) -> str:
        return f"CircularWord({self.linearization!r})"


def _circular_input(
    word: CircularWord | str, alphabet: Alphabet | None
) -> tuple[CircularWord, Alphabet, str]:
    """A circular word given as a :class:`CircularWord` or a string, with
    the alphabet, the given one or else the word's own, and its canonical
    linearization, checked against that alphabet: by the constructor, and
    again only for a given circular word built over another alphabet."""
    if not isinstance(word, CircularWord):
        word = CircularWord(word, alphabet)
    elif alphabet is not None and alphabet != word.alphabet:
        alphabet.check_word(word.linearization)
    return word, word.alphabet if alphabet is None else alphabet, word.linearization


def circular_factor_membership(cw: CircularWord, x: str) -> bool:
    """True when ``x`` occurs as a factor of some power of the circular word.

    An occurrence of ``x`` in any power already fits inside
    ``ceil(|x|/|w|) + 1`` consecutive copies, so that single power decides.
    """
    if not x:
        return True
    w = cw.linearization
    k = -(-len(x) // len(w)) + 1
    return x in w * k


def circular_factor_set(cw: CircularWord, max_len: int) -> set[str]:
    """All factors of the circular word of length at most ``max_len``."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    w = cw.linearization
    k = -(-max_len // len(w)) + 1 if max_len else 1
    power = w * k
    if len(power) > FACTOR_ENUMERATION_LIMIT:
        raise LimitExceeded(
            f"circular factor enumeration would scan a power of length {len(power)}"
        )
    return factor_set(power, max_len)


def is_balanced(word: str, alphabet: Alphabet | None = None) -> bool:
    """Whether equal-length factors never differ by more than 1 in letter counts.

    Defined over a binary alphabet; degenerate one-letter words are balanced.
    The scan slides a window of every length over a prefix-sum array, so it
    is quadratic and guarded accordingly.
    """
    symbols = alphabet.symbols if alphabet is not None else tuple(sorted(set(word)))
    if len(symbols) > 2:
        raise ValueError("balance is defined over a binary alphabet")
    if alphabet is not None:
        alphabet.check_word(word)
    if len(word) <= 2:
        return True
    if len(word) > BALANCE_SCAN_LIMIT:
        raise LimitExceeded(f"balance scan is limited to length {BALANCE_SCAN_LIMIT}")
    marks = np.frombuffer(word.encode("utf-32-le", "surrogatepass"), "<u4") == ord(symbols[0])
    prefix = np.concatenate(([0], np.cumsum(marks, dtype=np.int64)))
    n = len(word)
    for width in range(2, n):
        counts = prefix[width:] - prefix[:-width]
        if counts.max() - counts.min() > 1:
            return False
    return True


def bispecial_factors(word: str, alphabet: Alphabet | None = None) -> set[str]:
    """Factors extendable on both sides by both letters of a binary alphabet.

    With fewer than two letters in play no factor can be bispecial and the
    result is empty; more than two letters is an error.
    """
    symbols = alphabet.symbols if alphabet is not None else tuple(sorted(set(word)))
    if len(symbols) > 2:
        raise ValueError("bispecial factors are defined over a binary alphabet")
    if len(symbols) < 2:
        return set()
    x, y = symbols
    factors = factor_set(word)
    return {
        v
        for v in factors
        if x + v in factors and y + v in factors and v + x in factors and v + y in factors
    }

"""Fibonacci words, their companion sequences and the structural checks the
circular antidictionary theory predicts for them.

The Fibonacci words start ``b, a`` and concatenate (`f_n = f_{n-1} f_{n-2}`).
Dropping the last two letters leaves the palindromic central word; bracketing
the central word with equal letters (the letter matching the parity) gives
the singular word, and swapping its first and last letters gives the
forbidden companion.  The circular antidictionary of the n-th Fibonacci word
is exactly the forbidden companions up to rank n plus the n-th singular
word, which makes its size ``n - 1`` -- logarithmic in the word length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor_automaton import build_factor_automaton
from .l_automaton import circular_factor_dfa
from .mfw import MfwSet, mfw_circular
from .words import (
    BALANCE_SCAN_LIMIT,
    FACTOR_ENUMERATION_LIMIT,
    Alphabet,
    CircularWord,
    LimitExceeded,
    bispecial_factors,
    is_balanced,
)

BINARY = Alphabet("ab")

# Default cap on |f_n| for every generator and check in this module.
DEFAULT_MAX_LENGTH = 100_000


def fibonacci_word(n: int, max_length: int = DEFAULT_MAX_LENGTH) -> str:
    """The n-th Fibonacci word (``b``, ``a``, ``ab``, ``aba``, ``abaab``...)."""
    if n < 1:
        raise ValueError("Fibonacci words are indexed from 1")
    if n == 1:
        return "b"
    prev, cur = "b", "a"
    for _ in range(n - 2):
        prev, cur = cur, cur + prev
        if len(cur) > max_length:
            raise LimitExceeded(f"Fibonacci word {n} exceeds the length cap {max_length}")
    return cur


@dataclass(frozen=True)
class FibonacciFamily:
    """A Fibonacci word with its central, singular and forbidden companions.

    ``central``/``singular``/``forbidden`` exist from rank 3 on and are None
    below.
    """

    n: int
    word: str
    length: int
    central: str | None
    singular: str | None
    forbidden: str | None


def fibonacci_family(n: int, max_length: int = DEFAULT_MAX_LENGTH) -> FibonacciFamily:
    word = fibonacci_word(n, max_length)
    central = singular = forbidden = None
    if n >= 3:
        central = word[:-2]
        assert central == central[::-1], "central word must be a palindrome"
        if n % 2 == 1:
            singular, forbidden = "a" + central + "a", "b" + central + "b"
        else:
            singular, forbidden = "b" + central + "b", "a" + central + "a"
    return FibonacciFamily(n, word, len(word), central, singular, forbidden)


def verify_central_identity(n: int, max_length: int = DEFAULT_MAX_LENGTH) -> bool:
    """Check the double central factorization of the n-th Fibonacci word.

    With ``xy`` the parity-ordered pair of letters, the word must equal
    ``central + xy`` and both ``central_{n-1} + yx + central_{n-2} + xy``
    and ``central_{n-2} + xy + central_{n-1} + xy``.
    """
    if n < 5:
        raise ValueError("the central identity needs rank at least 5")
    fam = fibonacci_family(n, max_length)
    u1 = fibonacci_family(n - 1, max_length).central
    u2 = fibonacci_family(n - 2, max_length).central
    x, y = ("a", "b") if n % 2 == 1 else ("b", "a")
    return (
        fam.word == fam.central + x + y
        and fam.word == u1 + y + x + u2 + x + y
        and fam.word == u2 + x + y + u1 + x + y
    )


def mfw_fibonacci_closed_form(n: int, max_length: int = DEFAULT_MAX_LENGTH) -> MfwSet:
    """The circular Fibonacci antidictionary, written out directly.

    ``{a}`` and ``{b}`` for the two one-letter ranks, ``{aa, bb}`` at rank 3,
    then the forbidden companions of ranks 3..n plus the n-th singular word.
    """
    if n < 1:
        raise ValueError("Fibonacci words are indexed from 1")
    if n == 1:
        words: list[str] = ["a"]
    elif n == 2:
        words = ["b"]
    elif n == 3:
        words = ["aa", "bb"]
    else:
        words = [fibonacci_family(i, max_length).forbidden for i in range(3, n + 1)]
        words.append(fibonacci_family(n, max_length).singular)
    source = fibonacci_word(n, max_length)
    return MfwSet(words, BINARY, "circular", source)


def _longest_repeated_prefix(word: str) -> int:
    """Length of the longest prefix occurring at least twice in the word."""
    lo, hi = 0, max(0, len(word) - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if word.find(word[:mid], 1) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class FibonacciVerification:
    """Verdict of every structural check for one circular Fibonacci word.

    Flags are None where a check does not apply at this rank (or was skipped
    because the quadratic bispecial scan would be too large).
    """

    n: int
    length: int
    mfw_count: int
    closed_form_ok: bool
    cardinality_ok: bool | None
    bispecial_ok: bool | None
    circular_states: int
    circular_states_ok: bool
    linear_states: int
    linear_states_ok: bool
    balanced_ok: bool | None
    repeated_prefix_ok: bool | None

    @property
    def passed(self) -> bool:
        return all(
            flag is not False
            for flag in (
                self.closed_form_ok,
                self.cardinality_ok,
                self.bispecial_ok,
                self.circular_states_ok,
                self.linear_states_ok,
                self.balanced_ok,
                self.repeated_prefix_ok,
            )
        )


def verify_fibonacci(n: int, max_length: int = DEFAULT_MAX_LENGTH) -> FibonacciVerification:
    """Run every check for the n-th circular Fibonacci word.

    Computed antidictionary versus the closed form, its cardinality, the
    bispecial factors of the doubled word, both automaton state counts
    (``2 F_n - 1`` circular, ``F_n + 1`` linear), balance of the doubled
    word, and the longest-repeated-prefix property of the central word.
    """
    fam = fibonacci_family(n, max_length)
    cw = CircularWord(fam.word, BINARY)
    computed = mfw_circular(cw, BINARY)
    closed = mfw_fibonacci_closed_form(n, max_length)
    closed_form_ok = computed == closed

    cardinality_ok = len(computed) == n - 1 if n >= 4 else None

    bispecial_ok = None
    doubled = fam.word * 2
    if n >= 3 and len(doubled) <= FACTOR_ENUMERATION_LIMIT:
        expected = {fibonacci_family(i, max_length).central for i in range(3, n + 1)}
        bispecial_ok = bispecial_factors(doubled, BINARY) == expected

    circular_states = circular_factor_dfa(cw, BINARY).n_states
    linear_states = build_factor_automaton(fam.word, BINARY).n_states

    balanced_ok = is_balanced(doubled, BINARY) if len(doubled) <= BALANCE_SCAN_LIMIT else None

    repeated_prefix_ok = None
    if n >= 3:
        x, y = ("a", "b") if n % 2 == 1 else ("b", "a")
        seam = fam.central + x + y + fam.central
        repeated_prefix_ok = _longest_repeated_prefix(seam) == len(fam.central)

    return FibonacciVerification(
        n=n,
        length=fam.length,
        mfw_count=len(computed),
        closed_form_ok=closed_form_ok,
        cardinality_ok=cardinality_ok,
        bispecial_ok=bispecial_ok,
        circular_states=circular_states,
        circular_states_ok=circular_states == 2 * fam.length - 1,
        linear_states=linear_states,
        linear_states_ok=linear_states == fam.length + 1,
        balanced_ok=balanced_ok,
        repeated_prefix_ok=repeated_prefix_ok,
    )

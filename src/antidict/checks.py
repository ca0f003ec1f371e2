"""Exhaustive small-case verification sweeps.

Each check enumerates a whole corpus (every binary/ternary word or primitive
necklace up to a length), runs a fast pipeline against an independent route,
and reports a :class:`CheckResult`.  The command-line ``verify`` subcommand
and the acceptance test suite both drive these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .automata import build_trie, equivalent, isomorphic, minimize, strip_sinks
from .factor_automaton import build_factor_automaton
from .l_automaton import circular_factor_dfa, l_automaton
from .mfw import (
    check_cardinality_bounds,
    mfw_circular,
    mfw_circular_bruteforce,
    mfw_linear,
    mfw_linear_bruteforce,
)
from .reconstruction import reconstruct_circular, reconstruct_word
from .words import Alphabet, CircularWord, canonical_rotation, is_primitive

MAX_FAILURES_KEPT = 5


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name} ({self.cases} cases)"
        if self.failures:
            msg += f" first failures: {'; '.join(self.failures[:MAX_FAILURES_KEPT])}"
        return msg


def words_over(symbols: str, max_len: int, min_len: int = 1):
    """Every word over the symbols with length in [min_len, max_len]."""
    for length in range(min_len, max_len + 1):
        for tup in itertools.product(symbols, repeat=length):
            yield "".join(tup)


def primitive_necklaces(symbols: str, max_len: int) -> list[str]:
    """Canonical linearizations of all primitive necklaces up to max_len."""
    alphabet = Alphabet(symbols)
    return [
        w
        for w in words_over(symbols, max_len)
        if is_primitive(w) and canonical_rotation(w, alphabet) == w
    ]


def _collect(name: str, failures: list[str], cases: int) -> CheckResult:
    return CheckResult(name, not failures, cases, failures[:MAX_FAILURES_KEPT])


def check_linear_oracle_agreement(max_binary: int = 12, max_ternary: int = 8) -> CheckResult:
    """Automaton route versus definitional brute force, linear words."""
    failures: list[str] = []
    cases = 0
    for symbols, bound in (("ab", max_binary), ("abc", max_ternary)):
        alphabet = Alphabet(symbols)
        for w in words_over(symbols, bound):
            cases += 1
            fast, slow = mfw_linear(w, alphabet), mfw_linear_bruteforce(w, alphabet)
            if fast != slow:
                failures.append(f"{w}: {sorted(fast.as_set() ^ slow.as_set())}")
    return _collect("linear antidictionary oracle agreement", failures, cases)


def check_linear_avoidance_isomorphism(max_binary: int = 12, max_ternary: int = 8) -> CheckResult:
    """Stripped avoidance automaton of a word's antidictionary versus its
    directly built factor automaton (they must be isomorphic)."""
    failures: list[str] = []
    cases = 0
    for symbols, bound in (("ab", max_binary), ("abc", max_ternary)):
        alphabet = Alphabet(symbols)
        for w in words_over(symbols, bound):
            cases += 1
            mfws = mfw_linear(w, alphabet)
            rebuilt = strip_sinks(l_automaton(build_trie(mfws.words, alphabet)))
            direct = build_factor_automaton(w, alphabet)
            if not isomorphic(rebuilt, direct):
                failures.append(f"{w}: {rebuilt.n_states} vs {direct.n_states} states")
    return _collect("avoidance automaton equals factor automaton (linear)", failures, cases)


def check_circular_oracle_agreement(max_len: int = 12) -> CheckResult:
    """Doubled-word route versus definitional route, circular words."""
    failures: list[str] = []
    cases = 0
    alphabet = Alphabet("ab")
    for w in primitive_necklaces("ab", max_len):
        cases += 1
        cw = CircularWord(w, alphabet)
        fast, slow = mfw_circular(cw, alphabet), mfw_circular_bruteforce(cw, alphabet)
        if fast != slow:
            failures.append(f"[{w}]: {sorted(fast.as_set() ^ slow.as_set())}")
    return _collect("circular antidictionary oracle agreement", failures, cases)


def check_circular_minimality(max_binary: int = 12, max_ternary: int = 7) -> CheckResult:
    """The circular factor automaton must already be minimal."""
    failures: list[str] = []
    cases = 0
    for symbols, bound in (("ab", max_binary), ("abc", max_ternary)):
        alphabet = Alphabet(symbols)
        for w in primitive_necklaces(symbols, bound):
            cases += 1
            built = circular_factor_dfa(CircularWord(w, alphabet), alphabet)
            minimal = minimize(built)
            if built.n_states != minimal.n_states or not equivalent(built, minimal):
                failures.append(f"[{w}]: {built.n_states} vs minimal {minimal.n_states}")
    return _collect("circular factor automaton minimality", failures, cases)


def check_circular_state_bound(max_len: int = 12) -> CheckResult:
    """State count of the circular factor automaton is at most 2n - 1."""
    failures: list[str] = []
    cases = 0
    alphabet = Alphabet("ab")
    for w in primitive_necklaces("ab", max_len):
        cases += 1
        states = circular_factor_dfa(CircularWord(w, alphabet), alphabet).n_states
        if states > 2 * len(w) - 1:
            failures.append(f"[{w}]: {states} states > {2 * len(w) - 1}")
    return _collect("circular factor automaton state bound", failures, cases)


def check_cardinality_corpus(max_binary: int = 12, max_ternary: int = 7) -> CheckResult:
    """Antidictionary size bounds over every primitive necklace."""
    failures: list[str] = []
    cases = 0
    for symbols, bound in (("ab", max_binary), ("abc", max_ternary)):
        alphabet = Alphabet(symbols)
        for w in primitive_necklaces(symbols, bound):
            cases += 1
            report = check_cardinality_bounds(CircularWord(w, alphabet), alphabet)
            if not report.passed:
                failures.append(
                    f"[{w}]: |M|={report.count} not in [{report.lower}, {report.upper}]"
                )
    return _collect("circular antidictionary cardinality bounds", failures, cases)


def check_round_trips(
    max_binary: int = 12, max_ternary: int = 8, max_circular: int = 12
) -> CheckResult:
    """Reconstruction inverts antidictionary computation, both kinds."""
    failures: list[str] = []
    cases = 0
    for symbols, bound in (("ab", max_binary), ("abc", max_ternary)):
        alphabet = Alphabet(symbols)
        for w in words_over(symbols, bound):
            cases += 1
            back = reconstruct_word(mfw_linear(w, alphabet))
            if back != w:
                failures.append(f"{w} -> {back}")
    alphabet = Alphabet("ab")
    for w in primitive_necklaces("ab", max_circular):
        cases += 1
        cw = CircularWord(w, alphabet)
        back = reconstruct_circular(mfw_circular(cw, alphabet))
        if back != cw:
            failures.append(f"[{w}] -> [{back}]")
    return _collect("antidictionary round trips", failures, cases)


def run_standard_checks(max_len: int = 10) -> list[CheckResult]:
    """The whole battery, scaled to a corpus bound."""
    ternary_words = min(max_len, 8)
    ternary_necklaces = min(max_len, 7)
    return [
        check_linear_oracle_agreement(max_len, ternary_words),
        check_linear_avoidance_isomorphism(max_len, ternary_words),
        check_circular_oracle_agreement(max_len),
        check_circular_minimality(max_len, ternary_necklaces),
        check_circular_state_bound(max_len),
        check_cardinality_corpus(max_len, ternary_necklaces),
        check_round_trips(max_len, ternary_words, max_len),
    ]

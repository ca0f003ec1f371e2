"""Command-line interface.

Subcommands: ``mfw`` (antidictionary of a word), ``automaton`` (factor
automaton, linear or circular), ``l-automaton`` (avoidance automaton from a
trie file), ``reconstruct`` (word back from an antidictionary),
``fib-check`` (Fibonacci verification table) and ``verify`` (exhaustive
small-case sweeps).  Exit codes: 0 success, 1 a verification failed,
2 bad input.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import io
import json
import os
import sys

from .automata import Trie, export_dot, strip_sinks
from .checks import run_standard_checks
from .factor_automaton import build_factor_automaton
from .fibonacci import fibonacci_word, verify_fibonacci
from .l_automaton import circular_factor_dfa, l_automaton
from .mfw import MfwSet, mfw_circular, mfw_linear
from .reconstruction import ReconstructionError, reconstruct_circular, reconstruct_word
from .words import Alphabet, CircularWord, LimitExceeded

VERIFY_MAXLEN_CAP = 13
# argv caps one argument at 128 KiB on Linux, so long words come from a file
INPUT_HELP = "read the word from a file ('-' = stdin) instead of the argument"


def _surrogates(exc: UnicodeEncodeError) -> tuple[bytes, int]:
    """Error handler of the text output for lone surrogates, which a symbol
    may be: one that stands for an undecodable input byte (U+DC80..U+DCFF,
    as Python reads stdin and argv) is written back as that byte, any other
    in its UTF-8 form (surrogatepass, the handler ``_encode`` and
    ``_decode`` use)."""
    try:
        return codecs.lookup_error("surrogateescape")(exc)
    except UnicodeEncodeError:
        return codecs.lookup_error("surrogatepass")(exc)


def _alphabet_for(word: str, symbols: str | None) -> Alphabet:
    return Alphabet(symbols) if symbols else Alphabet.of_word(word)


def _read_utf8(path: str, errors: str = "strict") -> str:
    """The text of a file, or of stdin for ``-``, decoded as UTF-8 whatever
    the locale, so that the same bytes read the same on both routes."""
    if path == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(encoding="utf-8", errors=errors)
        return sys.stdin.read()
    with open(path, encoding="utf-8", errors=errors) as handle:
        return handle.read()


def _utf8_arg(arg: str) -> str:
    """A word or alphabet argument read as ``--input`` reads a file, UTF-8
    under surrogateescape, whatever locale argv was decoded in; a string
    argv could not hold, as :func:`main` may be given, is kept."""
    try:
        return os.fsencode(arg).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return arg


def _word_of(args) -> str:
    """The word given as the argument or, with ``--input``, read from a file
    or from stdin for ``-``, trailing line breaks dropped; exactly one of the
    two must be given.  Both routes decode UTF-8 under surrogateescape (the
    argument through :func:`_utf8_arg`), so an undecodable byte becomes a
    lone surrogate, a symbol like any other, which the output writes back as
    that byte."""
    if (args.word is None) == (args.input is None):
        raise ValueError("give the word either as an argument or with --input, not both")
    if args.input is None:
        return args.word
    return _read_utf8(args.input, "surrogateescape").rstrip("\r\n")


def _cmd_mfw(args) -> int:
    word = _word_of(args)
    alphabet = _alphabet_for(word, args.alphabet)
    if args.circular:
        result = mfw_circular(CircularWord(word, alphabet), alphabet)
    else:
        result = mfw_linear(word, alphabet)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        for w in result.words:
            print(w)
    return 0


def _emit_automaton(dfa, args) -> None:
    if args.stats:
        print(f"states={dfa.n_states}")
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(export_dot(dfa))
    if args.json:
        print(json.dumps(dfa.to_json()))


def _cmd_automaton(args) -> int:
    word = _word_of(args)
    alphabet = _alphabet_for(word, args.alphabet)
    if args.circular:
        dfa = circular_factor_dfa(CircularWord(word, alphabet), alphabet)
    else:
        dfa = build_factor_automaton(word, alphabet)
    _emit_automaton(dfa, args)
    return 0


def _read_json(path: str):
    """UTF-8 JSON (RFC 8259) from a file, or from stdin for ``-``; nesting
    too deep for the parser is bad input like any other malformed JSON."""
    try:
        return json.loads(_read_utf8(path))
    except RecursionError:
        raise ValueError(f"JSON in {path!r} is nested too deeply") from None


def _cmd_l_automaton(args) -> int:
    trie = Trie.from_json(_read_json(args.from_trie))
    dfa = strip_sinks(l_automaton(trie)) if args.strip_sinks else l_automaton(trie)
    _emit_automaton(dfa, args)
    return 0


def _cmd_reconstruct(args) -> int:
    mfws = MfwSet.from_json(_read_json(args.mfw))
    if args.circular or mfws.kind == "circular":
        print(reconstruct_circular(mfws).linearization)
    else:
        print(reconstruct_word(mfws))
    return 0


def _cmd_fib_check(args) -> int:
    flag, rank = ("--n", args.n) if args.n is not None else ("--upto", args.upto)
    if rank < 1:
        raise ValueError(f"{flag} {rank}: Fibonacci ranks start at 1")
    ranks = [rank] if args.n is not None else list(range(1, rank + 1))
    fibonacci_word(rank)  # fail fast on the length guard
    reports = [verify_fibonacci(n) for n in ranks]
    if args.json:
        print(json.dumps([dataclasses.asdict(r) | {"passed": r.passed} for r in reports]))
        return 0 if all(r.passed for r in reports) else 1
    header = (
        f"{'n':>3} {'length':>7} {'mfw':>4} {'circ-states':>12} "
        f"{'lin-states':>11} verdict"
    )
    print(header)
    for r in reports:
        circ = f"{r.circular_states}/{2 * r.length - 1}"
        lin = f"{r.linear_states}/{r.length + 1}"
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.n:>3} {r.length:>7} {r.mfw_count:>4} {circ:>12} {lin:>11} {verdict}")
    if all(r.passed for r in reports):
        print(f"all {len(reports)} rank(s) verified")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def _cmd_verify(args) -> int:
    if args.maxlen < 1:
        raise ValueError(f"--maxlen {args.maxlen} is below 1")
    if args.maxlen > VERIFY_MAXLEN_CAP:
        raise LimitExceeded(
            f"--maxlen {args.maxlen} exceeds the cap of {VERIFY_MAXLEN_CAP}"
        )
    results = run_standard_checks(args.maxlen)
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return 0
    print("verification FAILED", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antidict",
        description="Minimal forbidden factors of linear and circular words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mfw", help="antidictionary of a word")
    p.add_argument("word", nargs="?", type=_utf8_arg)
    p.add_argument("--input", metavar="PATH", help=INPUT_HELP)
    p.add_argument(
        "--alphabet", type=_utf8_arg, help="alphabet symbols in order (default: letters of the word)"
    )
    p.add_argument("--circular", action="store_true", help="treat the word as circular")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mfw)

    p = sub.add_parser("automaton", help="factor automaton of a word")
    p.add_argument("word", nargs="?", type=_utf8_arg)
    p.add_argument("--input", metavar="PATH", help=INPUT_HELP)
    p.add_argument("--alphabet", type=_utf8_arg)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--linear", action="store_true", help="linear word (default)")
    mode.add_argument("--circular", action="store_true", help="circular word")
    p.add_argument("--stats", action="store_true", help="print the state count")
    p.add_argument("--dot", metavar="PATH", help="write a DOT rendering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_automaton)

    p = sub.add_parser("l-automaton", help="avoidance automaton from a trie JSON file")
    p.add_argument("--from-trie", required=True, metavar="PATH", help="trie JSON ('-' = stdin)")
    p.add_argument("--strip-sinks", action="store_true", help="drop the absorbing sink states")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_l_automaton)

    p = sub.add_parser("reconstruct", help="recover a word from its antidictionary")
    p.add_argument("--mfw", required=True, metavar="PATH", help="antidictionary JSON ('-' = stdin)")
    p.add_argument("--circular", action="store_true", help="force circular reconstruction")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("fib-check", help="verify circular Fibonacci structure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="check a single rank")
    group.add_argument("--upto", type=int, help="check every rank up to this one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fib_check)

    p = sub.add_parser("verify", help="exhaustive small-case verification sweeps")
    p.add_argument("--maxlen", type=int, default=10, help="corpus length bound (default 10)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if isinstance(sys.stdout, io.TextIOWrapper):
        codecs.register_error("antidict.surrogates", _surrogates)
        sys.stdout.reconfigure(encoding="utf-8", errors="antidict.surrogates")
    try:
        return args.func(args)
    except (ReconstructionError, LimitExceeded, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large for the memory at hand, such as a trie table
        # of more bytes than can be allocated; numpy names the size, array
        # and list raise it bare
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the antidict library: seeded workloads, per-call timings and
per-layer spans, every output checked against an independent oracle.

    python3 perfbench/run.py --workload bin --seed 1 --seconds 24 --trace 0

One run drives one workload (``bin``, ``dna`` or ``fib``, see inputs.py)
through the library's public entry points, pass after pass, for
``--seconds`` seconds after one untimed warm-up pass.  It prints one line per
metric and, last, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: each call's time is the median
over the passes, measured with no tracing.  ``--trace 1`` records spans
around the calls into each module instead, replays every composite call
through the public stages the library composes it from, and reports the
per-layer metrics; its spans are written to ``perfbench/out/``.
``--self-test`` runs every workload at smoke size in both modes and shows
that a corrupted output is counted as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy

from inputs import (
    SCALES,
    WORKLOADS,
    FactorIndex,
    completeness_candidates,
    draw_words,
    fibonacci,
    least_rotation,
    make_inputs,
)
from spans import CLOCK, Tracer, duration, self_time, total

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "mfw_linear_s": "s",
    "factor_automaton_s": "s",
    "mfw_json_s": "s",
    "mfw_circular_s": "s",
    "circular_dfa_s": "s",
    "reconstruct_word_s": "s",
    "reconstruct_circular_s": "s",
    "query_kps": "kq/s",
    "peak_rss_mb": "MiB",
}

# Per-layer times: the summed duration, within one pass, of the spans with
# this name (median over passes).
LAYER_SPANS = {
    "words.circular_word_s": "words.CircularWord",
    "mfw.build_s": "mfw.MfwSet.build",
    "mfw.to_json_s": "mfw.MfwSet.to_json",
    "mfw.from_json_s": "mfw.MfwSet.from_json",
    "automata.build_trie_s": "automata.build_trie",
    "automata.is_antifactorial_s": "automata.Trie.is_antifactorial",
    "automata.trie_words_s": "automata.Trie.words",
    "l_automaton.build_s": "l_automaton.l_automaton",
    "automata.strip_sinks_s": "automata.strip_sinks",
    "reconstruction.verify_s": "reconstruction.verify",
}

PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    "l_automaton.self_s": "s",
    "reconstruction.word_self_s": "s",
    "reconstruction.circular_self_s": "s",
    "automata.accepts_us": "us",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "mfw.members": "count",
    "mfw.max_member_len": "count",
    "factor_automaton.states": "count",
    "factor_automaton.states_per_symbol": "ratio",
    "automata.trie_nodes": "count",
    "l_automaton.states": "count",
    "automata.sinks_stripped": "count",
    "mfw.peak_alloc_mb": "MiB",
    "factor_automaton.peak_alloc_mb": "MiB",
    "trace.overhead_pct": "%",
}

# Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 15
# A sample shorter than this is repeated and the mean taken, so that timer
# resolution and scheduling jitter stay small.
MIN_SAMPLE_S = 0.1
# Query samples per pass.  A query sample is the shortest of a pass, and at
# that length the host's noise needs more samples than the other calls get.
QUERY_SAMPLES = 3
# Members of each computed antidictionary certified per check.
SOUNDNESS_SAMPLE = 200
# Factor sites tried for the completeness candidates, per workload, split over
# its texts (a text with fewer sites than its share has all of them tried).
COMPLETENESS_BUDGET = 15_000
# Factors and members the circular factor automaton is probed with per check.
DFA_PROBES = 50

CORRUPTIONS = ("drop-member", "wrong-word")

# Typical reference time on the machine the baseline was recorded on
# (2 cores, Python 3.11.7, numpy 2.4.6).
REF_SECONDS = 0.016


class Reference:
    """Fixed reference work, timed next to every timed call.

    On a shared host the speed of this process drifts by tens of percent
    within seconds, and not by the same factor for every kind of work.  The
    reference time is the geometric mean of an interpreter, allocation and
    numpy mix and of a cache-missing gather from a long list of ints, the
    two kinds of work the library does.  Every timed call is divided by the
    mean of the reference times taken just before and just after it, and
    multiplied by REF_SECONDS: seconds at the reference speed.  That cancels
    most of the drift, which a median over a run's samples does not.
    """

    def __init__(self):
        rng = random.Random(0)
        self.array = numpy.random.default_rng(0).integers(0, 1 << 30, size=1 << 18)
        self.values = list(range(1 << 20))
        self.gather = [rng.randrange(1 << 20) for _ in range(40_000)]

    def __call__(self) -> float:
        start = CLOCK()
        table: dict[int, int] = {}
        for i in range(50_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        boxes = [[i] for i in range(30_000)]
        numpy.sort(self.array)
        del boxes
        middle = CLOCK()
        total = 0
        for i in self.gather:
            total += self.values[i]
        return ((middle - start) * (CLOCK() - middle)) ** 0.5


def normalized(samples: list[tuple[float, float]]) -> float:
    """Median over (seconds, reference seconds) pairs, at reference speed."""
    return statistics.median(raw / ref for raw, ref in samples) * REF_SECONDS


def load_library():
    """Import antidict from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import antidict
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import antidict from {src}: {exc}")
    if Path(antidict.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: antidict was imported from {antidict.__file__}, not {src}")
    return antidict


class Bench:
    """One workload's inputs, oracle data, samples and failure count."""

    def __init__(self, lib, inputs, seed: int, reference: Reference, corruptions=()):
        self.lib = lib
        self.inp = inputs
        self.alphabet = lib.Alphabet(inputs.symbols)
        self.tracer: Tracer | None = None
        self.corruptions = set(corruptions)
        self.rng = random.Random(f"check:{inputs.workload}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = reference
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.pass_refs: dict[int, list[float]] = {}
        self.timing = False
        self.counts: dict[str, float] = {}
        self.first_output: dict[str, tuple] = {}
        self._prepare()

    # -- oracle data, computed once and untimed ------------------------------

    def _prepare(self) -> None:
        lib, inp, al = self.lib, self.inp, self.alphabet
        self.text_linear = inp.text_indexes
        self.text_circular = [FactorIndex(text, circular=True) for text in inp.texts]
        if inp.workload == "fib":
            self.neck_linear, self.neck_circular = self.text_linear, self.text_circular
        else:
            self.neck_linear = [FactorIndex(n) for n in inp.necklaces]
            self.neck_circular = [FactorIndex(n, circular=True) for n in inp.necklaces]
        budget = COMPLETENESS_BUDGET // len(inp.texts)
        self.linear_candidates, self.circular_candidates = [], []
        for text, linear, circular in zip(inp.texts, self.text_linear, self.text_circular):
            self.linear_candidates.append(completeness_candidates(linear, text, inp.symbols, self.rng, budget))
            self.circular_candidates.append(completeness_candidates(circular, text, inp.symbols, self.rng, budget))
        self.rotations = [least_rotation(n) for n in inp.necklaces]
        if inp.workload == "fib":
            rank = inp.fib_rank
            self.expect(
                "fibonacci_word",
                lambda: lib.fibonacci_word(rank - 1),
                lambda w: [] if w == fibonacci(rank - 1) else ["differs from the benchmark's own word"],
            )
            self.closed_form = lib.mfw_fibonacci_closed_form(rank, max_length=len(inp.texts[0]))
        # the antidictionaries the reconstructions start from, certified here
        self.mfw_neck_linear, self.mfw_neck_circular, self.dfa_probes = [], [], []
        for necklace, linear, circular in zip(inp.necklaces, self.neck_linear, self.neck_circular):
            self.mfw_neck_linear.append(
                self.expect(
                    "mfw_linear(necklace)",
                    lambda: lib.mfw_linear(necklace, al),
                    lambda m: self.certify(m, linear, len(m)),
                )
            )
            mfws = self.expect(
                "mfw_circular(necklace)",
                lambda: lib.mfw_circular(necklace, al),
                lambda m: self.certify(m, circular, len(m)) + self.circular_bounds(m, necklace),
            )
            self.mfw_neck_circular.append(mfws)
            ring = necklace * (64 // len(necklace) + 2)
            accept = []
            for _ in range(DFA_PROBES):
                i = self.rng.randrange(len(necklace))
                accept.append(ring[i : i + self.rng.randint(1, 64)])
            members = list(mfws or ())
            self.dfa_probes.append((accept, self.rng.sample(members, min(DFA_PROBES, len(members)))))

    def expect(self, name, fn, check):
        """An untimed call whose output is checked and counted."""
        self.attempted += 1
        try:
            out = fn()
        except Exception as exc:  # a call that raises is a failed operation
            self.fail(name, f"raised {exc!r}")
            return None
        problems = check(out)
        if problems:
            self.fail(name, "; ".join(problems))
        return out

    def fail(self, name: str, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(f"{name}: {message}")

    # -- checks ---------------------------------------------------------------

    def certify(self, mfws, index: FactorIndex, sample: int) -> list[str]:
        """Sampled soundness: each member ``aub`` is absent, ``au`` and ``ub``
        occur."""
        words = list(mfws.words)
        picked = self.rng.sample(words, min(sample, len(words)))
        bad = [w for w in picked if not index.is_minimal_absent(w)]
        return [f"{len(bad)} of {len(picked)} sampled members are not minimal absent words"] if bad else []

    def complete(self, mfws, candidates: set[str]) -> list[str]:
        missing = candidates - mfws.as_set()
        return [f"{len(missing)} of {len(candidates)} oracle members are missing"] if missing else []

    def repeatable(self, key: str, words: tuple) -> list[str]:
        """Every pass must return what the first returned."""
        first = self.first_output.setdefault(key, words)
        return [] if first == words else ["differs from the first pass"]

    def circular_bounds(self, mfws, word: str) -> list[str]:
        """|A| - 1 <= |M| <= |A| + (n - 1)|A(w)| - n for a circular word."""
        sigma, n = len(self.alphabet), len(word)
        upper = sigma + (n - 1) * len(set(word)) - n
        return [] if sigma - 1 <= len(mfws) <= upper else [f"|M| = {len(mfws)} outside [{sigma - 1}, {upper}]"]

    def check_linear(self, i: int, mfws) -> list[str]:
        return (
            self.certify(mfws, self.text_linear[i], SOUNDNESS_SAMPLE)
            + self.complete(mfws, self.linear_candidates[i])
            + self.repeatable(f"mfw_linear {i}", mfws.words)
        )

    def check_circular(self, i: int, mfws) -> list[str]:
        problems = (
            self.certify(mfws, self.text_circular[i], SOUNDNESS_SAMPLE)
            + self.complete(mfws, self.circular_candidates[i])
            + self.circular_bounds(mfws, self.inp.texts[i])
            + self.repeatable(f"mfw_circular {i}", mfws.words)
        )
        if self.inp.workload == "fib" and mfws.as_set() != self.closed_form.as_set():
            problems.append("differs from the closed form")
        return problems

    def check_factor_automaton(self, i: int, dfa) -> list[str]:
        n = len(self.inp.texts[i])
        if self.inp.workload == "fib":
            ok = dfa.n_states == n + 1
        else:
            ok = n + 1 <= dfa.n_states <= 2 * n - 2
        return [] if ok else [f"{dfa.n_states} states for a word of length {n}"]

    def check_circular_dfa(self, i: int, dfa) -> list[str]:
        n = len(self.inp.necklaces[i])
        accept, reject = self.dfa_probes[i]
        problems = []
        if not (dfa.n_states == 2 * n - 1 if self.inp.workload == "fib" else dfa.n_states <= 2 * n - 1):
            problems.append(f"{dfa.n_states} states for a circular word of length {n}")
        if not all(dfa.accepts(w) for w in accept):
            problems.append("rejects a factor")
        if any(dfa.accepts(w) for w in reject):
            problems.append("accepts a minimal forbidden word")
        return problems

    # -- timed calls ----------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, name: str, call, args: list, check):
        """Time ``call(arg)`` for every arg as one sample; the outputs are
        checked outside the timing, ``check(i, output)`` for the i-th arg.

        The previous outputs are dropped and garbage collected first, and
        the reference work is timed.  Untraced, a sample shorter than
        MIN_SAMPLE_S is repeated, and the sample is the mean time per call;
        traced, the calls run once inside an ``op.<name>`` span.
        """
        self.attempted += len(args)
        gc.collect()
        ref = self.reference() if self.timing else None
        try:
            if self.tracer:
                with self.tracer.span("op." + name):
                    outs = [call(a) for a in args]
            else:
                reps, start = 0, CLOCK()
                while True:
                    outs = [call(a) for a in args]
                    reps += 1
                    elapsed = CLOCK() - start
                    if elapsed >= MIN_SAMPLE_S:
                        break
                if self.timing:
                    ref = (ref + self.reference()) / 2
                    self.samples.setdefault(name, []).append((elapsed / reps / len(args), ref))
        except Exception as exc:  # a call that raises is a failed operation
            self.fail(name, f"raised {exc!r}", len(args))
            return None
        if self.tracer:
            self.pass_refs.setdefault(self.tracer.run, []).append((ref + self.reference()) / 2)
        outs = [self.corrupt(name, out) for out in outs]
        for i, out in enumerate(outs):
            problems = check(i, out)
            if problems:
                self.fail(f"{name} [{i}]", "; ".join(problems))
        return outs

    def corrupt(self, name: str, out):
        """Deliberately broken outputs, for the self-test only."""
        if name == "mfw_linear" and "drop-member" in self.corruptions:
            words = out.words[: len(out) // 2] + out.words[len(out) // 2 + 1 :]
            return self.lib.MfwSet(words, out.alphabet, out.kind, out.source)
        if name == "reconstruct_word" and "wrong-word" in self.corruptions:
            return out[1:] + out[:1]
        return out

    def json_round_trip(self, mfws):
        """The hand-off of ``mfw --json | reconstruct --mfw -``."""
        with self.span("mfw.MfwSet.to_json"):
            data = mfws.to_json()
        data = json.loads(json.dumps(data))
        with self.span("mfw.MfwSet.from_json"):
            return self.lib.MfwSet.from_json(data)

    def queries(self, dfas) -> None:
        """``Dfa.accepts`` over each automaton's query set; every query is
        one operation."""
        batches = list(zip(dfas, self.inp.queries, self.inp.expected))
        total = sum(len(qs) for qs in self.inp.queries)
        self.attempted += total - len(batches)  # op() counts one per batch
        answers = self.op("query", lambda b: [b[0].accepts(q) for q in b[1]], batches, lambda i, out: [])
        if answers is None:  # op() counted one failure per batch
            self.failed += total - len(batches)
            return
        wrong = sum(a != e for out, b in zip(answers, batches) for a, e in zip(out, b[2]))
        if wrong:
            self.fail("query", f"{wrong} of {total} answers wrong", wrong)

    def run_pass(self) -> None:
        lib, inp, al = self.lib, self.inp, self.alphabet
        tracing = self.tracer is not None
        fib = inp.workload == "fib"

        mfws = self.op("mfw_linear", lambda t: lib.mfw_linear(t, al), inp.texts, self.check_linear)
        if mfws is not None:
            self.op(
                "mfw_json",
                self.json_round_trip,
                mfws,
                lambda i, out: [] if (out.words, out.alphabet) == (mfws[i].words, mfws[i].alphabet) else ["words differ"],
            )
            if tracing:
                self.counts["mfw.members"] = sum(len(m) for m in mfws)
                self.counts["mfw.max_member_len"] = max(m.max_length() for m in mfws)
                for m in mfws:
                    self.trace_sort(m)
        del mfws

        dfas = self.op(
            "factor_automaton", lambda t: lib.build_factor_automaton(t, al), inp.texts, self.check_factor_automaton
        )
        if tracing and dfas is not None:
            states = sum(d.n_states for d in dfas)
            self.counts["factor_automaton.states"] = states
            self.counts["factor_automaton.states_per_symbol"] = states / sum(len(t) for t in inp.texts)
        if not fib and dfas is not None:
            for _ in range(QUERY_SAMPLES):
                self.queries(dfas)
        del dfas

        self.op("mfw_circular", lambda t: lib.mfw_circular(t, al), inp.texts, self.check_circular)
        if tracing:
            self.replay_mfw_circular()

        dfas = self.op(
            "circular_dfa", lambda n: lib.circular_factor_dfa(n, al), inp.necklaces, self.check_circular_dfa
        )
        if tracing:
            self.replay_circular_dfa()
        if fib and dfas is not None:
            for _ in range(QUERY_SAMPLES):
                self.queries(dfas)
        del dfas

        if None not in self.mfw_neck_linear:
            words = self.op(
                "reconstruct_word",
                lib.reconstruct_word,
                self.mfw_neck_linear,
                lambda i, w: [] if w == inp.necklaces[i] else ["not the input word"],
            )
            if tracing and words is not None:
                self.replay_reconstruct_word(words)
        if None not in self.mfw_neck_circular:
            cws = self.op(
                "reconstruct_circular",
                lib.reconstruct_circular,
                self.mfw_neck_circular,
                lambda i, c: [] if c.linearization == self.rotations[i] else ["not the input's least rotation"],
            )
            if tracing and cws is not None:
                self.replay_reconstruct_circular(cws)

    # -- traced replays of composite calls -------------------------------------

    def trace_sort(self, mfws) -> None:
        """``MfwSet.build`` on a seeded shuffle of the members: the sort
        ``mfw_linear`` ends with."""
        words = list(mfws.words)
        random.Random(len(words)).shuffle(words)
        gc.collect()
        with self.span("mfw.MfwSet.build"):
            rebuilt = self.lib.MfwSet.build(words, mfws.alphabet, mfws.kind, mfws.source)
        if rebuilt.words != mfws.words:
            self.fail("MfwSet.build", "the shuffled members sort differently")

    def replay_mfw_circular(self) -> None:
        lib, al = self.lib, self.alphabet
        gc.collect()
        with self.span("replay.mfw_circular"):
            for text in self.inp.texts:
                with self.span("words.CircularWord"):
                    cw = lib.CircularWord(text, al)
                with self.span("mfw.mfw_circular"):
                    lib.mfw_circular(cw, al)

    def avoidance_stages(self, mfws):
        """build_trie -> l_automaton -> strip_sinks, as the library composes
        them; returns the trie and the state counts before and after."""
        lib = self.lib
        with self.span("automata.build_trie"):
            trie = lib.build_trie(mfws.words, mfws.alphabet, antifactorial=True)
        with self.span("l_automaton.l_automaton"):
            complete = lib.l_automaton(trie)
        with self.span("automata.strip_sinks"):
            stripped = lib.strip_sinks(complete)
        return trie, complete.n_states, stripped.n_states

    def probe_tries(self, tries) -> None:
        """Trie.words and Trie.is_antifactorial on the replay's tries, outside
        the replay: l_automaton runs the latter inside."""
        with self.span("probe.trie"):
            for trie in tries:
                with self.span("automata.Trie.words"):
                    trie.words()
                with self.span("automata.Trie.is_antifactorial"):
                    trie.is_antifactorial()

    def replay_circular_dfa(self) -> None:
        lib, al = self.lib, self.alphabet
        gc.collect()
        stages = []
        with self.span("replay.circular_dfa"):
            for necklace in self.inp.necklaces:
                with self.span("words.CircularWord"):
                    cw = lib.CircularWord(necklace, al)
                with self.span("mfw.mfw_circular"):
                    mfws = lib.mfw_circular(cw, al)
                stages.append(self.avoidance_stages(mfws))
        self.counts["automata.trie_nodes"] = sum(trie.n_states for trie, _, _ in stages)
        self.counts["l_automaton.states"] = sum(before for _, before, _ in stages)
        self.counts["automata.sinks_stripped"] = sum(before - after for _, before, after in stages)
        self.probe_tries([trie for trie, _, _ in stages])

    def replay_reconstruct_word(self, words: list[str]) -> None:
        gc.collect()
        tries = []
        with self.span("replay.reconstruct_word"):
            for mfws, word in zip(self.mfw_neck_linear, words):
                tries.append(self.avoidance_stages(mfws)[0])
                with self.span("reconstruction.verify"):
                    self.lib.mfw_linear(word, mfws.alphabet).as_set() == mfws.as_set()
        self.probe_tries(tries)

    def replay_reconstruct_circular(self, cws) -> None:
        gc.collect()
        tries = []
        with self.span("replay.reconstruct_circular"):
            for mfws, cw in zip(self.mfw_neck_circular, cws):
                tries.append(self.avoidance_stages(mfws)[0])
                with self.span("words.CircularWord"):
                    again = self.lib.CircularWord(cw.linearization, mfws.alphabet)
                with self.span("reconstruction.verify"):
                    self.lib.mfw_circular(again, mfws.alphabet).as_set() == mfws.as_set()
        self.probe_tries(tries)

    def peak_alloc_mb(self, fn) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20


def setup_samples(reference: Reference, workload: str, seed: int, scale: str) -> list[tuple[float, float]]:
    """Wall times of fresh set-ups (interpreter start, ``import antidict``,
    input and query generation), each with its reference time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed), "--scale", scale]
    samples = []
    for _ in range(SETUP_REPEATS):
        ref = reference()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        samples.append((elapsed, (ref + reference()) / 2))
    return samples


def peak_resident_kib() -> int:
    """This process's peak resident set (VmHWM).  ``ru_maxrss`` will not do:
    Linux carries the parent's resident set over into a spawned child's."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def library_pass(lib, workload: str, seed: int, scale: str) -> float:
    """One call of every timed entry point on the workload's words, each
    output dropped before the next call, in a process that holds nothing
    else: no oracle data, query sets or reference work.  Returns how far the
    calls raised the process's peak resident set above its reading just
    before the first call (interpreter, numpy, antidict and the words), in
    MiB."""
    symbols, texts, necklaces, _ = draw_words(workload, random.Random(f"{workload}:{seed}"), SCALES[scale])
    al = lib.Alphabet(symbols)
    before = peak_resident_kib()
    for text in texts:
        mfws = lib.mfw_linear(text, al)
        lib.MfwSet.from_json(json.loads(json.dumps(mfws.to_json())))
        del mfws
        lib.build_factor_automaton(text, al)
        lib.mfw_circular(text, al)
    for necklace in necklaces:
        lib.circular_factor_dfa(necklace, al)
        lib.reconstruct_word(lib.mfw_linear(necklace, al))
        lib.reconstruct_circular(lib.mfw_circular(necklace, al))
    return (peak_resident_kib() - before) / 1024


def peak_rss_mb(workload: str, seed: int, scale: str) -> float:
    """``library_pass`` in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rss-only"]
    cmd += ["--workload", workload, "--seed", str(seed), "--scale", scale]
    proc = subprocess.run(cmd, check=True, timeout=170, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def layer_metrics(bench: Bench, passes: int) -> dict[str, float]:
    """Per-layer metrics: the median over timed passes of per-pass values,
    times at reference speed."""
    per_pass: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    n_queries = sum(len(qs) for qs in bench.inp.queries)
    for run in range(1, passes + 1):
        spans = bench.tracer.in_run(run)
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        for metric, name in LAYER_SPANS.items():
            per_pass[metric].append(total(spans, name))
        per_pass["l_automaton.self_s"].append(
            total(spans, "l_automaton.l_automaton") - total(spans, "automata.Trie.is_antifactorial")
        )
        for kind in ("word", "circular"):
            ops = by_name.get(f"op.reconstruct_{kind}", [])
            replays = by_name.get(f"replay.reconstruct_{kind}", [])
            composite = sum(duration(s) for s in ops)
            stages = sum(duration(r) - self_time(r, spans) for r in replays)
            per_pass[f"reconstruction.{kind}_self_s"].append(composite - stages)
        per_pass["automata.accepts_us"].append(total(spans, "op.query") / (n_queries * QUERY_SAMPLES) * 1e6)
        ops = [s for s in spans if s["name"].startswith("op.")]
        per_pass["runtime.gc_s"].append(sum(s["gc_s"] for s in ops))
        per_pass["runtime.gc_collections"].append(sum(s["gc_collections"] for s in ops))
        composite = total(spans, "op.mfw_circular") + total(spans, "op.circular_dfa")
        replayed = total(spans, "replay.mfw_circular") + total(spans, "replay.circular_dfa")
        per_pass["trace.overhead_pct"].append(100.0 * (replayed - composite) / composite if composite else 0.0)
    for run in range(1, passes + 1):
        scale = REF_SECONDS / statistics.median(bench.pass_refs[run])
        for name, unit in PER_LAYER.items():
            if unit in ("s", "us") and per_pass[name]:
                per_pass[name][run - 1] *= scale
    out = {name: statistics.median(values) for name, values in per_pass.items() if values}
    out.update(bench.counts)
    return out


def run(lib, workload: str, seed: int, seconds: float, trace: bool, scale: str, corruptions=()) -> dict:
    """Run one workload; returns the result object plus report lines."""
    reference = Reference()
    setup = None if trace else setup_samples(reference, workload, seed, scale)
    inputs = make_inputs(workload, seed, scale, lib.mfw_fibonacci_closed_form)
    bench = Bench(lib, inputs, seed, reference, corruptions)

    bench.run_pass()  # warm-up: checked, not sampled
    # The oracle data and reference work live for the whole run; frozen, the
    # collections inside the timed calls do not traverse them.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    bench.tracer, bench.timing = tracer, True
    passes = 0
    try:
        with tracer or nullcontext():
            deadline = time.perf_counter() + seconds
            while passes == 0 or time.perf_counter() < deadline:
                passes += 1
                if tracer:
                    tracer.run = passes
                bench.run_pass()
    finally:
        gc.unfreeze()

    if trace:
        metrics = layer_metrics(bench, passes)
        al = bench.alphabet
        metrics["mfw.peak_alloc_mb"] = bench.peak_alloc_mb(lambda: lib.mfw_linear(inputs.texts[0], al))
        metrics["factor_automaton.peak_alloc_mb"] = bench.peak_alloc_mb(
            lambda: lib.build_factor_automaton(inputs.texts[0], al)
        )
        units = PER_LAYER
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload}-{seed}.json")
        notes, footer = {}, []
    else:
        samples = {f"{name}_s": values for name, values in bench.samples.items()}
        samples["setup_s"] = setup
        samples["query_kps"] = samples.pop("query_s")
        metrics = {name: normalized(values) for name, values in samples.items()}
        metrics["query_kps"] = len(inputs.queries[0]) / metrics["query_kps"] / 1000
        metrics["peak_rss_mb"] = peak_rss_mb(workload, seed, scale)
        units = END_TO_END
        notes = {
            name: f"  (median of {len(values)}; raw median {statistics.median(s for s, _ in values):.6f} s)"
            for name, values in samples.items()
        }
        refs = [ref for values in samples.values() for _, ref in values]
        footer = [f"reference work: median {statistics.median(refs):.6f} s, nominal {REF_SECONDS} s"]
        notes["peak_rss_mb"] = "  (growth over one pass of every call, in a process of its own)"

    missing = [name for name in units if name not in metrics]
    lines = [f"workload {workload}, seed {seed}, scale {scale}, {passes} timed passes"]
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"{name:36s} {metrics[name]:14.6f} {unit}{notes.get(name, '')}")
    ratio = bench.failed / bench.attempted
    lines.append(f"{'fail_ratio':36s} {ratio:14.6f} ({bench.failed} failed of {bench.attempted} operations)")
    lines += footer
    lines += [f"FAILED {f}" for f in bench.failures]
    lines += [f"MISSING metric {name}" for name in missing]
    return {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items() if name in metrics},
        "lines": lines,
    }


def self_test(lib) -> int:
    """Smoke runs of every workload in both modes, plus corrupted runs."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
        if declared[trace] != units:
            problems.append(f"BENCHMARK.json lists other {'per-layer' if trace else 'end-to-end'} metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json lists other workloads")
    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
            result = run(lib, workload, 1, 0.1, trace, "smoke")
            print("\n".join(result["lines"]))
            if not result["correct"] or set(result["metrics"]) != set(units):
                problems.append(f"{workload} trace={int(trace)}: incorrect or incomplete")
        for corruption in CORRUPTIONS:
            result = run(lib, workload, 1, 0.1, True, "smoke", [corruption])
            if result["correct"] or result["failed"] == 0:
                problems.append(f"{workload}: {corruption} went unnoticed")
            else:
                print(f"{workload}: {corruption} counted as {result['failed']} failed operations")
    for p in problems:
        print("SELF-TEST FAILED:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    lib = load_library()
    if args.self_test:
        return self_test(lib)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        make_inputs(args.workload, args.seed, args.scale, lib.mfw_fibonacci_closed_form)
        return 0
    if args.rss_only:
        print(library_pass(lib, args.workload, args.seed, args.scale))
        return 0
    result = run(lib, args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print("\n".join(result.pop("lines")), flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workload inputs and the independent oracle the benchmark checks
library outputs against.

Nothing here calls the library except ``mfw_fibonacci_closed_form`` and
``fibonacci_word``, which only write down the paper's closed forms and are
not timed.  Factor membership is answered from the input string itself: a
sorted list of fixed-width windows answers short patterns by binary search,
and ``str.find`` answers long ones.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

# Window width of the factor index; longer patterns fall back to str.find.
WIDTH = 48
# Length of the factor queries.
QUERY_LEN = 32

# Input sizes per scale.  ``default`` is what the benchmark command runs: one
# pass over every call takes about two seconds, so a run of ``--seconds``
# seconds yields ten or so samples of each call.  The random workloads split
# their work over several independent words, because the cost of some calls
# depends on the word (the merge cascade of ``build_factor_automaton``, the
# members of a necklace) and one word per seed would make a run's figures
# depend on the seed's luck.  ``smoke`` exercises every code path in well
# under a second.  ``queries`` is per queried automaton and per kind.
SCALES = {
    "smoke": {
        "texts": 2,
        "text": 300,
        "necklaces": 2,
        "bin_necklace": 64,
        "dna_necklace": 48,
        "fib_rank": 12,
        "queries": 20,
    },
    "default": {
        "texts": 4,
        "text": 1 << 14,
        "necklaces": 4,
        "bin_necklace": 768,
        "dna_necklace": 384,
        "fib_rank": 24,
        "queries": 125,
    },
}

WORKLOADS = ("bin", "dna", "fib")


@dataclass
class Inputs:
    """Everything one workload feeds the library.

    The ``texts`` go to the linear-layer calls and to ``mfw_circular``; the
    primitive ``necklaces`` go to the avoidance-layer calls.  ``fib`` has the
    one Fibonacci word in both roles.  ``queries[i]`` (with the answers in
    ``expected[i]``) go to the factor automaton of ``texts[i]``, or for
    ``fib`` to the circular factor automaton of ``necklaces[i]``.
    ``text_indexes`` are the factor indexes the queries were drawn with.
    """

    workload: str
    symbols: str
    texts: list[str]
    necklaces: list[str]
    queries: list[list[str]]
    expected: list[list[bool]]
    text_indexes: list["FactorIndex"]
    fib_rank: int | None = None


class FactorIndex:
    """Factor membership for one string, linear or circular.

    For a circular string the factors are those of its powers; up to the
    string's length they are the factors of ``s + s[:-1]``, and longer
    patterns are not asked for.
    """

    def __init__(self, s: str, circular: bool = False):
        self.circular = circular
        self.haystack = s + s[:-1] if circular else s
        ext = s + s[: WIDTH - 1] if circular else s
        self.windows = sorted(ext[i : i + WIDTH] for i in range(len(s)))

    def __contains__(self, pattern: str) -> bool:
        if len(pattern) <= WIDTH:
            k = bisect_left(self.windows, pattern)
            return k < len(self.windows) and self.windows[k].startswith(pattern)
        return self.haystack.find(pattern) >= 0

    def is_minimal_absent(self, word: str) -> bool:
        """``word = aub`` is absent while ``au`` and ``ub`` occur (or it is
        a single absent letter)."""
        if not word or word in self:
            return False
        return len(word) == 1 or (word[:-1] in self and word[1:] in self)


def is_primitive(word: str) -> bool:
    return word not in (word + word)[1:-1]


def draw_primitive(rng: random.Random, symbols: str, n: int) -> str:
    """A uniform random word of length n, redrawn until primitive."""
    while True:
        word = "".join(rng.choices(symbols, k=n))
        if is_primitive(word):
            return word


def least_rotation(word: str) -> str:
    """Least rotation in code-point order, by Duval's Lyndon factorization of
    the doubled word (the library uses a different, two-pointer scan)."""
    ss, n = word + word, len(word)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and ss[k] <= ss[j]:
            k = i if ss[k] < ss[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return ss[start : start + n]


def fibonacci(rank: int) -> str:
    """The Fibonacci word of the given rank (``b``, ``a``, ``ab``, ``aba``...),
    built here because the library caps its generator at 10^5 symbols."""
    prev, cur = "b", "a"
    if rank == 1:
        return prev
    for _ in range(rank - 2):
        prev, cur = cur, cur + prev
    return cur


def absent_word(index: FactorIndex, text: str, rng: random.Random, symbols: str) -> str | None:
    """A minimal absent word found from a random window of the text.

    Takes ``x`` of length QUERY_LEN at a random position and a letter ``b``
    other than the one that follows it; if ``xb`` is absent, the shortest
    suffix ``y`` of ``x`` with ``yb`` absent gives the minimal absent word
    ``yb`` (its proper factors ``y`` and the one-shorter ``y'b`` occur).
    Returns None when ``xb`` happens to occur.
    """
    i = rng.randrange(len(text) - QUERY_LEN)
    x = text[i : i + QUERY_LEN]
    b = rng.choice([s for s in symbols if s != text[i + QUERY_LEN]])
    if x + b in index:
        return None
    lo, hi = 0, QUERY_LEN  # x[QUERY_LEN - lo:] + b occurs, x[QUERY_LEN - hi:] + b does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x[QUERY_LEN - mid :] + b in index:
            lo = mid
        else:
            hi = mid
    return x[QUERY_LEN - hi :] + b


def draw_words(workload: str, rng: random.Random, sizes: dict) -> tuple[str, list[str], list[str], int | None]:
    """The workload's alphabet, texts, necklaces and Fibonacci rank (None
    for the random workloads), drawn first from the workload's generator."""
    if workload == "fib":
        rank = sizes["fib_rank"]
        word = fibonacci(rank)
        return "ab", [word], [word], rank
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    symbols = "ab" if workload == "bin" else "acgt"
    texts = [draw_primitive(rng, symbols, sizes["text"]) for _ in range(sizes["texts"])]
    necklaces = [draw_primitive(rng, symbols, sizes[f"{workload}_necklace"]) for _ in range(sizes["necklaces"])]
    return symbols, texts, necklaces, None


def make_inputs(workload: str, seed: int, scale: str, closed_form=None) -> Inputs:
    """The workload's inputs and query sets, a function of the seed alone.

    ``closed_form`` is ``antidict.mfw_fibonacci_closed_form``; the ``fib``
    workload draws its rejected queries from it.
    """
    sizes = SCALES[scale]
    rng = random.Random(f"{workload}:{seed}")
    symbols, texts, necklaces, rank = draw_words(workload, rng, sizes)
    q = sizes["queries"]
    if workload == "fib":
        word = texts[0]
        indexes = [FactorIndex(word)]
        ring = word + word[: QUERY_LEN - 1]
        accepted = [ring[i : i + QUERY_LEN] for i in (rng.randrange(len(word)) for _ in range(q))]
        # every short member equally often, so the query work is the same for every seed
        members = [w for w in closed_form(rank, max_length=len(word)).words if len(w) <= 2 * QUERY_LEN]
        batches = [(accepted, [members[i % len(members)] for i in range(q)])]
    else:
        indexes = [FactorIndex(text) for text in texts]
        batches = []
        for text, index in zip(texts, indexes):
            accepted = [text[i : i + QUERY_LEN] for i in (rng.randrange(len(text) - QUERY_LEN + 1) for _ in range(q))]
            rejected = []
            while len(rejected) < q:
                word = absent_word(index, text, rng, symbols)
                if word is not None:
                    rejected.append(word)
            batches.append((accepted, rejected))
    queries, expected = [], []
    for accepted, rejected in batches:
        pairs = [(w, True) for w in accepted] + [(w, False) for w in rejected]
        rng.shuffle(pairs)
        queries.append([w for w, _ in pairs])
        expected.append([e for _, e in pairs])
    return Inputs(workload, symbols, texts, necklaces, queries, expected, indexes, rank)


def completeness_candidates(
    index: FactorIndex, text: str, symbols: str, rng: random.Random, budget: int
) -> set[str]:
    """Minimal absent words ``aub`` around factors ``u`` of the text.

    Every factor ``u`` of length below WIDTH - 1 is tried when there are at
    most ``budget`` of them (small inputs), otherwise ``budget`` random ones.
    Each ``aub`` with ``au`` and ``ub`` present and ``aub`` absent must be in
    the antidictionary.  A circular index yields circular members, limited to
    the word's length.
    """
    n = len(text)
    ring = text + text[: WIDTH] if index.circular else text
    max_u = min(WIDTH - 2, n - 1)
    if n * (max_u + 1) <= budget:
        sites = [(i, k) for i in range(n) for k in range(max_u + 1)]
    else:
        sites = [(rng.randrange(n), rng.randrange(max_u + 1)) for _ in range(budget)]
    found = {s for s in symbols if s not in index}
    for i, k in sites:
        u = ring[i : i + k]
        if len(u) < k:
            continue
        for a in symbols:
            if a + u not in index:
                continue
            for b in symbols:
                w = a + u + b
                if (not index.circular or len(w) <= n) and u + b in index and w not in index:
                    found.add(w)
    return found

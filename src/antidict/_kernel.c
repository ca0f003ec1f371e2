/* Compiled kernels of antidict, loaded through ctypes by _kernel.py.
 *
 * Words arrive as rank codes: code[i] is the rank of the i-th symbol in the
 * alphabet order, 0 <= code[i] < sigma.  The caller checks sizes and dtypes
 * and allocates every table; nothing here allocates.
 */

#include <stdint.h>
#include <string.h>

/* Online suffix-automaton construction (Blumer et al., TCS 40, 1985).
 *
 * tables holds four tables of cap = 2n+2 rows each, back to back: trans
 * (sigma entries a row), then link, len and endpos; only the first
 * returned-count rows of each are written.  trans[s*sigma + c] is the
 * transition of state s on rank c (-1 when missing), link[s] its suffix
 * link (-1 at the root), len[s] the length of its longest word and
 * endpos[s] the smallest 0-based text index at which its words end (0 at
 * the root; a clone copies it from the state it splits, whose occurrences
 * all come earlier).  Returns the number of states. */
int32_t suffix_automaton(const int32_t *code, int64_t n, int32_t sigma,
                         int32_t *tables)
{
    int64_t cap = 2 * n + 2;
    int32_t *trans = tables, *link = trans + cap * sigma, *len = link + cap,
            *endpos = len + cap;
    int32_t size = 1, last = 0;
    for (int32_t c = 0; c < sigma; c++)
        trans[c] = -1;
    link[0] = -1;
    len[0] = 0;
    endpos[0] = 0;
    for (int64_t pos = 0; pos < n; pos++) {
        int32_t c = code[pos];
        int32_t cur = size++;
        int32_t *row = trans + (int64_t)cur * sigma;
        for (int32_t i = 0; i < sigma; i++)
            row[i] = -1;
        len[cur] = len[last] + 1;
        endpos[cur] = (int32_t)pos;
        int32_t p = last;
        while (p >= 0 && trans[(int64_t)p * sigma + c] < 0) {
            trans[(int64_t)p * sigma + c] = cur;
            p = link[p];
        }
        if (p < 0) {
            link[cur] = 0;
        } else {
            int32_t q = trans[(int64_t)p * sigma + c];
            if (len[p] + 1 == len[q]) {
                link[cur] = q;
            } else {
                int32_t clone = size++;
                const int32_t *from = trans + (int64_t)q * sigma;
                int32_t *to = trans + (int64_t)clone * sigma;
                for (int32_t i = 0; i < sigma; i++)
                    to[i] = from[i];
                len[clone] = len[p] + 1;
                endpos[clone] = endpos[q];
                link[clone] = link[q];
                while (p >= 0 && trans[(int64_t)p * sigma + c] == q) {
                    trans[(int64_t)p * sigma + c] = clone;
                    p = link[p];
                }
                link[q] = clone;
                link[cur] = clone;
            }
        }
        last = cur;
    }
    return size;
}

/* The minimal factor automaton of the word of a suffix automaton, made by
 * merging states into their suffix links; tables, cap and size are those of
 * suffix_automaton, n the word's length.  factor_automaton.py states the two
 * lemmas this rests on.
 *
 * s can merge into q = link[s] only if both have the same first end
 * position and every other end position of q lies in the tail of the word
 * covered by its longest repeated suffix: the earliest end position of q's
 * other children is at least that tail's start.  One pass collects those
 * candidates; the transition lemma then decides them by decreasing length,
 * so that every target a decision reads, being longer, is already decided.
 * A class is numbered by its top member, the one nearest the root, tops in
 * increasing state order, so the root stays class 0.
 *
 * Rewrites the first rows of trans, one a class, as the class rows (top
 * i's row with each target replaced by its class; top i >= i, so row i is
 * written after every row it reads) and as many first entries of endpos
 * as the class failure links, the class of each top's suffix link (-1 at
 * the root).  Between the filter and that write, endpos holds the length
 * buckets of the candidates, n + 1 <= cap entries.  scratch holds
 * 2*size + 1 entries: the earliest other end position of each state, then
 * the candidates by decreasing length followed by -1, which the call leaves
 * there; and the candidates as collected, then -1 and each state's merged
 * flag, then its class (read at -1 for a missing target or the root's
 * link).  Returns the class count. */
int32_t factor_classes(int32_t *tables, int64_t cap, int32_t size, int64_t n,
                       int32_t sigma, int32_t *scratch)
{
    int32_t *trans = tables, *link = trans + cap * sigma, *len = link + cap,
            *endpos = len + cap;
    int32_t *earliest = scratch, *order = scratch, *cand = scratch + size,
            *cls = scratch + size + 1;
    /* the state of the whole word is made last, or just before its clone */
    int32_t last = len[size - 1] == n ? size - 1 : size - 2;
    int64_t tail = n - 1 - len[link[last]], k = 0;
    for (int32_t s = 0; s < size; s++)
        earliest[s] = (int32_t)n;
    for (int32_t s = 1; s < size; s++)
        if (endpos[s] != endpos[link[s]] && endpos[s] < earliest[link[s]])
            earliest[link[s]] = endpos[s];
    for (int32_t s = 1; s < size; s++) { /* without a branch to mispredict */
        cand[k] = s;
        k += (endpos[s] == endpos[link[s]]) & (earliest[link[s]] >= tail);
    }

    /* bucket the candidates by length, longest first, stably */
    int32_t *bucket = endpos;
    memset(bucket, 0, (size_t)(n + 1) * sizeof *bucket);
    for (int64_t i = 0; i < k; i++)
        bucket[len[cand[i]]]++;
    for (int64_t l = n, at = 0; l >= 0; l--) {
        int32_t count = bucket[l];
        bucket[l] = (int32_t)at;
        at += count;
    }
    for (int64_t i = 0; i < k; i++)
        order[bucket[len[cand[i]]]++] = cand[i];
    order[k] = -1; /* the root is no candidate, so k < size */

    /* s merges when every letter leads it and q to one state, or leads s to
     * a state t that merges; s lacking a letter that q has never merges */
    memset(cls, 0, (size_t)size * sizeof *cls);
    cls[-1] = -1; /* the class of a missing target or link */
    for (int64_t i = 0; i < k; i++) {
        int32_t s = order[i];
        const int32_t *row = trans + (int64_t)s * sigma,
                      *up = trans + (int64_t)link[s] * sigma;
        int32_t merges = 1;
        for (int32_t c = 0; c < sigma && merges; c++)
            if (row[c] != up[c])
                merges = row[c] >= 0 && cls[row[c]];
        cls[s] = merges;
    }

    /* number the tops, then give each merged state, by increasing length,
     * the class of its suffix link, a shorter state already numbered */
    int32_t classes = 0;
    for (int32_t s = 0; s < size; s++)
        cls[s] = cls[s] ? -1 : classes++;
    for (int64_t i = k - 1; i >= 0; i--)
        if (cls[order[i]] < 0)
            cls[order[i]] = cls[link[order[i]]];

    /* a top is a state whose suffix link lies in another class */
    for (int32_t s = 0, i = 0; s < size; s++) {
        if (cls[s] == cls[link[s]])
            continue;
        const int32_t *from = trans + (int64_t)s * sigma;
        int32_t *to = trans + (int64_t)i * sigma;
        for (int32_t c = 0; c < sigma; c++)
            to[c] = cls[from[c]];
        endpos[i++] = cls[link[s]];
    }
    return classes;
}

/* Least number of states waiting in forbidden_sites' queue at which it reads
 * a row without a branch.  Measured on perfbench's seed-1 texts (2^14
 * symbols, forbidden_sites alone, best of 30, linear cap then circular):
 * random acgt 0.72 and 0.92 ms with branches everywhere, 0.29 and 0.47
 * with this switch; binary 0.46 and 0.59 against 0.22 and 0.34.  Any width
 * from 4 to 64 times the same there.  The rank-24 Fibonacci word, whose
 * queue holds one or two states, took 0.16 and 0.29 ms with branches
 * everywhere, 0.145 and 0.255 with this switch, 0.16 and 0.30 at width 2
 * and 0.42 and 0.98 at width 1. */
enum { WIDE_FRONTIER = 16 };

/* Minimal forbidden factors of the word of a suffix automaton, as sites
 * (Crochemore, Mignosi and Restivo, IPL 67, 1998).  tables, cap and size
 * are those of suffix_automaton.  A site is a state s and a rank c undefined
 * at s but defined at link[s] (at the root: undefined); its member is the
 * shortest word of s, of length len[link[s]] + 1 and ending at endpos[s],
 * followed by c.
 *
 * The walk is breadth first from the root, children taken in rank order,
 * so states leave the queue in shortlex order of their shortest words and
 * each state's sites are written as it leaves: members arrive by length,
 * then lexicographically in rank order, the root's absent letters first.
 * No seen table is needed: t is first reached from p exactly when
 * len[link[t]] is the length of p's shortest word.  The walk stops at the
 * first state whose members would be longer than max_len.
 *
 * A state leaving a queue in which at least WIDE_FRONTIER others wait has
 * its row read without a branch: each child is written at queue[tail] and
 * kept by adding to tail whether it is a tree edge, each triple is written
 * at site k and kept by adding to k whether it is a site.  On random text
 * either test goes both ways about as often, and a branch on it
 * mispredicts.  A narrower queue keeps the branches: the next queue[head]
 * load may read the entry just written, whose address waits on that add.
 *
 * out holds size + 1 queue entries, then three entries a site: the
 * shortest word's text slice start and stop, and c.  A state is queued at
 * most once, and there are at most size*(sigma-1) + 1 sites, since every
 * site is a missing transition and every state but the root has an
 * incoming one; the branch-free writes that are not kept need one queue
 * entry and one triple past those.  Returns the site count. */
int64_t forbidden_sites(const int32_t *tables, int64_t cap, int32_t size,
                        int32_t sigma, int64_t max_len, int32_t *out)
{
    const int32_t *trans = tables, *link = trans + cap * sigma,
                  *len = link + cap, *endpos = len + cap;
    int32_t *queue = out, *site = out + size + 1;
    int64_t head = 0, tail = 0, k = 0;
    queue[tail++] = 0;
    for (;;) {
        /* fewer than WIDE_FRONTIER states wait behind p */
        while ((uint64_t)(tail - head - 1) < WIDE_FRONTIER) {
            int32_t p = queue[head++];
            int32_t shortest = p > 0 ? len[link[p]] + 1 : 0;
            if ((int64_t)shortest + 1 > max_len)
                return k;
            int32_t stop = p > 0 ? endpos[p] + 1 : 0;
            const int32_t *row = trans + (int64_t)p * sigma;
            const int32_t *up = trans + (int64_t)(p > 0 ? link[p] : 0) * sigma;
            for (int32_t c = 0; c < sigma; c++) {
                int32_t t = row[c];
                if (t >= 0) {
                    if (len[link[t]] == shortest)
                        queue[tail++] = t;
                } else if (p == 0 || up[c] >= 0) {
                    site[3 * k] = stop - shortest;
                    site[3 * k + 1] = stop;
                    site[3 * k + 2] = c;
                    k++;
                }
            }
        }
        if (head == tail)
            return k;
        /* the root leaves a queue of one, so p > 0 here */
        do {
            int32_t p = queue[head++];
            int32_t shortest = len[link[p]] + 1;
            if ((int64_t)shortest + 1 > max_len)
                return k;
            int32_t stop = endpos[p] + 1;
            const int32_t *row = trans + (int64_t)p * sigma;
            const int32_t *up = trans + (int64_t)link[p] * sigma;
            for (int32_t c = 0; c < sigma; c++) {
                /* a missing child reads p's suffix link in its place,
                 * picked by a mask: GCC compiled t < 0 ? p : t to a branch */
                int32_t t = row[c], missing = -(t < 0);
                queue[tail] = t;
                tail += (t >= 0) & (len[link[(t & ~missing) | (p & missing)]] == shortest);
                site[3 * k] = stop - shortest;
                site[3 * k + 1] = stop;
                site[3 * k + 2] = c;
                k += (t < 0) & (up[c] >= 0);
            }
        } while (tail - head > WIDE_FRONTIER);
    }
}

/* Spells the members of count sites of forbidden_sites, one after another
 * and each followed by a separator, into out.  Symbols are width bytes
 * each (1 for ASCII, 4 for UTF-32): text is the word the sites were found
 * in and symbols holds the sigma alphabet symbols in rank order, then the
 * separator.  sites are the triples forbidden_sites wrote, and out has room
 * for the members' total length plus count symbols. */
void spell_sites(const uint8_t *text, int64_t width, const int32_t *sites,
                 int64_t count, const uint8_t *symbols, int32_t sigma,
                 uint8_t *out)
{
    const uint8_t *sep = symbols + sigma * width;
    for (int64_t k = 0; k < count; k++) {
        const int32_t *site = sites + 3 * k;
        int64_t size = (int64_t)(site[1] - site[0]) * width;
        memcpy(out, text + site[0] * width, size);
        out += size;
        memcpy(out, symbols + site[2] * width, width);
        out += width;
        memcpy(out, sep, width);
        out += width;
    }
}

/* The first separator unit at or after p before end, or NULL. */
static const uint8_t *find_unit(const uint8_t *p, const uint8_t *end,
                                const uint8_t *sep, int64_t width)
{
    if (width == 1)
        return memchr(p, *sep, (size_t)(end - p));
    for (; p < end; p += width)
        if (memcmp(p, sep, (size_t)width) == 0)
            return p;
    return NULL;
}

/* Checks count members, written one after another into text (size bytes)
 * with one separator unit between neighbours, for shortlex order: each
 * member nonempty and longer than its predecessor, or as long and greater
 * bytewise.  Symbols are width bytes each, encoded so that byte order is
 * the alphabet order (ASCII, or big-endian UTF-32), and the order is then
 * the MfwSet order with no member repeated.  A member holding a separator
 * leaves one in the last member, which then counts as out of order, so
 * count must be the number of members joined.  Returns the index of the
 * first member out of order, else count. */
int64_t shortlex_run(const uint8_t *text, int64_t size, int64_t width,
                     const uint8_t *sep, int64_t count)
{
    const uint8_t *end = text + size, *at = text, *prev = text;
    int64_t prev_size = 0;
    for (int64_t i = 0; i < count; i++) {
        /* every member but the last ends at a separator */
        const uint8_t *stop = find_unit(at, end, sep, width);
        if ((stop == NULL) != (i + 1 == count))
            return i;
        if (stop == NULL)
            stop = end;
        /* an empty first member is as long as, and equal to, the empty
         * word before it; a later one is shorter than its predecessor */
        int64_t member = stop - at;
        if (member < prev_size ||
            (member == prev_size && memcmp(prev, at, (size_t)member) >= 0))
            return i;
        prev = at;
        prev_size = member;
        at = stop + width;
    }
    return count;
}

/* Appends a childless node to the table flat, which holds *nodes rows of
 * sigma entries, and returns its number. */
static int32_t new_node(int32_t *flat, int32_t sigma, int64_t *nodes)
{
    int32_t *row = flat + *nodes * sigma;
    for (int32_t c = 0; c < sigma; c++)
        row[c] = -1;
    return (int32_t)(*nodes)++;
}

/* The entry mf_automaton's walk writes for an edge into a leaf. */
enum { LEAF = -2 };

/* The avoidance automaton of the minimal forbidden factors of length at
 * most max_len, with its sinks stripped, read off the spanning tree that
 * forbidden_sites walks (Crochemore, Mignosi and Restivo, IPL 67, 1998).
 * tables and cap are those of suffix_automaton.  For a primitive circular
 * word w and max_len = |w| on ww, it is the minimal factor automaton of w's
 * powers; for a word w and max_len = |w| + 1, that of w's factors.
 *
 * The members' trie is the spanning tree cut down to the ancestors of the
 * sites, plus one leaf per site (s, c): the shortest word of a state is its
 * tree path, and a tree node's depth is its length.  Its leaves are the
 * sinks that completion makes and stripping drops, and stripping keeps the
 * other nodes in order, so the walk numbers only the inner nodes, in the
 * preorder in which trie() would make them from the sorted members, and
 * writes LEAF for an edge into a leaf.  The walk is depth first, children
 * in rank order; a node whose row is still all -1 when its subtree ends
 * has no site below it and is rolled back.  Its stack, a state and its node
 * for each level, lives in the endpos table: a level is a symbol of a
 * shortest word, so at most n + 1 levels fill the cap = 2n+2 entries.
 *
 * The table is then completed breadth first in place (Aho and Corasick,
 * CACM 18, 1975): a missing root edge becomes a self-loop; any other node
 * keeps its trie edges, setting each child's failure link to its own
 * failure's same-letter target, and borrows its missing edges from its
 * failure, whose row is complete.  In a complete row -1 can only stand for
 * a sink: a LEAF becomes -1, and a borrowed -1 stays.  The queue
 * overwrites the len table, free once the walk is done, and the failure
 * links, -1 at the root, follow the last row in flat, so that the caller
 * can free the suffix automaton before it copies them out.
 *
 * flat has room for sigma + 1 entries per suffix-automaton state: every
 * inner node is a tree node, a distinct state.  Returns the node count;
 * -1 when a failure link lands on a sink, since a member then occurs inside
 * another (the tables are left half written). */
int64_t mf_automaton(int32_t *tables, int64_t cap, int32_t sigma,
                     int64_t max_len, int32_t *flat)
{
    const int32_t *trans = tables, *link = trans + cap * sigma;
    int32_t *len = tables + cap * (sigma + 1), *stack = len + cap;
    int64_t nodes = 0, depth = 0;
    int32_t c = 0;
    stack[0] = 0;
    stack[1] = new_node(flat, sigma, &nodes);
    for (;;) {
        int32_t p = stack[2 * depth], node = stack[2 * depth + 1];
        if (c < sigma) {
            int32_t t = trans[(int64_t)p * sigma + c];
            int32_t *slot = flat + (int64_t)node * sigma + c;
            if (t >= 0) {
                if (len[link[t]] == depth && depth + 2 <= max_len) {
                    *slot = new_node(flat, sigma, &nodes);
                    depth++;
                    stack[2 * depth] = t;
                    stack[2 * depth + 1] = *slot;
                    c = 0;
                    continue;
                }
            } else if (depth + 1 <= max_len &&
                       (p == 0 || trans[(int64_t)link[p] * sigma + c] >= 0)) {
                *slot = LEAF;
            }
            c++;
            continue;
        }
        if (depth == 0)
            break;
        depth--;
        int32_t up = stack[2 * depth];
        for (c = 0; trans[(int64_t)up * sigma + c] != p; c++)
            ;
        const int32_t *row = flat + (int64_t)node * sigma;
        int32_t i = 0;
        while (i < sigma && row[i] == -1)
            i++;
        if (i == sigma) { /* no site below p: roll back */
            nodes = node;
            flat[(int64_t)stack[2 * depth + 1] * sigma + c] = -1;
        }
        c++;
    }

    int32_t *failure = flat + nodes * sigma, *queue = len;
    int64_t head = 0, tail = 0;
    failure[0] = -1;
    queue[tail++] = 0;
    while (head < tail) {
        int32_t p = queue[head++];
        int32_t *row = flat + (int64_t)p * sigma;
        const int32_t *fail_row = flat + (int64_t)(p > 0 ? failure[p] : 0) * sigma;
        for (c = 0; c < sigma; c++) {
            int32_t child = row[c], next = p > 0 ? fail_row[c] : 0;
            if (child == -1) {
                row[c] = next;
                continue;
            }
            if (next < 0)
                return -1;
            if (child == LEAF) {
                row[c] = -1;
            } else {
                failure[child] = next;
                queue[tail++] = child;
            }
        }
    }
    return nodes;
}

/* Start of the least rotation of a nonempty word of length n, by the
 * two-pointer scan: candidates i and j agree on k symbols; at the first
 * difference the larger one, and every start it skipped over, is out.
 * The scan never discards a least start, so it ends with k == n, two
 * distinct starts of one rotation, exactly when the word is a proper power;
 * it then returns -1 - start. */
int64_t least_rotation(const int32_t *code, int64_t n)
{
    int64_t i = 0, j = 1, k = 0;
    while (i < n && j < n && k < n) {
        int64_t a = i + k, b = j + k;
        int32_t x = code[a < n ? a : a - n], y = code[b < n ? b : b - n];
        if (x == y) {
            k++;
            continue;
        }
        if (x > y)
            i += k + 1;
        else
            j += k + 1;
        if (i == j)
            j++;
        k = 0;
    }
    int64_t start = i < j ? i : j;
    return k == n ? -1 - start : start;
}

/* Node count of the trie of k words sorted in alphabet order, the i-th word
 * being code[bounds[i] .. bounds[i+1]): 1 + sum of |m_i| - lcp(m_{i-1}, m_i),
 * since in sorted order each word shares with the trie built so far exactly
 * its common prefix with its predecessor.  An equal neighbour adds nothing.
 * Returns -1 - i when word i properly extends word i - 1: the set is not
 * prefix-free (in sorted order every extension of a word follows it
 * directly, so neighbours are all that need testing). */
int64_t trie_size(const int32_t *code, const int64_t *bounds, int64_t k)
{
    int64_t size = 1;
    for (int64_t i = 0; i < k; i++) {
        int64_t start = bounds[i], stop = bounds[i + 1], common = 0;
        if (i > 0) {
            int64_t prev = bounds[i - 1], prev_len = start - prev;
            while (common < prev_len && start + common < stop &&
                   code[prev + common] == code[start + common])
                common++;
            if (common == prev_len && stop - start > prev_len)
                return -1 - i;
        }
        size += stop - start - common;
    }
    return size;
}

/* Inserts the k sorted, prefix-free words that trie_size measured into
 * flat, a table of as many rows as it counted, sigma entries a row:
 * flat[s*sigma + c] is the child of state s on rank c, or -1.  State 0 is
 * the root and states are numbered in insertion order.  finals, zeroed by
 * the caller, receives a 1 at the state each word ends at (one state for
 * equal words): the member ends, which avoidance() makes the sinks. */
void trie(const int32_t *code, const int64_t *bounds, int64_t k, int32_t sigma,
          int32_t *flat, uint8_t *finals)
{
    int32_t size = 1;
    for (int32_t c = 0; c < sigma; c++)
        flat[c] = -1;
    for (int64_t i = 0; i < k; i++) {
        int32_t state = 0;
        for (int64_t j = bounds[i]; j < bounds[i + 1]; j++) {
            int32_t *slot = flat + (int64_t)state * sigma + code[j];
            if (*slot < 0) {
                int32_t *row = flat + (int64_t)size * sigma;
                for (int32_t c = 0; c < sigma; c++)
                    row[c] = -1;
                *slot = size++;
            }
            state = *slot;
        }
        finals[state] = 1;
    }
}

/* Completes in place the table of a trie of n states into the avoidance
 * automaton of its members (Aho and Corasick, CACM 18, 1975; Crochemore,
 * Mignosi and Restivo, IPL 67, 1998).  end marks the members' ends, the
 * trie's finals, which become the sinks.  Breadth first from the root: a
 * missing root edge becomes a self-loop; a sink loops every letter back to
 * itself; any other state keeps its trie edges, setting each child's
 * failure link to its own failure's same-letter target, and borrows its
 * missing edges from its failure.  failure[0] is -1 and queue is scratch
 * room for n states.  Returns 0; -1 as soon as a failure link lands on a
 * sink, since a member then occurs inside another and the set is not
 * antifactorial; -2 when the table is no tree (a member end with an edge,
 * a state with two parents, the root as a child or a state outside
 * 0..n-1), so that no state is queued twice.  The tables are left half
 * written on failure. */
int32_t avoidance(int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
                  int32_t *failure, int32_t *queue)
{
    int64_t head = 0, tail = 0;
    for (int64_t s = 1; s < n; s++)
        failure[s] = -2; /* not reached yet */
    failure[0] = -1;
    queue[tail++] = 0;
    /* a row keeps its trie edges until its state is dequeued: only the
     * dequeued state's own row is written */
    while (head < tail) {
        int32_t p = queue[head++];
        int32_t *row = flat + (int64_t)p * sigma;
        if (end[p]) {
            for (int32_t c = 0; c < sigma; c++) {
                if (row[c] >= 0)
                    return -2;
                row[c] = p;
            }
            continue;
        }
        const int32_t *fail_row = flat + (int64_t)(p > 0 ? failure[p] : 0) * sigma;
        for (int32_t c = 0; c < sigma; c++) {
            int32_t child = row[c], link = p > 0 ? fail_row[c] : 0;
            if (child < 0) {
                row[c] = link;
                continue;
            }
            if (child >= n || failure[child] != -2)
                return -2;
            if (end[link])
                return -1;
            failure[child] = link;
            queue[tail++] = child;
        }
    }
    return 0;
}

/* Marks of walk()'s height table for a state not yet done. */
enum { UNSEEN = -1, ON_STACK = -2 };

/* Reads a word back from the avoidance automaton that avoidance() completed
 * in flat, n states, once its sinks are stripped (Crochemore, Mignosi and
 * Restivo, IPL 67, 1998): any cycle spells a power of a rotation of a
 * circular word, and an acyclic automaton's unique longest word is a linear
 * word.  end marks the sinks, the member ends avoidance() was given.  One
 * iterative depth-first search from the root, edges taken in rank order,
 * an edge into a sink read as a missing edge.  The first edge into a state
 * on the search stack closes a cycle and ends the search.  Otherwise each
 * state, once done, gets its height (the length of the longest word read
 * from it) and whether two such words tie; since every state but the sinks
 * is reachable from the root through trie edges, there is then no cycle at
 * all, and the root's longest word is read forward, each step to the first
 * successor one height lower.  scratch holds 4n entries: the search stack,
 * for each state on it one past the rank of the edge last taken out of it,
 * and per state its height and tie flag once done; the height is one of
 * the marks above until then, and a sink's stays UNSEEN.  Writes the ranks
 * of the word or cycle to scratch[0 ..) and returns the word's length, -1
 * when two longest words tie, and a cycle's length complemented (~length,
 * below -1). */
int64_t walk(const int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
             int32_t *scratch)
{
    int32_t *stack = scratch, *next_rank = stack + n, *height = next_rank + n;
    int32_t *tie = height + n;
    int64_t top = 0;
    for (int64_t s = 1; s < n; s++)
        height[s] = UNSEEN;
    stack[0] = 0;
    next_rank[0] = 0;
    height[0] = ON_STACK;
    while (top >= 0) {
        int32_t s = stack[top], c = next_rank[top];
        const int32_t *row = flat + (int64_t)s * sigma;
        if (c < sigma) {
            int32_t t = row[c];
            next_rank[top] = c + 1;
            if (height[t] == ON_STACK) {
                int64_t start = top;
                while (stack[start] != t)
                    start--;
                for (int64_t i = start; i <= top; i++)
                    scratch[i - start] = next_rank[i] - 1;
                return ~(top + 1 - start);
            }
            if (height[t] == UNSEEN && !end[t]) {
                height[t] = ON_STACK;
                stack[++top] = t;
                next_rank[top] = 0;
            }
            continue;
        }
        /* every successor of s is done or a sink */
        int32_t best = 0, tied = 0;
        for (c = 0; c < sigma; c++) {
            int32_t t = row[c];
            if (height[t] < 0)
                continue;
            if (height[t] + 1 > best) {
                best = height[t] + 1;
                tied = tie[t];
            } else if (height[t] + 1 == best) {
                tied = 1;
            }
        }
        height[s] = best;
        tie[s] = tied;
        top--;
    }
    if (tie[0])
        return -1;
    int32_t s = 0;
    for (int64_t i = 0; i < height[0]; i++) {
        const int32_t *row = flat + (int64_t)s * sigma;
        int32_t c = 0;
        while (height[row[c]] != height[s] - 1)
            c++;
        stack[i] = c;
        s = row[c];
    }
    return height[0];
}

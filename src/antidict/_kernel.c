/* Compiled kernels of antidict, loaded through ctypes by _kernel.py.
 *
 * Words arrive as rank codes: code[i] is the rank of the i-th symbol in the
 * alphabet order, 0 <= code[i] < sigma; a member list arrives as one buffer
 * of rank units (see trie_size()).  The caller checks sizes and dtypes and
 * allocates every table; nothing here allocates.
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
 * all come earlier).  Returns the number of states.  Exported as
 * suffix_automaton() below and inlined into factor_count(), where a call
 * to the exported function would go through the library's PLT (see
 * complete()). */
static inline int32_t build_suffix_automaton(const int32_t *code, int64_t n, int32_t sigma,
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

int32_t suffix_automaton(const int32_t *code, int64_t n, int32_t sigma,
                         int32_t *tables)
{
    return build_suffix_automaton(code, n, sigma, tables);
}

/* The number of distinct factors of the word, the empty one included:
 * builds its suffix automaton in tables, as suffix_automaton() does, and
 * returns 1 + sum over the states s but the root of len[s] - len[link[s]],
 * the words each state holds.  At most 1 + n(n+1)/2, which fits int64 for
 * every n an int32 table can number. */
int64_t factor_count(const int32_t *code, int64_t n, int32_t sigma, int32_t *tables)
{
    int32_t size = build_suffix_automaton(code, n, sigma, tables);
    int64_t cap = 2 * n + 2, count = 1;
    const int32_t *link = tables + cap * sigma, *len = link + cap;
    for (int32_t s = 1; s < size; s++)
        count += len[s] - len[link[s]];
    return count;
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

/* A member list reaches trie_size() and trie() as one buffer of rank
 * units: the members one after another, the rank sigma, the separator,
 * between neighbours, so that no per-member lengths are built for them.
 * A unit is one byte when every rank, sigma's included, fits in one
 * (sigma < 256), else four bytes, big-endian. */

/* The rank of unit i of a buffer of width-byte units. */
static inline int32_t unit_at(const uint8_t *units, int64_t width, int64_t i)
{
    if (width == 1)
        return units[i];
    const uint8_t *u = units + 4 * i;
    return (int32_t)((uint32_t)u[0] << 24 | (uint32_t)u[1] << 16 | (uint32_t)u[2] << 8 | u[3]);
}

/* The index of the first separator at or after unit i, else n.  One-byte
 * units are searched by memchr: the members of the rank-24 Fibonacci word
 * share no prefix with their shortlex predecessors, so this search is the
 * whole scan there. */
static inline int64_t next_separator(const uint8_t *units, int64_t width, int64_t i, int64_t n,
                                     int32_t sigma)
{
    if (width == 1) {
        const uint8_t *at = memchr(units + i, sigma, (size_t)(n - i));
        return at != NULL ? at - units : n;
    }
    while (i < n && unit_at(units, width, i) != sigma)
        i++;
    return i;
}

/* The length of the common prefix, at most limit units, of the words
 * starting at units a < b of a buffer of n units.  One-byte units are
 * compared eight at a time while eight are left before n, the first
 * difference found by its lowest set bit (the loads are little-endian;
 * a big-endian host compares one unit a step): neighbours in MfwSet order
 * often share most of their symbols, and one byte a step took 240 against
 * 120 us for the whole scan of trie_size() below. */
static inline int64_t common_prefix(const uint8_t *units, int64_t width, int64_t n, int64_t a,
                                    int64_t b, int64_t limit)
{
    int64_t common = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    if (width == 1) {
        for (; common < limit && b + common + 8 <= n; common += 8) {
            uint64_t x, y;
            memcpy(&x, units + a + common, 8);
            memcpy(&y, units + b + common, 8);
            if (x != y) {
                common += __builtin_ctzll(x ^ y) >> 3;
                break;
            }
        }
        if (common >= limit)
            return limit;
    }
#endif
    while (common < limit && unit_at(units, width, a + common) == unit_at(units, width, b + common))
        common++;
    return common;
}

/* The one scan of a member list: k members in a buffer of nbytes bytes of
 * rank units, every member read whatever the scan finds.  Writes k + 4
 * entries to bounds: each member's start (in units), the start a member
 * after the last would have (n + 1 for n units, 0 with no member), the
 * longest member's length, the first member out of MfwSet order (shortlex,
 * each member once, none empty) and the first that extends the one before
 * it, the last two k for none.  Returns 1 + the sum of |m_i| -
 * lcp(m_{i-1}, m_i): the size of the members' trie when they are sorted in
 * alphabet order, since each then shares with the trie built so far just
 * its common prefix with its predecessor, and every extension of a member
 * directly follows it.  Each member's end is found before it is compared
 * with its predecessor, so that neither waits on the other: searching only
 * past the common prefix took 180 against 120 us in MfwSet order and 180
 * against 110 us sorted, on the 12,394 members of a random binary text of
 * 2^14 symbols (best of 300, x86-64, -O2).  Returns -1 - k, bounds half
 * written, exactly when the buffer does not hold k members, as when one
 * holds the separator: k members joined hold k - 1 separators. */
int64_t trie_size(const uint8_t *units, int64_t nbytes, int64_t k, int32_t sigma, int64_t *bounds)
{
    int64_t width = sigma < 256 ? 1 : 4, n = nbytes / width;
    int64_t size = 1, start = 0, prev = 0, prev_len = 0, longest = 0;
    int64_t unordered = k, extension = k, i = 0;
    for (; i < k && start <= n; i++) {
        int64_t length = next_separator(units, width, start, n, sigma) - start;
        int64_t common = common_prefix(units, width, n, prev, start,
                                       prev_len < length ? prev_len : length);
        /* in MfwSet order: longer than the previous member (the empty word
         * before the first), or as long and greater where they differ */
        if (unordered == k &&
            (length < prev_len ||
             (length == prev_len &&
              (common == length ||
               unit_at(units, width, start + common) < unit_at(units, width, prev + common)))))
            unordered = i;
        if (extension == k && i > 0 && common == prev_len && length > common)
            extension = i;
        size += length - common;
        if (length > longest)
            longest = length;
        bounds[i] = start;
        prev = start;
        prev_len = length;
        start += length + 1;
    }
    /* k members read, the last ending at n, or none and no unit */
    if (i < k || (k > 0 ? start != n + 1 : n > 0))
        return -1 - k;
    bounds[k] = start;
    bounds[k + 1] = longest;
    bounds[k + 2] = unordered;
    bounds[k + 3] = extension;
    return size;
}

/* Inserts the k members of a buffer that trie_size() found sorted in
 * alphabet order and prefix-free into flat, a table of as many rows as it
 * counted, sigma entries a row: flat[s*sigma + c] is the child of state s
 * on rank c, or -1.  units and bounds are trie_size()'s, member i being
 * units bounds[i] .. bounds[i+1] - 2.  State 0 is the root and states are
 * numbered in insertion order.  flat arrives filled with -1 and only the
 * edges are written: writing each new row's -1s as well took half the
 * fill's time on the rank-24 Fibonacci members (0.26 against 0.13 ms a
 * call, best of 400, x86-64 Xeon).  finals, zeroed by the caller, receives
 * a 1 at the state each member ends at (one state for equal members): the
 * member ends, which avoidance() makes the sinks.
 *
 * In sorted order member i leaves the trie built so far exactly where its
 * common prefix with member i - 1 ends, on a rank no earlier member took
 * there, so it needs no walk from the root: path[d] holds the state at
 * depth d on the previous member's path, the new member resumes at
 * path[lcp] and appends its remaining units as a chain of new states.
 * path is scratch room for the longest member's length + 1 states,
 * bounds[k + 1] + 1.  On the 23 circular members of the rank-24 Fibonacci
 * word (167,758 symbols, 92,758 states) resuming took 0.18 ms against
 * 0.74 ms walking each member down from the root, one dependent load a
 * symbol (process time, best of 40, x86-64, -O2).  No separator is taken
 * for a rank: the common prefix and the chain stop at the ends trie_size()
 * wrote. */
void trie(const uint8_t *units, const int64_t *bounds, int64_t k, int32_t sigma,
          int32_t *flat, uint8_t *finals, int32_t *path)
{
    int64_t width = sigma < 256 ? 1 : 4;
    int32_t nodes = 1;
    path[0] = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t start = bounds[i], length = bounds[i + 1] - start - 1, depth = 0;
        if (i > 0) {
            int64_t prev = bounds[i - 1], prev_len = start - prev - 1;
            depth = common_prefix(units, width, bounds[k] - 1, prev, start,
                                  prev_len < length ? prev_len : length);
        }
        for (; depth < length; depth++) {
            flat[(int64_t)path[depth] * sigma + unit_at(units, width, start + depth)] = nodes;
            path[depth + 1] = nodes++;
        }
        finals[path[length]] = 1;
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
 * written on failure.  Exported as avoidance() below and inlined into
 * walk(): a call from walk() to the exported function would go through
 * the library's PLT, whose added entry moved every kernel in the library
 * by 16 bytes, and mf_automaton() ran 2-3% slower at its new alignment. */
static inline int32_t complete(int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
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

int32_t avoidance(int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
                  int32_t *failure, int32_t *queue)
{
    return complete(flat, n, sigma, end, failure, queue);
}

/* Marks of walk()'s height table for a state not yet done, and for a state
 * on the cycle the circular mode keeps. */
enum { UNSEEN = -1, ON_STACK = -2, ON_CYCLE = -3 };

/* What walk() returns when avoidance() fails with status s, -1 or -2:
 * AVOIDANCE_FAILED - s, below the complemented length of any cycle. */
#define AVOIDANCE_FAILED INT64_MIN

/* Completes the table of a trie of n states into its avoidance automaton
 * by avoidance(), then reads a word back from it once its sinks are
 * stripped (Crochemore, Mignosi and Restivo, IPL 67, 1998), and counts
 * what certifies the word.  One call does both, so a reconstruction
 * crosses into the kernel once; the failure links and queue avoidance()
 * needs are the first 2n entries of scratch, which the walk then reuses.
 * end marks the sinks, the trie's member ends.  One iterative depth-first
 * search from the root, edges taken in rank order, an edge into a sink
 * read as a missing edge; an edge into a state on the search stack closes
 * a cycle.  Every state but the sinks is reachable from the root through
 * trie edges, so the search sees every state of the stripped automaton.
 *
 * Linear mode (circular = 0): the first cycle closed ends the search, and
 * its length comes back complemented.  Otherwise there is no cycle at all
 * and each state, once done, gets its height (the length of the longest
 * word read from it), whether two such words tie and its path count, the
 * number of words read from it, 1 + the sum of its successors' counts,
 * saturating at INT64_MAX.  The root's count is then the number of words
 * avoiding the members, and its longest word is read forward, each step to
 * the first successor one height lower, into scratch[0 ..); the return is
 * its length, or -1 when two longest words tie.
 *
 * Circular mode (circular = 1): the first cycle closed is kept, its labels
 * written to the tie area, scratch[3n ..), and its states marked ON_CYCLE,
 * and the search runs on.  Each state off the cycle, once done, gets the
 * number of paths from it into the cycle, read up to their first cycle
 * state: an edge into a cycle state counts 1, an edge into a done state
 * its count, saturating at INT64_MAX.  The root's count is 1 when it lies
 * on the cycle, and is forced to 0 when a second cycle closes, when a
 * cycle state has an edge into a non-sink other than its cycle edge, or
 * when a state off the cycle has a count of 0; the search then stops as
 * soon as it has kept a cycle.  Unforced, the count is that of a stripped
 * automaton with one cycle, one edge out of each of its states, that every
 * other state leads into, so its language has the root's count of words of
 * every length from n on.  The return is the kept cycle's length complemented, or
 * 0 when the automaton is acyclic.
 *
 * scratch holds 6n int32 entries: the search stack, for each state on it
 * one past the rank of the edge last taken out of it, and per state its
 * height (one of the marks above until done, a sink's staying UNSEEN) and
 * tie flag, then from entry 4n on the path counts, one int64 a state over
 * two entries, so that the root's, written last, is the int64 at entry 4n.
 * A cycle's length, complemented, is below -1 and at least ~n;
 * AVOIDANCE_FAILED - s comes back when avoidance() fails with status s,
 * the table then left half written. */
static inline int64_t walk_mode(int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
                                int32_t *scratch, const int32_t circular)
{
    int32_t status = complete(flat, n, sigma, end, scratch, scratch + n);
    if (status < 0)
        return AVOIDANCE_FAILED - status;
    int32_t *stack = scratch, *next_rank = stack + n, *height = next_rank + n;
    int32_t *tie = height + n;
    int64_t *paths = (int64_t *)(tie + n), top = 0, cycle = 0;
    int32_t refused = 0;
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
                if (!circular)
                    return ~(top + 1 - start);
                if (cycle) {
                    refused = 1;
                    break;
                }
                cycle = top + 1 - start;
                for (int64_t i = start; i <= top; i++) {
                    const int32_t *out = flat + (int64_t)stack[i] * sigma;
                    int32_t edges = 0;
                    for (int32_t r = 0; r < sigma; r++)
                        edges += !end[out[r]];
                    refused |= edges > 1;
                    tie[i - start] = next_rank[i] - 1;
                    height[stack[i]] = ON_CYCLE;
                }
                if (refused)
                    break;
                /* the cycle's states have no other edge left to take */
                top = start - 1;
            } else if (height[t] == UNSEEN && !end[t]) {
                height[t] = ON_STACK;
                stack[++top] = t;
                next_rank[top] = 0;
            }
            continue;
        }
        /* every successor of s is done, on the cycle or a sink */
        if (circular) {
            int64_t into = 0;
            for (c = 0; c < sigma; c++) {
                int32_t t = row[c];
                int64_t add = height[t] == ON_CYCLE ? 1 : height[t] >= 0 ? paths[t] : 0;
                into = add > INT64_MAX - into ? INT64_MAX : into + add;
            }
            if (into == 0) {
                refused = 1;
                if (cycle)
                    break;
            }
            height[s] = 0;
            paths[s] = into;
            top--;
            continue;
        }
        int32_t best = 0, tied = 0;
        int64_t words = 1;
        for (c = 0; c < sigma; c++) {
            int32_t t = row[c];
            if (height[t] < 0)
                continue;
            words = paths[t] > INT64_MAX - words ? INT64_MAX : words + paths[t];
            if (height[t] + 1 > best) {
                best = height[t] + 1;
                tied = tie[t];
            } else if (height[t] + 1 == best) {
                tied = 1;
            }
        }
        height[s] = best;
        tie[s] = tied;
        paths[s] = words;
        top--;
    }
    if (circular) {
        if (!cycle)
            return 0;
        paths[0] = refused ? 0 : height[0] == ON_CYCLE ? 1 : paths[0];
        return ~cycle;
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

/* walk_mode() with the mode a constant, so that each mode is compiled on
 * its own: with one body testing the mode, the linear walk of the rank-24
 * Fibonacci word's antidictionary ran 3-4% slower than before the circular
 * mode was added (C harness, median of 300 calls, x86-64, gcc -O2 -fPIC). */
int64_t walk(int32_t *flat, int64_t n, int32_t sigma, const uint8_t *end,
             int32_t *scratch, int32_t circular)
{
    return circular ? walk_mode(flat, n, sigma, end, scratch, 1)
                    : walk_mode(flat, n, sigma, end, scratch, 0);
}

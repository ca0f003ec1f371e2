/* Compiled kernels of antidict, loaded through ctypes by _kernel.py.
 *
 * Both functions read a word as rank codes: code[i] is the rank of its i-th
 * symbol in the alphabet order, 0 <= code[i] < sigma.  The caller checks
 * sizes and dtypes; nothing here allocates.
 */

#include <stdint.h>

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

/* Start of the least rotation of a nonempty word of length n, by the
 * two-pointer scan: candidates i and j agree on k symbols; at the first
 * difference the larger one, and every start it skipped over, is out. */
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
    return i < j ? i : j;
}

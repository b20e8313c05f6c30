/* Native kernels for the three measured hot loops of the reproduction:
 *
 *  1. repro_delta_batch — the bucketed delta-stepping engine of
 *     CSRGraph._delta_batch over the flattened (source, vertex) space.
 *     One call runs the whole batch: the bucket queue, the apply/relax
 *     fixpoint per open bucket, the scatter-min into the flattened
 *     float64 tentative buffer, sealing, per-source ball-fill / bounded
 *     finish bookkeeping, and the per-source cap shrinking.  Python
 *     keeps setup (cap/start computation) and output assembly; the
 *     contract is the least float64 fixpoint with per-bucket settled
 *     sets identical to the numpy wave engine (see the membership
 *     argument in csr._delta_batch).
 *
 *  2. repro_scan_table — a validating scanner for the v1 NodeTable
 *     shard payload (magic "RT"): header, owner/degree/neighbour
 *     uvarints, little-endian doubles, and the tagged value tree
 *     flattened into a preorder (tag, aux) token stream the Python side
 *     assembles into the NodeTable.  Any structural anomaly (or an int
 *     outside int64) returns nonzero and the caller re-runs the pure
 *     Python decoder, which raises the canonical ShardCodecError — the
 *     scanner never guesses at malformed input.
 *
 *  3. repro_hop_column — MetricView's next-hop column toward one target
 *     v from v's distance row alone: per vertex u the tight neighbour x
 *     (|(w(u,x) + row[x]) - row[u]| <= tol) with the smallest
 *     (row[x], x).  Same arithmetic, in the same order, as the numpy
 *     reference CSRGraph._hop_column_numpy; the expression has no
 *     multiply, so no compiler can contract it into an FMA.
 *
 * Plain C99 + stdlib only: compiled on demand by repro.native with the
 * system compiler into a content-hash-named shared library and loaded
 * via ctypes with zero-copy pointers into the existing numpy arrays.
 *
 * Wire constants below mirror repro/routing/shard_codec.py and are
 * cross-checked against repro/analysis/layouts.py by CODEC001.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DS_INF ((double)INFINITY)

/* ------------------------------------------------------------------ */
/* shard codec layout (must match repro/routing/shard_codec.py)        */
/* ------------------------------------------------------------------ */
#define RT_MAGIC_0 0x52            /* 'R' */
#define RT_MAGIC_1 0x54            /* 'T' */
#define RT_CODEC_VERSION 1
#define RT_FLAG_UNIT_WEIGHTS 0x01

#define RT_T_NONE 0x00
#define RT_T_FALSE 0x01
#define RT_T_TRUE 0x02
#define RT_T_INT 0x03
#define RT_T_FLOAT 0x04
#define RT_T_STR 0x05
#define RT_T_TUPLE 0x06
#define RT_T_LIST 0x07
#define RT_T_DICT 0x08
/* pseudo-tag in the token stream for the untagged category/entry
 * counts of the record body (never appears in shard bytes) */
#define RT_T_COUNT 0xF1

/* scanner outcome: 0 = ok, anything else = re-run the pure decoder */
#define SCAN_OK 0
#define SCAN_FALLBACK 1

#define MAX_VALUE_DEPTH 200
/* string offsets/lengths share one int64 aux: offset | (length << 40) */
#define STR_OFFSET_BITS 40

/* ------------------------------------------------------------------ */
/* kernel 1: delta-stepping bucket relaxation                          */
/* ------------------------------------------------------------------ */

/* One flattened (source, vertex) slot of the engine's scratch: the
 * tentative distance, the value the vertex last expanded at, and a
 * generation stamp making both lazily resettable — stamp < 2*gen means
 * "untouched this batch" (dist reads as +inf), 2*gen means "written,
 * not yet expanded", 2*gen + 1 means "expanded at .exp".  One struct =
 * one cache line touch where three parallel arrays would take three.
 * The caller allocates this as a zeroed 3 * nb * n int64 numpy array
 * (gen starts at 1, so zeros are never valid) and only ever hands the
 * pointer back — Python never reads it. */
typedef struct {
    double dist;
    double exp;
    int64_t stamp;
} vtx_t;

/* Candidate queue chunk: flattened target, source row (carried so the
 * hot loop never divides by n), tentative distance. */
typedef struct {
    int32_t *t;
    int32_t *s;
    double *d;
    int64_t len;
    int64_t cap;
} tsd_buf;

static int tsd_push(tsd_buf *b, int32_t t, int32_t s, double d)
{
    if (b->len == b->cap) {
        int64_t cap = b->cap ? b->cap * 2 : 256;
        int32_t *nt = (int32_t *)realloc(b->t, (size_t)cap * sizeof(int32_t));
        if (nt == NULL)
            return -1;
        b->t = nt;
        int32_t *ns = (int32_t *)realloc(b->s, (size_t)cap * sizeof(int32_t));
        if (ns == NULL)
            return -1;
        b->s = ns;
        double *nd = (double *)realloc(b->d, (size_t)cap * sizeof(double));
        if (nd == NULL)
            return -1;
        b->d = nd;
        b->cap = cap;
    }
    b->t[b->len] = t;
    b->s[b->len] = s;
    b->d[b->len] = d;
    b->len++;
    return 0;
}

/* Settled output: flattened id + final distance, chunked per bucket. */
typedef struct {
    int32_t *t;
    double *d;
    int64_t len;
    int64_t cap;
} out_buf;

static int out_push(out_buf *b, int32_t t)
{
    if (b->len == b->cap) {
        int64_t cap = b->cap ? b->cap * 2 : 256;
        int32_t *nt = (int32_t *)realloc(b->t, (size_t)cap * sizeof(int32_t));
        if (nt == NULL)
            return -1;
        b->t = nt;
        double *nd = (double *)realloc(b->d, (size_t)cap * sizeof(double));
        if (nd == NULL)
            return -1;
        b->d = nd;
        b->cap = cap;
    }
    b->t[b->len++] = t;
    return 0;
}

/* Seal-sort element: (final distance, flattened id), the engine's
 * canonical per-chunk order — identical to the numpy engine's
 * _argsort_with_id_ties over np.unique'd chunks. */
typedef struct {
    double d;
    int32_t t;
} pair_dt;

static inline int dt_less(pair_dt a, pair_dt b)
{
    if (a.d != b.d)
        return a.d < b.d;
    return a.t < b.t;
}

/* Ascending (d, id) sort of a seal chunk.  Keys are distinct (ids are
 * unique within a chunk), so every comparison sort produces the same —
 * the numpy engine's exact — order; this quicksort + insertion-sort
 * hybrid exists because libc qsort's indirect comparator call per
 * compare dominates the seal phase at large ell. */
static void sort_dt(pair_dt *a, int64_t lo, int64_t hi)
{
    pair_dt tmp;
    int64_t i, j;
    while (hi - lo > 16) {
        int64_t mid = lo + ((hi - lo) >> 1);
        /* median-of-three pivot: a[lo] <= a[mid] <= a[hi-1] afterwards,
         * so the Hoare scans below cannot run off either end. */
        if (dt_less(a[mid], a[lo])) {
            tmp = a[lo]; a[lo] = a[mid]; a[mid] = tmp;
        }
        if (dt_less(a[hi - 1], a[mid])) {
            tmp = a[mid]; a[mid] = a[hi - 1]; a[hi - 1] = tmp;
            if (dt_less(a[mid], a[lo])) {
                tmp = a[lo]; a[lo] = a[mid]; a[mid] = tmp;
            }
        }
        pair_dt pivot = a[mid];
        i = lo;
        j = hi - 1;
        for (;;) {
            while (dt_less(a[i], pivot))
                i++;
            while (dt_less(pivot, a[j]))
                j--;
            if (i >= j)
                break;
            tmp = a[i]; a[i] = a[j]; a[j] = tmp;
            i++;
            j--;
        }
        /* Recurse into the smaller half, loop on the larger: stack
         * depth stays O(log chunk). */
        if (j + 1 - lo < hi - (j + 1)) {
            sort_dt(a, lo, j + 1);
            lo = j + 1;
        } else {
            sort_dt(a, j + 1, hi);
            hi = j + 1;
        }
    }
    for (i = lo + 1; i < hi; i++) {
        pair_dt key = a[i];
        for (j = i - 1; j >= lo && dt_less(key, a[j]); j--)
            a[j + 1] = a[j];
        a[j + 1] = key;
    }
}

void repro_release(void *p)
{
    free(p);
}

/* Run one whole delta-stepping batch to completion.
 *
 * Inputs mirror the numpy engine exactly: int32 CSR mirrors, nb
 * flattened start ids, the per-source cap array (mutated in place,
 * like the numpy engine), bounded mode's per-vertex thresholds `thr`
 * (NULL in ball mode, where ell >= 0; a relaxation into v with
 * nd >= thr[v] is dropped), and the caller-owned zeroed vtx scratch of
 * nb*n entries (gen starts at 1, so a zero stamp is never current).
 *
 * The bucket queue is a ring of `ring` slots of (t, s, d) candidate
 * chunks: a candidate generated in bucket b has nd < (b+1)*delta +
 * wmax, so its key lands within wmax/delta (+ rounding slop) buckets
 * ahead — the caller sizes the ring from the max edge weight.  Keys
 * replicate the numpy engine's corrective-compare computation bit for
 * bit (trunc(nd/delta) pinned to k*delta <= nd); a key at or below the
 * open bucket — possible only through float rounding — requeues one
 * bucket ahead, exactly like the numpy engine's clip + spill-forward
 * path.  Candidates carry their source row so the hot loop never
 * divides by n.
 *
 * Per open bucket: apply + relax to the fixpoint (a candidate is live
 * iff d is still its target's best tentative value and inside its
 * source cap; the stamped per-vertex expansion record replaces the
 * numpy wave dedupe — re-expansion happens exactly when a strictly
 * better in-bucket value arrives), then seal: the chunk of
 * first-settled ids gets its final distances read out of vtx and, in
 * ball mode, is sorted by (dist, id) — the numpy engine's exact
 * per-chunk assembly order (np.unique + stable distance sort).
 * Bounded chunks stay in settle order; the caller's global id argsort
 * matches numpy's sorted-chunk concat because flattened ids are
 * distinct.  Then ball mode's (ell >= 0) per-source fill/finish
 * bookkeeping: a source is filled at >= ell settled, its cap shrinks to
 * fill_t + tol, and a finished source is killed via cap = -inf.  A
 * bounded source (ell < 0) runs until its queue is dry.
 *
 * Outputs (malloc'd; caller copies and frees via repro_release):
 *   settled    — per-bucket settled flattened ids, concatenated
 *   settled_d  — matching final distances
 *
 * Returns 0 on success, -1 on allocation failure, -2 on a ring
 * overflow (cannot happen for a correctly sized ring); on failure the
 * outputs are unset and the vtx scratch is garbage for this gen — the
 * caller must raise, not fall back.
 */
int repro_delta_batch(
    const int32_t *indptr,
    const int32_t *indices,
    const double *weights,
    int64_t n,
    int64_t nb,
    const int32_t *start,
    void *vtx_mem,
    double *cap,
    const double *thr,
    double delta,
    int64_t ring,
    int64_t ell,
    double tol,
    int64_t gen,
    int32_t **settled_out,
    double **settled_d_out,
    int64_t *settled_n)
{
    int rc = -1;
    double inv_delta = 1.0 / delta;
    vtx_t *vtx = (vtx_t *)vtx_mem;
    int64_t gen2 = 2 * gen;
    tsd_buf *buckets = NULL;
    tsd_buf work = {NULL, NULL, NULL, 0, 0};
    out_buf settled = {NULL, NULL, 0, 0};
    pair_dt *pairs = NULL;
    int64_t pairs_cap = 0;
    int64_t *counts = NULL;
    double *fill_t = NULL;
    uint8_t *done = NULL;
    int64_t i, s;

    *settled_out = NULL;
    *settled_d_out = NULL;
    *settled_n = 0;

    buckets = (tsd_buf *)calloc((size_t)ring, sizeof(tsd_buf));
    counts = (int64_t *)calloc((size_t)nb, sizeof(int64_t));
    fill_t = (double *)malloc((size_t)nb * sizeof(double));
    done = (uint8_t *)calloc((size_t)nb, 1);
    if (buckets == NULL || counts == NULL || fill_t == NULL || done == NULL)
        goto out;
    for (s = 0; s < nb; s++)
        fill_t[s] = DS_INF;
    for (i = 0; i < nb; i++) {
        int32_t t = start[i];
        vtx[t].dist = 0.0;
        vtx[t].stamp = gen2;
        if (tsd_push(&buckets[0], t, (int32_t)i, 0.0) != 0)
            goto out;
    }

    int64_t open_total = nb;
    int64_t b = 0;
    while (open_total > 0) {
        tsd_buf *open = &buckets[b % ring];
        if (open->len == 0) {
            b++;
            continue;
        }
        double t_high = (double)(b + 1) * delta;
        int64_t chunk_start = settled.len;
        int64_t next = 0;
        work.len = 0;
        for (;;) {
            int32_t t, src;
            double d;
            if (work.len > 0) {
                work.len--;
                t = work.t[work.len];
                src = work.s[work.len];
                d = work.d[work.len];
            } else if (next < open->len) {
                t = open->t[next];
                src = open->s[next];
                d = open->d[next];
                next++;
            } else {
                break;
            }
            vtx_t *vt = &vtx[t];
            /* A queued candidate's own scatter stamped its slot, so
             * stamp >= gen2 always holds here; keep the inf fallback
             * anyway so a stale stamp reads as "no better value". */
            if (vt->stamp >= gen2 && d > vt->dist)
                continue;
            double cap_s = cap[src];
            if (d >= cap_s)
                continue;
            if (vt->stamp == gen2 + 1) {
                if (vt->exp <= d)
                    continue;
            } else {
                vt->stamp = gen2 + 1;
                if (out_push(&settled, t) != 0)
                    goto out;
            }
            vt->exp = d;
            int32_t base = (int32_t)(src * (int32_t)n);
            int32_t v = t - base;
            int32_t e_hi = indptr[v + 1];
            for (int32_t e = indptr[v]; e < e_hi; e++) {
                double nd = d + weights[e];
                if (nd >= cap_s)
                    continue;
                if (thr != NULL && nd >= thr[indices[e]])
                    continue;
                int32_t tgt = base + indices[e];
                vtx_t *vg = &vtx[tgt];
                double cur = (vg->stamp >= gen2) ? vg->dist : DS_INF;
                if (nd < cur) {
                    vg->dist = nd;
                    if (vg->stamp < gen2)
                        vg->stamp = gen2;
                    if (nd < t_high) {
                        if (tsd_push(&work, tgt, src, nd) != 0)
                            goto out;
                    } else {
                        int64_t k = (int64_t)(nd * inv_delta);
                        if (nd < (double)k * delta)
                            k--;
                        if (k <= b)
                            k = b + 1;
                        if (k - b >= ring) {
                            rc = -2;
                            goto out;
                        }
                        if (tsd_push(&buckets[k % ring], tgt, src, nd) != 0)
                            goto out;
                        open_total++;
                    }
                }
            }
        }
        open_total -= open->len;
        open->len = 0;
        int64_t chunk_len = settled.len - chunk_start;
        if (chunk_len > 0) {
            if (chunk_len > pairs_cap) {
                int64_t want = pairs_cap ? pairs_cap : 1024;
                while (want < chunk_len)
                    want *= 2;
                pair_dt *grown =
                    (pair_dt *)realloc(pairs, (size_t)want * sizeof(pair_dt));
                if (grown == NULL)
                    goto out;
                pairs = grown;
                pairs_cap = want;
            }
            for (i = chunk_start; i < settled.len; i++) {
                int32_t t = settled.t[i];
                pairs[i - chunk_start].d = vtx[t].dist;
                pairs[i - chunk_start].t = t;
                counts[(int64_t)t / n]++;
            }
            if (ell >= 0)
                sort_dt(pairs, 0, chunk_len);
            for (i = 0; i < chunk_len; i++) {
                settled.t[chunk_start + i] = pairs[i].t;
                settled.d[chunk_start + i] = pairs[i].d;
            }
        }
        if (ell >= 0) {
            for (s = 0; s < nb; s++) {
                if (done[s])
                    continue;
                if (fill_t[s] == DS_INF && counts[s] >= ell) {
                    fill_t[s] = t_high;
                    double shrunk = t_high + tol;
                    if (shrunk < cap[s])
                        cap[s] = shrunk;
                }
                if (t_high >= fill_t[s] + tol) {
                    done[s] = 1;
                    cap[s] = -DS_INF;
                }
            }
        }
        b++;
    }

    *settled_out = settled.t;
    *settled_d_out = settled.d;
    *settled_n = settled.len;
    settled.t = NULL;
    settled.d = NULL;
    rc = 0;

out:
    if (buckets != NULL) {
        for (i = 0; i < ring; i++) {
            free(buckets[i].t);
            free(buckets[i].s);
            free(buckets[i].d);
        }
        free(buckets);
    }
    free(work.t);
    free(work.s);
    free(work.d);
    free(settled.t);
    free(settled.d);
    free(pairs);
    free(counts);
    free(fill_t);
    free(done);
    return rc;
}

/* ------------------------------------------------------------------ */
/* kernel 2: NodeTable shard payload scan                              */
/* ------------------------------------------------------------------ */

typedef struct {
    const uint8_t *data;
    int64_t len;
    int64_t pos;
    uint8_t *tags;
    int64_t *aux;
    int64_t ntok;
} scan_ctx;

/* 7-bit-continuation uvarint; mirrors _read_uvarint (shift limit 70,
 * i.e. <= 11 bytes / 77 payload bits). */
static int read_uvarint(scan_ctx *c, unsigned __int128 *out)
{
    unsigned __int128 result = 0;
    int shift = 0;
    for (;;) {
        if (c->pos >= c->len)
            return SCAN_FALLBACK; /* truncated varint */
        uint8_t byte = c->data[c->pos++];
        result |= (unsigned __int128)(byte & 0x7F) << shift;
        if (!(byte & 0x80)) {
            *out = result;
            return SCAN_OK;
        }
        shift += 7;
        if (shift > 70)
            return SCAN_FALLBACK; /* varint too long */
    }
}

/* uvarint that must fit a non-negative int64 (ids, counts, lengths) */
static int read_uvarint64(scan_ctx *c, int64_t *out)
{
    unsigned __int128 raw;
    if (read_uvarint(c, &raw) != SCAN_OK)
        return SCAN_FALLBACK;
    if (raw > (unsigned __int128)INT64_MAX)
        return SCAN_FALLBACK; /* beyond int64: pure decoder handles it */
    *out = (int64_t)raw;
    return SCAN_OK;
}

static int emit(scan_ctx *c, uint8_t tag, int64_t aux)
{
    /* every token consumes >= 1 payload byte, so ntok < len always
     * holds for well-formed input; the guard keeps a scanner bug from
     * ever writing past the caller's len-sized buffers */
    if (c->ntok >= c->len)
        return SCAN_FALLBACK;
    c->tags[c->ntok] = tag;
    c->aux[c->ntok] = aux;
    c->ntok++;
    return SCAN_OK;
}

/* One tagged value, preorder, recursively (depth-capped). */
static int scan_value(scan_ctx *c, int depth)
{
    if (depth > MAX_VALUE_DEPTH)
        return SCAN_FALLBACK;
    if (c->pos >= c->len)
        return SCAN_FALLBACK; /* truncated value */
    uint8_t tag = c->data[c->pos++];
    switch (tag) {
    case RT_T_NONE:
    case RT_T_TRUE:
    case RT_T_FALSE:
        return emit(c, tag, 0);
    case RT_T_INT: {
        unsigned __int128 raw;
        if (read_uvarint(c, &raw) != SCAN_OK)
            return SCAN_FALLBACK;
        /* zigzag: even -> raw >> 1, odd -> -((raw + 1) >> 1) */
        if (!(raw & 1)) {
            if ((raw >> 1) > (unsigned __int128)INT64_MAX)
                return SCAN_FALLBACK;
            return emit(c, tag, (int64_t)(raw >> 1));
        }
        unsigned __int128 mag = (raw + 1) >> 1;
        if (mag > (unsigned __int128)INT64_MAX + 1)
            return SCAN_FALLBACK;
        return emit(c, tag, (int64_t)(0 - (uint64_t)mag));
    }
    case RT_T_FLOAT: {
        if (c->pos + 8 > c->len)
            return SCAN_FALLBACK; /* truncated float */
        int64_t bits;
        memcpy(&bits, c->data + c->pos, 8);
        c->pos += 8;
        return emit(c, tag, bits);
    }
    case RT_T_STR: {
        int64_t length;
        if (read_uvarint64(c, &length) != SCAN_OK)
            return SCAN_FALLBACK;
        if (length > c->len - c->pos)
            return SCAN_FALLBACK; /* truncated string */
        if (length >= ((int64_t)1 << (63 - STR_OFFSET_BITS)))
            return SCAN_FALLBACK;
        int64_t aux = c->pos | (length << STR_OFFSET_BITS);
        c->pos += length;
        return emit(c, tag, aux);
    }
    case RT_T_TUPLE:
    case RT_T_LIST: {
        int64_t count;
        if (read_uvarint64(c, &count) != SCAN_OK)
            return SCAN_FALLBACK;
        if (emit(c, tag, count) != SCAN_OK)
            return SCAN_FALLBACK;
        for (int64_t i = 0; i < count; i++)
            if (scan_value(c, depth + 1) != SCAN_OK)
                return SCAN_FALLBACK;
        return SCAN_OK;
    }
    case RT_T_DICT: {
        int64_t count;
        if (read_uvarint64(c, &count) != SCAN_OK)
            return SCAN_FALLBACK;
        if (emit(c, tag, count) != SCAN_OK)
            return SCAN_FALLBACK;
        for (int64_t i = 0; i < count; i++) {
            if (scan_value(c, depth + 1) != SCAN_OK)
                return SCAN_FALLBACK;
            if (scan_value(c, depth + 1) != SCAN_OK)
                return SCAN_FALLBACK;
        }
        return SCAN_OK;
    }
    default:
        return SCAN_FALLBACK; /* unknown value tag */
    }
}

/* Scan one v1 shard payload.
 *
 * On success: meta = {owner, degree, unit_flag, ntok}; ids[0..degree)
 * hold the neighbour ids, wts[0..degree) the weights (untouched when
 * unit_flag is set), and tags/aux[0..ntok) the preorder token stream of
 * label + COUNT(cat_count) + per category (str value, COUNT(entries),
 * entries * (key, value)).  All caller buffers must hold >= len
 * entries.  Nonzero means "re-run the pure Python decoder".
 */
int repro_scan_table(
    const uint8_t *data,
    int64_t len,
    int64_t *ids,
    double *wts,
    uint8_t *tags,
    int64_t *aux,
    int64_t *meta)
{
    if (len < 4 || len >= ((int64_t)1 << STR_OFFSET_BITS))
        return SCAN_FALLBACK;
    if (data[0] != RT_MAGIC_0 || data[1] != RT_MAGIC_1)
        return SCAN_FALLBACK; /* bad magic */
    if (data[2] != RT_CODEC_VERSION)
        return SCAN_FALLBACK; /* foreign version */
    int unit = data[3] & RT_FLAG_UNIT_WEIGHTS;

    scan_ctx c = {data, len, 4, tags, aux, 0};
    int64_t owner, degree;
    if (read_uvarint64(&c, &owner) != SCAN_OK)
        return SCAN_FALLBACK;
    if (read_uvarint64(&c, &degree) != SCAN_OK)
        return SCAN_FALLBACK;
    if (degree > len)
        return SCAN_FALLBACK; /* cannot fit: must be truncated */
    for (int64_t i = 0; i < degree; i++)
        if (read_uvarint64(&c, &ids[i]) != SCAN_OK)
            return SCAN_FALLBACK;
    if (!unit) {
        if (8 * degree > c.len - c.pos)
            return SCAN_FALLBACK; /* truncated weights */
        memcpy(wts, c.data + c.pos, (size_t)(8 * degree));
        c.pos += 8 * degree;
    }
    if (scan_value(&c, 0) != SCAN_OK) /* label */
        return SCAN_FALLBACK;
    int64_t cat_count;
    if (read_uvarint64(&c, &cat_count) != SCAN_OK)
        return SCAN_FALLBACK;
    if (emit(&c, RT_T_COUNT, cat_count) != SCAN_OK)
        return SCAN_FALLBACK;
    for (int64_t i = 0; i < cat_count; i++) {
        int64_t cat_tok = c.ntok;
        if (scan_value(&c, 0) != SCAN_OK)
            return SCAN_FALLBACK;
        if (c.tags[cat_tok] != RT_T_STR)
            return SCAN_FALLBACK; /* category name is not a string */
        int64_t entry_count;
        if (read_uvarint64(&c, &entry_count) != SCAN_OK)
            return SCAN_FALLBACK;
        if (emit(&c, RT_T_COUNT, entry_count) != SCAN_OK)
            return SCAN_FALLBACK;
        for (int64_t j = 0; j < entry_count; j++) {
            if (scan_value(&c, 0) != SCAN_OK)
                return SCAN_FALLBACK;
            if (scan_value(&c, 0) != SCAN_OK)
                return SCAN_FALLBACK;
        }
    }
    if (c.pos != len)
        return SCAN_FALLBACK; /* trailing bytes */
    meta[0] = owner;
    meta[1] = degree;
    meta[2] = unit ? 1 : 0;
    meta[3] = c.ntok;
    return SCAN_OK;
}

/* ------------------------------------------------------------------ */
/* kernel 3: next-hop column toward one target                         */
/* ------------------------------------------------------------------ */

/* out[u] = the first hop from u toward v, for every vertex u, read off
 * v's distance row: among u's neighbours x on a tight edge the one with
 * the smallest (row[x], x).  out[v] = v, -1 marks a u that cannot reach
 * v and -2 a reachable u with no tight edge (an inconsistent metric).
 * One pass over the CSR arrays; never fails. */
void repro_hop_column(
    const int32_t *indptr, const int32_t *indices, const double *weights,
    int64_t n, const double *row, int64_t v, double tol, int32_t *out)
{
    for (int64_t u = 0; u < n; u++) {
        double du = row[u];
        if (!isfinite(du)) {
            out[u] = -1;
            continue;
        }
        int32_t best = -2;
        double best_d = DS_INF;
        for (int32_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int32_t x = indices[e];
            double dx = row[x];
            if (!(fabs((weights[e] + dx) - du) <= tol))
                continue;
            if (best < 0 || dx < best_d || (dx == best_d && x < best)) {
                best = x;
                best_d = dx;
            }
        }
        out[u] = best;
    }
    out[v] = (int32_t)v;
}

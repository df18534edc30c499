/* wolfkernel.c — the native analysis kernel behind repro.core.nativekernel.
 *
 * One compiled pass fuses, per EVENTS chunk payload of a .wtrc trace:
 *
 *   varint/zigzag decode  ->  interned-table bounds checks  ->  tau
 *   maintenance (Algorithm 1's scalar timestamps)  ->  D_sigma lockdep
 *   entry extraction  ->  clock-op log
 *
 * so the Python hot loop (one TraceEvent object + one update_clocks call
 * + one entry_from_acquire call per event) disappears.  The kernel never
 * sees whole files: Python keeps all chunk framing, table-chunk decoding
 * and error reporting, and hands this kernel only raw EVENTS payload
 * bytes (zero-copy straight out of an mmap'd file).  The kernel's output
 * is three flat int64 logs — clock ops, lockdep entries and their
 * held-lock pool — which Python reads as integers: the cycle search
 * runs on them directly, the Generator's Gs decisions too
 * (wk_decide_gs), the clock ops are replayed only to answer the
 * Pruner's V, and only cycle members (or a consumer that needs the
 * whole relation) become the exact objects the pure-Python engine would
 * have built.
 *
 * Identity is by value, not by table row: Python hands over canonical
 * row maps (each thread or lock row -> the first row equal to it) with
 * the table sizes, and tau, entry positions and child stamps are keyed
 * by canonical thread row, as the pure engine keys them by ThreadId.
 * Logs keep raw rows, so Python resolves each to the very object the
 * pure decoder would have produced.
 *
 * The cycle search sees only the entries that can be members of a tuple
 * cycle (wk_find_cycle_rows): those whose wanted lock and some held lock
 * lie in one strongly connected component of two or more locks of the
 * canonical held -> wanted lock graph.  Member i of a cycle holds the
 * lock l(i-1) and wants l(i); locksets are pairwise disjoint, so the
 * l(i) are distinct and l(0) -> ... -> l(0) is a cycle of that graph.
 * An entry failing the test is in no tuple cycle, so dropping it changes
 * neither the cycles found, nor their order, nor the truncation flag.
 *
 * A context can also collect the trace as per-thread columns
 * (wk_collect_columns): the prediction index's re-read of a trace uses
 * them instead of decoding event objects.  Threads and locks get dense
 * column ids in the order the trace first mentions each canonical
 * identity, and each keeps the raw row of that first mention; each
 * event gets its step, closure kind, aux (lock or join target id) and
 * witness token key, and wk_columns_finish groups the events by thread,
 * matches each acquisition with its release and lists per thread the
 * positions a closure rule can fire on (joins, condition-variable events
 * and acquisitions, grouped by lock).  The columns give
 * ClosureIndex exactly the tables its object path builds from the same
 * trace (tests/test_kernel_reread.py).  Analysis contexts leave them
 * off, so their memory stays proportional to the acquisitions.
 *
 * Determinism contract (enforced by the python-vs-native differential
 * suite in tests/test_nativekernel.py and the grammar parity suite in
 * tests/test_grammar_parity.py): the kernel fails on exactly the
 * payloads the pure-Python decoder fails on.
 *
 *   - wk_feed_events validates the whole payload against the current
 *     table sizes before mutating anything, so on a failure the caller
 *     re-decodes the payload in Python, from the same state, and
 *     surfaces the authentic exception;
 *   - the widths checked here (WK_EOVERFLOW) are the pure decoder's
 *     EVENTS rule too: a varint is at most ten bytes and below 2^64,
 *     the running step stays within int64, and an acquisition's
 *     occurrence and its held indices' are at most INT64_MAX.
 *
 * Plain C99, no Python.h: built as a standalone shared object by
 * repro.core.nativekernel (cc -O2 -shared -fPIC) and driven through the
 * cffi ABI, so no Python development headers are required.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WK_KERNEL_VERSION "1.4.1"
#define WK_ABI 6

/* Error codes (negative).  The Python wrapper maps any failure to a
 * pure-Python re-decode of the same payload, which raises the error a
 * caller sees, so the exact code never reaches one. */
#define WK_OK 0
#define WK_ETRUNC (-1)    /* read past payload end (Python: IndexError)   */
#define WK_EINDEX (-2)    /* interned-table index out of range            */
#define WK_ETAG (-3)      /* unknown event tag (Python: ValueError)       */
#define WK_EOVERFLOW (-4) /* wider than the EVENTS rule (OverflowError)  */
#define WK_ENOMEM (-5)    /* allocation failure                           */

/* Event tags — must match repro.runtime.tracefile._TAGS. */
enum {
    TAG_BEGIN = 0,
    TAG_END = 1,
    TAG_SPAWN = 2,
    TAG_JOIN = 3,
    TAG_ACQUIRE = 4,
    TAG_RELEASE = 5,
    TAG_WAIT = 6,
    TAG_NOTIFY = 7,
    TAG_BLOCK = 8,
};

/* Closure kinds of a column event — must match repro.core.prediction. */
enum {
    KIND_OTHER = 0,
    KIND_ACQ = 1,
    KIND_JOIN = 2,
    KIND_CONDVAR = 3,
    KIND_BLOCK = 4,
    KIND_REL = 5,
};

/* Column layouts (ints per item) — must match repro.core.prediction.
 *   thread: first-mention row, spawn parent id, spawn position, ended,
 *           event count (spawn fields -1 without a spawn);
 *   lock:   first-mention row;
 *   event:  step, kind, aux, release position, token key (grouped by
 *           thread, trace order within one); aux is the lock id of a
 *           non-reentrant acquire or release, the target id of a join,
 *           else -1; the release position is that of a non-reentrant
 *           acquire's matching release, else -1;
 *   acquisition: step, thread id, position, index thread id, index
 *           site row, index occurrence (non-reentrant, trace order).
 * A thread is mentioned by its events, as a spawned child or join target
 * and as the thread of a non-reentrant acquire's execution index.
 * A token key is arg << 5 | tag, plus 16 when reentrant; arg is the
 * site's string row, or the spawned child's or join target's row. */
#define WK_THREAD_WIDTH 5
#define WK_EVENT_WIDTH 5
#define WK_ACQ_WIDTH 6
#define WK_TOKEN_REENTRANT 16
#define WK_TOKEN_SHIFT 5

/* Rule spots (wk_columns_finish): per thread in column id order, the
 * positions a closure rule can fire on, in groups ascending within
 * themselves: first all of them (joins, condition-variable events and
 * non-reentrant acquisitions), then the joins and condition-variable
 * events, then the acquisitions of each lock.  Runs cut them into
 * (lock id, or SPOTS_ALL / SPOTS_RULES for the two leading groups every
 * thread has, end offset in the spots). */
#define WK_RUN_WIDTH 2
#define SPOTS_ALL (-2)
#define SPOTS_RULES (-1)

/* Column numbers for wk_column / wk_column_len. */
enum {
    COL_THREADS = 0,
    COL_LOCKS = 1,
    COL_EVENTS = 2,
    COL_ACQS = 3,
    COL_SPOTS = 4,
    COL_RUNS = 5,
};

/* Clock-op log opcodes (replayed through the real update_clocks). */
enum {
    OP_TOUCH = 0, /* a = thread                  */
    OP_SPAWN = 1, /* a = parent, b = child       */
    OP_JOIN = 2,  /* a = joiner, b = target      */
};

/* ------------------------------------------------------------------ */
/* growable int64 vector                                              */

typedef struct {
    int64_t *data;
    uint64_t len;
    uint64_t cap;
} i64vec;

static int vec_reserve(i64vec *v, uint64_t extra) {
    uint64_t need = v->len + extra;
    uint64_t cap;
    int64_t *p;
    if (need <= v->cap)
        return WK_OK;
    cap = v->cap ? v->cap : 64;
    while (cap < need)
        cap *= 2;
    p = (int64_t *)realloc(v->data, cap * sizeof(int64_t));
    if (!p)
        return WK_ENOMEM;
    v->data = p;
    v->cap = cap;
    return WK_OK;
}

/* push without a capacity check — caller must have reserved. */
static void vec_push(i64vec *v, int64_t x) { v->data[v->len++] = x; }

static void vec_free(i64vec *v) {
    free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

/* ------------------------------------------------------------------ */
/* kernel context                                                     */

typedef struct wk_ctx {
    /* interned-table sizes, synced from Python after each table chunk */
    uint64_t n_strings;
    uint64_t n_threads;
    uint64_t n_locks;

    /* per-thread running state, indexed by canonical thread row */
    int64_t *canon;  /* thread row -> first row with an equal ThreadId */
    int64_t *tau;    /* 0 encodes the paper's ⊥ (never ran)          */
    int64_t *pos;    /* non-reentrant acquire count (entry position) */
    int64_t *tid_of; /* column thread id, -1 until first mentioned   */
    uint64_t threads_cap;
    int64_t *lcanon; /* lock row -> first row with an equal LockId   */
    int64_t *lid_of; /* canonical lock row -> column lock id, or -1  */
    uint64_t locks_cap;

    int64_t last_step;    /* step-delta accumulator across chunks */
    uint64_t events_read; /* total events decoded                 */

    i64vec clock_ops; /* triples: op, a, b                             */
    i64vec entries;   /* 10 per non-reentrant acquire: step, thread,   *
                       * lock, ix_thread, ix_site, ix_occ, tau, pos,   *
                       * nheld, held_off                               */
    i64vec held;      /* quads: lock, h_thread, h_site, h_occ          */
    i64vec cycle_rows; /* entry indices that can close a cycle         *
                        * (wk_find_cycle_rows)                         */

    /* column re-read (wk_collect_columns); empty in analysis contexts */
    int columns;
    i64vec col_threads; /* WK_THREAD_WIDTH per column thread id         */
    i64vec col_locks;   /* first-mention row per column lock id         */
    i64vec col_trace;   /* per event in trace order: thread id, step,   *
                         * kind, aux, token key                         */
    i64vec col_events;  /* WK_EVENT_WIDTH per event, grouped by thread  */
    i64vec col_acqs;    /* WK_ACQ_WIDTH per non-reentrant acquire       */
    i64vec col_spots;   /* rule spots, per thread (wk_columns_finish)   */
    i64vec col_runs;    /* WK_RUN_WIDTH per run of the spots            */
} wk_ctx;

/* ------------------------------------------------------------------ */
/* varint decode (LEB128 + zigzag), bounds- and overflow-checked      */

static int get_uvarint(const uint8_t *p, uint64_t len, uint64_t *pos,
                       uint64_t *out) {
    uint64_t result = 0;
    unsigned shift = 0;
    for (;;) {
        uint8_t b;
        if (*pos >= len)
            return WK_ETRUNC;
        b = p[(*pos)++];
        /* Ten bytes at most, and below 2^64: the EVENTS varint rule the
         * pure decoder applies too. */
        if (shift >= 64 || (shift == 63 && (b & 0x7Fu) > 1))
            return WK_EOVERFLOW;
        result |= (uint64_t)(b & 0x7Fu) << shift;
        if (!(b & 0x80u)) {
            *out = result;
            return WK_OK;
        }
        shift += 7;
    }
}

static int get_svarint(const uint8_t *p, uint64_t len, uint64_t *pos,
                       int64_t *out) {
    uint64_t zz;
    int rc = get_uvarint(p, len, pos, &zz);
    if (rc != WK_OK)
        return rc;
    *out = (int64_t)(zz >> 1) ^ -(int64_t)(zz & 1);
    return WK_OK;
}

/* ------------------------------------------------------------------ */
/* public API                                                         */

const char *wk_version(void) { return WK_KERNEL_VERSION; }
int wk_abi(void) { return WK_ABI; }

wk_ctx *wk_new(void) {
    wk_ctx *c = (wk_ctx *)calloc(1, sizeof(wk_ctx));
    return c;
}

void wk_free(wk_ctx *c) {
    if (!c)
        return;
    free(c->canon);
    free(c->tau);
    free(c->pos);
    free(c->tid_of);
    free(c->lcanon);
    free(c->lid_of);
    vec_free(&c->clock_ops);
    vec_free(&c->entries);
    vec_free(&c->held);
    vec_free(&c->cycle_rows);
    vec_free(&c->col_threads);
    vec_free(&c->col_locks);
    vec_free(&c->col_trace);
    vec_free(&c->col_events);
    vec_free(&c->col_acqs);
    vec_free(&c->col_spots);
    vec_free(&c->col_runs);
    free(c);
}

/* Grow a per-row state array to cap slots, filling new slots with fill. */
static int grow_rows(int64_t **rows, uint64_t old_cap, uint64_t cap,
                     int64_t fill) {
    uint64_t i;
    int64_t *p = (int64_t *)realloc(*rows, cap * sizeof(int64_t));
    if (!p)
        return WK_ENOMEM;
    for (i = old_cap; i < cap; i++)
        p[i] = fill;
    *rows = p;
    return WK_OK;
}

/* Table sizes only ever grow (the writer interns before referencing).
 * thread_canon and lock_canon hold n_threads and n_locks canonical rows,
 * each at most its own row; rows already known keep the canonical row
 * they were first given. */
int wk_set_tables(wk_ctx *c, uint64_t n_strings, uint64_t n_threads,
                  uint64_t n_locks, const int64_t *thread_canon,
                  const int64_t *lock_canon) {
    uint64_t row;
    if (n_strings > c->n_strings)
        c->n_strings = n_strings;
    if (n_threads > c->threads_cap) {
        uint64_t cap = c->threads_cap ? c->threads_cap : 16;
        while (cap < n_threads)
            cap *= 2;
        if (grow_rows(&c->canon, c->threads_cap, cap, 0) != WK_OK ||
            grow_rows(&c->tau, c->threads_cap, cap, 0) != WK_OK ||
            grow_rows(&c->pos, c->threads_cap, cap, 0) != WK_OK ||
            grow_rows(&c->tid_of, c->threads_cap, cap, -1) != WK_OK)
            return WK_ENOMEM;
        c->threads_cap = cap;
    }
    if (n_locks > c->locks_cap) {
        uint64_t cap = c->locks_cap ? c->locks_cap : 16;
        while (cap < n_locks)
            cap *= 2;
        if (grow_rows(&c->lcanon, c->locks_cap, cap, 0) != WK_OK ||
            grow_rows(&c->lid_of, c->locks_cap, cap, -1) != WK_OK)
            return WK_ENOMEM;
        c->locks_cap = cap;
    }
    for (row = c->n_threads; row < n_threads; row++) {
        int64_t k = thread_canon[row];
        c->canon[row] = (k >= 0 && (uint64_t)k <= row) ? k : (int64_t)row;
    }
    for (row = c->n_locks; row < n_locks; row++) {
        int64_t k = lock_canon[row];
        c->lcanon[row] = (k >= 0 && (uint64_t)k <= row) ? k : (int64_t)row;
    }
    if (n_threads > c->n_threads)
        c->n_threads = n_threads;
    if (n_locks > c->n_locks)
        c->n_locks = n_locks;
    return WK_OK;
}

/* Collect every event applied from now on into the per-thread columns. */
void wk_collect_columns(wk_ctx *c, int on) { c->columns = on; }

/* Pass 1: decode + bounds-check the whole payload without touching any
 * state.  On success reports the event count and the total held-lock
 * slots so pass 2 can pre-reserve and therefore cannot fail midway. */
static int validate_events(wk_ctx *c, const uint8_t *p, uint64_t len,
                           uint64_t *out_n, uint64_t *out_held) {
    uint64_t pos = 0, n, i, held_total = 0;
    int64_t step = c->last_step;
    int rc;

    if ((rc = get_uvarint(p, len, &pos, &n)) != WK_OK)
        return rc;
    for (i = 0; i < n; i++) {
        uint8_t tag;
        int64_t delta;
        uint64_t t, u;
        if (pos >= len)
            return WK_ETRUNC;
        tag = p[pos++];
        if ((rc = get_svarint(p, len, &pos, &delta)) != WK_OK)
            return rc;
        if (__builtin_add_overflow(step, delta, &step))
            return WK_EOVERFLOW;
        if ((rc = get_uvarint(p, len, &pos, &t)) != WK_OK)
            return rc;
        if (t >= c->n_threads)
            return WK_EINDEX;
        switch (tag) {
        case TAG_BEGIN:
        case TAG_END:
            break;
        case TAG_SPAWN:
        case TAG_JOIN:
            if ((rc = get_uvarint(p, len, &pos, &u)) != WK_OK)
                return rc;
            if (u >= c->n_threads)
                return WK_EINDEX;
            break;
        case TAG_ACQUIRE: {
            uint64_t lk, it, isite, occ, nheld, h;
            if ((rc = get_uvarint(p, len, &pos, &lk)) != WK_OK)
                return rc;
            if (lk >= c->n_locks)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &it)) != WK_OK)
                return rc;
            if (it >= c->n_threads)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &isite)) != WK_OK)
                return rc;
            if (isite >= c->n_strings)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &occ)) != WK_OK)
                return rc;
            if (occ > (uint64_t)INT64_MAX)
                return WK_EOVERFLOW;
            if ((rc = get_uvarint(p, len, &pos, &nheld)) != WK_OK)
                return rc;
            for (h = 0; h < nheld; h++) {
                if ((rc = get_uvarint(p, len, &pos, &u)) != WK_OK)
                    return rc;
                if (u >= c->n_locks)
                    return WK_EINDEX;
            }
            for (h = 0; h < nheld; h++) {
                uint64_t ht, hs, ho;
                if ((rc = get_uvarint(p, len, &pos, &ht)) != WK_OK)
                    return rc;
                if (ht >= c->n_threads)
                    return WK_EINDEX;
                if ((rc = get_uvarint(p, len, &pos, &hs)) != WK_OK)
                    return rc;
                if (hs >= c->n_strings)
                    return WK_EINDEX;
                if ((rc = get_uvarint(p, len, &pos, &ho)) != WK_OK)
                    return rc;
                if (ho > (uint64_t)INT64_MAX)
                    return WK_EOVERFLOW;
            }
            if (pos >= len) /* reentrant flag byte */
                return WK_ETRUNC;
            pos++;
            if ((rc = get_uvarint(p, len, &pos, &u)) != WK_OK) /* depth */
                return rc;
            held_total += nheld;
            break;
        }
        case TAG_RELEASE: {
            uint64_t lk, site;
            if ((rc = get_uvarint(p, len, &pos, &lk)) != WK_OK)
                return rc;
            if (lk >= c->n_locks)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &site)) != WK_OK)
                return rc;
            if (site >= c->n_strings)
                return WK_EINDEX;
            if (pos >= len) /* reentrant flag byte */
                return WK_ETRUNC;
            pos++;
            break;
        }
        case TAG_WAIT:
        case TAG_NOTIFY: {
            uint64_t cond, lk, site;
            if ((rc = get_uvarint(p, len, &pos, &cond)) != WK_OK)
                return rc;
            if (cond >= c->n_strings)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &lk)) != WK_OK)
                return rc;
            if (lk >= c->n_locks)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &site)) != WK_OK)
                return rc;
            if (site >= c->n_strings)
                return WK_EINDEX;
            if (tag == TAG_NOTIFY) {
                if ((rc = get_uvarint(p, len, &pos, &u)) != WK_OK) /* woken */
                    return rc;
                if (pos >= len) /* notify_all flag byte */
                    return WK_ETRUNC;
                pos++;
            }
            break;
        }
        case TAG_BLOCK: {
            uint64_t lk, it, isite, occ, holder;
            if ((rc = get_uvarint(p, len, &pos, &lk)) != WK_OK)
                return rc;
            if (lk >= c->n_locks)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &it)) != WK_OK)
                return rc;
            if (it >= c->n_threads)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &isite)) != WK_OK)
                return rc;
            if (isite >= c->n_strings)
                return WK_EINDEX;
            if ((rc = get_uvarint(p, len, &pos, &occ)) != WK_OK)
                return rc;
            if ((rc = get_uvarint(p, len, &pos, &holder)) != WK_OK)
                return rc;
            if (holder && holder - 1 >= c->n_threads)
                return WK_EINDEX;
            break;
        }
        default:
            return WK_ETAG;
        }
    }
    *out_n = n;
    *out_held = held_total;
    return WK_OK;
}

/* The column id of thread row t, assigning the next one (with an empty
 * thread record) on its first mention.  Capacity reserved by
 * wk_feed_events. */
static int64_t col_thread(wk_ctx *c, uint64_t t) {
    int64_t k = c->canon[t];
    if (c->tid_of[k] < 0) {
        c->tid_of[k] = (int64_t)(c->col_threads.len / WK_THREAD_WIDTH);
        vec_push(&c->col_threads, (int64_t)t);
        vec_push(&c->col_threads, -1); /* spawn parent   */
        vec_push(&c->col_threads, -1); /* spawn position */
        vec_push(&c->col_threads, 0);  /* ended          */
        vec_push(&c->col_threads, 0);  /* event count    */
    }
    return c->tid_of[k];
}

/* The column id of lock row lk, assigning the next one on first mention. */
static int64_t col_lock(wk_ctx *c, uint64_t lk) {
    int64_t k = c->lcanon[lk];
    if (c->lid_of[k] < 0) {
        c->lid_of[k] = (int64_t)c->col_locks.len;
        vec_push(&c->col_locks, (int64_t)lk);
    }
    return c->lid_of[k];
}

/* Append one event of column thread tid; returns its position there. */
static int64_t col_event(wk_ctx *c, int64_t tid, int64_t step, int64_t kind,
                         int64_t aux, int64_t token) {
    int64_t *count = c->col_threads.data + WK_THREAD_WIDTH * tid + 4;
    vec_push(&c->col_trace, tid);
    vec_push(&c->col_trace, step);
    vec_push(&c->col_trace, kind);
    vec_push(&c->col_trace, aux);
    vec_push(&c->col_trace, token);
    return (*count)++;
}

static int64_t token_key(uint64_t arg, int tag, int reentrant) {
    return ((int64_t)arg << WK_TOKEN_SHIFT) | tag |
           (reentrant ? WK_TOKEN_REENTRANT : 0);
}

/* Pass 2: apply the (already validated) payload.  Cannot fail: every
 * push goes into pre-reserved capacity and every index was checked.
 * tau and pos are keyed by canonical row (k), logs carry raw rows. */
static void apply_events(wk_ctx *c, const uint8_t *p, uint64_t len,
                         uint64_t n) {
    uint64_t pos = 0, i, ignored;
    int64_t step = c->last_step;

    (void)get_uvarint(p, len, &pos, &ignored); /* skip the count */
    for (i = 0; i < n; i++) {
        uint8_t tag = p[pos++];
        int64_t delta = 0, tid = -1;
        uint64_t t, k, u;
        (void)get_svarint(p, len, &pos, &delta);
        step += delta;
        (void)get_uvarint(p, len, &pos, &t);
        k = (uint64_t)c->canon[t];
        if (c->columns)
            tid = col_thread(c, t);

        /* Algorithm 1 line 11: first event of a thread sets tau to 1. */
        if (c->tau[k] == 0) {
            c->tau[k] = 1;
            vec_push(&c->clock_ops, OP_TOUCH);
            vec_push(&c->clock_ops, (int64_t)t);
            vec_push(&c->clock_ops, 0);
        }

        switch (tag) {
        case TAG_BEGIN:
        case TAG_END:
            if (c->columns) {
                (void)col_event(c, tid, step, KIND_OTHER, -1,
                                token_key(0, tag, 0));
                if (tag == TAG_END)
                    c->col_threads.data[WK_THREAD_WIDTH * tid + 3] = 1;
            }
            break;
        case TAG_SPAWN:
            (void)get_uvarint(p, len, &pos, &u);
            c->tau[k] += 1;
            c->tau[c->canon[u]] = 1; /* child is now touched (update_clocks) */
            vec_push(&c->clock_ops, OP_SPAWN);
            vec_push(&c->clock_ops, (int64_t)t);
            vec_push(&c->clock_ops, (int64_t)u);
            if (c->columns) {
                int64_t child = col_thread(c, u);
                int64_t at = col_event(c, tid, step, KIND_OTHER, -1,
                                       token_key(u, tag, 0));
                int64_t *rec = c->col_threads.data + WK_THREAD_WIDTH * child;
                if (rec[1] < 0) { /* the first spawn of a thread starts it */
                    rec[1] = tid;
                    rec[2] = at;
                }
            }
            break;
        case TAG_JOIN:
            (void)get_uvarint(p, len, &pos, &u);
            c->tau[k] += 1;
            vec_push(&c->clock_ops, OP_JOIN);
            vec_push(&c->clock_ops, (int64_t)t);
            vec_push(&c->clock_ops, (int64_t)u);
            if (c->columns) {
                int64_t target = col_thread(c, u);
                (void)col_event(c, tid, step, KIND_JOIN, target,
                                token_key(u, tag, 0));
            }
            break;
        case TAG_ACQUIRE: {
            uint64_t lk, it, isite, occ, nheld, h;
            int64_t held_off = (int64_t)(c->held.len / 4);
            int reentrant;
            (void)get_uvarint(p, len, &pos, &lk);
            (void)get_uvarint(p, len, &pos, &it);
            (void)get_uvarint(p, len, &pos, &isite);
            (void)get_uvarint(p, len, &pos, &occ);
            (void)get_uvarint(p, len, &pos, &nheld);
            for (h = 0; h < nheld; h++) {
                (void)get_uvarint(p, len, &pos, &u);
                vec_push(&c->held, (int64_t)u);
                vec_push(&c->held, 0); /* thread/site/occ fill below */
                vec_push(&c->held, 0);
                vec_push(&c->held, 0);
            }
            for (h = 0; h < nheld; h++) {
                uint64_t ht, hs, ho;
                int64_t *q = c->held.data + 4 * ((uint64_t)held_off + h);
                (void)get_uvarint(p, len, &pos, &ht);
                (void)get_uvarint(p, len, &pos, &hs);
                (void)get_uvarint(p, len, &pos, &ho);
                q[1] = (int64_t)ht;
                q[2] = (int64_t)hs;
                q[3] = (int64_t)ho;
            }
            reentrant = p[pos] == 1;
            pos++;
            (void)get_uvarint(p, len, &pos, &u); /* stack depth */
            if (!reentrant) {
                vec_push(&c->entries, step);
                vec_push(&c->entries, (int64_t)t);
                vec_push(&c->entries, (int64_t)lk);
                vec_push(&c->entries, (int64_t)it);
                vec_push(&c->entries, (int64_t)isite);
                vec_push(&c->entries, (int64_t)occ);
                vec_push(&c->entries, c->tau[k]);
                vec_push(&c->entries, c->pos[k]);
                vec_push(&c->entries, (int64_t)nheld);
                vec_push(&c->entries, held_off);
                c->pos[k] += 1;
            } else {
                /* reentrant acquires mint no entry; drop their held
                 * quads again so held_off stays the entry log's pool. */
                c->held.len = 4 * (uint64_t)held_off;
            }
            if (c->columns) {
                if (reentrant) {
                    (void)col_event(c, tid, step, KIND_OTHER, -1,
                                    token_key(isite, tag, 1));
                } else {
                    int64_t owner = col_thread(c, it);
                    int64_t lid = col_lock(c, lk);
                    int64_t at = col_event(c, tid, step, KIND_ACQ, lid,
                                           token_key(isite, tag, 0));
                    vec_push(&c->col_acqs, step);
                    vec_push(&c->col_acqs, tid);
                    vec_push(&c->col_acqs, at);
                    vec_push(&c->col_acqs, owner);
                    vec_push(&c->col_acqs, (int64_t)isite);
                    vec_push(&c->col_acqs, (int64_t)occ);
                }
            }
            break;
        }
        case TAG_RELEASE: {
            uint64_t lk, site;
            int reentrant;
            (void)get_uvarint(p, len, &pos, &lk);
            (void)get_uvarint(p, len, &pos, &site);
            reentrant = p[pos] == 1;
            pos++;
            if (c->columns) {
                if (reentrant)
                    (void)col_event(c, tid, step, KIND_OTHER, -1,
                                    token_key(site, tag, 1));
                else
                    (void)col_event(c, tid, step, KIND_REL, col_lock(c, lk),
                                    token_key(site, tag, 0));
            }
            break;
        }
        case TAG_WAIT:
        case TAG_NOTIFY: {
            uint64_t lk, site;
            (void)get_uvarint(p, len, &pos, &u); /* condition */
            (void)get_uvarint(p, len, &pos, &lk);
            (void)get_uvarint(p, len, &pos, &site);
            if (tag == TAG_NOTIFY) {
                (void)get_uvarint(p, len, &pos, &u); /* woken */
                pos++;                               /* notify_all flag */
            }
            if (c->columns)
                (void)col_event(c, tid, step, KIND_CONDVAR, -1,
                                token_key(site, tag, 0));
            break;
        }
        case TAG_BLOCK: {
            uint64_t lk, it, isite, occ;
            (void)get_uvarint(p, len, &pos, &lk);
            (void)get_uvarint(p, len, &pos, &it);
            (void)get_uvarint(p, len, &pos, &isite);
            (void)get_uvarint(p, len, &pos, &occ);
            (void)get_uvarint(p, len, &pos, &u); /* holder */
            if (c->columns)
                (void)col_event(c, tid, step, KIND_BLOCK, -1,
                                token_key(isite, tag, 0));
            break;
        }
        }
        c->events_read += 1;
    }
    c->last_step = step;
}

int wk_feed_events(wk_ctx *c, const uint8_t *payload, uint64_t len) {
    uint64_t n = 0, held_total = 0;
    int rc;

    rc = validate_events(c, payload, len, &n, &held_total);
    if (rc != WK_OK)
        return rc;
    /* Reserve worst-case capacity so pass 2 cannot fail midway: per
     * event at most one touch op plus one spawn/join op (3 i64 each),
     * one 10-slot entry and, when collecting columns,
     * one event record and one acquisition; held quads counted exactly,
     * and a column id at most for every thread and lock row. */
    if (vec_reserve(&c->clock_ops, 6 * n) != WK_OK ||
        vec_reserve(&c->entries, 10 * n) != WK_OK ||
        vec_reserve(&c->held, 4 * held_total) != WK_OK ||
        (c->columns &&
         (vec_reserve(&c->col_trace, 5 * n) != WK_OK ||
          vec_reserve(&c->col_acqs, WK_ACQ_WIDTH * n) != WK_OK ||
          vec_reserve(&c->col_threads, WK_THREAD_WIDTH * c->n_threads) != WK_OK ||
          vec_reserve(&c->col_locks, c->n_locks) != WK_OK)))
        return WK_ENOMEM;
    apply_events(c, payload, len, n);
    return WK_OK;
}

/* ------------------------------------------------------------------ */
/* result getters — pointers are valid until the next wk_feed_events  */

int64_t wk_last_step(wk_ctx *c) { return c->last_step; }
uint64_t wk_events_read(wk_ctx *c) { return c->events_read; }

uint64_t wk_n_clock_ops(wk_ctx *c) { return c->clock_ops.len / 3; }
const int64_t *wk_clock_ops(wk_ctx *c) { return c->clock_ops.data; }

uint64_t wk_n_entries(wk_ctx *c) { return c->entries.len / 10; }
const int64_t *wk_entries(wk_ctx *c) { return c->entries.data; }

uint64_t wk_n_held(wk_ctx *c) { return c->held.len / 4; }
const int64_t *wk_held(wk_ctx *c) { return c->held.data; }

/* ------------------------------------------------------------------ */
/* cycle rows: the entries a tuple cycle can go through               */

/* Tarjan's strongly connected components of the graph on n nodes whose
 * out-edges of node v are adj[off[v] .. off[v+1]), iteratively.  comp[v]
 * gets v's component and size[k] the node count of component k. */
static int lock_sccs(uint64_t n, const int64_t *off, const int64_t *adj,
                     int64_t *comp, int64_t *size) {
    int64_t *idx = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    int64_t *low = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    int64_t *stack = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    int64_t *call = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    int64_t *next = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    int64_t counter = 0, sp = 0, ncomp = 0;
    uint64_t root;
    if (!idx || !low || !stack || !call || !next) {
        free(idx);
        free(low);
        free(stack);
        free(call);
        free(next);
        return WK_ENOMEM;
    }
    for (root = 0; root < n; root++)
        idx[root] = comp[root] = -1;
    for (root = 0; root < n; root++) {
        int64_t cp = 0;
        if (idx[root] >= 0)
            continue;
        /* call[0 .. cp) is the DFS path; next[i] is call[i]'s next edge */
        idx[root] = low[root] = counter++;
        stack[sp++] = (int64_t)root;
        call[cp] = (int64_t)root;
        next[cp++] = off[root];
        while (cp > 0) {
            int64_t v = call[cp - 1];
            if (next[cp - 1] < off[v + 1]) {
                int64_t w = adj[next[cp - 1]++];
                if (idx[w] < 0) {
                    idx[w] = low[w] = counter++;
                    stack[sp++] = w;
                    call[cp] = w;
                    next[cp++] = off[w];
                } else if (comp[w] < 0 && idx[w] < low[v]) {
                    low[v] = idx[w]; /* w is still on the stack */
                }
                continue;
            }
            if (--cp > 0 && low[v] < low[call[cp - 1]])
                low[call[cp - 1]] = low[v];
            if (low[v] == idx[v]) {
                int64_t w;
                size[ncomp] = 0;
                do {
                    w = stack[--sp];
                    comp[w] = ncomp;
                    size[ncomp]++;
                } while (w != v);
                ncomp++;
            }
        }
    }
    free(idx);
    free(low);
    free(stack);
    free(call);
    free(next);
    return WK_OK;
}

/* Collect the cycle rows of the entries logged so far: every entry whose
 * wanted lock and some held lock lie in one strongly connected component
 * of at least two locks of the held -> wanted graph over canonical lock
 * rows (self-edges left out), in entry order.  Read them with
 * wk_n_cycle_rows / wk_cycle_rows. */
int wk_find_cycle_rows(wk_ctx *c) {
    uint64_t n = c->n_locks, ne = c->entries.len / 10, i;
    const int64_t *ent = c->entries.data, *held = c->held.data;
    const int64_t *lc = c->lcanon;
    int64_t *off, *fill, *adj, *comp, *size;
    int rc = WK_ENOMEM;

    c->cycle_rows.len = 0;
    if (ne == 0)
        return WK_OK;
    off = (int64_t *)calloc(n + 1, sizeof(int64_t));
    fill = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    adj = (int64_t *)malloc((c->held.len / 4 + 1) * sizeof(int64_t));
    comp = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    size = (int64_t *)malloc((n + 1) * sizeof(int64_t));
    if (!off || !fill || !adj || !comp || !size ||
        vec_reserve(&c->cycle_rows, ne) != WK_OK)
        goto out;
    /* the edges held -> wanted, grouped by source (counting sort) */
    for (i = 0; i < ne; i++) {
        const int64_t *e = ent + 10 * i;
        int64_t want = lc[e[2]], h;
        for (h = 0; h < e[8]; h++) {
            int64_t src = lc[held[4 * (e[9] + h)]];
            if (src != want)
                off[src + 1]++;
        }
    }
    for (i = 0; i < n; i++)
        off[i + 1] += off[i];
    memcpy(fill, off, (n + 1) * sizeof(int64_t));
    for (i = 0; i < ne; i++) {
        const int64_t *e = ent + 10 * i;
        int64_t want = lc[e[2]], h;
        for (h = 0; h < e[8]; h++) {
            int64_t src = lc[held[4 * (e[9] + h)]];
            if (src != want)
                adj[fill[src]++] = want;
        }
    }
    if (lock_sccs(n, off, adj, comp, size) != WK_OK)
        goto out;
    for (i = 0; i < ne; i++) {
        const int64_t *e = ent + 10 * i;
        int64_t k = comp[lc[e[2]]], h;
        if (size[k] < 2)
            continue;
        for (h = 0; h < e[8]; h++) {
            if (comp[lc[held[4 * (e[9] + h)]]] == k) {
                vec_push(&c->cycle_rows, (int64_t)i);
                break;
            }
        }
    }
    rc = WK_OK;
out:
    free(off);
    free(fill);
    free(adj);
    free(comp);
    free(size);
    return rc;
}

uint64_t wk_n_cycle_rows(wk_ctx *c) { return c->cycle_rows.len; }
const int64_t *wk_cycle_rows(wk_ctx *c) { return c->cycle_rows.data; }

/* ------------------------------------------------------------------ */
/* Gs decisions: whether each cycle's Gs is cyclic (paper Algorithm 3) */

/* An open-addressing table of Gs vertices by value: (canonical thread of
 * the execution index, canonical site string, occurrence, canonical
 * lock) -> dense vertex id, in order of first insertion. */
typedef struct {
    int64_t *keys; /* 4 per slot */
    int64_t *ids;  /* -1 for an empty slot */
    uint64_t mask;
    int64_t n;
} vtab;

static uint64_t vkey_hash(const int64_t *k) {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    int i;
    for (i = 0; i < 4; i++) {
        h ^= (uint64_t)k[i] + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
        h *= 0xBF58476D1CE4E5B9ull;
    }
    return h ^ (h >> 31);
}

static int64_t vtab_intern(vtab *t, int64_t th, int64_t site, int64_t occ,
                           int64_t lock) {
    int64_t k[4];
    uint64_t i;
    k[0] = th;
    k[1] = site;
    k[2] = occ;
    k[3] = lock;
    for (i = vkey_hash(k) & t->mask;; i = (i + 1) & t->mask) {
        int64_t *s = t->keys + 4 * i;
        if (t->ids[i] < 0) {
            memcpy(s, k, sizeof k);
            return t->ids[i] = t->n++;
        }
        if (s[0] == th && s[1] == site && s[2] == occ && s[3] == lock)
            return t->ids[i];
    }
}

/* One cycle member: its entry row, canonical thread and lock, step and
 * pos, and its held slots in the pool. */
typedef struct {
    int64_t row, thread, lock, step, pos, hoff, nheld;
} gs_member;

/* One cycle's Gs in the making: the vertices met (by global vertex id,
 * stamped with the cycle's number) and the edge list. */
typedef struct {
    int64_t *stamp, *local; /* per global vertex id */
    int64_t cycle, n;
    i64vec edges; /* pairs u, v of local ids */
} gs_plan;

static int64_t plan_vertex(gs_plan *p, int64_t vid) {
    if (p->stamp[vid] != p->cycle) {
        p->stamp[vid] = p->cycle;
        p->local[vid] = p->n++;
    }
    return p->local[vid];
}

static int plan_edge(gs_plan *p, int64_t u, int64_t v) {
    if (u == v) /* no self-loops */
        return WK_OK;
    if (vec_reserve(&p->edges, 2) != WK_OK)
        return WK_ENOMEM;
    vec_push(&p->edges, u);
    vec_push(&p->edges, v);
    return WK_OK;
}

/* mu of member m for canonical lock l: its own vertex when l is its
 * lock, else the vertex of its first held slot with lock l, else -1. */
static int64_t member_mu(const gs_member *m, int64_t l, const int64_t *rvid,
                         const int64_t *hvid, const int64_t *hlock) {
    int64_t h;
    if (m->lock == l)
        return rvid[m->row];
    for (h = 0; h < m->nheld; h++)
        if (hlock[m->hoff + h] == l)
            return hvid[m->hoff + h];
    return -1;
}

/* Kahn's algorithm over n vertices and the plan's edges; 1 when cyclic.
 * scratch holds 3n + 1 + |edges|/2 slots. */
static int kahn_cyclic(const gs_plan *p, int64_t *scratch) {
    int64_t n = p->n, ne = (int64_t)(p->edges.len / 2), i, head = 0, tail = 0;
    int64_t *off = scratch, *indeg = off + n + 1, *queue = indeg + n;
    int64_t *adj = queue + n;
    const int64_t *e = p->edges.data;
    memset(off, 0, (size_t)(2 * n + 1) * sizeof(int64_t));
    for (i = 0; i < ne; i++) {
        off[e[2 * i] + 1]++;
        indeg[e[2 * i + 1]]++;
    }
    for (i = 0; i < n; i++)
        off[i + 1] += off[i];
    for (i = 0; i < n; i++) /* queue doubles as the fill cursor */
        queue[i] = off[i];
    for (i = 0; i < ne; i++)
        adj[queue[e[2 * i]]++] = e[2 * i + 1];
    for (i = 0; i < n; i++)
        if (indeg[i] == 0)
            queue[tail++] = i;
    while (head < tail) {
        int64_t u = queue[head++], j;
        for (j = off[u]; j < off[u + 1]; j++)
            if (--indeg[adj[j]] == 0)
                queue[tail++] = adj[j];
    }
    return tail < n;
}

/* Decide Gs for each cycle, exactly as SyncGraphBuilder.decide(cycle)
 * and build(cycle).is_cyclic() decide it over the same entries
 * (repro.core.syncgraph):
 *
 *   - a vertex is an acquisition by value: the canonical thread of its
 *     execution index, its canonical site string, its occurrence and its
 *     canonical lock, so a held acquisition with no entry of its own is
 *     still a vertex, and two rows with equal values are one vertex;
 *   - type-D: for members i != j with lock(i) held by j, mu_j(lock(i))
 *     -> mu_i(lock(i));
 *   - type-C: for each lock l member i holds or wants, every acquisition
 *     of l (entry order, stopping at the first step >= the largest
 *     cutoff) by another cycle thread tx strictly before tx's cutoff
 *     -> mu_i(l); a thread's cutoff is the step of its last member;
 *   - type-P: along each member's thread, its first min(pos, n) entries
 *     (Python slice semantics) and then its own vertex;
 *   - no self-loops, and Kahn's algorithm over the whole table.
 *
 * ent / held are the snapshot's entry log (10 ints per entry) and held
 * pool (4 per slot); the canonical maps give each thread, lock and
 * string row the first row equal to it.  cycles holds, per cycle, its
 * member count k and then k entry rows; out gets 1 for a cyclic Gs and
 * 0 for an acyclic one, per cycle. */
int wk_decide_gs(const int64_t *ent, uint64_t n_ent, const int64_t *held,
                 uint64_t n_held, const int64_t *tcanon, uint64_t n_threads,
                 const int64_t *lcanon, uint64_t n_locks,
                 const int64_t *scanon, uint64_t n_strings,
                 const int64_t *cycles, uint64_t cycles_len,
                 uint64_t n_cycles, uint8_t *out) {
    uint64_t cap = 16, i, at, c;
    int64_t *rvid = NULL, *hvid = NULL, *hlock = NULL, *toff = NULL;
    int64_t *trows = NULL, *loff = NULL, *lrows = NULL, *scratch = NULL;
    gs_member *mem = NULL;
    uint64_t scratch_cap = 0, max_k = 0;
    vtab vt = {NULL, NULL, 0, 0};
    gs_plan plan;
    int rc = WK_EINDEX;

    memset(&plan, 0, sizeof plan);
    /* Validate every row index before reading through it. */
    for (i = 0; i < n_threads; i++)
        if (tcanon[i] < 0 || (uint64_t)tcanon[i] >= n_threads)
            return WK_EINDEX;
    for (i = 0; i < n_locks; i++)
        if (lcanon[i] < 0 || (uint64_t)lcanon[i] >= n_locks)
            return WK_EINDEX;
    for (i = 0; i < n_strings; i++)
        if (scanon[i] < 0 || (uint64_t)scanon[i] >= n_strings)
            return WK_EINDEX;
    for (i = 0; i < n_ent; i++) {
        const int64_t *e = ent + 10 * i;
        if ((uint64_t)e[1] >= n_threads || (uint64_t)e[2] >= n_locks ||
            (uint64_t)e[3] >= n_threads || (uint64_t)e[4] >= n_strings ||
            e[8] < 0 || e[9] < 0 || (uint64_t)e[8] > n_held ||
            (uint64_t)e[9] > n_held - (uint64_t)e[8])
            return WK_EINDEX;
    }
    for (i = 0; i < n_held; i++) {
        const int64_t *q = held + 4 * i;
        if ((uint64_t)q[0] >= n_locks || (uint64_t)q[1] >= n_threads ||
            (uint64_t)q[2] >= n_strings)
            return WK_EINDEX;
    }
    for (at = 0, c = 0; c < n_cycles; c++) {
        uint64_t k, j;
        if (at >= cycles_len || cycles[at] < 1)
            return WK_EINDEX;
        k = (uint64_t)cycles[at++];
        if (k > cycles_len - at)
            return WK_EINDEX;
        for (j = 0; j < k; j++)
            if (cycles[at + j] < 0 || (uint64_t)cycles[at + j] >= n_ent)
                return WK_EINDEX;
        at += k;
        if (k > max_k)
            max_k = k;
    }

    rc = WK_ENOMEM;
    while (cap < 2 * (n_ent + n_held) + 16)
        cap *= 2;
    vt.keys = (int64_t *)malloc(4 * cap * sizeof(int64_t));
    vt.ids = (int64_t *)malloc(cap * sizeof(int64_t));
    vt.mask = cap - 1;
    rvid = (int64_t *)malloc((n_ent + 1) * sizeof(int64_t));
    hvid = (int64_t *)malloc((n_held + 1) * sizeof(int64_t));
    hlock = (int64_t *)malloc((n_held + 1) * sizeof(int64_t));
    toff = (int64_t *)calloc(n_threads + 1, sizeof(int64_t));
    trows = (int64_t *)malloc((n_ent + 1) * sizeof(int64_t));
    loff = (int64_t *)calloc(n_locks + 1, sizeof(int64_t));
    lrows = (int64_t *)malloc((n_ent + 1) * sizeof(int64_t));
    mem = (gs_member *)malloc((max_k + 1) * sizeof(gs_member));
    if (!vt.keys || !vt.ids || !rvid || !hvid || !hlock || !toff || !trows ||
        !loff || !lrows || !mem)
        goto out;
    memset(vt.ids, 0xff, cap * sizeof(int64_t));

    /* Every entry's vertex, then every held slot's. */
    for (i = 0; i < n_ent; i++) {
        const int64_t *e = ent + 10 * i;
        rvid[i] = vtab_intern(&vt, tcanon[e[3]], scanon[e[4]], e[5], lcanon[e[2]]);
    }
    for (i = 0; i < n_held; i++) {
        const int64_t *q = held + 4 * i;
        hlock[i] = lcanon[q[0]];
        hvid[i] = vtab_intern(&vt, tcanon[q[1]], scanon[q[2]], q[3], hlock[i]);
    }
    /* Entry rows by canonical thread and by canonical lock, in entry
     * order (counting sort). */
    for (i = 0; i < n_ent; i++) {
        toff[tcanon[ent[10 * i + 1]] + 1]++;
        loff[lcanon[ent[10 * i + 2]] + 1]++;
    }
    for (i = 0; i < n_threads; i++)
        toff[i + 1] += toff[i];
    for (i = 0; i < n_locks; i++)
        loff[i + 1] += loff[i];
    for (i = 0; i < n_ent; i++) {
        trows[toff[tcanon[ent[10 * i + 1]]]++] = (int64_t)i;
        lrows[loff[lcanon[ent[10 * i + 2]]]++] = (int64_t)i;
    }
    for (i = n_threads; i > 0; i--) /* the fill moved each start along */
        toff[i] = toff[i - 1];
    toff[0] = 0;
    for (i = n_locks; i > 0; i--)
        loff[i] = loff[i - 1];
    loff[0] = 0;

    plan.stamp = (int64_t *)malloc(((uint64_t)vt.n + 1) * sizeof(int64_t));
    plan.local = (int64_t *)malloc(((uint64_t)vt.n + 1) * sizeof(int64_t));
    if (!plan.stamp || !plan.local)
        goto out;
    for (i = 0; i < (uint64_t)vt.n; i++)
        plan.stamp[i] = -1;

    for (at = 0, c = 0; c < n_cycles; c++) {
        int64_t k = cycles[at++], a, b, max_cutoff = 0, have_cutoff = 0;
        uint64_t need;
        for (a = 0; a < k; a++) {
            const int64_t *e = ent + 10 * cycles[at + a];
            gs_member *m = mem + a;
            m->row = cycles[at + a];
            m->thread = tcanon[e[1]];
            m->lock = lcanon[e[2]];
            m->step = e[0];
            m->pos = e[7];
            m->nheld = e[8];
            m->hoff = e[9];
        }
        at += (uint64_t)k;
        plan.cycle = (int64_t)c;
        plan.n = 0;
        plan.edges.len = 0;
        /* A thread's cutoff is its last member's step (a dict keyed by
         * thread in the builder). */
        for (a = 0; a < k; a++) {
            for (b = a + 1; b < k && mem[b].thread != mem[a].thread; b++)
                ;
            if (b == k && (!have_cutoff || mem[a].step > max_cutoff)) {
                max_cutoff = mem[a].step;
                have_cutoff = 1;
            }
        }
        /* type-D */
        for (a = 0; a < k; a++) {
            int64_t li = mem[a].lock;
            for (b = 0; b < k; b++) {
                int64_t h;
                if (a == b)
                    continue;
                for (h = 0; h < mem[b].nheld; h++)
                    if (hlock[mem[b].hoff + h] == li)
                        break;
                if (h == mem[b].nheld)
                    continue;
                {
                    int64_t u = plan_vertex(&plan, member_mu(mem + b, li, rvid, hvid, hlock));
                    int64_t v = plan_vertex(&plan, member_mu(mem + a, li, rvid, hvid, hlock));
                    if (plan_edge(&plan, u, v) != WK_OK)
                        goto out;
                }
            }
        }
        /* type-C */
        for (a = 0; a < k; a++) {
            int64_t s;
            for (s = 0; s <= mem[a].nheld; s++) {
                int64_t lk = s < mem[a].nheld ? hlock[mem[a].hoff + s] : mem[a].lock;
                int64_t v = plan_vertex(&plan, member_mu(mem + a, lk, rvid, hvid, hlock));
                int64_t r;
                for (r = loff[lk]; r < loff[lk + 1]; r++) {
                    const int64_t *e = ent + 10 * lrows[r];
                    int64_t tx = tcanon[e[1]], cut = 0, found = 0;
                    if (e[0] >= max_cutoff)
                        break; /* entry-ordered: nothing later qualifies */
                    for (b = k - 1; b >= 0; b--)
                        if (mem[b].thread == tx) {
                            cut = mem[b].step;
                            found = 1;
                            break;
                        }
                    if (!found || e[0] >= cut || tx == mem[a].thread)
                        continue;
                    if (plan_edge(&plan, plan_vertex(&plan, rvid[lrows[r]]), v) != WK_OK)
                        goto out;
                }
            }
        }
        /* type-P */
        for (a = 0; a < k; a++) {
            int64_t t = mem[a].thread, len = toff[t + 1] - toff[t];
            int64_t n = mem[a].pos < 0 ? len + mem[a].pos : mem[a].pos, q, prev;
            if (n > len)
                n = len;
            prev = -1;
            for (q = 0; q < n; q++) {
                int64_t v = plan_vertex(&plan, rvid[trows[toff[t] + q]]);
                if (prev >= 0 && plan_edge(&plan, prev, v) != WK_OK)
                    goto out;
                prev = v;
            }
            {
                int64_t end = plan_vertex(&plan, rvid[mem[a].row]);
                if (prev >= 0 && plan_edge(&plan, prev, end) != WK_OK)
                    goto out;
            }
        }
        need = 3 * (uint64_t)plan.n + 1 + plan.edges.len / 2;
        if (need > scratch_cap) {
            int64_t *p = (int64_t *)realloc(scratch, need * sizeof(int64_t));
            if (!p)
                goto out;
            scratch = p;
            scratch_cap = need;
        }
        out[c] = (uint8_t)kahn_cyclic(&plan, scratch);
    }
    rc = WK_OK;
out:
    free(vt.keys);
    free(vt.ids);
    free(rvid);
    free(hvid);
    free(hlock);
    free(toff);
    free(trows);
    free(loff);
    free(lrows);
    free(mem);
    free(scratch);
    free(plan.stamp);
    free(plan.local);
    vec_free(&plan.edges);
    return rc;
}

/* ------------------------------------------------------------------ */
/* column re-read: group by thread, match releases                    */

static int cmp_lock_pos(const void *a, const void *b) {
    const int64_t *x = (const int64_t *)a, *y = (const int64_t *)b;
    if (x[0] != y[0])
        return x[0] < y[0] ? -1 : 1;
    return x[1] < y[1] ? -1 : x[1] > y[1];
}

static void push_run(wk_ctx *c, int64_t lock) {
    vec_push(&c->col_runs, lock);
    vec_push(&c->col_runs, (int64_t)c->col_spots.len);
}

/* The rule spots and runs of one thread, whose events are ev[lo .. hi);
 * pairs has room for 2 (hi - lo) ints. */
static void thread_spots(wk_ctx *c, const int64_t *ev, int64_t lo, int64_t hi,
                         int64_t *pairs) {
    int64_t j, np = 0;
    for (j = lo; j < hi; j++) {
        int64_t kind = ev[WK_EVENT_WIDTH * j + 1];
        if (kind == KIND_JOIN || kind == KIND_CONDVAR || kind == KIND_ACQ)
            vec_push(&c->col_spots, j - lo);
    }
    push_run(c, SPOTS_ALL);
    for (j = lo; j < hi; j++) {
        const int64_t *e = ev + WK_EVENT_WIDTH * j;
        if (e[1] == KIND_JOIN || e[1] == KIND_CONDVAR)
            vec_push(&c->col_spots, j - lo);
        else if (e[1] == KIND_ACQ) {
            pairs[2 * np] = e[2];
            pairs[2 * np + 1] = j - lo;
            np++;
        }
    }
    push_run(c, SPOTS_RULES);
    qsort(pairs, (size_t)np, 2 * sizeof(int64_t), cmp_lock_pos);
    for (j = 0; j < np; j++) {
        if (j > 0 && pairs[2 * j] != pairs[2 * j - 2])
            push_run(c, pairs[2 * j - 2]);
        vec_push(&c->col_spots, pairs[2 * j + 1]);
    }
    if (np > 0)
        push_run(c, pairs[2 * np - 2]);
}

/* Group the collected events by column thread id (trace order within a
 * thread), give each non-reentrant acquire its matching release's
 * position (the thread's next release of that lock, unless the thread
 * acquires the lock again first), and list each thread's rule spots.
 * Call once, after the last payload. */
int wk_columns_finish(wk_ctx *c) {
    uint64_t n = c->col_trace.len / 5, nt = c->col_threads.len / WK_THREAD_WIDTH;
    uint64_t nl = c->col_locks.len, i, t;
    int64_t *end, *open, *ev, *pairs;
    if (n == 0)
        return WK_OK;
    end = (int64_t *)malloc((nt + 1) * sizeof(int64_t));
    open = (int64_t *)malloc((nl + 1) * sizeof(int64_t));
    pairs = (int64_t *)malloc((2 * n + 1) * sizeof(int64_t));
    if (!end || !open || !pairs ||
        vec_reserve(&c->col_events, WK_EVENT_WIDTH * n) != WK_OK ||
        vec_reserve(&c->col_spots, 2 * n) != WK_OK ||
        vec_reserve(&c->col_runs, WK_RUN_WIDTH * (n + 2 * nt)) != WK_OK) {
        free(end);
        free(open);
        free(pairs);
        return WK_ENOMEM;
    }
    /* end[t] starts at thread t's first slot and ends past its last. */
    for (i = 0, t = 0; t < nt; t++) {
        end[t] = (int64_t)i;
        i += (uint64_t)c->col_threads.data[WK_THREAD_WIDTH * t + 4];
    }
    ev = c->col_events.data;
    for (i = 0; i < n; i++) {
        const int64_t *r = c->col_trace.data + 5 * i;
        int64_t *e = ev + WK_EVENT_WIDTH * end[r[0]]++;
        e[0] = r[1];
        e[1] = r[2];
        e[2] = r[3];
        e[3] = -1;
        e[4] = r[4];
    }
    c->col_events.len = WK_EVENT_WIDTH * n;
    vec_free(&c->col_trace);
    for (i = 0; i < nl; i++)
        open[i] = -1;
    for (t = 0; t < nt; t++) {
        int64_t hi = end[t], lo = hi - c->col_threads.data[WK_THREAD_WIDTH * t + 4];
        int64_t j;
        for (j = lo; j < hi; j++) {
            int64_t *e = ev + WK_EVENT_WIDTH * j;
            if (e[1] == KIND_ACQ) {
                open[e[2]] = j - lo;
            } else if (e[1] == KIND_REL && open[e[2]] >= 0) {
                ev[WK_EVENT_WIDTH * (lo + open[e[2]]) + 3] = j - lo;
                open[e[2]] = -1;
            }
        }
        for (j = lo; j < hi; j++) { /* forget this thread's open locks */
            int64_t *e = ev + WK_EVENT_WIDTH * j;
            if (e[1] == KIND_ACQ || e[1] == KIND_REL)
                open[e[2]] = -1;
        }
        thread_spots(c, ev, lo, hi, pairs);
    }
    free(end);
    free(open);
    free(pairs);
    return WK_OK;
}

static i64vec *column(wk_ctx *c, int which) {
    switch (which) {
    case COL_THREADS:
        return &c->col_threads;
    case COL_LOCKS:
        return &c->col_locks;
    case COL_EVENTS:
        return &c->col_events;
    case COL_ACQS:
        return &c->col_acqs;
    case COL_SPOTS:
        return &c->col_spots;
    case COL_RUNS:
        return &c->col_runs;
    }
    return NULL;
}

/* Column `which` (COL_*), valid until the next wk_feed_events; its
 * length counts int64s.  An unknown column is empty. */
uint64_t wk_column_len(wk_ctx *c, int which) {
    i64vec *v = column(c, which);
    return v ? v->len : 0;
}
const int64_t *wk_column(wk_ctx *c, int which) {
    i64vec *v = column(c, which);
    return v ? v->data : NULL;
}

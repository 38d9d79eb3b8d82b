/* Native SM simulator kernel: repro.sim.native loads it.
 *
 * One fixed translation unit (not generated per cell): each cell's
 * machine -- the L1 and L2 ways and hit latencies, the DRAM latency
 * and line cycles, the LSU transaction cycles, the RCache ways and
 * whether its plan carries GPUShield probes -- arrives in the cell's
 * scalar block.  lmi_cell_run_batch runs n cells one after another,
 * each replaying repro.sim.columnar.run_columnar over its IssuePlan:
 *
 *   - the GTO scheduler keeps a ready mask of as many 64-bit words as
 *     the trace has warps: the oldest ready warp is the lowest set
 *     bit, the current warp keeps priority, and a lone ready warp
 *     fast-forwards the clock to its own completion;
 *   - each cache set is a row of `ways` tags, row[0] the LRU victim
 *     and -1 an empty slot, as in ArrayLruCache;
 *   - a run that ends in a stateful memory instruction carries a
 *     negative comp_delta, and its completion is recovered from the
 *     slowest line plus, under GPUShield, the slowest metadata fetch.
 *
 * Scheduler scratch is one heap block per cell; when it cannot be
 * allocated the cell reports status 1 before it touches any simulator
 * state, and the caller runs the Python loop.  Nothing is static, so
 * threads may run the kernel at once.
 */
#include <stdint.h>
#include <stdlib.h>

#define NEVER ((int64_t)1 << 62)

/* Pointer-slab slots per cell: IssuePlan's columns (PLAN_COLUMNS +
 * PROBE_COLUMNS, in order), then the simulator's state (STATE_SLOTS
 * in repro.sim.native).  Probe-free cells pass null RCache arrays. */
enum {
    RUN_START, RUN_LENGTH, RUN_COMP, RUN_MEM_LO, RUN_MEM_HI,
    REC_BASE, REC_REL, REC_LINE_START,
    LINE_L1S, LINE_L1T, LINE_L2S, LINE_L2T, LINE_CH, LINE_TXO,
    REC_PROBE_START,
    PROBE_RCS, PROBE_RCT, PROBE_MLS, PROBE_MLT, PROBE_MCH,
    L1_TAGS, L2_TAGS, RC_TAGS, L1_TOUCHED, L2_TOUCHED, RC_TOUCHED,
    FREE_AT, EV_BUF, OUT,
    NPTRS
};

/* Scalar slots per cell: the trace's shape, then the cell's machine
 * (SCALARS in repro.sim.native). */
enum {
    WARP_COUNT, EV_CAP, HAS_PROBES,
    L1_WAYS, L1_LATENCY, L2_WAYS, L2_LATENCY,
    DRAM_LATENCY, LINE_CYCLES, TX_CYCLES, RC_WAYS,
    NSCALARS
};

/* Output slots per cell: the run's counters, then a status word
 * (OUTPUTS in repro.sim.native). */
enum {
    L1_HITS, L1_MISSES, L2_HITS, L2_MISSES,
    DRAM_REQUESTS, DRAM_QUEUE_DELAY,
    RC_HITS, RC_MISSES, PROBE_L2_HITS, PROBE_L2_MISSES,
    STALL_CYCLES, FINISH, EV_COUNT, STATUS,
    OUT_SLOTS
};

/* The interface, read by repro.sim.codegen as its cffi declarations. */
/* cdef-begin */
void lmi_cell_run_batch(int64_t n, const int64_t *scalars, void **ptrs);
/* cdef-end */

/* The memory walks are inlined into run_one, where the cell below is
 * a local whose address never escapes, so its machine and counters
 * can live in registers.  Left to gcc -O2 to inline or not, the
 * kernel took about 3% longer on the Fig. 12 cells. */
#define WALK static inline __attribute__((always_inline))

/* What the memory walks of one cell read and write. */
typedef struct {
    const int64_t *rec_line_start, *line_l1s, *line_l1t;
    const int64_t *line_l2s, *line_l2t, *line_ch, *line_txo;
    const int64_t *rec_probe_start, *probe_rcs, *probe_rct;
    const int64_t *probe_mls, *probe_mlt, *probe_mch;
    int64_t *l1_tags, *l2_tags, *rc_tags, *free_at;
    uint8_t *l1_touched, *l2_touched, *rc_touched;
    int64_t l1_ways, l1_latency, l2_ways, l2_latency;
    int64_t dram_latency, line_cycles, tx_cycles, rc_ways;
    int64_t count[STALL_CYCLES]; /* the output slots before it */
} cell_t;

/* Look `tag` up in an LRU row of `ways` tags.  A hit moves it to the
 * MRU end; a miss fills the first empty slot or evicts row[0]. */
WALK int lru_hit(int64_t *row, int64_t ways, int64_t tag)
{
    int64_t i, j, t;

    for (i = 0; i < ways; i++) {
        t = row[i];
        if (t == tag) {
            for (j = i + 1; j < ways && row[j] != -1; j++)
                row[j - 1] = row[j];
            row[j - 1] = tag;
            return 1;
        }
        if (t == -1)
            break;
    }
    if (i == ways) {
        for (j = 1; j < ways; j++)
            row[j - 1] = row[j];
        row[ways - 1] = tag;
    } else {
        row[i] = tag;
    }
    return 0;
}

/* One access to L2 set `set` at cycle `now`, counted in count[hit] or
 * count[hit + 1].  A miss books DRAM channel `ch` from `now` or from
 * when the channel frees, whichever is later.  Returns the latency. */
WALK int64_t l2_access(cell_t *c, int64_t set, int64_t tag, int64_t ch,
                       int64_t now, int hit)
{
    int64_t start;

    c->l2_touched[set] = 1;
    if (lru_hit(c->l2_tags + set * c->l2_ways, c->l2_ways, tag)) {
        c->count[hit]++;
        return c->l2_latency;
    }
    c->count[hit + 1]++;
    start = c->free_at[ch] > now ? c->free_at[ch] : now;
    c->free_at[ch] = start + c->line_cycles;
    c->count[DRAM_REQUESTS]++;
    c->count[DRAM_QUEUE_DELAY] += start - now;
    return start + c->dram_latency - now;
}

/* Walk memory record `rec`'s lines through L1, L2 and DRAM at cycle
 * `now`.  Returns the slowest line's latency plus its LSU offset. */
WALK int64_t walk_lines(cell_t *c, int64_t rec, int64_t now)
{
    int64_t li, slowest = 0;

    for (li = c->rec_line_start[rec]; li < c->rec_line_start[rec + 1];
         li++) {
        int64_t s1 = c->line_l1s[li], latency;

        c->l1_touched[s1] = 1;
        if (lru_hit(c->l1_tags + s1 * c->l1_ways, c->l1_ways,
                    c->line_l1t[li])) {
            c->count[L1_HITS]++;
            latency = c->l1_latency;
        } else {
            c->count[L1_MISSES]++;
            latency = l2_access(c, c->line_l2s[li], c->line_l2t[li],
                                c->line_ch[li], now, L2_HITS);
        }
        latency += c->line_txo[li];
        if (latency > slowest)
            slowest = latency;
    }
    return slowest;
}

/* Probe record `rec`'s bounds metadata at cycle `now`: each RCache
 * miss fetches its entry's line through L2 or DRAM.  Returns the
 * slowest fetch, plus the fill port's serialization of every miss
 * after the first. */
WALK int64_t walk_probes(cell_t *c, int64_t rec, int64_t now)
{
    int64_t li, misses = 0, slowest = 0;

    for (li = c->rec_probe_start[rec]; li < c->rec_probe_start[rec + 1];
         li++) {
        int64_t rs = c->probe_rcs[li], latency;

        c->rc_touched[rs] = 1;
        if (lru_hit(c->rc_tags + rs * c->rc_ways, c->rc_ways,
                    c->probe_rct[li])) {
            c->count[RC_HITS]++;
            continue;
        }
        c->count[RC_MISSES]++;
        misses++;
        latency = l2_access(c, c->probe_mls[li], c->probe_mlt[li],
                            c->probe_mch[li], now, PROBE_L2_HITS);
        if (latency > slowest)
            slowest = latency;
    }
    if (misses > 1)
        slowest += c->tx_cycles * (misses - 1);
    return slowest;
}

static void run_one(const int64_t *sc, void *const *pp)
{
    const int64_t *run_start = pp[RUN_START], *run_length = pp[RUN_LENGTH];
    const int64_t *run_comp = pp[RUN_COMP], *run_mem_lo = pp[RUN_MEM_LO];
    const int64_t *run_mem_hi = pp[RUN_MEM_HI], *rec_base = pp[REC_BASE];
    const int64_t *rec_rel = pp[REC_REL];
    int64_t *ev_buf = pp[EV_BUF], *out = pp[OUT];
    const int64_t warp_count = sc[WARP_COUNT], ev_cap = sc[EV_CAP];
    const int has_probes = sc[HAS_PROBES] != 0;
    const int64_t n_words = (warp_count + 63) >> 6;
    int64_t *scratch, *wake_at, *ridx, *finals;
    uint64_t *ready, cur_bit = 1;
    int64_t live = 0, clock = 0, next_wake = NEVER, stall = 0, ev_n = 0;
    int64_t ready_count = 0, current = 0, cur_word = 0, finish = 0;
    int64_t w, k;
    cell_t c;

    scratch = malloc((size_t)(warp_count * 3 + n_words) * sizeof(int64_t));
    if (!scratch) {
        out[STATUS] = 1;
        return;
    }
    c.rec_line_start = pp[REC_LINE_START];
    c.line_l1s = pp[LINE_L1S];
    c.line_l1t = pp[LINE_L1T];
    c.line_l2s = pp[LINE_L2S];
    c.line_l2t = pp[LINE_L2T];
    c.line_ch = pp[LINE_CH];
    c.line_txo = pp[LINE_TXO];
    c.rec_probe_start = pp[REC_PROBE_START];
    c.probe_rcs = pp[PROBE_RCS];
    c.probe_rct = pp[PROBE_RCT];
    c.probe_mls = pp[PROBE_MLS];
    c.probe_mlt = pp[PROBE_MLT];
    c.probe_mch = pp[PROBE_MCH];
    c.l1_tags = pp[L1_TAGS];
    c.l2_tags = pp[L2_TAGS];
    c.rc_tags = pp[RC_TAGS];
    c.free_at = pp[FREE_AT];
    c.l1_touched = pp[L1_TOUCHED];
    c.l2_touched = pp[L2_TOUCHED];
    c.rc_touched = pp[RC_TOUCHED];
    c.l1_ways = sc[L1_WAYS];
    c.l1_latency = sc[L1_LATENCY];
    c.l2_ways = sc[L2_WAYS];
    c.l2_latency = sc[L2_LATENCY];
    c.dram_latency = sc[DRAM_LATENCY];
    c.line_cycles = sc[LINE_CYCLES];
    c.tx_cycles = sc[TX_CYCLES];
    c.rc_ways = sc[RC_WAYS];
    for (k = 0; k < STALL_CYCLES; k++)
        c.count[k] = 0;

    wake_at = scratch;
    ridx = scratch + warp_count;
    finals = scratch + warp_count * 2;
    ready = (uint64_t *)(scratch + warp_count * 3);
    for (k = 0; k < n_words; k++)
        ready[k] = 0;
    for (w = 0; w < warp_count; w++) {
        wake_at[w] = NEVER;
        finals[w] = 0;
        ridx[w] = run_start[w];
        if (run_start[w] < run_start[w + 1]) {
            ready[w >> 6] |= (uint64_t)1 << (w & 63);
            live++;
            ready_count++;
        }
    }

    while (live) {
        int64_t ri, length, comp, lo, hi, complete;

        if (next_wake <= clock) {
            int64_t nw = NEVER, t;
            for (w = 0; w < warp_count; w++) {
                t = wake_at[w];
                if (t <= clock) {
                    ready[w >> 6] |= (uint64_t)1 << (w & 63);
                    wake_at[w] = NEVER;
                    ready_count++;
                } else if (t < nw) {
                    nw = t;
                }
            }
            next_wake = nw;
        }
        if (!ready_count) {
            stall += next_wake - clock;
            clock = next_wake;
            continue;
        }
        if (!(ready[cur_word] & cur_bit)) {
            int b;
            for (k = 0; !ready[k]; k++)
                ;
            b = (int)__builtin_ctzll(ready[k]);
            cur_word = k;
            cur_bit = (uint64_t)1 << b;
            current = (k << 6) + b;
        }
        w = current;

        /* Issue the warp's next run. */
        ri = ridx[w]++;
        length = run_length[ri];
        comp = run_comp[ri];
        lo = run_mem_lo[ri];
        hi = run_mem_hi[ri];
        if (ev_buf && ev_n < ev_cap) {
            ev_buf[ev_n * 3] = clock;
            ev_buf[ev_n * 3 + 1] = w;
            ev_buf[ev_n * 3 + 2] = length;
            ev_n++;
        }
        if (lo != hi) {
            /* Walk the run's memory records in order; only a stateful
             * last one (comp < 0) waits for its slowest access. */
            int64_t base = rec_base[w], slowest = 0, m;
            for (m = lo; m < hi; m++) {
                int64_t rec = base + m, now = clock + rec_rel[rec];
                slowest = walk_lines(&c, rec, now);
                if (has_probes)
                    slowest += walk_probes(&c, rec, now);
            }
            if (comp < 0)
                comp = length - 2 + slowest - comp;
        }

        /* Retire it: finished, asleep until `complete`, or -- when it
         * is the only ready warp and nothing wakes first -- waited on. */
        complete = clock + comp;
        clock += length;
        if (ridx[w] == run_start[w + 1]) {
            live--;
            ready[cur_word] &= ~cur_bit;
            ready_count--;
            finals[w] = complete;
        } else if (complete > clock) {
            if (ready_count == 1 && next_wake >= complete) {
                stall += complete - clock;
                clock = complete;
            } else {
                ready[cur_word] &= ~cur_bit;
                ready_count--;
                wake_at[w] = complete;
                if (complete < next_wake)
                    next_wake = complete;
            }
        }
    }

    for (w = 0; w < warp_count; w++)
        if (finals[w] > finish)
            finish = finals[w];
    for (k = 0; k < STALL_CYCLES; k++)
        out[k] = c.count[k];
    out[STALL_CYCLES] = stall;
    out[FINISH] = finish;
    out[EV_COUNT] = ev_n;
    out[STATUS] = 0;
    free(scratch);
}

void lmi_cell_run_batch(int64_t n, const int64_t *scalars, void **ptrs)
{
    int64_t i;

    for (i = 0; i < n; i++)
        run_one(scalars + i * NSCALARS, (void *const *)(ptrs + i * NPTRS));
}

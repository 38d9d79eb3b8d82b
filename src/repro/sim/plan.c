/* Native issue-plan decoder: repro.sim.plan loads it.
 *
 * One fixed translation unit (not generated per cell): the model
 * family and its parameters, the plan geometry and the sim.timing
 * latencies arrive in a parameter block.  lmi_plan_count and
 * lmi_plan_write walk a ColumnarTrace's eight columns in place and
 * give the IssuePlan that expand_columnar plus decode_issue_plan
 * compute in NumPy, column for column and byte for byte:
 *
 *   - Baggy's check chain (`chain` serially dependent INT records
 *     after every checked record) is emitted during the walk; no
 *     expanded trace is built;
 *   - line geometry uses floor shifts, quotients and remainders, as
 *     NumPy's >>, // and % do, so negative line addresses decode too;
 *   - GPUShield probes each distinct buffer id of a record once, in
 *     the order CPython iterates set(ids) (set_order below).
 *
 * lmi_plan_count sizes every column (the probe columns at an upper
 * bound) and checks that each probed buffer id lies in
 * [0, max_id], the range in which its hash is the id itself and its
 * metadata address stays inside int64.  The caller allocates the
 * columns, passes them in IssuePlan slot order and trims the probe
 * columns to the count lmi_plan_write returns.  Nothing is static, so
 * threads may decode at once.
 */
#include <stdint.h>

/* Op-class codes of repro.sim.columnar (OP_INT .. OP_STL). */
enum { OP_INT, OP_FP, OP_LDG, OP_STG, OP_LDS, OP_STS, OP_LDL, OP_STL };

/* Model families with a decode of their own; every other plan key
 * (baseline, Baggy) decodes plainly. */
enum { FAMILY_PLAIN, FAMILY_LMI, FAMILY_GPUSHIELD };

/* IssuePlan's column slots: PLAN_COLUMNS + PROBE_COLUMNS, in order. */
enum {
    RUN_START, RUN_LENGTH, RUN_COMP, RUN_MEM_LO, RUN_MEM_HI,
    REC_BASE, REC_REL, REC_LINE_START,
    LINE_L1S, LINE_L1T, LINE_L2S, LINE_L2T, LINE_CH, LINE_TXO,
    REC_PROBE_START,
    PROBE_RCS, PROBE_RCT, PROBE_MLS, PROBE_MLT, PROBE_MCH,
    PLAN_SLOTS
};

/* The interface, read by plan.py as its cffi declarations. */
/* cdef-begin */
struct lmi_plan_params {
    int64_t family, ocu, chain;
    int64_t entry_bytes, rc_sets, metadata_base, max_id;
    int64_t l1_bits, l1_sets, l2_bits, l2_sets, channels;
    int64_t alu_latency, shared_latency, tx_cycles;
};
struct lmi_plan_trace {
    const uint8_t *ops, *depends, *checked;
    const int64_t *warp_offsets, *line_offsets, *lines;
    const int64_t *buffer_offsets, *buffers;
    int64_t warps;
};
struct lmi_plan_sizes {
    int64_t columns[20];
    int64_t instructions, extra_transactions, max_ids;
};
int64_t lmi_plan_count(const struct lmi_plan_params *p,
                       const struct lmi_plan_trace *t,
                       struct lmi_plan_sizes *s);
int64_t lmi_plan_write(const struct lmi_plan_params *p,
                       const struct lmi_plan_trace *t,
                       int64_t *const *columns, int64_t *scratch);
/* cdef-end */

_Static_assert(PLAN_SLOTS == 20, "one lmi_plan_sizes.columns entry per slot");

static int on_l1_path(uint8_t op)
{
    return op == OP_LDG || op == OP_STG || op == OP_LDL || op == OP_STL;
}

/* NumPy's floor >> (an arithmetic shift, spelled portably). */
static int64_t floor_shift(int64_t x, int64_t bits)
{
    return x < 0 ? ~(~x >> bits) : x >> bits;
}

/* NumPy's // and % by a positive d (the compiler shares one division
 * between the two). */
static int64_t floor_div(int64_t x, int64_t d)
{
    return x / d - (x % d < 0);
}

static int64_t floor_mod(int64_t x, int64_t d)
{
    int64_t r = x % d;
    return r < 0 ? r + d : r;
}

/* NumPy's int64 addition, which wraps. */
static int64_t wrap_add(int64_t a, int64_t b)
{
    return (int64_t)((uint64_t)a + (uint64_t)b);
}

/* ------------------------------------------------------------------
 * CPython's set(ids) iteration order (Objects/setobject.c, 3.9 to
 * 3.13) for ids in [0, 2**61 - 1), whose hash is the id itself.  The
 * table starts with 8 slots.  An id probes slot i = id & mask and,
 * when i + 9 <= mask, the 9 slots after it; then perturb >>= 5 and
 * i = (i*5 + 1 + perturb) & mask.  A present id is skipped; a new one
 * takes the first empty slot.  Once fill*5 >= mask*3 the table grows
 * to the smallest power of two above 4*used (2*used past 50,000),
 * reinserting the old slots in index order by the same walk.
 * Iteration is slot order. */

#define SET_EMPTY (-1)

static int set_insert(int64_t *table, uint64_t mask, int64_t id)
{
    uint64_t i = (uint64_t)id & mask, perturb = (uint64_t)id;

    for (;;) {
        uint64_t j = i, last = i + 9 <= mask ? i + 9 : i;
        for (; j <= last; j++) {
            if (table[j] == SET_EMPTY) {
                table[j] = id;
                return 1;
            }
            if (table[j] == id)
                return 0;
        }
        perturb >>= 5;
        i = (i * 5 + 1 + perturb) & mask;
    }
}

/* Copy the occupied slots of table[0..mask] to out; returns how many. */
static int64_t set_slots(const int64_t *table, uint64_t mask, int64_t *out)
{
    int64_t n = 0;
    uint64_t s;

    for (s = 0; s <= mask; s++)
        if (table[s] != SET_EMPTY)
            out[n++] = table[s];
    return n;
}

/* The distinct ids of ids[0..n) into out, in set() order; returns
 * their count.  table has room for 1 << max(3, bit_length(4*n))
 * slots, out for n ids. */
static int64_t set_order(const int64_t *ids, int64_t n, int64_t *table,
                         int64_t *out)
{
    uint64_t mask = 7, s;
    int64_t used = 0, k, moved;

    for (s = 0; s <= mask; s++)
        table[s] = SET_EMPTY;
    for (k = 0; k < n; k++) {
        if (!set_insert(table, mask, ids[k]))
            continue;
        used++;
        if ((uint64_t)used * 5 >= mask * 3) {
            uint64_t size = 8;
            uint64_t minused = (uint64_t)used * (used > 50000 ? 2 : 4);
            while (size <= minused)
                size <<= 1;
            moved = set_slots(table, mask, out);
            mask = size - 1;
            for (s = 0; s <= mask; s++)
                table[s] = SET_EMPTY;
            for (s = 0; s < (uint64_t)moved; s++)
                set_insert(table, mask, out[s]);
        }
    }
    return set_slots(table, mask, out);
}

/* ------------------------------------------------------------------ */

int64_t lmi_plan_count(const struct lmi_plan_params *p,
                       const struct lmi_plan_trace *t,
                       struct lmi_plan_sizes *s)
{
    const int64_t *wo = t->warp_offsets, *lo = t->line_offsets;
    const int64_t *bo = t->buffer_offsets;
    const int probes = p->family == FAMILY_GPUSHIELD;
    const int64_t n = wo[t->warps];
    int64_t runs = 0, records = 0, lines = 0, ids = 0, extra = 0;
    int64_t checked = 0, max_ids = 0, w, i, k;

    for (w = 0; w < t->warps; w++) {
        for (i = wo[w]; i < wo[w + 1]; i++) {
            int64_t width = lo[i + 1] - lo[i];
            runs += i == wo[w] || t->depends[i];
            checked += t->checked[i] != 0;
            if (width > 1)
                extra += width - 1;
            if (!on_l1_path(t->ops[i]))
                continue;
            records++;
            lines += width;
            if (!probes)
                continue;
            for (k = bo[i]; k < bo[i + 1]; k++)
                if ((uint64_t)t->buffers[k] > (uint64_t)p->max_id)
                    return 1;
            ids += bo[i + 1] - bo[i];
            if (bo[i + 1] - bo[i] > max_ids)
                max_ids = bo[i + 1] - bo[i];
        }
    }
    /* Every injected check opens a run of its own. */
    runs += p->chain * checked;

    s->columns[RUN_START] = t->warps + 1;
    s->columns[RUN_LENGTH] = s->columns[RUN_COMP] = runs;
    s->columns[RUN_MEM_LO] = s->columns[RUN_MEM_HI] = runs;
    s->columns[REC_BASE] = t->warps;
    s->columns[REC_REL] = records;
    s->columns[REC_LINE_START] = records + 1;
    for (k = LINE_L1S; k <= LINE_TXO; k++)
        s->columns[k] = lines;
    s->columns[REC_PROBE_START] = probes ? records + 1 : 0;
    for (k = PROBE_RCS; k <= PROBE_MCH; k++)
        s->columns[k] = ids;
    s->instructions = n + p->chain * checked;
    s->extra_transactions = extra;
    s->max_ids = max_ids;
    return 0;
}

/* In lmi_plan_write: close the open run, which ends before `pos`, as
 * run r (its length, completion delta and warp-local memory-record
 * bounds), and open the next one at `pos`. */
#define NEXT_RUN()                                                     \
    do {                                                               \
        int64_t length_ = pos - open;                                  \
        run_length[r] = length_;                                       \
        run_comp[r] = last < 0 ? ~last_extra /* -1 - extra */          \
                               : wrap_add(length_ - 1, last);          \
        run_mem_lo[r] = open_m - base;                                 \
        run_mem_hi[r] = m - base;                                      \
        r++;                                                           \
        open = pos;                                                    \
        open_m = m;                                                    \
    } while (0)

/* Write the plan into the columns lmi_plan_count sized; returns the
 * number of probes written (the probe columns' final length).
 * scratch holds set_order's table and output for max_ids ids when a
 * record probes more than one. */
int64_t lmi_plan_write(const struct lmi_plan_params *p,
                       const struct lmi_plan_trace *t,
                       int64_t *const *columns, int64_t *scratch)
{
    const struct lmi_plan_params q = *p;
    const uint8_t *const ops = t->ops, *const depends = t->depends;
    const uint8_t *const checked = t->checked;
    const int64_t *const wo = t->warp_offsets, *const lo = t->line_offsets;
    const int64_t *const line = t->lines, *const bo = t->buffer_offsets;
    const int64_t *const buffers = t->buffers;
    int64_t *const run_start = columns[RUN_START];
    int64_t *const run_length = columns[RUN_LENGTH];
    int64_t *const run_comp = columns[RUN_COMP];
    int64_t *const run_mem_lo = columns[RUN_MEM_LO];
    int64_t *const run_mem_hi = columns[RUN_MEM_HI];
    int64_t *const rec_base = columns[REC_BASE];
    int64_t *const rec_rel = columns[REC_REL];
    int64_t *const rec_line_start = columns[REC_LINE_START];
    int64_t *const line_l1s = columns[LINE_L1S];
    int64_t *const line_l1t = columns[LINE_L1T];
    int64_t *const line_l2s = columns[LINE_L2S];
    int64_t *const line_l2t = columns[LINE_L2T];
    int64_t *const line_ch = columns[LINE_CH];
    int64_t *const line_txo = columns[LINE_TXO];
    int64_t *const rec_probe_start = columns[REC_PROBE_START];
    int64_t *const probe_rcs = columns[PROBE_RCS];
    int64_t *const probe_rct = columns[PROBE_RCT];
    int64_t *const probe_mls = columns[PROBE_MLS];
    int64_t *const probe_mlt = columns[PROBE_MLT];
    int64_t *const probe_mch = columns[PROBE_MCH];
    const int probes = q.family == FAMILY_GPUSHIELD;
    /* runs, memory records, lines and probes written so far, and the
     * position in the (expanded) instruction stream. */
    int64_t r = 0, m = 0, nl = 0, nprobe = 0, pos = 0;
    int64_t w, i, k;

    for (w = 0; w < t->warps; w++) {
        /* The open run: its first position, the memory records before
         * it, and its last record's latency and state-free extra. */
        int64_t open = pos, open_m = m, last = 0, last_extra = 0;
        const int64_t base = m;

        run_start[w] = r;
        rec_base[w] = base;


        for (i = wo[w]; i < wo[w + 1]; i++) {
            const uint8_t op = ops[i];
            const int64_t width = lo[i + 1] - lo[i];

            if (i != wo[w] && depends[i])
                NEXT_RUN();
            if (op <= OP_FP)
                last = q.alu_latency;
            else if (op == OP_LDS || op == OP_STS)
                last = q.shared_latency
                       + q.tx_cycles * (width > 1 ? width - 1 : 0);
            else
                last = -1;
            last_extra = 0;
            if (q.family == FAMILY_LMI && checked[i]) {
                /* The OCU cycles ride on every checked record: fixed
                 * latencies absorb them, a stateful one carries them
                 * as its extra. */
                if (last >= 0)
                    last = wrap_add(last, q.ocu);
                last_extra = q.ocu;
            }
            if (on_l1_path(op)) {
                rec_rel[m] = pos - open;
                rec_line_start[m] = nl;
                for (k = 0; k < width; k++, nl++) {
                    int64_t s1 = floor_shift(line[lo[i] + k], q.l1_bits);
                    int64_t s2 = floor_shift(line[lo[i] + k], q.l2_bits);
                    line_l1s[nl] = floor_mod(s1, q.l1_sets);
                    line_l1t[nl] = floor_div(s1, q.l1_sets);
                    line_l2s[nl] = floor_mod(s2, q.l2_sets);
                    line_l2t[nl] = floor_div(s2, q.l2_sets);
                    line_ch[nl] = floor_mod(s2, q.channels);
                    line_txo[nl] = k * q.tx_cycles;
                }
                if (probes) {
                    const int64_t *ids = buffers + bo[i];
                    int64_t count = bo[i + 1] - bo[i];
                    rec_probe_start[m] = nprobe;
                    if (count > 1) {
                        int64_t *distinct = scratch;
                        count = set_order(ids, count, distinct + count,
                                          distinct);
                        ids = distinct;
                    }
                    for (k = 0; k < count; k++, nprobe++) {
                        /* ids lie in [0, max_id]: C's / and % are
                         * NumPy's, and no sum leaves int64. */
                        const int64_t id = ids[k];
                        const int64_t meta = (q.metadata_base
                                              + id * q.entry_bytes)
                                             >> q.l2_bits;
                        probe_rcs[nprobe] = id % q.rc_sets;
                        probe_rct[nprobe] = id / q.rc_sets;
                        probe_mls[nprobe] = meta % q.l2_sets;
                        probe_mlt[nprobe] = meta / q.l2_sets;
                        probe_mch[nprobe] = meta % q.channels;
                    }
                }
                m++;
            }
            pos++;
            if (q.chain > 0 && checked[i]) {
                /* Baggy's check chain: serially dependent INT records,
                 * one run each (the last one's run takes in the
                 * independent records after it). */
                for (k = 0; k < q.chain; k++) {
                    NEXT_RUN();
                    last = q.alu_latency;
                    last_extra = 0;
                    pos++;
                }
            }
        }
        if (pos > open)
            NEXT_RUN();
    }
    run_start[t->warps] = r;
    rec_line_start[m] = nl;
    if (probes)
        rec_probe_start[m] = nprobe;
    return nprobe;
}

#undef NEXT_RUN

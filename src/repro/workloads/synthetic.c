/* Native trace synthesizer for repro.workloads.synthetic.
 *
 * One fixed translation unit (not generated per profile): the profile
 * arrives as a parameter block.  lmi_synth_run replays the Python
 * loop of synthesize_trace draw for draw, so both write byte-equal
 * columns:
 *
 *   - each warp draws from CPython's MT19937, seeded as
 *     random.Random(seed) seeds it for a seed below 2**32:
 *     init_by_array({seed}, 1);
 *   - random() is ((a >> 5) * 67108864.0 + (b >> 6)) / 2**53 over two
 *     32-bit words, as CPython computes it;
 *   - getrandbits(k) for 1 <= k <= 32 is the top k bits of one word,
 *     and randrange(n) the getrandbits(n.bit_length()) rejection loop.
 *
 * Draws wider than 32 bits stay on the Python loop.  Each warp's
 * generator lives on lmi_synth_run's stack, so threads may run the kernel
 * at once.  The caller sizes `lines` and `buffers`; when an
 * instruction may not fit, the kernel stops at the start of its warp
 * and reports the capacity it needs, and the caller grows the columns
 * and resumes from that warp (each warp reseeds, so nothing is lost).
 */
#include <stdint.h>

/* Op-class codes of repro.sim.columnar (OP_INT .. OP_STL). */
enum { OP_INT, OP_FP, OP_LDG, OP_STG, OP_LDS, OP_STS, OP_LDL, OP_STL };

enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    uint32_t out[MT_N]; /* mt, tempered */
    int index;
} mt_state;

/* The interface, read by repro.sim.codegen as its cffi declarations. */
/* cdef-begin */
struct lmi_synth_params {
    int64_t warps, instructions_per_warp;
    int64_t lines_in_set, line_bits, n_buffers, buffer_bits;
    int64_t uncoalesced, scatter, line_bytes;
    int64_t global_base, shared_base, local_base;
    double dep_rate, mem_fraction, load_fraction;
    double global_frac, global_shared_frac, coalesced;
    double buffer_switch, int_fraction, ptr_rate;
};

struct lmi_synth_columns {
    const int64_t *seeds;
    uint8_t *ops, *depends, *checked;
    int64_t *line_offsets, *lines, *buffer_offsets, *buffers;
    int64_t line_cap, buffer_cap;
    int64_t line_need, buffer_need;
};

int64_t lmi_synth_run(const struct lmi_synth_params *p,
                      struct lmi_synth_columns *c, int64_t warp);
/* cdef-end */

static void mt_seed(mt_state *s, uint32_t key)
{
    uint32_t *mt = s->mt;
    int i, k;

    mt[0] = 19650218U; /* init_genrand(19650218) */
    for (i = 1; i < MT_N; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + (uint32_t)i;
    i = 1;
    for (k = MT_N; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key;
        if (++i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
                - (uint32_t)i;
        if (++i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    s->index = MT_N;
}

/* The next MT_N words of state, tempered into s->out in one pass
 * (faster than tempering at each draw); kept out of line, so every
 * draw inlines only a load. */
static __attribute__((noinline)) void mt_twist(mt_state *s)
{
    uint32_t *mt = s->mt;
    uint32_t y;
    int kk;

    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
        mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1)
                 ^ (-(y & 1U) & 0x9908b0dfU);
    }
    y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
    mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
    for (kk = 0; kk < MT_N; kk++) {
        y = mt[kk];
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= y >> 18;
        s->out[kk] = y;
    }
    s->index = 0;
}

static uint32_t mt_next(mt_state *s)
{
    if (s->index >= MT_N)
        mt_twist(s);
    return s->out[s->index++];
}

/* random.random() */
static double mt_random(mt_state *s)
{
    uint32_t a = mt_next(s) >> 5;
    uint32_t b = mt_next(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* randrange(n) for 0 < n <= 2**32, with bits = n.bit_length(). */
static int64_t mt_below(mt_state *s, int64_t n, int64_t bits)
{
    int64_t value = mt_next(s) >> (32 - bits);
    while (value >= n)
        value = mt_next(s) >> (32 - bits);
    return value;
}

/* Synthesize warps [warp, p->warps) into c; returns the warp it
 * stopped at (p->warps when done).  Starts each warp at the fill that
 * c->line_offsets / c->buffer_offsets hold for its first instruction.
 */
int64_t lmi_synth_run(const struct lmi_synth_params *p,
                      struct lmi_synth_columns *c, int64_t warp)
{
    /* Locals, not loads through p and c: the uint8_t column stores
     * may alias anything, so the compiler would reload those. */
    const struct lmi_synth_params q = *p;
    uint8_t *const ops = c->ops, *const depends = c->depends;
    uint8_t *const checked = c->checked;
    int64_t *const line_offsets = c->line_offsets, *const lines = c->lines;
    int64_t *const buffer_offsets = c->buffer_offsets;
    int64_t *const buffers = c->buffers;
    const int64_t line_cap = c->line_cap, buffer_cap = c->buffer_cap;
    /* The most lines and buffer ids one instruction appends. */
    const int64_t widest = q.uncoalesced > 1 ? q.uncoalesced : 1;
    const int64_t widest_buffers = q.scatter ? widest : 1;

    c->line_need = 0;
    c->buffer_need = 0;
    for (; warp < q.warps; warp++) {
        mt_state rng;
        int64_t i = warp * q.instructions_per_warp;
        int64_t end = i + q.instructions_per_warp;
        int64_t nl = line_offsets[i], nb = buffer_offsets[i];
        int64_t cursor = (warp * 7919) % q.lines_in_set;
        int64_t current_buffer;

        mt_seed(&rng, (uint32_t)c->seeds[warp]);
        current_buffer = mt_below(&rng, q.n_buffers, q.buffer_bits);
        for (; i < end; i++) {
            if (nl + widest > line_cap || nb + widest_buffers > buffer_cap) {
                c->line_need = nl + widest;
                c->buffer_need = nb + widest_buffers;
                return warp;
            }
            depends[i] = mt_random(&rng) < q.dep_rate;
            if (mt_random(&rng) < q.mem_fraction) {
                double region = mt_random(&rng);
                int is_load = mt_random(&rng) < q.load_fraction;
                int64_t base, width, k;
                if (region < q.global_frac) {
                    ops[i] = is_load ? OP_LDG : OP_STG;
                    base = q.global_base;
                } else if (region < q.global_shared_frac) {
                    ops[i] = is_load ? OP_LDS : OP_STS;
                    base = q.shared_base;
                } else {
                    ops[i] = is_load ? OP_LDL : OP_STL;
                    base = q.local_base;
                }
                checked[i] = 0;
                if (mt_random(&rng) < q.coalesced) {
                    cursor = (cursor + 1) % q.lines_in_set;
                    lines[nl++] = base + cursor * q.line_bytes;
                    width = 1;
                } else {
                    width = q.uncoalesced;
                    for (k = 0; k < width; k++)
                        lines[nl++] = base
                            + mt_below(&rng, q.lines_in_set, q.line_bits)
                              * q.line_bytes;
                }
                if (q.scatter) {
                    for (k = 0; k < width; k++)
                        buffers[nb++] = mt_below(&rng, q.n_buffers,
                                                 q.buffer_bits);
                } else {
                    if (mt_random(&rng) < q.buffer_switch)
                        current_buffer = mt_below(&rng, q.n_buffers,
                                                  q.buffer_bits);
                    buffers[nb++] = current_buffer;
                }
            } else {
                if (mt_random(&rng) < q.int_fraction) {
                    ops[i] = OP_INT;
                    checked[i] = mt_random(&rng) < q.ptr_rate;
                } else {
                    ops[i] = OP_FP;
                    checked[i] = 0;
                }
                buffers[nb++] = 0; /* ALU records carry buffer id 0 */
            }
            line_offsets[i + 1] = nl;
            buffer_offsets[i + 1] = nb;
        }
    }
    return warp;
}

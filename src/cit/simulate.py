"""Monte Carlo laboratory: binning reconciliation and staged key agreement.

`sw_binning_simulate` measures the decoding error of hash binning with an
exact maximum-likelihood-over-the-bin decoder. `cr_sk_simulate` runs the
staged scheme blockwise: per round the speaker computes its chain values
symbolwise, communicates a universal-hash bin index at roughly the
conditional-entropy rate plus a slack, the listener decodes by maximum
likelihood over the bin (realized as a best-first search in likelihood
order, run once per distinct context and syndrome, on rank tuples coded as
mixed-radix ints), and the final key is a seeded universal hash of the
accumulated common randomness. Leakage (1/n) I(K; F) is computed exactly
when the support of the block law is enumerable, otherwise plug-in
estimated and flagged. The transcript F is one word, each stage's bits in
stage order from the top: a hashed stage's syndrome, or an identity stage's
block index. Each sent block is hashed once. The exact computation
enumerates the support's blocks EXACT_BLOCK_CELLS cells at a time and adds
their masses into a dense table over every (K, F) pair, so its memory does
not grow with |supp P|^n. It decodes only what K or F reads: a hashed stage
after y's last word is not decoded there, since K hashes x's versions.

Randomness layout, so that results do not depend on execution order. The
trial streams [seed, k, t] are those of `np.random.default_rng([seed, k, t])`,
built for a whole range of t from one batched `SeedSequence` expansion:

- `cr_sk_simulate`: stream [seed, 0, j] fixes the stage-j binning hash,
  [seed, 1] the key hash, [seed, 2, t] drives trial t.
- `sw_binning_simulate`: [seed, 1, t] drives trial t. It draws the block;
  on binary sources it then draws the k rows of the trial's hash A as one
  vector draw, redrawn together until A has full row rank. On other
  alphabets [seed, 0] draws the rows of the one hash of all trials the same
  way. The offset b of x -> Ax xor b is not drawn: the bin of the sent word
  w is {v : Av = Aw} = w xor null(A) whatever b is. It was the last draw of
  its generator, so no other draw moves. Trials are drawn one by one and
  decoded in blocks of SW_BLOCK: one elimination for all hashes of a block,
  then bins and scores for chunks of trials whose (chunk, bin size, n)
  arrays take about 256 KB. A bin lists every m-bit word of the coset; on
  alphabets that are not a power of two, words that are no sequence score
  -inf.

Every trial's block of n cells of P is the draw `Generator.choice` makes
with p = P, cell for cell and with the same generator state after it: the
uniforms of one `random(n)` looked up in the CDF of P that `choice` builds
on every call, built here once for a whole stack of blocks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import pmf as laws  # read at call time: `laws.LAW_BUDGET`
from .chains import DeterministicChain, _copy_chain, chain_tensor, speaker_of
from .errors import RateInfeasible, RateOutOfRange, SizeBudgetExceeded
from .hashing import (MAX_BITS, AffineGf2Hash, coset_words, pack_digits, sample_null_spaces,
                      unpack_digits)
from .pmf import JointPMF, conditional_entropy, entropy, plogp_sum

LOG_FLOOR = -1e30
COSET_CAP = 4096
POP_BUDGET = 4096
# These and `pmf.LAW_BUDGET` on the dense (K, F) table choose exact or estimated
# leakage; the enumeration streams in blocks, so these bound its time, not its memory.
EXACT_ROWS_BUDGET = 2 ** 22
EXACT_CELLS_BUDGET = 2 ** 25
EXACT_BLOCK_CELLS = 2 ** 16  # enumerated rows x n per block, about 0.5 MB per int64 array
SW_BLOCK = 256  # sw trials drawn and decoded together; a generator holds ~5 KB


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), LOG_FLOOR)


def _plugin_entropy(masses: np.ndarray) -> float:
    masses = masses[masses > 0]
    return -plogp_sum(masses / masses.sum()) + 0.0


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(a, axis=0, return_inverse=True)` of a 2-d integer array:
    the distinct rows in lexicographic order, and each row's index among them."""
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inv = np.empty(len(a), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return rows[new], inv


def _group_entropies(groups: np.ndarray, masses: np.ndarray) -> tuple[float, float, float]:
    """(H(K), H(F), H(K, F)) in bits from the distinct (K, F) word pairs in
    lexicographic order, as the rows of `groups`, and their unnormalized
    masses."""
    joint = masses / masses.sum()
    h_k = _plugin_entropy(np.bincount(_distinct_rows(groups[:, :1])[1], weights=joint))
    h_f = _plugin_entropy(np.bincount(_distinct_rows(groups[:, 1:])[1], weights=joint))
    h_kf = _plugin_entropy(joint)
    return h_k, h_f, h_kf


class _PresetState(np.random.bit_generator.ISeedSequence):
    """Hands `PCG64` the state words a `SeedSequence` would generate."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def _trial_states(prefix: tuple[int, ...], ts: range) -> np.ndarray:
    """The PCG64 state words of `np.random.default_rng(list(prefix) + [t])`
    for every t of `ts`, one row of 4 uint64 words per t.

    `SeedSequence` hashes its entropy words into a pool of 4 and the pool
    into PCG64's state with fixed uint32 arithmetic. With t < 2^32 every
    trial has the same words but its last, so the hash runs once, as array
    arithmetic over all t; numpy then seeds PCG64 from each state as usual.
    """
    if ts.start < 0 or ts.stop > 1 << 32:
        raise ValueError(f"trial indices must lie in [0, 2^32), got {ts}")
    if not ts:
        return np.empty((0, 4), dtype=np.uint64)
    mask = 0xFFFFFFFF
    entropy = []
    for v in prefix:  # uint32 words, least significant first; 0 is one word 0
        if v < 0:
            raise ValueError("expected non-negative integer")
        entropy += [np.full(1, v >> s & mask, dtype=np.uint32)
                    for s in range(0, max(v.bit_length(), 1), 32)]
    entropy.append(np.arange(ts.start, ts.stop, dtype=np.uint32))
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * 0x931E8875 & mask
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, dtype=np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    state = np.empty((len(ts), 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & mask
        value = value * const
        state[:, i] = value ^ value >> 16
    # pairs of uint32 words, the first least significant, as generate_state's uint64 view
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of `_trial_states` words."""
    return [np.random.Generator(np.random.PCG64(_PresetState(row))) for row in words]


def _trial_rngs(prefix: tuple[int, ...], ts: range) -> list[np.random.Generator]:
    """`np.random.default_rng(list(prefix) + [t])` for every t of `ts`."""
    return _generators(_trial_states(prefix, ts))


@dataclass(frozen=True)
class SwBinningReport:
    n: int
    rate: float
    bins_log2: int
    trials: int
    seed: int
    errors: int
    error_rate: float

    def to_json(self) -> dict:
        return asdict(self)


def _draw_blocks(pmf: JointPMF, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) blocks of n symbols, one row per generator in `rngs`: each row
    is the generator's `choice(pmf.p.size, size=n, p=pmf.p.ravel())` draw,
    looked up in the CDF that `choice` builds, built here once."""
    cdf = pmf.p.ravel().cumsum()
    cdf /= cdf[-1]
    u = np.array([rng.random(n) for rng in rngs])
    return np.divmod(cdf.searchsorted(u, side="right"), pmf.shape[1])


def _chunk_rows(row_bytes: int) -> int:
    """Rows per chunk so that a score operand of `row_bytes` per row takes
    about 256 KB, which stays in cache."""
    return max(1, (1 << 18) // row_bytes)


def _bin_errors(words: np.ndarray, null: np.ndarray, yd: np.ndarray, ll: np.ndarray,
                bits_per: int) -> int:
    """Decoding errors of words of `bits_per`-bit digits sent as their bins
    word xor span(null), each decoded by maximum likelihood over its bin
    given the side block yd; `ll` has a row per digit value. Packed words
    order as their sequences do, so the first best word is the smallest."""
    n = yd.shape[1]
    chunk = _chunk_rows((8 << null.shape[1]) * n)
    errors = 0
    for lo in range(0, len(words), chunk):
        sent = words[lo:lo + chunk]
        side = yd[lo:lo + chunk]
        cands = coset_words(sent, null[lo:lo + chunk])
        digits = unpack_digits(cands, n, bits_per)
        if bits_per == 1:
            l0 = ll[0, side]
            l1 = ll[1, side]
            # one trial's `bits @ (l1 - l0) + l0.sum()`, operation for operation:
            # on symmetric sources the rounding decides many exact ties
            scores = ((digits.astype(np.float64) @ (l1 - l0)[:, :, None])[:, :, 0]
                      + l0.sum(axis=1, keepdims=True))
        else:
            # each word's terms summed along its own contiguous length-n row,
            # as a loop over trials sums them
            scores = ll[digits, side[:, None, :]].sum(axis=-1)
        best = np.take_along_axis(cands, np.argmax(scores, axis=1)[:, None], axis=1)[:, 0]
        errors += int(np.count_nonzero(best != sent))
    return errors


def sw_binning_simulate(
    pmf: JointPMF, n: int, rate: float, trials: int, seed: int
) -> SwBinningReport:
    """Estimate the block error of hash binning with an ML-over-bin decoder.

    A block of n symbols is sent as the syndrome of its packed m-bit word,
    m = n * ceil(log2 |X|), under a full-row-rank hash: a fresh one per trial
    on binary sources, one for all trials on other alphabets. The decoder
    enumerates the bin as the coset of the hash's null space that holds the
    sent word and takes its most likely sequence given the side block; the
    module docstring gives the draws and the chunked decode. Ties are broken
    toward the smallest sequence.

    Raises ValueError for a blocklength or a trial count below 1, and
    SizeBudgetExceeded for a word of more than MAX_BITS bits or bins of more
    than COSET_CAP words.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 1:
        raise ValueError(f"blocklength must be at least 1, got {n}")
    nx = pmf.shape[0]
    bits_per = (nx - 1).bit_length()
    m = n * bits_per
    if m > MAX_BITS:
        raise SizeBudgetExceeded(f"blocks pack into {m} > {MAX_BITS} bits")
    log_alpha = math.log2(nx)
    if not 0 < rate <= log_alpha + 1e-12:   # NaN fails too
        raise RateOutOfRange(f"rate must lie in (0, log2 |X|] = (0, {log_alpha:.4f}], got {rate}")
    k_bits = min(math.ceil(n * rate - 1e-12), math.ceil(n * log_alpha - 1e-12))
    if (1 << (m - k_bits)) > COSET_CAP:
        raise SizeBudgetExceeded(f"bins of size 2^{m - k_bits} exceed the decoder cap {COSET_CAP}")
    # log P(x | y) per (digit, y value); a digit that names no symbol never wins
    ll = np.full((1 << bits_per, pmf.shape[1]), -np.inf)
    ll[:nx] = _safe_log(pmf.conditional_rows("y").T)
    # other alphabets: the rows `AffineGf2Hash.sample` draws from [seed, 0]
    shared = None if nx == 2 else sample_null_spaces([np.random.default_rng([seed, 0])], m, k_bits)

    errors = 0
    # the seed hash runs once; a block's generators (~5 KB each) live with the block
    words = _trial_states((seed, 1), range(trials))
    for first in range(0, trials, SW_BLOCK):
        rngs = _generators(words[first:first + SW_BLOCK])
        xd, yd = _draw_blocks(pmf, n, rngs)
        null = (sample_null_spaces(rngs, m, k_bits) if shared is None
                else np.broadcast_to(shared, (len(rngs), m - k_bits)))
        errors += _bin_errors(pack_digits(xd, bits_per), null, yd, ll, bits_per)
    return SwBinningReport(
        n=n, rate=rate, bins_log2=k_bits, trials=trials, seed=seed,
        errors=errors, error_rate=errors / trials,
    )


@dataclass(frozen=True)
class SimReport:
    trials: int
    n: int
    seed: int
    slack: float
    cr_error_rate: float
    comm_rate: float
    key_rate: float
    key_bits: int
    leakage: float
    leakage_exact: bool
    uniformity_gap: float
    stage_bits: tuple[int, ...]
    decode_failures: int
    # per stage: the trials' decodes and the exact leakage's decodes that K or
    # F reads, each straggler row with the pops of its search; not in to_json
    stragglers: tuple[int, ...] = ()
    pops: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "trials": self.trials, "n": self.n, "seed": self.seed, "slack": self.slack,
            "cr_error_rate": self.cr_error_rate,
            "comm_rate": self.comm_rate,
            "key_rate": self.key_rate,
            "key_bits": self.key_bits,
            "leakage": self.leakage,
            "leakage_basis": "exact" if self.leakage_exact else "estimate",
            "uniformity_gap": self.uniformity_gap,
            "stage_bits": list(self.stage_bits),
            "decode_failures": self.decode_failures,
        }


class _Stage:
    """Per-round tables, hash, and decoder for the staged scheme.

    An identity stage sends the speaker's block as it is; the transcript
    holds its index among the size^n blocks, which fits its k_bits. A
    hashed stage sends the k_bits syndrome of the packed block."""

    def __init__(self, tensor, chain, j, n, slack, seed):
        self.size = chain.sizes[j - 1]
        self.table = np.asarray(chain.tables[j - 1])
        side = speaker_of(j, chain.initiator)
        self.speaker = side
        self.listener = "y" if side == "x" else "x"
        prior = tuple(f"u{i}" for i in range(1, j))
        self.cond_entropy = conditional_entropy(tensor, f"u{j}", (self.listener,) + prior)
        self.bits_per = (self.size - 1).bit_length()
        self.m = n * self.bits_per
        raw_bits = math.ceil(n * math.log2(self.size) - 1e-12)
        want = math.ceil(n * (self.cond_entropy + slack) - 1e-12)
        # a size-1 stage has 0 raw bits and sends nothing, whatever the slack
        self.identity = self.size == 1 or want >= raw_bits
        if self.identity:
            self.k_bits = raw_bits
            self.hash = None
            self.powers = self.size ** np.arange(n, dtype=np.int64)  # of the block index
        elif want < 0:
            raise ValueError(f"stage {j}: slack {slack} would leave its hash {want} "
                             "output bits; it needs at least 0")
        else:
            self.k_bits = want
            self.hash = AffineGf2Hash.sample(np.random.default_rng([seed, 0, j]), self.m, want)
            # linear hash part of digit d at position t, an (n, size) array
            digit_words = (np.arange(self.size, dtype=np.uint64)[None, :]
                           << (np.arange(n, dtype=np.uint64)[:, None] * np.uint64(self.bits_per)))
            self.contrib = self.hash.apply(digit_words) ^ np.uint64(self.hash.offset)
        # decoder counters, summed over every decode call of this stage
        self.stragglers = 0
        self.pops = 0
        # P(u_j = v | listener symbol, prior values), uniform on impossible contexts
        # marginal_array keeps the tensor's axis order: the listener, then u_1..u_j
        marg = tensor.marginal_array((self.listener,) + prior + (f"u{j}",))
        tot = marg.sum(axis=-1, keepdims=True)
        cond = np.where(tot > 0, marg / np.where(tot > 0, tot, 1.0), 1.0 / self.size)
        self.ll = _safe_log(cond)
        self.like_order = np.argsort(-self.ll, axis=-1, kind="stable")
        self.sorted_ll = np.take_along_axis(self.ll, self.like_order, axis=-1)

    def decode(self, synd, listener_digits, prior_versions):
        """Listener estimates of a hashed stage from the sent syndromes;
        returns (digits, failures).

        A row whose most likely sequence misses its syndrome is a
        straggler. The stragglers go to `_search` at once, at POP_BUDGET
        pops each, one search per distinct (context, syndrome); every row
        takes the digits and verdict of its search. The stage counters add
        every straggler row and, for each, the pops of its search, as if
        each row were searched alone. `_run_rows` with `read_only` skips the
        decodes nothing reads, so they count nowhere.
        """
        ctx = (listener_digits,) + tuple(prior_versions)
        out = self.like_order[ctx + (0,)]
        stragglers = np.flatnonzero(self.hash.apply(pack_digits(out, self.bits_per)) != synd)
        rows = tuple(c[stragglers] for c in ctx) + (synd[stragglers],)
        distinct, inv = _distinct_rows(np.column_stack([r.astype(np.uint64) for r in rows]))
        first = np.zeros(len(distinct), dtype=np.intp)
        first[inv] = np.arange(len(inv))
        digits, found, pops = self._search(tuple(r[first] for r in rows[:-1]), rows[-1][first],
                                           POP_BUDGET)
        found = found[inv]
        self.stragglers += len(inv)
        self.pops += int(pops[inv].sum())
        out[stragglers[found]] = digits[inv[found]]
        return out, int(np.count_nonzero(~found))

    def _search(self, ctx, syndromes, pop_budget):
        """Best-first decode of rows with contexts `ctx` ((rows, n) arrays of
        listener digits and prior values); returns the (rows, n) digits, the
        found flags and each row's pops. One gather builds every row's
        `_best_first` tables.
        """
        order = self.like_order[ctx]                      # (rows, n, size)
        sorted_ll = self.sorted_ll[ctx]
        c = self.contrib[np.arange(order.shape[1])[:, None], order]
        steps = (sorted_ll[..., 1:] - sorted_ll[..., :-1]).tolist()
        flips = (c[..., :-1] ^ c[..., 1:]).tolist()
        syns = (np.bitwise_xor.reduce(c[..., 0], axis=-1) ^ np.uint64(self.hash.offset)).tolist()
        # a contiguous copy, so each row is summed alone, in one row's pairwise order
        scores = np.ascontiguousarray(sorted_ll[..., 0]).sum(axis=-1).tolist()
        ranks = np.zeros(order.shape[:2], dtype=np.intp)
        found = np.zeros(len(order), dtype=bool)
        pops = np.zeros(len(order), dtype=np.int64)
        for i, syndrome in enumerate(syndromes.tolist()):
            got, pops[i] = _best_first(steps[i], flips[i], scores[i], syns[i], syndrome,
                                       pop_budget)
            if got is not None:
                ranks[i] = got
                found[i] = True
        return np.take_along_axis(order, ranks[..., None], axis=-1)[..., 0], found, pops


def _best_first(steps, flips, score, syn, syndrome, pop_budget):
    """ML over the bin: walk rank tuples in decreasing likelihood until the
    syndrome matches. Returns (ranks or None, pops): None when the pop
    budget runs out.

    The tables are plain lists: raising position t from rank r adds
    `steps[t][r]` to the log-likelihood and XORs `flips[t][r]` into the
    syndrome; `score` and `syn` are those of the all-zero ranks. A rank
    tuple is one mixed-radix int, position t at place radix^(n-1-t), so
    ints order as the tuples do and the heap pops the same nodes in the
    same order; a pop is pure Python on ints.
    """
    n = len(steps)
    last = len(steps[0])
    radix = last + 1
    places = [radix ** (n - 1 - t) for t in range(n)]
    moves = list(zip(places, steps, flips))
    heap = [(-score, 0, syn)]
    seen = {0}
    pops = 0
    while heap and pops < pop_budget:
        neg, code, syn = heapq.heappop(heap)
        pops += 1
        if syn == syndrome:
            return [code // place % radix for place in places], pops
        for place, step, flip in moves:
            r = code // place % radix
            if r < last:
                nxt = code + place
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (neg - step[r], nxt, syn ^ flip[r]))
    return None, pops


def default_copy_chain(pmf: JointPMF) -> DeterministicChain:
    """One round, the first terminal reveals its symbol."""
    nx, ny = pmf.shape
    return _copy_chain(nx, ny, (nx,), "x")


def _run_rows(stages: list[_Stage], key_hash: AffineGf2Hash, xd: np.ndarray, yd: np.ndarray,
              read_only: bool = False):
    """The staged scheme on the (rows, n) blocks xd, yd, all stages vectorized
    over the rows; returns (error flags, K values, F values, failures).

    F is one word: each stage's k_bits in stage order from the top, a hashed
    stage's syndrome or an identity stage's block index. Its listener takes
    an identity stage's block as sent.

    With `read_only`, for callers that read only K and F, a hashed stage
    after y's last word is not decoded: y takes the sent block. y's versions
    of those stages feed no later word, K hashes x's versions and F holds
    what was sent, so K and F are unchanged; the error flags and failures
    no longer count those stages.
    """
    rows = len(xd)
    true_u: list[np.ndarray] = []
    ver = {"x": [], "y": []}
    transcript = np.zeros(rows, dtype=np.uint64)
    failures = 0
    last_y = max((j for j, st in enumerate(stages) if st.speaker == "y"), default=-1)
    for j, st in enumerate(stages):
        sd = xd if st.speaker == "x" else yd
        ld = yd if st.speaker == "x" else xd
        true_u.append(st.table[(sd,) + tuple(true_u)])
        sent = st.table[(sd,) + tuple(ver[st.speaker])]
        if st.identity:
            part = (sent @ st.powers).astype(np.uint64)
        else:
            part = st.hash.apply(pack_digits(sent, st.bits_per))
        if st.identity or (read_only and j > last_y):
            decoded = sent
        else:
            decoded, fail = st.decode(part, ld, ver[st.listener])
            failures += fail
        transcript = transcript << np.uint64(st.k_bits) | part
        ver[st.speaker].append(sent)
        ver[st.listener].append(decoded)

    def pack_cr(parts):
        cr = np.zeros(rows, dtype=np.uint64)
        offset = 0
        for st, part in zip(stages, parts):
            cr |= pack_digits(part, st.bits_per) << np.uint64(offset)
            offset += st.m
        return cr

    cr_true = pack_cr(true_u)
    cr_x = pack_cr(ver["x"])
    cr_y = pack_cr(ver["y"])
    err = (cr_x != cr_true) | (cr_y != cr_true)
    return err, key_hash.apply(cr_x), transcript, failures


def _exact_entropies(
    pmf: JointPMF, cells: np.ndarray, n: int, n_rows: int, stages: list[_Stage],
    key_hash: AffineGf2Hash,
) -> tuple[float, float, float]:
    """(H(K), H(F), H(K, F)) in bits over every block of the support `cells`
    of P, each weighted by its probability; `n_rows` = s^n blocks.

    Row c of the enumeration picks cell c // s^t % s at position t, s the
    support size; its weight multiplies the cells' masses in position order.
    The rows go through `_run_rows` about EXACT_BLOCK_CELLS cells at a
    time, so the enumeration does not grow with s^n. Each row's weight is
    added into a dense table of every (K, F) word, K above F, in row order,
    the order of one `np.bincount` over all rows, so the masses keep their
    bits. A row's weight is a product of support masses, so the words the
    rows reach are the table's positive cells; a word that only rows whose
    weight underflows to 0 reach holds no mass and is left out.
    `pmf.LAW_BUDGET` caps the table.
    """
    support = len(cells)
    f_bits = sum(st.k_bits for st in stages)
    probs = pmf.p[cells[:, 0], cells[:, 1]]
    block = max(1, EXACT_BLOCK_CELLS // n)
    mass = np.zeros(1 << (key_hash.k + f_bits))
    for lo in range(0, n_rows, block):
        idx = np.arange(lo, min(lo + block, n_rows))
        sel = np.empty((len(idx), n), dtype=np.int64)
        w = np.ones(len(idx))
        for t in range(n):
            sel[:, t] = (idx // support ** t) % support
            w *= probs[sel[:, t]]
        _, keys, transcript, _ = _run_rows(stages, key_hash, cells[sel, 0], cells[sel, 1],
                                           read_only=True)
        kf = keys << np.uint64(f_bits) | transcript
        np.add.at(mass, kf, w)
    words = np.flatnonzero(mass)
    mass = mass[words]  # releases the dense table before the grouping
    return _group_entropies(np.stack([words >> f_bits, words & ((1 << f_bits) - 1)], axis=1), mass)


def cr_sk_simulate(
    pmf: JointPMF,
    chain: DeterministicChain,
    n: int,
    key_rate: float,
    trials: int,
    seed: int,
    slack: float = 0.25,
) -> SimReport:
    """Run the staged common-randomness and key generation scheme blockwise.

    The leakage and uniformity gap are exact when the support of P^n fits
    the budgets: every block of the support goes through the scheme,
    weighted by its probability, EXACT_BLOCK_CELLS cells at a time, so
    memory is bounded by that and by the dense (K, F) table, which
    `pmf.LAW_BUDGET` caps. Otherwise they are plug-in estimates from the trials.

    Raises RateInfeasible when `key_rate` is NaN, below 0 or above the chain's
    net extractable rate H(U^r) - sum_j H(U_j | listener_j, U^{j-1}), which
    for a feasible chain equals I(X;Y). Raises ValueError for a blocklength or
    a trial count below 1, a `slack` that is not finite (before any stage is
    built) or would leave a stage's hash fewer than 0 output bits, and
    SizeBudgetExceeded, before any stage is built, for common randomness of
    over MAX_BITS bits, n ceil(log2 |U_j|) a stage.
    """
    if not isinstance(chain, DeterministicChain):
        raise ValueError("the staged scheme needs a deterministic chain")
    if n < 1:
        raise ValueError(f"blocklength must be at least 1, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if not key_rate >= 0:  # NaN fails too
        raise RateInfeasible("key_rate must be nonnegative")
    if not math.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    total_bits = n * sum((size - 1).bit_length() for size in chain.sizes)
    if total_bits > MAX_BITS:
        raise SizeBudgetExceeded(f"accumulated CR packs into {total_bits} > {MAX_BITS} bits")
    tensor = chain_tensor(pmf, chain)
    rounds = chain.rounds
    u_names = tuple(f"u{j}" for j in range(1, rounds + 1))
    stages = [_Stage(tensor, chain, j, n, slack, seed) for j in range(1, rounds + 1)]
    h_cr = entropy(tensor, u_names)
    extractable = h_cr - sum(st.cond_entropy for st in stages)
    if key_rate > max(extractable, 0.0) + 1e-12:
        raise RateInfeasible(
            f"key_rate {key_rate} exceeds the extractable rate {max(extractable, 0.0):.6f}"
        )
    key_bits = min(math.ceil(n * key_rate - 1e-12), total_bits)
    key_hash = AffineGf2Hash.sample(np.random.default_rng([seed, 1]), max(total_bits, 1), key_bits)
    comm_bits = sum(st.k_bits for st in stages)

    # Monte Carlo trials, one seeded stream per trial index
    xd, yd = _draw_blocks(pmf, n, _trial_rngs((seed, 2), range(trials)))
    err, keys, transcript, failures = _run_rows(stages, key_hash, xd, yd)
    cr_error_rate = float(err.mean())

    # leakage and uniformity: exact by support enumeration when affordable
    cells = np.argwhere(pmf.p > 0)
    support = cells.shape[0]
    n_rows = support ** n
    exact = (
        n_rows <= EXACT_ROWS_BUDGET
        and n_rows * n <= EXACT_CELLS_BUDGET
        and 1 << (key_bits + comm_bits) <= laws.LAW_BUDGET
    )
    if exact:
        h_k, h_f, h_kf = _exact_entropies(pmf, cells, n, n_rows, stages, key_hash)
    else:
        groups, inv = _distinct_rows(np.stack([keys, transcript], axis=1))
        h_k, h_f, h_kf = _group_entropies(groups, np.bincount(inv, weights=np.ones(trials)))
    leakage = max(h_k + h_f - h_kf, 0.0) / n
    uniformity_gap = max(key_bits - h_k, 0.0) / n

    return SimReport(
        trials=trials, n=n, seed=seed, slack=slack,
        cr_error_rate=cr_error_rate,
        comm_rate=comm_bits / n,
        key_rate=key_bits / n,
        key_bits=key_bits,
        leakage=leakage,
        leakage_exact=exact,
        uniformity_gap=uniformity_gap,
        stage_bits=tuple(st.k_bits for st in stages),
        decode_failures=failures,
        stragglers=tuple(st.stragglers for st in stages),
        pops=tuple(st.pops for st in stages),
    )

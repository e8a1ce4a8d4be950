"""The seeded random pure-state sampler.

Reproducibility contract: sample number i of a run seeded with `seed` is a
pure function of the pair (seed, i).  The pair keys a Philox-4x64 counter
based generator, and each sample is drawn from the stream numpy's
Philox(key=(seed, i)) gives, so samples are independent of batching,
ordering and worker count.  Both samplers compute the raw words of every
key of a batch as array operations (``_philox_raw``), a tile of keys at a
time, word-major: one contiguous row per word, holding that word of every
key.  Each word depends only on its key and counter, so neither the batch
nor the tile changes a bit.  The uniform sampler scales them.  The
Gaussian sampler runs numpy's ziggurat on them (``_ziggurat``): its fast
path on every word (``_ziggurat_fast_path``), then, for the samples with a
word that path rejects (about one in four), numpy's own draw loop from
that word on, one word of every such sample a step, with further blocks of
their words from the same ``_philox_raw`` (``_ziggurat_slow_path``).  No
numpy generator is built.  Seeds and indices outside [0, 2**64) are
rejected rather than wrapped, so no two seeds name the same stream.

The draws stay in word-major rows: ``_normalize`` divides them by each
sample's norm in place, with the bits of numpy's complex division, and a
batch leaves the sampler as float planes (re, im) of shape (2, n, count),
the form the scan kernel reads.  Complex rows (``amplitude_rows``) are
built only for the samples a caller keeps.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .spin import check_dims
from .ziggurat import FI_DOUBLE, KI_DOUBLE, WI_DOUBLE

SAMPLERS = ("uniform", "haar")

# Philox-4x64-10 constants (Salmon et al., SC'11), stacked (2, 1, 1) along
# the two multiplied lanes x0 and x2 of a round, with the multipliers'
# 32-bit halves.  Every constant and shift is a numpy uint64, so numpy 1.x
# value-based casting and numpy 2 (NEP 50) both keep the arithmetic in
# exact, wrapping 64-bit words.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32
# Keys per tile of _philox_raw's rounds.  At 18 words a key its six buffers
# then take under 1 MB, which a 2 MiB L2 cache holds; of tiles of 512 to
# 8192 keys, 2048 measured fastest on such a Xeon (BENCH_chunk.json), as a
# smaller tile pays more in ufunc calls than the cache saves
_PHILOX_TILE = 2048
_SHIFT_DOUBLE = np.uint64(11)  # random() keeps the top 53 bits of a word

# numpy's standard-normal ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8),
# 2000): per layer, the bound a word's 52-bit magnitude must stay below to be
# taken on the fast path, and the scale that turns it into a draw
_ZIGGURAT_KI = np.array(KI_DOUBLE, dtype=np.uint64)
_ZIGGURAT_WI = np.array(WI_DOUBLE, dtype=np.float64)
# the wedge test's density at each layer's edge, and numpy's tail constants
# ziggurat_nor_r (the base layer's outer edge) and ziggurat_nor_inv_r
_ZIGGURAT_FI = np.array(FI_DOUBLE, dtype=np.float64)
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
_LOW_BYTE = np.uint64(0xFF)
_SHIFT_BYTE = np.uint64(8)
_SHIFT_RABS = np.uint64(9)
_SIGN_WORD = np.uint64(0x100)      # a raw word's sign bit
_SHIFT_SIGN = np.uint64(63)        # a float64's sign bit
_SIGN_TO_FLOAT = _SHIFT_SIGN - _SHIFT_BYTE
_ONE = np.uint64(1)
_MANTISSA = np.uint64(2 ** 52 - 1)


def check_key(name: str, value: int) -> int:
    """``value`` as one 64-bit word of a Philox key (a seed or a sample
    index); raises unless it is an integer in [0, 2**64)."""
    value = operator.index(value)
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def check_sampler(name: str) -> None:
    """Raise ValueError unless ``name`` is one of SAMPLERS."""
    if name not in SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}; choose from {SAMPLERS}")


def keyed_generator(seed: int, index: int) -> np.random.Generator:
    """Philox-4x64 generator keyed by (seed, index), both in [0, 2**64)."""
    # a uint64 array, because numpy converts a list that mixes words above
    # and below 2**63 through float64 and so loses key bits
    key = np.array([check_key("seed", seed), check_key("index", index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(lanes: slice, x, hi, lo, t, u) -> None:
    """Write into ``hi`` and ``lo`` the high and low words of the 128-bit
    products m * x, m the multipliers ``_PHILOX_M[lanes]`` broadcast along
    x's first axis; ``t`` and ``u`` are scratch, all of x's shape.  The high
    word is summed from 32-bit partial products as in Hacker's Delight's
    ``mulhu``, where no partial sum overflows; the low word is the wrapped
    product."""
    m_lo, m_hi = _PHILOX_M_LO[lanes], _PHILOX_M_HI[lanes]
    np.bitwise_and(x, _LO32, out=u)         # x.lo
    np.multiply(u, m_lo, out=t)
    np.right_shift(t, _SHIFT32, out=t)      # (x.lo m.lo) >> 32
    np.right_shift(x, _SHIFT32, out=hi)     # x.hi
    np.multiply(hi, m_lo, out=lo)
    np.add(lo, t, out=t)                    # x.hi m.lo + carry, below 2**64
    np.multiply(u, m_hi, out=u)
    np.bitwise_and(t, _LO32, out=lo)
    np.add(u, lo, out=u)                    # x.lo m.hi + low half, below 2**64
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(hi, m_hi, out=hi)
    np.add(hi, t, out=hi)
    np.right_shift(u, _SHIFT32, out=u)
    np.add(hi, u, out=hi)
    np.multiply(x, _PHILOX_M[lanes], out=lo)


def _philox_raw(seed: int, keys: np.ndarray, k: int, block: int = 0) -> np.ndarray:
    """(k, count) uint64 array whose column i is words 4 block .. 4 block +
    k - 1 of ``np.random.Philox(key=(seed, keys[i])).random_raw()``, keys a
    (count,) uint64 array: row j holds that word of every key, contiguously.

    numpy increments the counter before each block of four words, so block
    b of a key is Philox-4x64-10 of counter (b + 1, 0, 0, 0).  The rounds
    run over tiles of at most ``_PHILOX_TILE`` keys, with the key axis last,
    each lane pair one (2, blocks, tile) array: (x0, x2), the words a round
    multiplies, which its one ``_mulhilo`` takes at once, and (x1, x3).
    Every operation writes into a few buffers allocated once, sized to
    min(tile, count), and each tile's last round writes its words straight
    into the result.  Round 0 and the x0 half of round 1 do not depend on
    the key (the zero counter words have not been mixed in yet), so they
    are computed once, per block.
    """
    blocks = -(-k // 4)
    count = len(keys)
    out = np.empty((blocks, 4, count), dtype=np.uint64)
    tile = max(1, min(_PHILOX_TILE, count))
    k0 = np.uint64(seed)
    # round 0 on counter (b + 1, 0, 0, 0) leaves x0 = k0, x1 = 0, x2 = hi ^ k1
    # and x3 = lo, hi and lo from x0's product; round 1 then multiplies k0
    first = np.empty((4, 1, blocks, 1), dtype=np.uint64)    # hi, lo and scratch
    counters = np.arange(block + 1, block + blocks + 1, dtype=np.uint64)
    _mulhilo(slice(0, 1), counters.reshape(1, blocks, 1), *first)
    ctr_hi, ctr_lo = first[:2, 0]            # (blocks, 1)
    second = np.empty((4, 1, 1, 1), dtype=np.uint64)
    _mulhilo(slice(0, 1), np.full((1, 1, 1), k0), *second)
    key_hi, key_lo = second[:2, 0]           # (1, 1)
    mixed = ctr_lo ^ key_hi                  # x2 after round 1, before the key
    key_words = np.empty((2, 1, tile), dtype=np.uint64)
    buffers = np.empty((6, 2, blocks, tile), dtype=np.uint64)
    for t0 in range(0, count, tile):
        n = min(tile, count - t0)
        x, y, hi, lo, t, u = buffers[..., :n]   # (x0, x2) and (x1, x3)
        key = key_words[..., :n]
        key[0] = k0
        key[1, 0] = keys[t0:t0 + n]
        np.bitwise_xor(ctr_hi, key[1], out=x[1])          # x2 after round 0
        np.add(key, _PHILOX_BUMP, out=key)
        _mulhilo(slice(1, 2), x[1:], hi[1:], lo[1:], t[1:], u[1:])
        np.bitwise_xor(hi[1], key[0], out=x[0])
        np.bitwise_xor(mixed, key[1], out=x[1])
        lo[0] = key_lo
        y, lo = lo[::-1], y                                 # (x1, x3) after round 1
        words = out[..., t0:t0 + n].transpose(1, 0, 2)      # x0 .. x3, each (blocks, n)
        for r in range(2, _PHILOX_ROUNDS):
            np.add(key, _PHILOX_BUMP, out=key)
            _mulhilo(slice(None), x, hi, lo, t, u)
            # x0 = hi(x2) ^ x1 ^ k0, x2 = hi(x0) ^ x3 ^ k1; x1 = lo(x2), x3 = lo(x0)
            np.bitwise_xor(hi[::-1], y, out=x)
            np.bitwise_xor(x, key, out=x if r < _PHILOX_ROUNDS - 1 else words[0::2])
            y, lo = lo[::-1], y
        words[1::2] = y
    return out.reshape(4 * blocks, count)[:k]


def _ziggurat(seed: int, keys: np.ndarray, k: int) -> tuple:
    """(x, read): column i of the (k, count) float array x is the first k
    ``standard_normal`` draws of key (seed, keys[i]) bit for bit, and
    read[i] the number of raw words numpy reads for them."""
    # whole blocks: the words past k start the slow path's supply
    x, slow, words = _ziggurat_fast_path(_philox_raw(seed, keys, 4 * -(-k // 4)), k)
    read = np.full(len(keys), k)
    if slow.size:
        x[:, slow], read[slow] = _ziggurat_slow_path(seed, keys[slow], words, x[:, slow], k)
    return x, read


def _ziggurat_fast_path(words: np.ndarray, k: int) -> tuple:
    """(x, slow, raw) for the (W, count) raw words of count keys, W >= k.

    numpy's ziggurat turns raw word r into a draw on its fast path: layer
    ``idx = r & 0xff``, sign bit ``(r >> 8) & 1`` and magnitude ``rabs =
    (r >> 9) & (2**52 - 1)``; it takes ``±rabs * wi[idx]`` iff ``rabs <
    ki[idx]`` and otherwise reads further words.  So column i of the (k,
    count) float array x is that key's first k draws bit for bit unless i
    is in ``slow``, the columns with a word among the first k that the fast
    path rejects; ``raw`` is those keys' W raw words, (len(slow), W).  x
    takes the place of the first k words, and one scratch array holds the
    magnitudes, so the peak stays near two (k, count) arrays.
    """
    r = words[:k]
    scratch = np.empty_like(r)
    idx = np.bitwise_and(r, _LOW_BYTE, out=scratch).astype(np.uint8)
    negative = np.bitwise_and(r, _SIGN_WORD, out=scratch).astype(bool)
    rabs = np.right_shift(r, _SHIFT_RABS, out=scratch)
    rabs &= _MANTISSA
    # the rejected words a row at a time, whose table lookup then stays
    # small: the raw words must last until the slow columns are known
    rejected = np.zeros(r.shape[1], dtype=bool)
    ki = np.empty(r.shape[1], dtype=np.uint64)
    for rabs_row, idx_row in zip(rabs, idx):
        # mode="clip" (a no-op on a uint8 index into 256 entries) writes
        # out= directly, where the default mode would go through a buffer
        np.take(_ZIGGURAT_KI, idx_row, out=ki, mode="clip")
        rejected |= rabs_row >= ki
    slow = np.flatnonzero(rejected)
    raw = words.T[slow]
    x = np.take(_ZIGGURAT_WI, idx, out=r.view(np.float64), mode="clip")
    x *= rabs
    # every x is +0 or positive, so setting its sign bit negates it, -0.0
    # included; np.negative(..., where=) took ten times as long
    np.copyto(rabs, negative)
    rabs <<= _SHIFT_SIGN
    np.bitwise_or(x.view(np.uint64), rabs, out=x.view(np.uint64))
    return x, slow, raw


def _ziggurat_slow_path(seed: int, keys: np.ndarray, words: np.ndarray, x: np.ndarray, k: int) -> tuple:
    """(x, read) as ``_ziggurat`` returns them, for keys the fast path
    cannot finish: ``words`` holds each key's (count, W) raw words, W >= k
    in whole blocks, and ``x`` its (k, count) fast-path draws, right up to
    its first rejected word.

    From that word on, numpy's ``random_standard_normal`` loop runs on
    every unfinished key at once, a step a draw attempt: each step reads
    the word at every such key's cursor.  A word the fast path takes is a
    draw.  At a rejected word of layer ``idx >= 1`` numpy reads the next
    word as a uniform u and keeps x iff ``(fi[idx - 1] - fi[idx]) u +
    fi[idx] < exp(-x**2 / 2)``; at one of layer 0 it reads pairs of
    uniforms until ``yy + yy > xx**2``, with ``xx = -log1p(-u1) / r`` and
    ``yy = -log1p(-u2)``, and draws ``±(r + xx)``, its sign bit ``(rabs >>
    8) & 1``.  A failed wedge test leaves the draw to the next step, at
    the word after u.  The exp and log1p of those few values go through
    ``math``, which calls the platform's libm as numpy's C code does
    (``np.exp`` may run a SIMD loop with other bits).  When a key needs a
    word past those here, every unfinished key gets its next block from
    one ``_philox_raw`` call.  A key's cursor, once its k-th draw lands,
    is the number of words it read.
    """
    count = len(keys)
    r = words[:, :k]
    # each key's next draw, and the word it reads next: its first rejected word
    j = np.argmax(((r >> _SHIFT_RABS) & _MANTISSA) >= _ZIGGURAT_KI[(r & _LOW_BYTE).astype(np.intp)], axis=1)
    cursor = j.copy()
    todo = np.arange(count)

    def reach(n):  # words holds at least n words of every unfinished key
        nonlocal words
        while words.shape[1] < n:
            more = np.zeros((count, 4), dtype=np.uint64)
            more[todo] = _philox_raw(seed, keys[todo], 4, words.shape[1] // 4).T
            words = np.hstack([words, more])

    while todo.size:
        c = cursor[todo]
        reach(c.max() + 1)
        r = words[todo, c]
        cursor[todo] = c + 1
        rabs, idx = (r >> _SHIFT_RABS) & _MANTISSA, (r & _LOW_BYTE).astype(np.intp)
        value = rabs * _ZIGGURAT_WI[idx]
        np.bitwise_or(value.view(np.uint64), (r & _SIGN_WORD) << _SIGN_TO_FLOAT, out=value.view(np.uint64))
        drew = rabs < _ZIGGURAT_KI[idx]
        rejected = np.flatnonzero(~drew)
        layer = idx[rejected]
        wedge, i = rejected[layer > 0], layer[layer > 0]
        if wedge.size:
            reach(c[wedge].max() + 2)
            v = value[wedge]
            u = (words[todo[wedge], c[wedge] + 1] >> _SHIFT_DOUBLE) * 2.0 ** -53
            height = (_ZIGGURAT_FI[i - 1] - _ZIGGURAT_FI[i]) * u + _ZIGGURAT_FI[i]
            drew[wedge] = height < np.array(list(map(math.exp, (-0.5 * v * v).tolist())))
            cursor[todo[wedge]] += 1
        for e in rejected[layer == 0].tolist():
            t = c[e] + 1
            while True:
                reach(t + 2)
                u1, u2 = ((words[todo[e], t:t + 2] >> _SHIFT_DOUBLE) * 2.0 ** -53).tolist()
                xx = -_ZIGGURAT_INV_R * math.log1p(-u1)
                yy = -math.log1p(-u2)
                t += 2
                if yy + yy > xx * xx:
                    break
            value[e] = -(_ZIGGURAT_R + xx) if rabs[e] >> _SHIFT_BYTE & _ONE else _ZIGGURAT_R + xx
            drew[e], cursor[todo[e]] = True, t
        done = todo[drew]
        x[j[done], done] = value[drew]
        j[done] += 1
        todo = todo[j[todo] < k]
    return x, cursor


def amplitude_rows(planes) -> np.ndarray:
    """The (b, n) complex amplitude rows of (2, n, b) planes (re, im): each
    part is copied, not computed, so every bit, the sign of a zero
    included, is the plane's."""
    re, im = planes
    rows = np.empty(re.shape[::-1], dtype=complex)
    rows.real = re.T
    rows.imag = im.T
    return rows

def sample_amplitude_batch(dims, sampler: str, seed: int, start: int, count: int) -> np.ndarray:
    """Normalized amplitudes of samples start .. start+count-1, as
    (2, n, count) float planes re and im, n = d_A d_B: row ``[p, x]``
    holds part p of amplitude x of every sample and is C-contiguous (the
    planes are a view of the sampler's (n, 2, count) draws, so the array as
    a whole is not).

    Column i is sample start + i bit for bit in any batch; this is the one
    path from (seed, index) to a sample.  ``amplitude_rows`` turns the
    planes into complex (count, n) rows.
    """
    dims = check_dims(dims)
    check_sampler(sampler)
    # plain ints before any arithmetic: numpy integers would wrap past 2**64
    seed, start, count = check_key("seed", seed), check_key("index", start), operator.index(count)
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if count > 0:
        check_key("index", start + count - 1)
    n = dims[0] * dims[1]
    # the keys' second words, built in place: a second 64 kB array here made
    # uniform batches ~5% slower across processes (heap placement), not
    # within one
    keys = np.arange(count, dtype=np.uint64)
    keys += np.uint64(start)
    # uniform: real and imaginary parts uniform on [0, 1); all amplitudes lie
    # in the closed first quadrant before (and after) normalization.  haar:
    # independent standard complex Gaussians; invariant under rotations,
    # hence uniform on the unit sphere after normalization.  Draw 2 x + p
    # of a sample is part p of its amplitude x
    if sampler == "uniform":
        # Generator.random(): the top 53 bits of each raw word, times 2**-53
        draws = (_philox_raw(seed, keys, 2 * n) >> _SHIFT_DOUBLE) * 2.0 ** -53
    else:
        # Generator.standard_normal(): numpy's ziggurat, fast path and all
        draws = _ziggurat(seed, keys, 2 * n)[0]
    return _normalize(draws.reshape(n, 2, count))


def _normalize(pairs: np.ndarray) -> np.ndarray:
    """Divide the (n, 2, b) [re, im] draws in place by each sample's norm,
    with the bits of the complex route they replace, ``a = re + 1j * im``
    and then ``a /= sqrt(sum(a.real**2 + a.imag**2))`` over each sample's
    n amplitudes; returns them as a (2, n, b) view, the planes re and im.

    ``1j * im`` is (0 im - 0) + (0 + im) j, so a's parts are re + 0 im and
    im + 0 (the zeros change only the sign of a zero).  The squares are
    written as a (b, n) array, so numpy's reduction adds them in the order
    it did over the complex route's (b, n) rows.  numpy divides a complex a
    by a real d, as d + 0j, by Smith's method (CACM Algorithm 116): scl =
    1 / (d + 0 * 0), then (a.re + a.im 0) scl and (a.im - a.re 0) scl.  At
    d = 0 it divides each part by d instead, which scl = inf matches.
    """
    re, im = pairs[:, 0], pairs[:, 1]
    squares, scratch = np.empty((2,) + re.shape)
    np.multiply(im, 0.0, out=scratch)
    np.add(re, scratch, out=re)             # re + 0 im
    np.add(im, 0.0, out=im)                 # im + 0
    np.multiply(re, re, out=squares)
    np.multiply(im, im, out=scratch)
    rows = np.empty(re.shape[::-1])
    np.add(squares, scratch, out=rows.T)
    scl = np.sqrt(np.sum(rows, axis=1))
    np.divide(1.0, scl, out=scl)
    np.multiply(re, 0.0, out=scratch)       # a.re 0, before a.re is scaled
    np.multiply(im, 0.0, out=squares)
    np.add(re, squares, out=re)
    np.subtract(im, scratch, out=im)
    planes = pairs.transpose(1, 0, 2)
    planes *= scl
    return planes
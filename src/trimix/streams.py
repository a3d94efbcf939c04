"""Random streams: `derived_rng`, and its states and first words for many
keys at once.

Every random draw in trimix comes from `derived_rng(seed, *key)`: numpy's
PCG64 seeded through `SeedSequence(seed, spawn_key=key)`.  Building one
such generator costs tens of microseconds, which dominates a training step
that needs one per image and view.  `raw_words` computes the same output
words for a whole batch of keys as array arithmetic, and `initial_states`
the state each generator starts from, for a reused PCG64 to draw from:

- SeedSequence's hash (numpy's port of O'Neill's `seed_seq_fe`): the seed
  and the constant key prefix are mixed into the 4-word pool once, on
  Python ints; each varying key column is then mixed into all rows;
- `generate_state(4, uint64)` gives PCG64's initial state and increment;
- PCG64 (O'Neill 2014) steps a 128-bit LCG, here in 64-bit limbs, and
  outputs XSL-RR of the new state.  The k-th output's state is an affine
  function of the seeding words, so all outputs come from precomputed
  jump constants without a sequential loop.

The words equal `derived_rng(seed, *prefix, *row).bit_generator.random_raw(n)`
bit for bit, and the states its `.bit_generator.state`;
`tests/test_streams.py` holds both against numpy itself.
"""
from __future__ import annotations

import functools

import numpy as np

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence constants
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for (seed, key...) independent of call order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _words32(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: little-endian uint32 words."""
    value = int(value)
    if value < 0:
        raise ValueError(f"stream seeds and keys must be non-negative, got {value}")
    words = [value & MASK32]
    while value > MASK32:
        value >>= 32
        words.append(value & MASK32)
    return words


# The hash steps work on Python ints and on uint32 arrays alike (arrays
# wrap on their own; the masks keep Python ints in 32 bits).
def _hash(value, h, mult):
    """SeedSequence's hashmix: hash `value` with constant `h`; returns the
    hashed value and the next constant."""
    h_next = (h * mult) & MASK32
    value = ((value ^ h) * h_next) & MASK32
    return value ^ (value >> 16), h_next


def _mix(x, y):
    r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return r ^ (r >> 16)


def _const_pool(seed: int, prefix) -> tuple[list[int], int]:
    """The pool after the seed and the key prefix, and the hash constant
    the next key word starts from.  The seed is zero-padded to the pool
    size, as SeedSequence does whenever a spawn key follows it."""
    run = _words32(seed)
    run += [0] * (POOL_SIZE - len(run))
    h = INIT_A
    pool = []
    for word in run[:POOL_SIZE]:
        hashed, h = _hash(word, h, MULT_A)
        pool.append(hashed)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                hashed, h = _hash(pool[src], h, MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    extra = run[POOL_SIZE:] + [w for k in prefix for w in _words32(k)]
    for word in extra:
        for dst in range(POOL_SIZE):
            hashed, h = _hash(word, h, MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, h


def _lane_consts(h: int, count: int, mult: int) -> tuple[np.ndarray, int]:
    """The `count` hash constants that consecutive hashes start from."""
    consts = []
    for _ in range(count):
        consts.append(h)
        h = (h * mult) & MASK32
    return np.array(consts, dtype=np.uint32), h


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & MASK32, a >> 32, b & MASK32, b >> 32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


@functools.lru_cache(maxsize=None)
def _jumps(first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low limbs, shaped (2, 1, n), of A_k = M**(k+1) and
    C_k = M**0 + ... + M**(k+1) for first <= k < first + n.  Seeding sets
    the state to M*s + (M+1)*inc (k = 0), and each step after that maps
    x to M*x + inc, so k steps later the state is A_k*s + C_k*inc
    (mod 2**128); output j reads the state of step k = j + 1."""
    mod = 1 << 128
    ks = range(first, first + n)
    a = [pow(PCG_MULT, k + 1, mod) for k in ks]
    c = [sum(pow(PCG_MULT, j, mod) for j in range(k + 2)) % mod for k in ks]
    hi = np.array([[[v >> 64 for v in a]], [[v >> 64 for v in c]]], dtype=np.uint64)
    lo = np.array([[[v & MASK64 for v in a]], [[v & MASK64 for v in c]]], dtype=np.uint64)
    return hi, lo


def as_random(words: np.ndarray) -> np.ndarray:
    """What `Generator.random()` makes of each word: its top 53 bits over 2**53."""
    return (words >> 11) * 2.0 ** -53


def _needs_generator(rows: np.ndarray) -> np.ndarray:
    """Indices of the rows with a value outside [0, 2**32): SeedSequence
    splits such a value into more words than the row has columns."""
    return np.flatnonzero(((rows < 0) | (rows > MASK32)).any(axis=1))


def _seeding(seed: int, prefix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash of each row into PCG64's seeding words, as the
    high and low limbs, shaped (2, K, 1), of the stack (s, inc)."""
    pool, h = _const_pool(seed, prefix)
    pool = np.tile(np.array(pool, dtype=np.uint32), (rows.shape[0], 1))
    for column in rows.T:
        consts, h = _lane_consts(h, POOL_SIZE, MULT_A)
        hashed, _ = _hash(column.astype(np.uint32)[:, None], consts, MULT_A)
        pool = _mix(pool, hashed)
    # generate_state(4, uint64): 8 words cycled from the pool, read as 4 uint64
    consts, _ = _lane_consts(INIT_B, 2 * POOL_SIZE, MULT_B)
    state, _ = _hash(pool[:, np.arange(2 * POOL_SIZE) % POOL_SIZE], consts, MULT_B)
    seeds = np.ascontiguousarray(state).view(np.uint64)
    # PCG64 seeding: s = (s0:s1), inc = (s2:s3) << 1 | 1
    x_hi = np.stack([seeds[:, :1], (seeds[:, 2:3] << 1) | (seeds[:, 3:4] >> 63)])
    x_lo = np.stack([seeds[:, 1:2], (seeds[:, 3:4] << 1) | 1])
    return x_hi, x_lo


def _stepped(x_hi: np.ndarray, x_lo: np.ndarray, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low limbs, shaped (K, n), of each row's state `first`, ...,
    `first + n - 1` steps after seeding: A_k*s + C_k*inc, both products
    taken at once over the (s, inc) stack."""
    k_hi, k_lo = _jumps(first, n)
    prod_lo = x_lo * k_lo
    prod_hi = _mulhi64(x_lo, k_lo) + x_lo * k_hi + x_hi * k_lo
    lo = prod_lo[0] + prod_lo[1]
    hi = prod_hi[0] + prod_hi[1] + (lo < prod_lo[0])  # the carry out of the low limbs
    return hi, lo


def raw_words(seed: int, prefix, rows: np.ndarray, n: int) -> np.ndarray:
    """The first `n` PCG64 outputs of `derived_rng(seed, *prefix, *row)` for
    each row of the (K, L) integer array `rows`, as a (K, n) uint64 array.

    A row with a value outside [0, 2**32) builds its generator.
    """
    hi, lo = _stepped(*_seeding(seed, prefix, rows), 1, n)
    # XSL-RR: the xor of the halves, rotated right by the top 6 state bits
    rot = hi >> 58
    folded = hi ^ lo
    words = (folded >> rot) | (folded << ((64 - rot) & 63))
    for r in _needs_generator(rows):
        words[r] = derived_rng(seed, *prefix, *rows[r].tolist()).bit_generator.random_raw(n)
    return words


def initial_states(seed: int, prefix, rows: np.ndarray) -> list[dict]:
    """`derived_rng(seed, *prefix, *row).bit_generator.state` for each row of
    the (K, L) integer array `rows`.  Set as the `.state` of any PCG64, it
    makes that bit generator draw what the row's own generator draws.

    A row with a value outside [0, 2**32) builds its generator.
    """
    x_hi, x_lo = _seeding(seed, prefix, rows)
    hi, lo = _stepped(x_hi, x_lo, 0, 1)
    pairs = zip(hi[:, 0].tolist(), lo[:, 0].tolist(), x_hi[1, :, 0].tolist(), x_lo[1, :, 0].tolist())
    states = [{"bit_generator": "PCG64", "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
               "has_uint32": 0, "uinteger": 0} for s_hi, s_lo, i_hi, i_lo in pairs]
    for r in _needs_generator(rows):
        states[r] = derived_rng(seed, *prefix, *rows[r].tolist()).bit_generator.state
    return states

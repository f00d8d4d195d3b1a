"""Per-directed-edge observation noise, deterministic under the scenario's noise seed.

Each ordered pair (observer i, observed j) gets its own stream, independent
of the reverse pair. Streams are counter-based: the t-th value is a pure
function of (stream seed, t), so replay is exact and order-independent, and
edge_noise, the one reader, draws any edges at any offset and step for run,
the log and verify alike, in the blocks of row_blocks.

Generator contract (documented for portability):
  64-bit splitmix-style sequence with increment 0x9E3779B97F4A7C15 and
  finalizer x^=x>>30; x*=0xBF58476D1CE4E5B9; x^=x>>27; x*=0x94D049BB133111EB;
  x^=x>>31. The t-th raw word (t = 0, 1, ...) uses counter value t+1.
  Uniforms on (0, 1] are ((x >> 11) + 1) * 2^-53.
  gaussian: Box-Muller pairs; pair p consumes uniforms 2p and 2p+1 and yields
    g_{2p} = r cos(2 pi U_{2p+1}), g_{2p+1} = r sin(2 pi U_{2p+1}) with
    r = sqrt(-2 ln U_{2p}), scaled by sqrt(variance).
  uniform: value t is a (2 U_t - 1), on (-a, a].
  zero: all zeros.
Stream seed for pair (i, j): mix(seed XOR mix((i << 32) | j)) with seed the
scenario's noise seed, 1-based agent numbers and mix the finalizer above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DISTRIBUTIONS = {
    "gaussian": ("variance",),
    "uniform": ("a",),
    "zero": (),
}


def mix64(x: int) -> int:
    """The generator's finalizer on one int, modulo 2**64: the scalar reference for _mix."""
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def _mix(x: np.ndarray) -> np.ndarray:
    """mix64 of every element of a uint64 array, wrapping as it does, in
    place (x is returned) with one temporary."""
    t = np.right_shift(x, np.uint64(30))
    x ^= t
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _uniforms(seeds, at: np.ndarray) -> np.ndarray:
    """Uniforms for the 0-based indices at: one row per index and, for an
    array of stream seeds, one column per seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    ctr = np.asarray(at, dtype=np.uint64).reshape((-1,) + (1,) * seeds.ndim) + np.uint64(1)
    x = _mix(ctr * np.uint64(_GAMMA) + seeds)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u += 1.0
    u *= 2.0 ** -53
    return u


def _gaussians(seeds: np.ndarray, t0: int, n: int, step: int = 1) -> np.ndarray:
    """Standard normals for the n sample indices t0, t0 + step, ..., written
    over the uniforms of the Box-Muller pairs that hold them: at step 1 every
    pair from t0's to the last's, at a larger step one pair per sample.
    Either way each pair's two uniforms are consecutive rows, so the same
    numpy loops form every value. The radii, the angles and the cosines are
    contiguous temporaries: cos and sin over strided rows, or in place,
    measured slower."""
    if n == 0:
        return np.empty((0, len(seeds)))
    if step == 1:
        at = np.arange(t0 - t0 % 2, t0 + n + (t0 + n) % 2)
        rows = slice(t0 % 2, t0 % 2 + n)
    else:
        t = t0 + step * np.arange(n)
        at, rows = (t - t % 2)[:, None] + [0, 1], 2 * np.arange(n) + t % 2
    g = _uniforms(seeds, at)
    r = np.log(g[0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    th = g[1::2] * (2.0 * np.pi)
    cos = np.cos(th)
    cos *= r
    g[0::2] = cos
    np.sin(th, out=th)
    th *= r
    g[1::2] = th
    return g[rows]


def draw_block(dist: str, scale: float, seeds: np.ndarray, t0: int, n: int,
               step: int = 1) -> np.ndarray:
    """Values t0, t0 + step, ... (n of them) of the streams with these seeds
    (uint64), one row per value and one column per stream: the one
    implementation of the generator contract, for any number of streams and
    steps. A draw at step s is the rows 0, s, 2s, ... of one at step 1, bit
    for bit, and forms only the values it returns (a gaussian's pairs)."""
    if dist == "zero":
        return np.zeros((n, len(seeds)))
    if dist == "gaussian":
        x = _gaussians(seeds, t0, n, step)
        x *= scale
        return x
    x = _uniforms(seeds, t0 + step * np.arange(n))
    x *= 2.0
    x -= 1.0
    x *= scale
    return x


@dataclass(frozen=True)
class NoiseSpec:
    dist: str
    params: tuple[tuple[str, float], ...]
    seed: int

    def params_dict(self) -> dict:
        return dict(self.params)


def make_noise_spec(dist: str, params: dict, seed: int) -> NoiseSpec:
    if dist not in DISTRIBUTIONS:
        raise ValidationError(
            f"unknown noise distribution {dist!r}; known: {sorted(DISTRIBUTIONS)}")
    wanted = DISTRIBUTIONS[dist]
    if set(params) != set(wanted):
        raise ValidationError(
            f"distribution {dist!r} takes params {sorted(wanted)}, got {sorted(params)}")
    vals = {k: float(params[k]) for k in wanted}
    if any(not np.isfinite(v) for v in vals.values()):
        raise ValidationError(f"non-finite noise parameter in {params!r}")
    if dist == "gaussian" and vals["variance"] < 0:
        raise ValidationError("variance must be >= 0")
    if dist == "uniform" and vals["a"] <= 0:
        raise ValidationError("uniform half-width a must be > 0")
    if type(seed) is not int:  # JSON true is an int equal to 1, not a seed
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK:  # the streams read 64 bits; more would alias
        raise ValidationError(f"seed must be in 0..2**64 - 1, got {seed}")
    return NoiseSpec(dist=dist, params=tuple(sorted(vals.items())), seed=seed)


def _scale(spec: NoiseSpec) -> float:
    """sqrt(variance), the half-width a, or 0.0 for zero noise."""
    params = spec.params_dict()
    if spec.dist == "gaussian":
        return float(np.sqrt(params["variance"]))
    return params["a"] if spec.dist == "uniform" else 0.0


def _stream_seed(spec: NoiseSpec, i: int, j: int) -> int:
    """The stream seed of pair (i, j) in plain ints: the scalar reference for
    pair_keys and edge_noise's array passes."""
    return mix64(spec.seed ^ mix64((i << 32) | j))


def pair_keys(pairs) -> np.ndarray:
    """mix((i << 32) | j) of each directed edge (i, j) of pairs, a read-only
    uint64 array: the pairs' half of their stream seeds, which no noise seed
    changes (a topology derives its edges' once, graph.stream_keys)."""
    ij = np.array(pairs, dtype=np.uint64).reshape(-1, 2)
    keys = _mix(ij[:, 0] << np.uint64(32) | ij[:, 1])
    keys.flags.writeable = False
    return keys


def edge_noise(spec: NoiseSpec, keys: np.ndarray):
    """A function of (t0, rows, step=1) drawing the noise of the 0-based
    steps t0, t0 + step, ... (rows of them) on the directed edges whose
    pair_keys are keys, in that column order: the streams are counter-based,
    so blocks at any offsets and steps hold one draw's bits. Only the noise
    seed is mixed in, in one array pass."""
    seeds = _mix(np.uint64(spec.seed) ^ keys)
    scale = _scale(spec)
    return lambda t0, rows, step=1: draw_block(spec.dist, scale, seeds, t0, rows, step)


BLOCK_ROWS, BLOCK_CELLS = 1024, 1 << 16


def row_blocks(steps: int, width: int):
    """Rows 0..steps-1 as (a, b) ranges of max(1, min(BLOCK_ROWS, BLOCK_CELLS // width)) rows,
    width = max(agents, directed edges): the one block rule of every pass over a log's rows."""
    rows = max(1, min(BLOCK_ROWS, BLOCK_CELLS // width))
    return ((a, min(a + rows, steps)) for a in range(0, steps, rows))


def edge_blocks(draw, steps: int, width: int):
    """(a, draw(a, b - a)) per range (a, b) of row_blocks(steps, width); draw is an edge_noise."""
    return ((a, draw(a, b - a)) for a, b in row_blocks(steps, width))

"""Per-directed-edge observation noise, deterministic under the scenario's noise seed.

Each ordered pair (observer i, observed j) gets its own stream, independent
of the reverse pair. Streams are counter-based: the t-th value is a pure
function of (stream seed, t), so replay is exact and order-independent.

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

from .errors import NotAnEdge, ValidationError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

DISTRIBUTIONS = {
    "gaussian": ("variance",),
    "uniform": ("a",),
    "zero": (),
}


def mix64(x: int) -> int:
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def _raw_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """Finalized 64-bit words for 0-based indices [lo, hi)."""
    ctr = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    x = (np.uint64(seed) + ctr * np.uint64(_GAMMA)) & np.uint64(_MASK)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    x = _raw_words(seed, lo, hi)
    return ((x >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def _gaussians(seed: int, t0: int, n: int) -> np.ndarray:
    """Standard normals for sample indices [t0, t0 + n), pair-aligned."""
    if n == 0:
        return np.empty(0)
    p0 = t0 // 2
    p1 = (t0 + n - 1) // 2
    u = _uniforms(seed, 2 * p0, 2 * p1 + 2)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    th = 2.0 * np.pi * u[1::2]
    g = np.empty(u.size)
    g[0::2] = r * np.cos(th)
    g[1::2] = r * np.sin(th)
    off = t0 - 2 * p0
    return g[off:off + n]


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
    return NoiseSpec(dist=dist, params=tuple(sorted(vals.items())), seed=seed)


@dataclass
class EdgeStream:
    i: int  # observer
    j: int  # observed
    dist: str
    scale: float  # sqrt(variance) or half-width a; unused for zero
    stream_seed: int
    counter: int = 0

    def draw(self, n: int) -> np.ndarray:
        """Next n values as an array; advances the stream by n."""
        t0 = self.counter
        self.counter += n
        if self.dist == "zero":
            return np.zeros(n)
        if self.dist == "gaussian":
            return self.scale * _gaussians(self.stream_seed, t0, n)
        u = _uniforms(self.stream_seed, t0, t0 + n)
        return self.scale * (2.0 * u - 1.0)


def stream_for(spec: NoiseSpec, i: int, j: int, topology=None) -> EdgeStream:
    """Stream of ε values observer i applies to agent j's output.

    When a topology is supplied, (i, j) must be one of its edge directions.
    """
    if topology is not None:
        if not (1 <= i <= topology.n and 1 <= j <= topology.n) \
                or j not in topology.neighbors(i):
            raise NotAnEdge(f"({i}, {j}) is not an edge direction of the topology")
    if i < 1 or j < 1:
        raise ValidationError("agent numbers are 1-based")
    params = spec.params_dict()
    if spec.dist == "gaussian":
        scale = float(np.sqrt(params["variance"]))
    elif spec.dist == "uniform":
        scale = params["a"]
    else:
        scale = 0.0
    seed = mix64(spec.seed ^ mix64((i << 32) | j))
    return EdgeStream(i=i, j=j, dist=spec.dist, scale=scale, stream_seed=seed)

import math

import numpy as np
import pytest

from hwconsensus import build_topology, make_noise_spec, stream_for
from hwconsensus.errors import NotAnEdge, ValidationError
from hwconsensus.noise import mix64

MASK = (1 << 64) - 1


# independent reimplementation of the documented generator, plain ints only
def ref_mix(x):
    x &= MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK
    return (x ^ (x >> 31)) & MASK


def ref_word(seed, t):
    return ref_mix((seed + (t + 1) * 0x9E3779B97F4A7C15) & MASK)


def ref_uniform(seed, t):
    return ((ref_word(seed, t) >> 11) + 1) * 2.0 ** -53


def ref_gaussians(seed, count):
    out = []
    for p in range((count + 1) // 2):
        u0 = ref_uniform(seed, 2 * p)
        u1 = ref_uniform(seed, 2 * p + 1)
        r = math.sqrt(-2.0 * math.log(u0))
        out.append(r * math.cos(2.0 * math.pi * u1))
        out.append(r * math.sin(2.0 * math.pi * u1))
    return out[:count]


def gspec(seed=42, variance=1.0):
    return make_noise_spec("gaussian", {"variance": variance}, seed)


def test_mix64_matches_reference():
    for x in (0, 1, 7, 2**63, 0xDEADBEEF, MASK):
        assert mix64(x) == ref_mix(x)


def test_raw_uniforms_match_reference_bitwise():
    from hwconsensus.noise import _uniforms
    s = stream_for(gspec(seed=99), 1, 2)
    got = _uniforms(s.stream_seed, 0, 40)
    expect = [ref_uniform(s.stream_seed, t) for t in range(40)]
    assert got.tolist() == expect


def test_gaussian_stream_matches_reference_to_an_ulp():
    # vectorized cos/sin may differ from libm by one ulp; uniforms are exact
    s = stream_for(gspec(seed=99), 1, 2)
    got = s.draw(1001)
    expect = np.array(ref_gaussians(s.stream_seed, 1001))
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(expect)))
    assert np.all(np.abs(got - expect) <= 4.0 * ulp)
    assert np.mean(got != expect) < 0.05


def test_uniform_stream_matches_reference_bitwise():
    spec = make_noise_spec("uniform", {"a": 2.5}, 7)
    s = stream_for(spec, 2, 1)
    got = s.draw(9)
    expect = [2.5 * (2.0 * ref_uniform(s.stream_seed, t) - 1.0) for t in range(9)]
    assert got.tolist() == expect


def test_blocks_split_consistently():
    a = stream_for(gspec(), 3, 4)
    b = stream_for(gspec(), 3, 4)
    whole = a.draw(40)
    parts = np.concatenate([b.draw(7), b.draw(1), b.draw(32)])
    assert whole.tolist() == parts.tolist()


def test_determinism_and_direction_split():
    s1 = stream_for(gspec(), 1, 2).draw(100)
    s2 = stream_for(gspec(), 1, 2).draw(100)
    rev = stream_for(gspec(), 2, 1).draw(100)
    assert s1.tolist() == s2.tolist()
    assert s1.tolist() != rev.tolist()


def test_zero_stream():
    spec = make_noise_spec("zero", {}, 5)
    assert stream_for(spec, 1, 2).draw(10).tolist() == [0.0] * 10


def test_not_an_edge():
    t = build_topology(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    stream_for(gspec(), 1, 2, t)
    with pytest.raises(NotAnEdge):
        stream_for(gspec(), 1, 3, t)
    with pytest.raises(NotAnEdge):
        stream_for(gspec(), 1, 5, t)


def test_spec_validation():
    with pytest.raises(ValidationError):
        make_noise_spec("poisson", {}, 1)
    with pytest.raises(ValidationError):
        make_noise_spec("gaussian", {}, 1)
    with pytest.raises(ValidationError):
        make_noise_spec("gaussian", {"variance": -1.0}, 1)
    with pytest.raises(ValidationError):
        make_noise_spec("uniform", {"a": 0.0}, 1)
    with pytest.raises(ValidationError):
        make_noise_spec("gaussian", {"variance": 1.0}, 1.5)


def test_gaussian_moments():
    x = stream_for(gspec(seed=2024), 1, 2).draw(1_000_000)
    assert abs(float(x.mean())) < 0.01
    assert 0.99 < float(x.var()) < 1.01


def test_uniform_moments_and_support():
    spec = make_noise_spec("uniform", {"a": 3.0}, 11)
    x = stream_for(spec, 1, 2).draw(500_000)
    assert float(np.max(np.abs(x))) <= 3.0
    assert abs(float(x.mean())) < 0.02
    assert float(x.var()) == pytest.approx(3.0, abs=0.05)  # a^2/3


def test_variance_scaling():
    base = stream_for(gspec(seed=5, variance=1.0), 1, 2).draw(64)
    scaled = stream_for(gspec(seed=5, variance=4.0), 1, 2).draw(64)
    assert np.allclose(scaled, 2.0 * base, rtol=0, atol=0)


def test_cross_stream_correlation_small():
    n = 100_000
    pairs = [(1, 2), (2, 1), (1, 4), (2, 3)]
    xs = [stream_for(gspec(seed=31), i, j).draw(n) for (i, j) in pairs]
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            r = np.corrcoef(xs[a], xs[b])[0, 1]
            assert abs(r) < 0.02


def test_weighted_partial_sum_stays_bounded():
    # finite-sample witness that sum a_k eps_k converges: 1e6 steps, |S| < 50
    x = stream_for(gspec(seed=17), 1, 2).draw(1_000_000)
    a = 1.0 / np.arange(1, x.size + 1)
    partial = np.cumsum(a * x)
    assert float(np.max(np.abs(partial))) < 50.0

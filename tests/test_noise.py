import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import make_noise_spec
from hwconsensus.errors import ValidationError
from hwconsensus.noise import (
    BLOCK_CELLS,
    BLOCK_ROWS,
    _scale,
    _stream_seed,
    draw_block,
    edge_blocks,
    edge_noise,
    mix64,
    row_blocks,
)

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


def draw(spec, i, j, n, t0=0):
    """Values t0 .. t0 + n - 1 of the stream observer i applies to agent j."""
    return edge_noise(spec, [(i, j)])(t0, n)[:, 0]


def test_mix64_matches_reference():
    for x in (0, 1, 7, 2**63, 0xDEADBEEF, MASK):
        assert mix64(x) == ref_mix(x)


@pytest.mark.parametrize("seed", [0, 1, 2**63, MASK])
def test_edge_noise_mixes_the_stream_seeds_as_the_reference(seed):
    # one array pass over the pairs gives each stream the documented seed
    spec = make_noise_spec("uniform", {"a": 1.0}, seed)
    pairs = [(1, 2), (2, 1), (7, 300), (2**20, 3)]
    seeds = [ref_mix(seed ^ ref_mix((i << 32) | j)) for i, j in pairs]
    assert seeds == [_stream_seed(spec, i, j) for i, j in pairs]
    assert edge_noise(spec, pairs)(5, 3).tolist() == \
        [[2.0 * ref_uniform(x, t) - 1.0 for x in seeds] for t in range(5, 8)]


def test_raw_uniforms_match_reference_bitwise():
    from hwconsensus.noise import _uniforms
    seed = _stream_seed(gspec(seed=99), 1, 2)
    got = _uniforms(seed, np.arange(40))
    expect = [ref_uniform(seed, t) for t in range(40)]
    assert got.tolist() == expect


def test_gaussian_stream_matches_reference_to_an_ulp():
    # vectorized cos/sin may differ from libm by one ulp; uniforms are exact
    got = draw(gspec(seed=99), 1, 2, 1001)
    expect = np.array(ref_gaussians(_stream_seed(gspec(seed=99), 1, 2), 1001))
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(expect)))
    assert np.all(np.abs(got - expect) <= 4.0 * ulp)
    assert np.mean(got != expect) < 0.05


def test_uniform_stream_matches_reference_bitwise():
    spec = make_noise_spec("uniform", {"a": 2.5}, 7)
    got = draw(spec, 2, 1, 9)
    expect = [2.5 * (2.0 * ref_uniform(_stream_seed(spec, 2, 1), t) - 1.0) for t in range(9)]
    assert got.tolist() == expect


def test_blocks_split_consistently():
    whole = draw(gspec(), 3, 4, 40)
    parts = np.concatenate([draw(gspec(), 3, 4, 7), draw(gspec(), 3, 4, 1, 7),
                            draw(gspec(), 3, 4, 32, 8)])
    assert whole.tolist() == parts.tolist()


def test_determinism_and_direction_split():
    s1 = draw(gspec(), 1, 2, 100)
    s2 = draw(gspec(), 1, 2, 100)
    rev = draw(gspec(), 2, 1, 100)
    assert s1.tolist() == s2.tolist()
    assert s1.tolist() != rev.tolist()


def test_zero_stream():
    spec = make_noise_spec("zero", {}, 5)
    assert draw(spec, 1, 2, 10).tolist() == [0.0] * 10


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
    x = draw(gspec(seed=2024), 1, 2, 1_000_000)
    assert abs(float(x.mean())) < 0.01
    assert 0.99 < float(x.var()) < 1.01


def test_uniform_moments_and_support():
    spec = make_noise_spec("uniform", {"a": 3.0}, 11)
    x = draw(spec, 1, 2, 500_000)
    assert float(np.max(np.abs(x))) <= 3.0
    assert abs(float(x.mean())) < 0.02
    assert float(x.var()) == pytest.approx(3.0, abs=0.05)  # a^2/3


def test_variance_scaling():
    base = draw(gspec(seed=5, variance=1.0), 1, 2, 64)
    scaled = draw(gspec(seed=5, variance=4.0), 1, 2, 64)
    assert np.allclose(scaled, 2.0 * base, rtol=0, atol=0)


def test_cross_stream_correlation_small():
    n = 100_000
    pairs = [(1, 2), (2, 1), (1, 4), (2, 3)]
    xs = [draw(gspec(seed=31), i, j, n) for (i, j) in pairs]
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            r = np.corrcoef(xs[a], xs[b])[0, 1]
            assert abs(r) < 0.02


def test_weighted_partial_sum_stays_bounded():
    # finite-sample witness that sum a_k eps_k converges: 1e6 steps, |S| < 50
    x = draw(gspec(seed=17), 1, 2, 1_000_000)
    a = 1.0 / np.arange(1, x.size + 1)
    partial = np.cumsum(a * x)
    assert float(np.max(np.abs(partial))) < 50.0


# ---------------------------------------------------------------------------
# the block draw: every stream of a network at once

PAIRS = [(1, 2), (2, 1), (1, 4), (4, 1), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4)]
SPECS = {"gaussian": make_noise_spec("gaussian", {"variance": 2.5}, 77),
         "uniform": make_noise_spec("uniform", {"a": 1.5}, 78),
         "zero": make_noise_spec("zero", {}, 79)}
# odd and even offsets, around the block boundaries and far out
OFFSETS = st.one_of(st.integers(0, 3 * BLOCK_ROWS),
                    st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
                    st.integers(0, 2 ** 50))
LENGTHS = st.one_of(st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
                    st.integers(0, 3 * BLOCK_ROWS))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SPECS)), OFFSETS, LENGTHS, st.integers(1, len(PAIRS)))
def test_the_block_draw_is_each_streams_draw_bit_for_bit(dist, t0, n, m):
    spec = SPECS[dist]
    seeds = np.array([_stream_seed(spec, i, j) for i, j in PAIRS[:m]], dtype=np.uint64)
    block = draw_block(dist, _scale(spec), seeds, t0, n)
    assert block.shape == (n, m) and block.dtype == np.float64
    for c, (i, j) in enumerate(PAIRS[:m]):
        own = draw(spec, i, j, n, t0)
        assert block[:, c].view(np.int64).tolist() == own.view(np.int64).tolist()
        # the stream goes on at t0 + n: one draw of n + 1 values holds both
        both = np.append(own, draw(spec, i, j, 1, t0 + n))
        assert both.view(np.int64).tolist() == draw(spec, i, j, n + 1, t0).view(np.int64).tolist()


def test_the_block_draw_of_uniforms_is_the_documented_generator():
    seeds = [_stream_seed(SPECS["uniform"], i, j) for i, j in PAIRS]
    block = draw_block("uniform", 1.5, np.array(seeds, dtype=np.uint64), 999, 5)
    assert block.tolist() == [[1.5 * (2.0 * ref_uniform(seed, t) - 1.0)
                               for seed in seeds] for t in range(999, 1004)]


@pytest.mark.parametrize("m", [2, 8, 36])
@pytest.mark.parametrize("step", [1, 2, 7, 10, 1000])
@pytest.mark.parametrize("dist", sorted(SPECS))
def test_a_strided_draw_is_every_step_th_row_of_one_draw(dist, step, m):
    # a draw at step s forms only the rows it returns, yet holds the bits of
    # one step-1 draw's rows 0, s, 2s, ...; an odd step returns both halves of
    # the gaussian pairs, an even one the half of t0's parity
    spec = SPECS[dist]
    pairs = [(i, j) for i in range(1, 8) for j in range(1, 8) if i != j][:m]
    seeds = np.array([_stream_seed(spec, i, j) for i, j in pairs], dtype=np.uint64)
    for t0 in (0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 ** 40 + 7):
        for rows in (0, 1, 2, 9, 64):
            got = draw_block(dist, _scale(spec), seeds, t0, rows, step)
            want = draw_block(dist, _scale(spec), seeds, t0, max(0, (rows - 1) * step + 1))[::step]
            assert got.shape == (rows, m) and got.dtype == np.float64
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (t0, rows)
            assert np.array_equal(edge_noise(spec, pairs)(t0, rows, step), got)


@pytest.mark.parametrize("steps", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7])
def test_edge_blocks_are_one_draw_of_every_step(steps):
    # a narrow network's blocks are BLOCK_ROWS long; a network BLOCK_CELLS // 7
    # wide gets blocks of 7 rows, whose concatenation is the same draw
    spec = SPECS["gaussian"]
    want = np.column_stack([draw(spec, i, j, steps) for i, j in PAIRS])
    for width, rows in ((len(PAIRS), BLOCK_ROWS), (BLOCK_CELLS // 7, 7)):
        got = list(edge_blocks(edge_noise(spec, PAIRS), steps, width))
        assert [a for a, _ in got] == list(range(0, steps, rows))
        assert all(len(block) <= rows for _, block in got)
        whole = np.vstack([block for _, block in got]) if got else np.empty((0, len(PAIRS)))
        assert whole.shape == (steps, len(PAIRS))
        assert whole.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("width, rows", [
    (1, BLOCK_ROWS), (BLOCK_CELLS // BLOCK_ROWS, BLOCK_ROWS),   # bounded in rows
    (BLOCK_CELLS // BLOCK_ROWS + 1, 1008), (9216, 7),            # bounded in cells
    (BLOCK_CELLS, 1), (4 * BLOCK_CELLS, 1)])                     # never fewer than one row
def test_row_blocks_bound_a_block_in_rows_and_in_cells(width, rows):
    # the one block rule: ranges of max(1, min(BLOCK_ROWS, BLOCK_CELLS // width))
    # rows covering 0..steps-1 in order, the last one shorter
    for steps in (0, 1, rows, rows + 1, 3 * rows + 2):
        got = list(row_blocks(steps, width))
        assert got == [(a, min(a + rows, steps)) for a in range(0, steps, rows)]
        assert [a for a, _ in got[1:]] == [b for _, b in got[:-1]]
        assert sum(b - a for a, b in got) == steps

"""BufferedIntegers replays scalar ``Generator.integers(k)`` draws exactly."""

import numpy as np
import pytest

from repro.gossip.hierarchical.rounds import BufferedIntegers

#: Bounds whose Lemire rejection threshold ``(2³² − k) mod k`` is close to
#: ``k``, so about half of all words are rejected.
REJECTION_HEAVY = (3 * 2**30 + 7, 2**31 + 1, 2**32 - 1)


def _replay(seed, bounds, block):
    """Buffered and scalar draws over ``bounds`` from twin generators."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = BufferedIntegers(rng, block=block)
    buffered = [draws.draw(k) for k in bounds]
    scalar = [int(twin.integers(k)) for k in bounds]
    return rng, twin, draws, buffered, scalar


@pytest.mark.parametrize("block", [1, 7, 256])
def test_small_bounds_match_scalar_draws(block):
    for seed in range(200):
        bounds = np.random.default_rng(10_000 + seed).integers(1, 65, size=300)
        rng, twin, draws, buffered, scalar = _replay(seed, bounds.tolist(), block)
        assert buffered == scalar, seed
        draws.resync()
        assert rng.bit_generator.state == twin.bit_generator.state, seed


@pytest.mark.parametrize("block", [1, 5, 256])
def test_rejection_heavy_bounds_match_scalar_draws(block):
    for seed in range(50):
        bounds = [REJECTION_HEAVY[i % 3] for i in range(120)] + [2, 64, 1, 3]
        rng, twin, draws, buffered, scalar = _replay(seed, bounds, block)
        assert buffered == scalar, seed
        # about half the words were rejected, so the path was exercised
        assert draws._spent + draws._pos > len(bounds) + 20
        draws.resync()
        assert rng.bit_generator.state == twin.bit_generator.state, seed


def test_bound_one_consumes_no_word():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    draws = BufferedIntegers(rng)
    assert [draws.draw(1) for _ in range(10)] == [0] * 10
    draws.resync()
    assert rng.bit_generator.state == before


def test_stream_continues_after_resync():
    rng, twin, draws, buffered, scalar = _replay(11, [5, 1, 33, 2**31 + 1], 2)
    assert buffered == scalar
    draws.resync()
    # a half-used 64-bit output is part of the state; both continue alike
    assert rng.integers(1000, size=5).tolist() == twin.integers(1000, size=5).tolist()
    assert rng.random() == twin.random()


def test_interleaved_rounds_match_one_scalar_stream():
    rng, twin = np.random.default_rng(19), np.random.default_rng(19)
    for round_ in range(20):
        bounds = list(range(1, 3 + round_))
        draws = BufferedIntegers(rng, block=3)
        buffered = [draws.draw(k) for k in bounds]
        draws.resync()
        assert buffered == [int(twin.integers(k)) for k in bounds]
        assert float(rng.random()) == float(twin.random())

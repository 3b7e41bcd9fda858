"""Counter-based generator: cross-checked against the widely published
SplitMix64 test vectors, then exercised for the streaming invariants the
rest of the package leans on (chunking must not change the stream)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.rng import CounterRng, counter_u64, derive_seed, mix64, uniform_at

GAMMA = 0x9E3779B97F4A7C15

# First outputs of the reference sequential splitmix64 for seed 0. These
# appear verbatim in the original public-domain C source's test program
# and in several RNG test suites.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_matches_reference_splitmix64_stream():
    got = [mix64((0 + (c + 1) * GAMMA) % 2**64) for c in range(4)]
    assert got == SPLITMIX64_SEED0


def test_counter_u64_equals_reference_stream():
    assert counter_u64(0, np.arange(4)).tolist() == SPLITMIX64_SEED0


@given(seed=st.integers(0, 2**64 - 1), cut=st.integers(0, 64))
@settings(max_examples=50)
def test_chunking_invariance(seed, cut):
    whole = counter_u64(seed, np.arange(64))
    parts = np.concatenate([counter_u64(seed, np.arange(cut)),
                            counter_u64(seed, np.arange(cut, 64))])
    assert np.array_equal(whole, parts)


def test_uniform_range_and_precision():
    u = CounterRng(7).uniform(100000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit mantissa construction: every value is a multiple of 2**-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def test_uniform_mean_close_to_half():
    u = CounterRng(11).uniform(200000)
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    z = CounterRng(3).normal(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_exponential_rate():
    rate = np.repeat([2.5, 0.5], 100000)
    x = CounterRng(5).exponential(rate)
    assert x.shape == rate.shape and np.all(x >= 0)
    assert abs(x[:100000].mean() - 1 / 2.5) < 0.01
    assert abs(x[100000:].mean() - 1 / 0.5) < 0.02


def test_integers_bounds_and_coverage():
    k = CounterRng(9).integers(6, 10000)
    assert k.min() == 0 and k.max() == 5
    assert set(np.unique(k)) == set(range(6))


def test_same_seed_same_stream():
    a = CounterRng(42)
    b = CounterRng(42)
    assert np.array_equal(a.uniform(50), b.uniform(50))
    assert np.array_equal(a.normal(51), b.normal(51))
    assert np.array_equal(a.integers(4, 10), b.integers(4, 10))


def test_interleaving_does_not_share_state():
    # two instances with the same seed, consumed in different call patterns,
    # must walk the same counter sequence
    a = CounterRng(13)
    b = CounterRng(13)
    ua = a.uniform(30)
    ub = np.concatenate([b.uniform(10), b.uniform(20)])
    assert np.array_equal(ua, ub)


draw_calls = st.lists(
    st.tuples(st.sampled_from(["uniform", "integers", "normal"]), st.integers(0, 1500)),
    max_size=12,
)


@given(seed=st.integers(0, 2**64 - 1), calls=draw_calls)
@settings(max_examples=100, deadline=None)
def test_draws_are_slices_of_one_stream(seed, calls):
    # however the draws are sized, each one reads the next slots of the
    # seed's one counter_u64 stream
    total = sum(2 * size if kind == "normal" else size for kind, size in calls)
    stream = (counter_u64(seed, np.arange(total)) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    rng, at = CounterRng(seed), 0
    for kind, size in calls:
        u = stream[at:at + size]
        if kind == "uniform":
            assert np.array_equal(rng.uniform(size), u)
        elif kind == "integers":
            assert np.array_equal(rng.integers(7, size), np.minimum((u * 7).astype(np.int64), 6))
        else:
            v = stream[at + size:at + 2 * size]
            want = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * np.pi * v)
            assert np.array_equal(rng.normal(size), want)
            at += size
        at += size
    assert rng.counter == total


@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 3000)), min_size=1,
                max_size=20))
@settings(max_examples=50, deadline=None)
def test_draws_at_any_positions_equal_sequential_draws(pairs):
    # one vectorized read at (seed, position) pairs gives what each seed's
    # sequential stream gives at that position
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    positions = np.array([c for _, c in pairs])
    raw, u = counter_u64(seeds, positions), uniform_at(seeds[:, None], positions[:, None])
    for (seed, position), value, uniform in zip(pairs, raw.tolist(), u[:, 0].tolist()):
        assert value == mix64(seed + (position + 1) * GAMMA)
        rng = CounterRng(seed)
        rng.uniform(position)
        assert rng.uniform(1)[0] == uniform


def test_derive_seed_matches_definition():
    assert derive_seed(123, 0) == mix64((123 + GAMMA) % 2**64)
    assert derive_seed(123, 4) == mix64((123 + 5 * GAMMA) % 2**64)


def test_derived_streams_differ():
    seeds = {derive_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    a = CounterRng(derive_seed(0, 0)).uniform(100)
    b = CounterRng(derive_seed(0, 1)).uniform(100)
    assert not np.array_equal(a, b)


def test_normal_consumes_two_slots_per_value():
    # Box-Muller burns exactly 2k counters for k normals, so the next
    # uniform call lands at a predictable stream position
    a = CounterRng(17)
    a.normal(3)
    assert a.counter == 6
    ref = CounterRng(17)
    ref.uniform(6)
    assert np.array_equal(a.uniform(5), ref.uniform(5))


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200)
def test_mix64_stays_in_range(z):
    v = mix64(z)
    assert 0 <= v < 2**64

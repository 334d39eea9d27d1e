"""Counter RNG against a reference implementation and distribution checks."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from r3mc import CounterRng, sample_mask

MASK = (1 << 64) - 1


def reference_word(seed, i):
    """Direct scalar transcription of the mixing function: word ``i`` (from 1)."""
    z = (seed + i * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_stream(seed, count):
    return [reference_word(seed, i) for i in range(1, count + 1)]


def reference_sample(seed, population, count):
    """Floyd's algorithm drawing one word at a time: (sorted sample, words used).

    Each step rejects words at or above the largest multiple of its
    bound below 2**64 and draws the next word instead.
    """
    used = 0
    chosen = set()
    for j in range(population - count, population):
        bound = j + 1
        limit = (2**64 // bound) * bound
        while True:
            used += 1
            word = reference_word(seed, used)
            if word < limit:
                break
        t = word % bound
        chosen.add(t if t not in chosen else j)
    return sorted(chosen), used


def sample_and_counter(seed, population, count):
    rng = CounterRng(seed)
    sample = rng.sample_without_replacement(population, count)
    assert sample.dtype == np.int64
    return sample.tolist(), rng._counter


def test_raw_matches_reference_stream():
    for seed in (0, 1, 42, 2**63, MASK):
        rng = CounterRng(seed)
        got = rng.raw(8).tolist()
        assert got == reference_stream(seed, 8)


def test_raw_is_stateful_and_seed_deterministic():
    a = CounterRng(7)
    first, second = a.raw(5), a.raw(5)
    assert first.tolist() != second.tolist()
    b = CounterRng(7)
    assert b.raw(10).tolist() == first.tolist() + second.tolist()


def test_uniform_range_and_resolution():
    u = CounterRng(3).uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit mantissa construction: values are multiples of 2**-53
    assert np.all(u * 2.0**53 == np.round(u * 2.0**53))


def test_uniform_mean_and_spread():
    u = CounterRng(11).uniform(200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_standard_normal_shape_and_moments():
    z = CounterRng(5).standard_normal((400, 500))
    assert z.shape == (400, 500)
    flat = z.ravel()
    assert abs(flat.mean()) < 0.01
    assert abs(flat.std() - 1.0) < 0.01
    assert abs((flat**3).mean()) < 0.02
    assert abs((flat**4).mean() - 3.0) < 0.05


def test_standard_normal_deterministic():
    a = CounterRng(9).standard_normal((3, 4))
    b = CounterRng(9).standard_normal((3, 4))
    assert np.array_equal(a, b)


def test_below_bounds_and_rejects_bias():
    # a sample of one is a single draw on [0, population)
    rng = CounterRng(2)
    draws = np.array([rng.sample_without_replacement(10, 1)[0] for _ in range(5000)])
    assert draws.min() >= 0 and draws.max() < 10
    counts = np.bincount(draws, minlength=10)
    # uniform to ~5 sigma of a binomial(5000, 0.1)
    assert np.all(np.abs(counts - 500) < 5 * np.sqrt(5000 * 0.1 * 0.9))
    # 2**64 = 2 * bound + 2**62 for bound 3 * 2**61: the plain remainder of a
    # word lands below 2**62 with probability 3/4, a rejection-sampled draw
    # with probability 2/3
    bound = 3 * 2**61
    draws = [rng.sample_without_replacement(bound, 1)[0] for _ in range(3000)]
    assert max(draws) < bound
    low = np.mean([d < 2**62 for d in draws])
    assert abs(low - 2 / 3) < 5 * np.sqrt(2 / 9 / 3000)


def test_permutation_is_a_permutation():
    for seed in range(20):
        p = CounterRng(seed).permutation(100)
        assert sorted(p.tolist()) == list(range(100))


def test_permutation_varies_with_seed():
    assert (
        CounterRng(0).permutation(50).tolist()
        != CounterRng(1).permutation(50).tolist()
    )


def test_permutation_puts_tied_uniforms_in_index_order(monkeypatch):
    keys = (np.arange(1000) * 7 % 3) / 4.0  # three values, each tied 333 times
    monkeypatch.setattr(CounterRng, "uniform", lambda rng, count: keys[:count])
    got = CounterRng(0).permutation(1000).tolist()
    assert got == sorted(range(1000), key=lambda i: keys[i])


def test_sample_without_replacement_properties():
    for seed in range(20):
        s = CounterRng(seed).sample_without_replacement(1000, 50)
        lst = s.tolist()
        assert len(set(lst)) == 50
        assert lst == sorted(lst)
        assert min(lst) >= 0 and max(lst) < 1000


def test_sample_without_replacement_full_population():
    s = CounterRng(4).sample_without_replacement(30, 30)
    assert s.tolist() == list(range(30))


def test_sample_without_replacement_rejects_oversized():
    with pytest.raises(ValueError):
        CounterRng(0).sample_without_replacement(10, 11)


def test_sample_without_replacement_population_is_at_most_2_63():
    # every index must fit the int64 output; counts stay small, since a
    # synthesize at these sizes would allocate n x r factors
    with pytest.raises(ValueError, match="exceeds"):
        CounterRng(9).sample_without_replacement(2**64 - 1, 30)
    with pytest.raises(ValueError, match="exceeds"):
        sample_mask(2**32, 2**32, 30, 0)
    s = CounterRng(9).sample_without_replacement(2**63, 30)
    assert s.dtype == np.int64 and len(np.unique(s)) == 30
    assert 0 <= s.min() and s.max() < 2**63
    assert sample_and_counter(9, 2**63, 30) == reference_sample(9, 2**63, 30)


def test_sample_covers_population_uniformly():
    hits = np.zeros(40)
    for seed in range(300):
        hits[CounterRng(seed).sample_without_replacement(40, 10)] += 1
    # each index expected 75 times; allow a generous band
    assert hits.min() > 40 and hits.max() < 115


@pytest.mark.parametrize("seed, population, count", [
    (3, 50, 0),                  # no draws
    (8, 2**40, 0),
    (4, 30, 30),                 # the whole population
    (6, 1, 1),
    (7, 3 * 2**61, 64),          # a quarter of the words reject
    (1, 1000, 50),
])
def test_sample_matches_the_scalar_reference(seed, population, count):
    assert sample_and_counter(seed, population, count) == reference_sample(
        seed, population, count
    )


def test_sample_draws_one_batch_per_rejected_word(monkeypatch):
    raw = CounterRng.raw
    calls = []

    def counted(rng, count):
        calls.append(count)
        return raw(rng, count)

    monkeypatch.setattr(CounterRng, "raw", counted)
    rng = CounterRng(7)
    rng.sample_without_replacement(3 * 2**61, 64)
    rejected = rng._counter - 64
    assert rejected > 0
    assert len(calls) == 1 + rejected and calls[0] == 64


@pytest.mark.parametrize("population, words, want, used", [
    # 2**64 = 2 * bound + 2**62: words from 2**64 - 2**62 on are rejected
    (3 * 2**61, [2**64 - 2**62, 2**64 - 2**62 - 1], (2**64 - 2**62 - 1) % (3 * 2**61), 2),
    (3 * 2**61, [2**64 - 1, 2**64 - 2**62, 5], 5, 3),
    # a power of two divides 2**64: no word is rejected
    (2**62, [2**64 - 1], 2**62 - 1, 1),
])
def test_sample_rejects_exactly_the_words_at_or_above_the_limit(
        monkeypatch, population, words, want, used):
    def scripted(rng, count):
        start = rng._counter
        rng._counter += count
        return np.array((words + [0] * count)[start:start + count], dtype=np.uint64)

    monkeypatch.setattr(CounterRng, "raw", scripted)
    rng = CounterRng(0)
    assert rng.sample_without_replacement(population, 1).tolist() == [want]
    assert rng._counter == used


@pytest.mark.parametrize("population, count", [
    (300_000, 299_000),          # most draws repeat an earlier one
    (200, 150),
    (4_000_000, 159_600),        # the recover-2k mask
])
def test_sample_does_not_depend_on_the_order_of_tied_draws(
        monkeypatch, population, count):
    want = [CounterRng(seed).sample_without_replacement(population, count)
            for seed in range(3)]

    def ties_last_first(a, kind=None):
        assert kind is None
        return np.lexsort((-np.arange(a.size), a))

    monkeypatch.setattr(np, "argsort", ties_last_first)
    for seed, sample in enumerate(want):
        got = CounterRng(seed).sample_without_replacement(population, count)
        assert got.tobytes() == sample.tobytes()


def test_sample_golden_large():
    # the recover-2k mask: 2000 x 2000 cells, 159,600 of them
    got, counter = sample_and_counter(1, 4_000_000, 159_600)
    assert (got, counter) == reference_sample(1, 4_000_000, 159_600)
    assert counter == 159_600 and len(got) == 159_600
    digest = hashlib.sha256(np.array(got, dtype="<i8").tobytes()).hexdigest()
    assert sum(got) == 319230418891
    assert digest[:16] == "becb4c980d3a7c52"


@given(data=st.data(),
       population=st.integers(0, 300) | st.integers(0, 2**63 - 1),
       seed=st.integers(0, MASK))
def test_sample_matches_the_scalar_reference_property(data, population, seed):
    count = data.draw(st.integers(0, min(population, 200)), label="count")
    assert sample_and_counter(seed, population, count) == reference_sample(
        seed, population, count
    )


# --- the array sampler against the Floyd set loop it replaces


def oracle_sample_without_replacement(rng, population, count):
    """The batched draw followed by Floyd's loop over a set, kept as the reference."""
    if count < 0 or count > population:
        raise ValueError("need 0 <= count <= population")
    if population > 2**63:
        raise ValueError("population %d exceeds 2**63" % population)
    first = np.uint64(population - count)
    bounds = first + np.arange(1, count + 1, dtype=np.uint64)
    rem = (np.uint64(0) - bounds) % bounds
    draws = np.empty(count, dtype=np.uint64)
    done = 0
    while done < count:
        words = rng.raw(count - done)
        tail = rem[done:]
        rejected = np.flatnonzero((tail != 0) & (words >= np.uint64(0) - tail))
        keep = int(rejected[0]) if rejected.size else words.size
        draws[done:done + keep] = words[:keep] % bounds[done:done + keep]
        done += keep
        if rejected.size:
            rng._counter -= words.size - keep - 1
    chosen = set()
    for j, t in zip(range(population - count, population), draws.tolist()):
        chosen.add(t if t not in chosen else j)
    return np.array(sorted(chosen), dtype=np.int64)


def assert_samples_like_the_set_loop(seed, population, count, skip=0):
    """Same indices, dtype and final counter as the set loop, from counter ``skip``."""
    got_rng, want_rng = CounterRng(seed), CounterRng(seed)
    got_rng.raw(skip)
    want_rng.raw(skip)
    got = got_rng.sample_without_replacement(population, count)
    want = oracle_sample_without_replacement(want_rng, population, count)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert got_rng._counter == want_rng._counter


@pytest.mark.parametrize("seed, population, count", [
    (0, 0, 0), (1, 1, 0), (2, 1, 1), (3, 2**63, 0), (4, 2**63, 1),
    (5, 5000, 5000),             # every first draw names an earlier step
    (6, 5000, 4990), (7, 5000, 2500), (8, 10**6, 3000),
    (9, 2**63, 2000), (10, 2**63 - 1, 2000), (11, 3 * 2**61, 2000),
    (12, 2**63, 5000),
])
def test_sample_matches_the_set_loop(seed, population, count):
    assert_samples_like_the_set_loop(seed, population, count)


@given(data=st.data(),
       population=st.integers(0, 400) | st.integers(0, 2**63)
       | st.integers(2**63 - 600, 2**63),
       seed=st.integers(0, MASK), skip=st.integers(0, 3))
def test_sample_matches_the_set_loop_property(data, population, seed, skip):
    # counts near the population make long chains of steps naming steps
    top = min(population, 600)
    count = data.draw(st.integers(0, top) | st.integers(max(top - 40, 0), top),
                      label="count")
    assert_samples_like_the_set_loop(seed, population, count, skip)


def test_sample_with_every_draw_a_repeat_or_a_link(monkeypatch):
    # scripted words: step j draws word % (j + 1); with population = count
    # every draw is a repeat or names a step, and step 5 takes its own index
    # through the links 5 -> 2 -> 1
    def scripted(rng, count):
        rng._counter += count
        return np.array([0, 0, 1, 1, 3, 2, 6, 0][:count], dtype=np.uint64)

    monkeypatch.setattr(CounterRng, "raw", scripted)
    got = CounterRng(0).sample_without_replacement(8, 8)
    want = oracle_sample_without_replacement(CounterRng(0), 8, 8)
    assert got.tolist() == want.tolist() == list(range(8))

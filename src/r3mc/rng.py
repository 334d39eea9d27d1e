"""Deterministic counter-based random numbers.

Every draw is a pure function of (seed, counter), so streams are
reproducible across platforms, numpy versions, and thread counts.  The
generator is SplitMix64: output i is the finalizer of
``seed + (i + 1) * 0x9E3779B97F4A7C15`` where the finalizer xor-shifts and
multiplies by the fixed constants below.  Uniforms take the top 53 bits,
gaussians use the Box-Muller transform, and subset sampling uses Floyd's
algorithm.  None of this is cryptographic; it is for reproducible
experiments only.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(2.0**-53)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """SplitMix64 stream addressed by an advancing 64-bit counter."""

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise TypeError("seed must be an integer")
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def raw(self, count):
        """Next ``count`` raw 64-bit words as a uint64 array."""
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GAMMA)

    def uniform(self, count):
        """Doubles in [0, 1), 53-bit resolution."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * _U53

    def standard_normal(self, shape):
        """Gaussian array via Box-Muller on consecutive uniform pairs."""
        total = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        pairs = (total + 1) // 2
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = (self.raw(pairs) >> np.uint64(11)).astype(np.float64)
        u1 = (u1 + 1.0) * _U53
        u2 = self.uniform(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:total].reshape(shape)

    def permutation(self, count):
        """Permutation of range(count) by stable argsort of one uniform draw per slot."""
        return np.argsort(self.uniform(count), kind="stable")

    def sample_without_replacement(self, population, count):
        """Floyd's algorithm: ``count`` distinct ints from [0, population), sorted.

        Step j of Floyd's loop needs an integer uniform on [0, j + 1).  It
        is the remainder of one raw word, and a word at or above the
        largest multiple of j + 1 below 2**64 is rejected (no modulo bias)
        and the step draws the next word.  The words of all steps are drawn
        in one batch; at the first rejected word the batch is cut and the
        next batch starts just after it, so every step consumes the same
        words as it would drawing one word at a time.  The population is at
        most 2**63, so that every index fits the int64 output.

        Floyd's step j keeps its draw t unless t is already chosen, and
        then takes j.  That happens when t repeats an earlier draw (kept
        then, or chosen before it), or when t is a first draw naming an
        earlier step j' = t that took its own index.  A first draw naming
        an earlier step therefore shares that step's fate; following
        those links to a step that names no earlier one decides every
        step without walking the chosen set.
        """
        if count < 0 or count > population:
            raise ValueError("need 0 <= count <= population")
        if population > 2**63:
            raise ValueError("population %d exceeds 2**63" % population)
        first = np.uint64(population - count)
        bounds = first + np.arange(1, count + 1, dtype=np.uint64)  # j + 1 per step
        rem = (np.uint64(0) - bounds) % bounds  # 2**64 mod bound
        draws = np.empty(count, dtype=np.uint64)
        done = 0
        while done < count:
            words = self.raw(count - done)
            tail = rem[done:]
            rejected = np.flatnonzero((tail != 0) & (words >= np.uint64(0) - tail))
            keep = int(rejected[0]) if rejected.size else words.size
            draws[done:done + keep] = words[:keep] % bounds[done:done + keep]
            done += keep
            if rejected.size:  # resume just past the rejected word
                self._counter -= words.size - keep - 1
        steps = (bounds - np.uint64(1)).astype(np.int64)  # j per step
        draws = draws.astype(np.int64)  # t <= j < 2**63
        # a repeat of an earlier draw value collides
        order = np.argsort(draws, kind="stable")
        ranked = draws[order]
        collides = np.zeros(count, dtype=bool)
        collides[order[1:]] = ranked[1:] == ranked[:-1]
        # a first draw t = j - gap names the step gap places back, if there is
        # one; jump the links until each ends at a step that names none
        link = np.arange(count)
        gap = steps - draws
        named = np.flatnonzero(~collides & (gap > 0) & (gap <= link))
        link[named] -= gap[named]
        while named.size:
            link[named] = link[link[named]]
            named = named[link[link[named]] != link[named]]
        chosen = np.where(collides[link], steps, draws)
        chosen.sort()
        return chosen

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
    """The SplitMix64 finalizer, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """SplitMix64 stream addressed by an advancing 64-bit counter."""

    def __init__(self, seed):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise TypeError("seed must be an integer")
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def raw(self, count):
        """Next ``count`` raw 64-bit words as a uint64 array."""
        z = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self._seed
            return _mix(z)

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
        # tied uniforms fall in index order, so every numpy build gives this order
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

        At most about five arrays of the sample's size are alive at once
        (a traced peak of 5.2 times the output): the bounds become the
        gaps j - t and the draws the sample in place, and each word batch
        is dropped once read.
        """
        if count < 0 or count > population:
            raise ValueError("need 0 <= count <= population")
        if population > 2**63:
            raise ValueError("population %d exceeds 2**63" % population)
        bounds = np.arange(1, count + 1, dtype=np.uint64)
        bounds += np.uint64(population - count)  # j + 1 per step
        draws = np.empty(count, dtype=np.int64)  # t <= j < 2**63
        done = 0
        while done < count:
            words = self.raw(count - done)
            tail = bounds[done:]
            # draws past the first rejected word are drawn again
            np.remainder(words, tail, out=draws[done:].view(np.uint64))
            # a word at or above the largest multiple of its bound below 2**64
            # lies in a block of bound words, from word - t, that runs past
            # 2**64: word - t > 2**64 - bound, which is 0 - bound in uint64
            words -= draws[done:].view(np.uint64)
            rejected = np.flatnonzero(words > np.uint64(0) - tail)
            del words
            keep = int(rejected[0]) if rejected.size else count - done
            done += keep
            if rejected.size:  # resume just past the rejected word
                self._counter -= count - done - 1
        # every step repeats an earlier draw but the lowest step to draw each
        # value, which is the same whatever order the sort gives equal values
        order = np.argsort(draws)
        ranked = draws[order]
        starts = np.empty(count, dtype=bool)  # where each run of equal values starts
        starts[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
        del ranked
        collides = np.ones(count, dtype=bool)
        collides[np.minimum.reduceat(order, np.flatnonzero(starts))] = False
        del order, starts
        # a first draw t = j - gap names the step gap places back, if there is
        # one; jump the links until each ends at a step that names none
        link = np.arange(count)
        bounds -= np.uint64(1)
        gap = bounds.view(np.int64)  # j - t per step, in place of j + 1
        gap -= draws
        named = np.flatnonzero(~collides & (gap > 0) & (gap <= link))
        link[named] -= gap[named]
        while named.size:
            link[named] = link[link[named]]
            named = named[link[link[named]] != link[named]]
        # a colliding step takes its own index j = t + gap
        np.add(draws, gap, out=draws, where=collides[link])
        draws.sort()
        return draws

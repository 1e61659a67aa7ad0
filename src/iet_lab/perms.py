"""Permutation pairs for interval exchanges.

A d-letter exchange is described combinatorially by a pair of bijections
from letters (indexed 0..d-1) to positions 1..d: one ordering before the
exchange and one after.  Named alphabets are a presentation concern;
internally letters are always indices, which keeps matrix indexing
uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateAlphabet, InvalidPermutation, reading_spec


def _check_bijection(values, d: int, name: str) -> tuple:
    vals = tuple(int(v) for v in values)
    if len(vals) != d or sorted(vals) != list(range(1, d + 1)):
        raise InvalidPermutation(f"{name} = {values!r} is not a bijection onto 1..{d}")
    return vals


@dataclass(frozen=True)
class PermutationPair:
    """Bijections pi0, pi1 from letter index to position 1..d.

    ``irreducible`` is recomputed on construction: the pair is reducible
    when pi1 o pi0^{-1} maps {1..k} onto itself for some k < d.
    """

    pi0: tuple
    pi1: tuple

    def __post_init__(self):
        d = len(self.pi0)
        if d < 2:
            raise DegenerateAlphabet("need at least two letters")
        object.__setattr__(self, "pi0", _check_bijection(self.pi0, d, "pi0"))
        object.__setattr__(self, "pi1", _check_bijection(self.pi1, d, "pi1"))

    @property
    def d(self) -> int:
        return len(self.pi0)

    @cached_property
    def orders(self) -> tuple:
        """(letters by pi0, letters by pi1): the left-to-right order of
        the intervals and of their images, sorted once per pair."""
        return tuple(tuple(sorted(range(self.d), key=pi.__getitem__))
                     for pi in (self.pi0, self.pi1))

    def position_map(self) -> tuple:
        """pi1 o pi0^{-1} as a tuple over positions 1..d."""
        inv0 = [0] * self.d
        for letter, pos in enumerate(self.pi0):
            inv0[pos - 1] = letter
        return tuple(self.pi1[inv0[j]] for j in range(self.d))

    @property
    def irreducible(self) -> bool:
        pm = self.position_map()
        top = 0
        for k in range(1, self.d):
            top = max(top, pm[k - 1])
            if top == k:
                return False
        return True

    def to_json(self) -> dict:
        return {"d": self.d, "pi0": list(self.pi0), "pi1": list(self.pi1)}

    @staticmethod
    def from_json(data: dict) -> "PermutationPair":
        with reading_spec("permutation pair", data):
            return make_pair(data["pi0"], data["pi1"])

    def __str__(self):
        pm = self.position_map()
        return " ".join(str(v) for v in pm)


def make_pair(pi0, pi1) -> PermutationPair:
    """Construct a pair from two position lists, validating bijectivity."""
    if len(pi0) != len(pi1):
        raise InvalidPermutation("pi0 and pi1 must have the same length")
    return PermutationPair(tuple(pi0), tuple(pi1))


def make_symmetric_pair(d: int) -> PermutationPair:
    """The fully reversing pair: position j is sent to position d+1-j."""
    if d < 2:
        raise DegenerateAlphabet(f"symmetric pair needs d >= 2, got {d}")
    return PermutationPair(tuple(range(1, d + 1)), tuple(range(d, 0, -1)))

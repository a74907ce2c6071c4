"""Permutation arithmetic for the covering toolkit.

Permutations use one-line notation over the values 1..n: the permutation
pi is stored as the tuple (pi(1), ..., pi(n)).  All public interfaces are
1-based, including positions passed to :func:`delete_at`.

Ranks are lexicographic: ``rank`` maps a permutation of length n to its
0-based position in the lexicographic ordering of S_n, via the factorial
number system (Lehmer code), and ``unrank`` inverts it.  Dense ranks are
what the incidence graph and selection masks are indexed by.
"""
from __future__ import annotations

import dataclasses
from math import factorial
from typing import Iterable, Sequence


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    >>> Permutation((1, 3, 4, 2)).n
    4
    >>> str(Permutation((1, 3, 4, 2)))
    '1342'
    """

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        n = len(vals)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {vals}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return format_perm(self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, pos: int) -> int:
        """Value at 1-based position ``pos``."""
        if not 1 <= pos <= len(self.values):
            raise ValueError(f"position {pos} out of range 1..{len(self.values)}")
        return self.values[pos - 1]

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        return cls(parse_perm(text))


def format_perm(values: Sequence[int]) -> str:
    """Serialize one-line notation: digit string for n <= 9, else comma-separated.

    >>> format_perm((1, 3, 4, 2))
    '1342'
    >>> format_perm((10, 3, 1, 2, 4, 5, 6, 7, 8, 9))
    '10,3,1,2,4,5,6,7,8,9'
    """
    if len(values) <= 9:
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


def parse_perm(text: str) -> tuple[int, ...]:
    """Parse either serialized form accepted on input.

    >>> parse_perm("1342")
    (1, 3, 4, 2)
    >>> parse_perm("2,1,3")
    (2, 1, 3)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation string")
    return tuple(map(int, text.split(",") if "," in text else text))


def rank(p: Permutation | Sequence[int]) -> int:
    """Lexicographic rank of p within S_n, in 0..n!-1.

    Computed from the Lehmer code: digit i counts later entries smaller
    than entry i, weighted by (n-1-i)!.

    >>> rank((1, 2, 3)), rank((3, 2, 1))
    (0, 5)
    """
    vals = tuple(p)
    n = len(vals)
    r = 0
    f = factorial(n - 1)
    for i in range(n - 1):
        smaller = sum(1 for j in range(i + 1, n) if vals[j] < vals[i])
        r += smaller * f
        f //= n - 1 - i
    return r


def unrank(n: int, r: int) -> Permutation:
    """Permutation of length n at lexicographic rank r.

    >>> str(unrank(3, 0)), str(unrank(3, 5))
    ('123', '321')
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range 0..{factorial(n) - 1} for n={n}")
    remaining = list(range(1, n + 1))
    out = []
    f = factorial(n - 1)
    for i in range(n):
        d, r = divmod(r, f)
        out.append(remaining.pop(d))
        if i < n - 1:
            f //= n - 1 - i
    return Permutation(tuple(out))


def standardize(seq: Iterable[int]) -> Permutation:
    """Reduce a sequence of distinct integers to its order pattern.

    Output value at each position is the 1-based order statistic of the
    input entry: output(i) < output(j) iff input(i) < input(j).

    >>> str(standardize((9, 2, 6, 5)))
    '4132'
    """
    vals = tuple(seq)
    if len(set(vals)) != len(vals):
        raise ValueError(f"entries must be pairwise distinct: {vals}")
    order = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return Permutation(tuple(order[v] for v in vals))


def delete_at(p: Permutation, i: int) -> Permutation:
    """Remove the value at 1-based position i and standardize the rest.

    >>> str(delete_at(Permutation.parse("1342"), 1))
    '231'
    """
    n = p.n
    if n < 2:
        raise ValueError("cannot delete from a permutation of length 1")
    if not 1 <= i <= n:
        raise ValueError(f"position {i} out of range 1..{n}")
    return standardize(p.values[: i - 1] + p.values[i:])


def successions(p: Permutation | Sequence[int]) -> int:
    """Number of adjacent positions whose values differ by exactly 1.

    >>> successions(Permutation.parse("12345"))
    4
    >>> successions(Permutation.parse("2413"))
    0
    """
    vals = tuple(p)
    return sum(1 for a, b in zip(vals, vals[1:]) if abs(b - a) == 1)


def reverse(p: Permutation) -> Permutation:
    return Permutation(p.values[::-1])


def complement(p: Permutation) -> Permutation:
    n = p.n
    return Permutation(tuple(n + 1 - v for v in p.values))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for pos, v in enumerate(p.values):
        inv[v - 1] = pos + 1
    return Permutation(tuple(inv))


SYMMETRY_OPS = ("reverse", "complement", "inverse")

_SYMMETRY = {"reverse": reverse, "complement": complement, "inverse": inverse}


def symmetry(p: Permutation, op: str) -> Permutation:
    """Apply one of the involutions ``reverse``, ``complement``, ``inverse``.

    >>> str(symmetry(Permutation.parse("2413"), "inverse"))
    '3142'
    """
    try:
        fn = _SYMMETRY[op]
    except KeyError:
        raise ValueError(f"unknown symmetry {op!r}; expected one of {SYMMETRY_OPS}") from None
    return fn(p)


def covers(rho: Permutation, pi: Permutation) -> bool:
    """True iff deleting one letter of rho (then standardizing) yields pi.

    rho must be exactly one longer than pi; any other length gap is
    rejected (single-letter containment is the only case supported).

    >>> covers(Permutation.parse("1342"), Permutation.parse("123"))
    True
    >>> covers(Permutation.parse("1234"), Permutation.parse("132"))
    False
    """
    if rho.n != pi.n + 1:
        raise ValueError(f"cover length {rho.n} must be pattern length {pi.n} + 1")
    return any(delete_at(rho, i) == pi for i in range(1, rho.n + 1))

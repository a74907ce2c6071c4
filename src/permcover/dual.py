"""LP-dual lower bounds on cover sizes, checked in exact integer arithmetic.

A dual is a weight w_p >= 0 for every pattern of S_n over a denominator D
such that every cover of S_{n+1} has load at most D, where a cover's load
is the sum of the weights of its distinct patterns.  A cover of
multiplicity lam puts at least lam * w_p on every pattern p, so it has at
least ceil(lam * sum(w) / D) members (LP duality; Lovász, "On the ratio of
optimal integral and fractional covers", 1975).  All weights 1 over
D = n+1 is the pigeonhole count.

The weights for n = 1..6 ship in ``data/duals.json``, read on the first
request; they come from the orbit-reduced LP kept in ``tests/test_dual.py``.
This module solves no LP: it checks the table against the graph on every
use, and a table that fails raises RuntimeError, like the build checks.
"""
from __future__ import annotations

import functools
import json
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .graph import CoverageGraph


class Dual(NamedTuple):
    """Integer pattern weights (by pattern rank) over a common denominator."""

    denominator: int
    weights: np.ndarray  # int64, one per pattern of S_n

    def lower_bound(self, lam: int) -> int:
        """ceil(lam * sum(w) / D): the fewest members a lam-cover can have."""
        return -(-lam * int(self.weights.sum()) // self.denominator)

    def to_json_dict(self) -> dict:
        return {"denominator": self.denominator, "weights": self.weights.tolist()}

    def check(self, g: CoverageGraph) -> Dual:
        """Return self if no cover of ``g`` has load above the denominator.

        One gather over ``g.pattern_rows``, with weight 0 for the sentinel.
        Weights are first bounded by D and D by 2^63 / (n+1), so no load
        can overflow int64.
        """
        d, w = self.denominator, self.weights
        if not (isinstance(d, int) and 0 < d and d * (g.n + 1) < 2 ** 63):
            raise RuntimeError(f"dual denominator {d!r} for n={g.n} is out of range")
        if w.shape != (g.n_patterns,) or w.min() < 0 or w.max() > d:
            raise RuntimeError(
                f"dual weights for n={g.n} are not {g.n_patterns} values in 0..{d}"
            )
        loads = np.append(w, 0)[g.pattern_rows].sum(axis=1)
        worst = int(np.argmax(loads))
        if loads[worst] > d:
            raise RuntimeError(
                f"dual for n={g.n} loads cover rank {worst} with {int(loads[worst])} > {d}"
            )
        return self


def pigeonhole_dual(n: int) -> Dual:
    """Every weight 1 over n+1: no cover holds more than n+1 patterns."""
    return Dual(n + 1, np.ones(factorial(n), dtype=np.int64))


@functools.cache
def _shipped_tables() -> dict:
    return json.loads((Path(__file__).parent / "data" / "duals.json").read_text())


def shipped_dual(n: int) -> Dual:
    """The shipped dual for n, or the pigeonhole dual if none ships; unchecked."""
    entry = _shipped_tables().get(str(n))
    if entry is None:
        return pigeonhole_dual(n)
    return Dual(entry["denominator"], np.asarray(entry["weights"], dtype=np.int64))


def checked_dual(g: CoverageGraph) -> Dual:
    """The dual for ``g.n``, checked against ``g``."""
    return shipped_dual(g.n).check(g)

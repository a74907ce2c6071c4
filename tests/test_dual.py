"""The shipped LP duals: the generator that made them, and the checker.

The table in src/permcover/data/duals.json is this module's output:

    PYTHONPATH=src python tests/test_dual.py > src/permcover/data/duals.json

scipy is used here and nowhere in the library, which only reads the table
and checks it against the graph.
"""
import json
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from permcover import _kernels
from permcover.cover import pigeonhole_lower_bound
from permcover.dual import Dual, checked_dual, pigeonhole_dual, shipped_dual
from permcover.graph import build_graph

SHIPPED_N = range(1, 7)
LP_OPTIMA = {1: Fraction(1), 2: Fraction(1), 3: Fraction(2), 4: Fraction(19, 3),
             5: Fraction(203, 8)}
ROUNDING = 10 ** 12  # the largest common denominator of the orbit weights


def _orbits(length: int) -> np.ndarray:
    """Orbit index of every rank of S_length under <reverse, complement, inverse>."""
    perms = _kernels.perms_and_deletions(length)[0].astype(np.int64)
    maps = [_kernels.lehmer_ranks(m)
            for m in (perms[:, ::-1], length + 1 - perms, np.argsort(perms, axis=1))]
    label = np.arange(len(perms))
    while True:  # propagate the smallest rank of each orbit to all of it
        low = label.copy()
        for m in maps:
            np.minimum(low, low[m], out=low)
        if np.array_equal(low, label):
            return np.unique(label, return_inverse=True)[1]
        label = low


def lp_dual(g) -> tuple[Dual, float]:
    """An optimal dual for ``g.n`` as integers, and scipy's LP optimum.

    Containment commutes with reverse, complement and inverse, so averaging
    an optimal dual over that group gives one constant on pattern orbits:
    one variable per pattern orbit and one constraint per cover orbit.
    Each orbit's weight is the nearest fraction to HiGHS's value with
    denominator at most 10^6; if their common denominator exceeds ROUNDING,
    HiGHS's values are rounded down to it instead.  The denominator is then
    the largest load, which makes any non-negative integer weights a valid
    dual, so the floats need not be exact; at n <= 5 they round to the
    exact optimum.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    pattern_orbit, cover_orbit = _orbits(g.n), _orbits(g.n + 1)
    n_orbits = pattern_orbit.max() + 1
    representatives = np.unique(cover_orbit, return_index=True)[1]
    # incidence[c, o]: patterns of orbit o in cover-orbit c's representative
    incidence = np.stack([
        np.bincount(np.append(pattern_orbit, n_orbits)[row], minlength=n_orbits + 1)[:-1]
        for row in g.pattern_rows[representatives]
    ])
    res = linprog(-np.bincount(pattern_orbit), A_ub=incidence, b_ub=np.ones(len(incidence)),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    y = [Fraction(v).limit_denominator(10 ** 6) for v in res.x]
    scale = lcm(*(v.denominator for v in y))
    if scale > ROUNDING:  # no small common denominator: round the floats down instead
        scale, y = ROUNDING, [Fraction(v) for v in res.x]
    orbit_weights = np.array([v.numerator * scale // v.denominator for v in y], dtype=np.int64)
    weights = orbit_weights[pattern_orbit]
    denominator = int(np.append(weights, 0)[g.pattern_rows].sum(axis=1).max())
    return Dual(denominator, weights), -res.fun


def ratio(dual: Dual) -> Fraction:
    return Fraction(int(dual.weights.sum()), dual.denominator)


@pytest.mark.parametrize("n", SHIPPED_N)
def test_shipped_dual_is_the_lp_optimum(graph, n):
    g = graph(n)
    dual = checked_dual(g)
    generated, optimum = lp_dual(g)  # skips without scipy
    assert generated.check(g) is generated
    for d in (dual, generated):
        if n in LP_OPTIMA:  # exactly, not to a tolerance
            assert ratio(d) == LP_OPTIMA[n]
        assert float(ratio(d)) == pytest.approx(optimum, abs=1e-9, rel=0)


@pytest.mark.parametrize("n", SHIPPED_N)
def test_raising_a_weight_on_a_tightest_cover_fails_the_check(graph, n):
    g = graph(n)
    dual = shipped_dual(n)
    loads = np.append(dual.weights, 0)[g.pattern_rows].sum(axis=1)
    tightest = int(np.argmax(loads))
    assert loads[tightest] == dual.denominator
    weights = dual.weights.copy()
    weights[g.pattern_row(tightest)[0]] += 1
    with pytest.raises(RuntimeError):
        Dual(dual.denominator, weights).check(g)


@pytest.mark.parametrize("dual, message", [
    (Dual(0, np.ones(24, dtype=np.int64)), "denominator"),
    (Dual(5, np.ones(23, dtype=np.int64)), "weights"),
    (Dual(5, np.r_[-1, np.ones(23, dtype=np.int64)]), "weights"),
    (Dual(5, np.r_[6, np.zeros(23, dtype=np.int64)]), "weights"),
    (Dual(2 ** 62, np.ones(24, dtype=np.int64)), "denominator"),
])
def test_malformed_dual_fails_the_check(graph, dual, message):
    with pytest.raises(RuntimeError, match=message):
        dual.check(graph(4))


def test_pigeonhole_dual_is_the_pigeonhole_bound():
    for n in range(1, 9):
        g = build_graph(n)
        dual = pigeonhole_dual(n).check(g)
        assert [dual.lower_bound(lam) for lam in (1, 2, 3)] == [
            pigeonhole_lower_bound(n, lam) for lam in (1, 2, 3)]
        if n not in SHIPPED_N:  # nothing ships: the fallback is the pigeonhole dual
            shipped = shipped_dual(n)
            assert shipped.denominator == n + 1
            assert np.array_equal(shipped.weights, dual.weights)


def test_checked_dual_is_never_below_the_pigeonhole_bound(graph):
    # so the exact search's stopping floor is the dual bound alone
    for n in range(1, 8):
        dual = checked_dual(graph(n))
        for lam in range(1, n * n + 2):
            assert dual.lower_bound(lam) >= pigeonhole_lower_bound(n, lam)


def main():
    lines = []
    for n in SHIPPED_N:
        dual, _ = lp_dual(build_graph(n))
        lines.append(f'  "{n}": {json.dumps(dual.to_json_dict())}')
    print("{\n" + ",\n".join(lines) + "\n}")


if __name__ == "__main__":
    main()

"""Output checks for the benchmark's CLI jobs.

Each check takes a job's exit code and output bytes and returns None when
they are right, or a one-line reason when they are not.  The checks
recompute what they can without the package: the selection probabilities,
exact means and permutation ranks.  Covers are re-verified against a graph
the checker builds itself, never against the graph a job used.
"""
from __future__ import annotations

import json
import math

import numpy as np

from permcover.graph import build_graph

SWEEP_N = 7
SWEEP_GRID = tuple(float(p) for p in np.linspace(0.10, 0.21, 4))
SWEEP_TRIALS = 512
GAP_N = 7
GAP_TRIALS = 1024
SWEEP_HEADER = "p,covers,trials,phat,ci_lo,ci_hi,lambda_exact"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _exact_mean(n: int, p: float) -> float:
    return math.factorial(n) * (1.0 - p) ** (n * n + 1)


def _ranks(perms: list[str]) -> np.ndarray:
    """Lexicographic ranks of permutation strings ("2143" or "10,2,...")."""
    rows = np.array([[int(v) for v in (s.split(",") if "," in s else s)] for s in perms])
    length = rows.shape[1]
    out = np.zeros(len(perms), dtype=np.int64)
    for i in range(length - 1):
        out = out * (length - i) + (rows[:, i + 1:] < rows[:, i:i + 1]).sum(axis=1)
    return out


class Checker:
    def __init__(self):
        self._graphs = {}

    def _graph(self, n: int):
        if n not in self._graphs:
            self._graphs[n] = build_graph(n)
        return self._graphs[n]

    def sweep(self, code: int, out: bytes, seed: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = out.decode().splitlines()
        if f'"seed": {seed}' not in lines[1]:
            return "config comment does not echo the seed"
        body = [line for line in lines if not line.startswith("#")]
        if body[0] != SWEEP_HEADER or len(body) != 1 + len(SWEEP_GRID):
            return "unexpected CSV layout"
        for line, p_grid in zip(body[1:], SWEEP_GRID):
            p, covers, trials, phat, lo, hi, lam = line.split(",")
            p, phat, lo, hi, lam = map(float, (p, phat, lo, hi, lam))
            covers, trials = int(covers), int(trials)
            if p != p_grid or trials != SWEEP_TRIALS or not 0 <= covers <= trials:
                return f"row {line!r} does not match the job"
            if phat != covers / trials or not lo <= phat <= hi:
                return f"row {line!r}: estimate outside its interval"
            if not _close(lam, _exact_mean(SWEEP_N, p)):
                return f"row {line!r}: wrong exact mean"
        return None

    def gap(self, code: int, out: bytes, seed: int, K: float) -> str | None:
        if code != 0:
            return f"exit code {code}"
        pay = json.loads(out)["payload"]
        n = GAP_N
        p = (math.log(n) - 1.0 + 0.5 * math.log(n) / n - K / n) / n
        pmf = {int(k): v for k, v in pay["empirical_pmf"].items()}
        if pay["trials"] != GAP_TRIALS or pay["master_seed"] != seed or pay["K_nominal"] != K:
            return "payload does not echo the job"
        if not _close(pay["p"], p) or not _close(pay["lambda_exact"], _exact_mean(n, p)):
            return "wrong p or exact mean"
        if abs(sum(pmf.values()) - 1.0) > 1e-9:
            return f"pmf sums to {sum(pmf.values())}"
        if not _close(pay["empirical_mean"], sum(k * v for k, v in pmf.items())):
            return "empirical mean does not match the pmf"
        if pay["cover_probability"]["covers"] != round(pmf.get(0, 0.0) * GAP_TRIALS):
            return "cover count does not match the pmf"
        if not pay["exact_variance"] > 0:
            return f"exact_variance {pay['exact_variance']} is not positive"
        if not pay["stein_chen_bound"] >= 0 or not 0 <= pay["tv_to_poisson"] <= 1:
            return "distance or bound out of range"
        return None

    def cover(self, code: int, out: bytes, n: int, lam: int, method: str,
              seed: int | None) -> str | None:
        if code != 0:
            return f"exit code {code}"
        pay = json.loads(out)["payload"]
        if (pay["n"], pay["lambda"], pay["method"], pay["seed"]) != (n, lam, method, seed):
            return "payload does not echo the job"
        ranks = _ranks(pay["selected"])
        if pay["size"] != len(ranks) or len(set(ranks.tolist())) != len(ranks):
            return "size does not match the distinct selected covers"
        if not pay["verified"] or pay["lower_bound"] > pay["size"]:
            return "certificate not verified or its bound exceeds its size"
        g = self._graph(n)
        flags = np.zeros(g.n_covers, dtype=bool)
        flags[ranks] = True
        short = int((flags[g.cover_ranks].sum(axis=1) < lam).sum())
        if short:
            return f"{short} patterns covered fewer than {lam} times"
        if method == "exact" and (pay["status"], pay["size"], pay["lower_bound"]) != (
                "optimal", 7, 7):
            return "exact n=4 is not an optimal cover of size 7"
        return None

    def same_cover(self, code: int, out: bytes, stored: bytes) -> str | None:
        """A cache hit must return the cover that was stored."""
        if code != 0:
            return f"exit code {code}"
        if json.loads(out)["payload"]["selected"] != json.loads(stored)["payload"]["selected"]:
            return "cache hit returned a different cover than the one stored"
        return None

    def audit(self, code: int, out: bytes) -> str | None:
        # Exit 1 is the designated code for an audit counterexample.
        if code != 1:
            return f"exit code {code}, expected 1"
        pay = json.loads(out)["payload"]
        got = (pay["max_C"], pay["max_J"], pay["four_cover_pair_count"],
               pay["identity"]["pattern_count"], pay["identity"]["cover_count"])
        if got != (4, 133, 3210, 720, 5040) or not pay["max_J"] <= 6 ** 3:
            return f"audit payload {got} differs from the known n=6 audit"
        return None

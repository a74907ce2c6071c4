"""Disk cache for cover certificates.

Layout: <cache_dir>/<n>-<lambda>-<method>-<seed>.json, one bare
certificate document per file.  Stores are atomic (write to a temp file
in the same directory, then rename).  A load reads only the entry's
``selected`` list, ``status`` and ``initial_size``, re-verifies the list
against a graph this process built with `build_graph`, never anything
read from the cache file, quarantines the entry when a field breaks a
rule, and derives everything else from the request, so a corrupt or
tampered entry is either quarantined or has nothing left to claim.  A
quarantine appends its message to the ``notes`` list the caller passes,
which the CLI writes as the envelope's warnings or as CSV comments.  An
exact entry claims optimality, so it is kept only when the checked LP
dual proves it: the dual's bound equals the cover's size.
"""
from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable
from pathlib import Path

from .cover import (
    METHODS,
    CoverCertificate,
    default_initial_size,
    parse_selected,
    verify_cover,
)
from .dual import checked_dual
from .errors import ResourceLimitError
from .graph import CoverageGraph

DEFAULT_CACHE_DIR = "permcover-cache"


def certificate_key(n: int, lam: int, method: str, seed: int | None) -> str:
    return f"{n}-{lam}-{method}-{'none' if seed is None else seed}"


def certificate_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def store_certificate(cache_dir: str | Path, cert: CoverCertificate) -> Path | None:
    """Atomically write the certificate under its key; returns the path.

    An exact result is written only when ``cert.certified``, so a timed-out
    search, or an optimum the dual bound does not reach, is not kept
    (returns None).
    """
    if cert.method == "exact" and not cert.certified:
        return None
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = certificate_key(cert.n, cert.lam, cert.method, cert.seed)
    target = certificate_path(cache_dir, key)
    payload = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f".{key}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def _quarantine(path: Path, reason: str, notes: list[str]):
    quarantined = path.with_suffix(path.suffix + ".quarantined")
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = None
    notes.append(
        f"cache entry {path.name} failed validation ({reason}); "
        + (f"moved to {quarantined.name}" if quarantined else "could not quarantine")
    )


def load_certificate(
    cache_dir: str | Path, g: CoverageGraph, lam: int, method: str, seed: int | None,
    notes: list[str],
) -> CoverCertificate | None:
    """Rebuild a cached certificate from the request and its re-verified
    ``selected``; None on a miss or a quarantined entry, whose message is
    appended to ``notes``.

    An exact entry is served as optimal only when it is marked "optimal"
    and the dual, checked against ``g``, gives a lower bound equal to its
    size; anything else (an older version's timed-out result, or a
    verifying cover that is not minimum) cannot prove its claim.
    Randomized entries hold the default initial size, since requests that
    set their own bypass the cache.  Entries breaking either rule, and
    entries under a key whose method has no default size at (n, lam), so
    that no run stores them, are quarantined like unreadable or
    non-verifying ones.
    """
    key = certificate_key(g.n, lam, method, seed)
    path = certificate_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        initial_size = default_initial_size(method, g.n, lam)
    except ValueError as exc:  # e.g. alteration at n = 1: no run stores this key
        _quarantine(path, f"no run stores this key: {exc}", notes)
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        selected = parse_selected(g.n, doc["selected"])
        status, stored_size = doc.get("status"), doc.get("initial_size")
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        _quarantine(path, f"unreadable: {exc}", notes)
        return None
    if method == "exact" and status != "optimal":
        _quarantine(path, f"exact entry has status {status!r}, not 'optimal'", notes)
        return None
    if stored_size != initial_size:
        _quarantine(path, f"initial_size {stored_size!r} is not the default {initial_size!r}",
                    notes)
        return None
    result = verify_cover(g, selected, lam)
    if not result.ok:
        _quarantine(path, f"{len(result.deficiencies)} deficient patterns", notes)
        return None
    if method == "exact":
        bound = checked_dual(g).lower_bound(lam)
        if bound != len(selected):
            _quarantine(path, f"exact entry of size {len(selected)} is not certified "
                              f"optimal: the dual bound is {bound}", notes)
            return None
    return CoverCertificate(g.n, lam, method, selected, seed, initial_size,
                            optimal=method == "exact")


def best_known_size(
    cache_dir: str | Path, n: int, lam: int, graph: Callable[[int], CoverageGraph],
    notes: list[str],
) -> tuple[int, str] | None:
    """Smallest size among the cached (n, lam) certificates that re-verify,
    as (size, status), preferring proved-optimal ones; None if there are none.

    Every file named by a known method's key is loaded through
    load_certificate against ``graph(n)``, called only when there is such
    a file, so an entry that fails is quarantined, noted in ``notes`` and
    not reported.  When ``graph`` raises `ResourceLimitError` (above the
    enumeration limit) nothing is reported.
    """
    prefix = f"{n}-{lam}-"
    requests = []
    for path in sorted(Path(cache_dir).glob(f"{prefix}*.json")):
        method, _, seed_text = path.stem[len(prefix):].partition("-")
        if method not in METHODS or not (seed_text == "none" or seed_text.isdecimal()):
            continue
        seed = None if seed_text == "none" else int(seed_text)
        if certificate_key(n, lam, method, seed) == path.stem:  # not e.g. seed "07"
            requests.append((method, seed))
    if not requests:
        return None
    try:
        g = graph(n)
    except ResourceLimitError:
        return None
    certs = [load_certificate(cache_dir, g, lam, method, seed, notes)
             for method, seed in requests]
    verified = [cert for cert in certs if cert is not None]
    best = min(verified, key=lambda cert: (cert.size, not cert.optimal), default=None)
    return None if best is None else (best.size, best.status)

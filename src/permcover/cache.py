"""Disk cache for cover certificates.

Layout: <cache_dir>/<n>-<lambda>-<method>-<seed>.json, one bare
certificate document per file.  Stores are atomic (write to a temp file
in the same directory, then rename).  A load reads only the entry's
``selected`` list, re-verifies it against a freshly built graph and
derives everything else from the request, so a corrupt or tampered entry
is either quarantined or has nothing left to claim.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from .cover import (
    CoverCertificate,
    default_initial_size,
    parse_selected,
    verify_cover,
)
from .graph import CoverageGraph

DEFAULT_CACHE_DIR = "permcover-cache"


def certificate_key(n: int, lam: int, method: str, seed: int | None) -> str:
    return f"{n}-{lam}-{method}-{'none' if seed is None else seed}"


def certificate_path(cache_dir: str | Path, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def store_certificate(cache_dir: str | Path, cert: CoverCertificate) -> Path:
    """Atomically write the certificate under its key; returns the path."""
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


def _quarantine(path: Path, reason: str):
    quarantined = path.with_suffix(path.suffix + ".quarantined")
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = None
    warnings.warn(
        f"cache entry {path.name} failed validation ({reason}); "
        + (f"moved to {quarantined.name}" if quarantined else "could not quarantine"),
        stacklevel=3,
    )


def load_certificate(
    cache_dir: str | Path, g: CoverageGraph, lam: int, method: str, seed: int | None
) -> CoverCertificate | None:
    """Rebuild a cached certificate from the request and its re-verified
    ``selected``; None on a miss or a quarantined entry.

    Only completed exact searches are stored, so the key makes an exact
    entry optimal; one not marked "optimal" is an older version's
    timed-out result.  Randomized entries hold the default initial size,
    since requests that set their own bypass the cache.  Entries breaking
    either rule are quarantined like unreadable or non-verifying ones.
    """
    key = certificate_key(g.n, lam, method, seed)
    path = certificate_path(cache_dir, key)
    if not path.exists():
        return None
    initial_size = default_initial_size(method, g.n, lam)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        selected = parse_selected(g.n, doc["selected"])
        status, stored_size = doc.get("status"), doc.get("initial_size")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, AttributeError) as exc:
        _quarantine(path, f"unreadable: {exc}")
        return None
    if method == "exact" and status != "optimal":
        _quarantine(path, f"exact entry has status {status!r}, not 'optimal'")
        return None
    if stored_size != initial_size:
        _quarantine(path, f"initial_size {stored_size!r} is not the default {initial_size!r}")
        return None
    result = verify_cover(g, selected, lam)
    if not result.ok:
        _quarantine(path, f"{len(result.deficiencies)} deficient patterns")
        return None
    return CoverCertificate(g.n, lam, method, selected, seed, initial_size,
                            optimal=method == "exact")


def best_known_size(cache_dir: str | Path, n: int, lam: int) -> tuple[int, str] | None:
    """Smallest verified-at-store-time size across cached methods for (n, lam).

    Scans filenames only; entries are re-verified when actually loaded.
    Returns (size, status) preferring proved-optimal entries.
    """
    cache_dir = Path(cache_dir)
    if not cache_dir.is_dir():
        return None
    best: tuple[int, str] | None = None
    for path in cache_dir.glob(f"{n}-{lam}-*.json"):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            size = int(doc["size"])
            status = str(doc["status"])
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, OSError):
            continue
        if status not in ("optimal", "feasible"):
            continue
        if (
            best is None
            or size < best[0]
            or (size == best[0] and status == "optimal" and best[1] != "optimal")
        ):
            best = (size, status)
    return best

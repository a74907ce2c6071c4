"""Disk cache for cover certificates.

Layout: <cache_dir>/<n>-<lambda>-<method>-<seed>.json, one bare
certificate document per file.  Stores are atomic (write to a temp file
in the same directory, then rename); loads re-verify the certificate
against a freshly built graph and quarantine anything that fails, so a
corrupt or tampered entry can never be silently reused.
"""
from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from .cover import CoverCertificate, verify_cover
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
    """Load and re-verify a cached certificate; None on miss or failure.

    A loadable but non-verifying entry is quarantined with a warning and
    treated as a miss.
    """
    key = certificate_key(g.n, lam, method, seed)
    path = certificate_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        cert = CoverCertificate.from_json_dict(doc)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, AttributeError) as exc:
        _quarantine(path, f"unreadable: {exc}")
        return None
    if cert.n != g.n or cert.lam != lam:
        _quarantine(path, "key fields do not match the requested certificate")
        return None
    if cert.status in ("optimal", "feasible"):
        result = verify_cover(g, cert.selected, lam)
        if not result.ok:
            _quarantine(path, f"{len(result.deficiencies)} deficient patterns")
            return None
    return cert


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

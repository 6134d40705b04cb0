"""Content-addressed on-disk persistence for compiled circuits.

Compilation is the exponential step; everything after it is linear.
Within one process the LRU cache in ``repro.tid.wmc`` already amortizes
it, but every *new* process — each CLI invocation, each worker of a
future service — used to pay it again.  This module stores serialized
circuits (``Circuit.to_bytes``) under a key derived from the formula
itself, so any process that can hash the CNF can skip straight to the
linear phase.

The key is ``cnf_fingerprint``: a SHA-256 over a *canonical* encoding
of the minimized clause set.  Minimized monotone CNFs are canonical for
their Boolean function, so equal fingerprints mean logically equivalent
formulas; the encoding sorts clauses and tokens by their serialized
form, making the key independent of ``PYTHONHASHSEED``, insertion
order, and process identity — unlike ``hash(cnf)``, which is salted.

Layout: ``<root>/<key[:2]>/<key>.ddnnf`` (git-object-style fan-out).
Writes are atomic (temp file + rename); unreadable or wrong-version
entries are treated as misses, so a store produced by a newer format
never crashes an older reader — it just recompiles.

Flattened instruction tapes (``repro.booleans.tape``) are persisted as
a versioned sidecar section next to the circuit bytes —
``<key>.tape`` beside ``<key>.ddnnf`` — so a warm process (notably the
long-lived service) deserializes both and never re-flattens.  Tapes
obey the same contract as circuits: atomic writes, corruption-as-miss,
version skew tolerated.  ``prune(max_bytes=...)`` offers size-capped
eviction (oldest access time first) for stores that must live inside a
disk budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

from repro.booleans.circuit import (
    Circuit,
    UnsupportedVersionError,
    encode_token,
)
from repro.booleans.cnf import CNF
from repro.booleans.tape import Tape
from repro import obs

#: Fingerprint domain separator: bump when the canonical encoding (not
#: the circuit format — that is versioned in its own header) changes.
FINGERPRINT_VERSION = 1

SUFFIX = ".ddnnf"
TAPE_SUFFIX = ".tape"


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never observe a torn file.

    The bytes land in a same-directory temp file (flushed and fsynced,
    so a crash cannot rename a half-written blob into place) and are
    published with ``os.replace``, which is atomic on POSIX and
    Windows: a concurrent reader sees either the old content or the
    complete new content, and concurrent writers of the same path race
    benignly (last rename wins).  Shared by the circuit store and every
    CLI/service code path that persists a circuit to a user-named file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cnf_fingerprint(formula: CNF) -> str:
    """A deterministic content address for a minimized monotone CNF.

    Stable across processes, hash seeds, and clause/token insertion
    orders: tokens are serialized with the type-tagged circuit codec,
    sorted within each clause, and the clauses sorted by their encoded
    form before hashing.
    """
    encoded_clauses = sorted(
        sorted(json.dumps(encode_token(var), separators=(",", ":"),
                          sort_keys=True)
               for var in clause)
        for clause in formula.clauses)
    payload = json.dumps(
        {"v": FINGERPRINT_VERSION, "clauses": encoded_clauses},
        separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CircuitStore:
    """A content-addressed directory of serialized d-DNNF circuits."""

    def __init__(self, root: str | os.PathLike, *, clock=time.time):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock

    def _touch(self, path: Path) -> None:
        """Record a read so ``prune``'s oldest-atime-first order is the
        true access order.

        ``relatime`` (the Linux mount default) and ``noatime`` stop the
        kernel from updating ``st_atime`` on reads, which silently
        turns "evict the least recently *used*" into "evict the least
        recently *written*" — i.e. the hottest long-lived circuits go
        first.  An explicit, best-effort ``os.utime`` on every hit
        keeps eviction honest regardless of mount options; mtime is
        preserved so the write time stays meaningful.
        """
        try:
            stat = path.stat()
            os.utime(path, (self._clock(), stat.st_mtime))
        except OSError:
            pass

    def _read(self, path: Path, decode, kind: str):
        """``decode`` of the bytes at ``path``, or None on a miss,
        inside a ``store-read`` span tagged with ``kind``."""
        with obs.span("store-read", kind=kind) as sp:
            try:
                data = path.read_bytes()
            except OSError:
                sp.tag(hit=False)
                return None
            sp.tag(hit=True, bytes=len(data))
            self._touch(path)
            try:
                return decode(data)
            except UnsupportedVersionError:
                # A different format version, not corruption: leave
                # the entry for readers of that version (two
                # deployments may share one store across a version
                # bump; deleting here would make them destructively
                # evict each other).
                return None
            except ValueError:
                try:
                    path.unlink()
                except OSError:
                    pass
                return None

    def _write(self, path: Path, data: bytes, kind: str) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with obs.span("store-write", kind=kind):
            atomic_write_bytes(path, data)
        return path

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + SUFFIX)

    def get(self, formula: CNF) -> Circuit | None:
        """The stored circuit for ``formula``, or None on a miss.

        Corrupt or wrong-version entries count as misses; a corrupt one
        is removed so it is rebuilt cleanly on the next ``put``.
        """
        return self.load(cnf_fingerprint(formula))

    def load(self, key: str) -> Circuit | None:
        return self._read(self.path_for(key), Circuit.from_bytes,
                          "circuit")

    def put(self, formula: CNF, circuit: Circuit) -> Path:
        """Persist ``circuit`` under ``formula``'s fingerprint.

        The write is atomic: concurrent writers of the same key race
        benignly (same content, last rename wins).
        """
        return self.save(cnf_fingerprint(formula), circuit)

    def save(self, key: str, circuit: Circuit) -> Path:
        return self._write(self.path_for(key), circuit.to_bytes(),
                           "circuit")

    # ------------------------------------------------------------------
    # Tape sidecars (versioned section next to the circuit bytes)
    # ------------------------------------------------------------------
    def tape_path_for(self, key: str) -> Path:
        return self.root / key[:2] / (key + TAPE_SUFFIX)

    def get_tape(self, formula: CNF) -> Tape | None:
        """The stored instruction tape for ``formula``, or None.

        Same contract as ``get``: corruption is a miss (and the entry
        is removed), version skew is a miss (and the entry is kept for
        readers of that version).  Callers must still check
        ``Tape.matches(circuit)`` before adopting — the sidecar could
        have been written against a circuit from a different compiler
        generation.
        """
        return self._read(self.tape_path_for(cnf_fingerprint(formula)),
                          Tape.from_bytes, "tape")

    def put_tape(self, formula: CNF, tape: Tape) -> Path:
        return self._write(self.tape_path_for(cnf_fingerprint(formula)),
                           tape.to_bytes(), "tape")

    # ------------------------------------------------------------------
    def prune(self, max_bytes: int) -> dict:
        """Size-capped eviction: delete entries, oldest access time
        first, until the store fits in ``max_bytes``.

        Evicting a circuit also evicts its tape sidecar (a tape without
        its circuit is dead weight — ``get_tape`` callers only adopt a
        tape that matches a circuit they already hold); evicting just a
        tape leaves the circuit usable.  Returns a report dict for the
        service ``store_gc`` op and the ``repro ctl store-gc`` verb.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        with obs.span("store-prune", max_bytes=max_bytes):
            return self._prune(max_bytes)

    def _prune(self, max_bytes: int) -> dict:
        entries = []
        for path in sorted(self.root.glob("??/*")):
            if path.suffix not in (SUFFIX, TAPE_SUFFIX):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_atime, path, stat.st_size))
        total = sum(size for _, _, size in entries)
        before = total
        removed = 0
        dropped: set[Path] = set()
        # Oldest atime first; path name breaks ties deterministically.
        entries.sort(key=lambda e: (e[0], str(e[1])))
        for _, path, _size in entries:
            if total <= max_bytes:
                break
            if path in dropped:
                continue
            victims = [path]
            if path.suffix == SUFFIX:
                sidecar = path.with_suffix(TAPE_SUFFIX)
                if sidecar.exists() and sidecar not in dropped:
                    victims.append(sidecar)
            for victim in victims:
                try:
                    freed = victim.stat().st_size
                    victim.unlink()
                except OSError:
                    continue
                dropped.add(victim)
                removed += 1
                total -= freed
        return {
            "examined": len(entries),
            "removed": removed,
            "bytes_before": before,
            "bytes_after": max(total, 0),
            "max_bytes": max_bytes,
        }

    # ------------------------------------------------------------------
    def __contains__(self, formula: CNF) -> bool:
        return self.path_for(cnf_fingerprint(formula)).exists()

    def keys(self) -> list[str]:
        return sorted(
            path.stem for path in self.root.glob(f"??/*{SUFFIX}"))

    def __len__(self) -> int:
        return len(self.keys())

    def clear(self) -> None:
        for suffix in (SUFFIX, TAPE_SUFFIX):
            for path in self.root.glob(f"??/*{suffix}"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"CircuitStore({str(self.root)!r}, {len(self)} circuits)"

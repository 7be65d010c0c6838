"""Packed wire codec for cached :class:`~repro.model.metrics.Metrics`.

Cache profiling showed that much of the cold/warm cost of a sweep is
not model math but metrics serialization: every flush paid one JSON
dump of a tagged metrics dict per entry and every warm load paid the
matching parse + dict walk. This module packs one Metrics into one
little-endian binary blob instead::

    byte 0          codec version (2)
    byte 1          flags: bit0 = supported, bit1 = swapped
    8 + 8 bytes     cycles, utilization          (float64)
    4 x 4 bytes     lengths: design, workload, names block, n components
    variable        design utf-8 | workload utf-8 | NUL-joined names
    n x 8 bytes     component energies in breakdown key order (float64)

Numeric fields are stored as raw IEEE-754 doubles, so a decode returns
the *exact* floats that were encoded (no text round-trip), and the
component name block preserves breakdown key order — the codec tests
assert ``==`` on decoded metrics including dict order.

Versioning is per entry: the version byte leads every blob. The v1
form (a JSON dict, as written by older versions) is not read — it
fails decoding as a :class:`~repro.errors.CacheError`.
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.errors import CacheError
from repro.model.metrics import Metrics

#: Version byte of the packed-blob entry encoding (v1 was a tagged
#: JSON dict of the metrics' fields, stored as TEXT).
METRICS_CODEC_VERSION = 2

_HEAD = struct.Struct("<BBdd")
_LENS = struct.Struct("<IIII")
#: Head + lengths packed in one call ('<' means no padding, so the
#: concatenated layout is byte-identical to packing them separately).
_HEAD_LENS = struct.Struct("<BBddIIII")
#: Energy-vector packers memoized per component count (parsing the
#: ``<{n}d`` format string each call costs more than the pack).
_VALUE_STRUCTS: Dict[int, struct.Struct] = {}


def _values_struct(n: int) -> struct.Struct:
    packer = _VALUE_STRUCTS.get(n)
    if packer is None:
        packer = _VALUE_STRUCTS[n] = struct.Struct(f"<{n}d")
    return packer


def encode_metrics(metrics: Metrics) -> bytes:
    """One Metrics as a v2 packed blob (see the module layout)."""
    breakdown = metrics.energy_breakdown_pj
    design = metrics.design.encode("utf-8")
    workload = metrics.workload.encode("utf-8")
    names = "\0".join(breakdown).encode("utf-8")
    flags = (1 if metrics.supported else 0) | (
        2 if metrics.swapped else 0
    )
    n = len(breakdown)
    return b"".join(
        (
            _HEAD_LENS.pack(
                METRICS_CODEC_VERSION,
                flags,
                metrics.cycles,
                metrics.utilization,
                len(design),
                len(workload),
                len(names),
                n,
            ),
            design,
            workload,
            names,
            _values_struct(n).pack(*breakdown.values()),
        )
    )


def well_formed(value: object) -> bool:
    """A cheap structural check of a stored value, without decoding it:
    ``bytes`` with the current version byte, whose header lengths add up
    to its size. A truncated or extended blob, a foreign version and a
    v1 JSON ``TEXT`` row all fail it; a blob that passes can still fail
    :func:`decode_blob` (a bad name count, invalid UTF-8)."""
    if (
        value.__class__ is not bytes
        or len(value) < _HEAD_LENS.size
        or value[0] != METRICS_CODEC_VERSION
    ):
        return False
    dlen, wlen, nlen, n = _LENS.unpack_from(value, _HEAD.size)
    return _HEAD_LENS.size + dlen + wlen + nlen + 8 * n == len(value)


def decode_blob(blob: bytes) -> Metrics:
    """The Metrics a v2 blob encodes, bit-exact.

    Construction is *trusted*: the dataclass ``__init__`` and its
    ``__post_init__`` range checks are bypassed (the blob was encoded
    from an already-validated Metrics, and skipping re-validation is
    most of the warm-load win). Structural corruption — a bad version
    byte, truncated payload, mismatched name count, a value that is not
    bytes (a v1 JSON ``TEXT`` row) — still raises
    :class:`~repro.errors.CacheError`, which the best-effort runtime
    readers treat like any other corrupt cache content.
    """
    try:
        (
            version, flags, cycles, utilization, dlen, wlen, nlen, n,
        ) = _HEAD_LENS.unpack_from(blob, 0)
        if version != METRICS_CODEC_VERSION:
            raise CacheError(
                f"unsupported metrics codec version {version}"
            )
        offset = _HEAD_LENS.size
        design = blob[offset:offset + dlen].decode("utf-8")
        offset += dlen
        workload = blob[offset:offset + wlen].decode("utf-8")
        offset += wlen
        names_block = blob[offset:offset + nlen].decode("utf-8")
        offset += nlen
        values = _values_struct(n).unpack_from(blob, offset)
    except CacheError:
        raise
    except (struct.error, TypeError, UnicodeDecodeError) as error:
        raise CacheError(f"corrupt metrics blob: {error}")
    names = names_block.split("\0") if nlen else []
    if len(names) != n:
        raise CacheError(
            f"corrupt metrics blob: {n} energies, {len(names)} names"
        )
    metrics = object.__new__(Metrics)
    metrics.__dict__.update(
        design=design,
        workload=workload,
        cycles=cycles,
        energy_breakdown_pj=dict(zip(names, values)),
        utilization=utilization,
        supported=bool(flags & 1),
        swapped=bool(flags & 2),
    )
    return metrics

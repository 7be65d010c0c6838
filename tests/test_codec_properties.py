"""Seeded property tests for the metrics codec and the pair digest.

Stdlib ``random`` with fixed seeds, so every run draws the same cases:

* random :class:`Metrics` round-trip bit-exact through the codec,
  breakdown key order included;
* every truncation and every one-byte extension of a valid blob fails
  the load-time structural check (:func:`codec.well_formed`);
* a blob that passes the check but cannot decode is a MISS on read and
  makes the next flush rebuild the database;
* the composed :func:`pair_digest` text is ``repr((design, key))``.
"""

from __future__ import annotations

import hashlib
import random
import sqlite3
import struct

import pytest

from repro.accelerators.realization import g8_operand
from repro.energy.estimator import Estimator
from repro.errors import CacheError
from repro.eval import codec
from repro.eval.cache import MISS, PersistentCache, pair_digest
from repro.model.metrics import Metrics
from repro.model.workload import (
    dense_operand,
    hss_operand,
    structured_operand,
    unstructured_operand,
)
from repro.sparsity.hss import HSSPattern

ALPHABET = "abcdefghijklmnopqrstuvwxyz_0123456789µé³ /^:().,%"


def _text(rng: random.Random, min_len: int = 0) -> str:
    return "".join(
        rng.choice(ALPHABET) for _ in range(rng.randint(min_len, 24))
    )


def _any_float(rng: random.Random) -> float:
    """A random IEEE-754 double drawn from its bit pattern (NaN
    excluded: it never equals itself)."""
    while True:
        bits = rng.getrandbits(64).to_bytes(8, "little")
        (value,) = struct.unpack("<d", bits)
        if value == value:
            return value


def _random_metrics(rng: random.Random) -> Metrics:
    names = list(dict.fromkeys(
        _text(rng, 1) for _ in range(rng.randint(0, 12))
    ))
    rng.shuffle(names)
    return Metrics(
        design=_text(rng),
        workload=_text(rng),
        cycles=abs(_any_float(rng)) or 1.0,
        energy_breakdown_pj={name: _any_float(rng) for name in names},
        utilization=rng.uniform(1e-9, 1.0),
        supported=rng.random() < 0.5,
        swapped=rng.random() < 0.5,
    )


def _blobs(seed: int, count: int):
    rng = random.Random(seed)
    return [codec.encode_metrics(_random_metrics(rng)) for _ in range(count)]


class TestRoundTrip:
    def test_random_metrics_round_trip_bit_exact(self):
        rng = random.Random(20231028)
        for _ in range(500):
            metrics = _random_metrics(rng)
            decoded = codec.decode_blob(codec.encode_metrics(metrics))
            assert decoded == metrics
            assert list(decoded.energy_breakdown_pj) == list(
                metrics.energy_breakdown_pj
            )
            for name, value in metrics.energy_breakdown_pj.items():
                assert struct.pack("<d", decoded.energy_breakdown_pj[name]) \
                    == struct.pack("<d", value)
            assert struct.pack("<dd", decoded.cycles, decoded.utilization) \
                == struct.pack("<dd", metrics.cycles, metrics.utilization)


class TestStructuralCheck:
    def test_valid_blobs_pass(self):
        assert all(codec.well_formed(blob) for blob in _blobs(1, 50))

    def test_every_truncation_fails(self):
        for blob in _blobs(2, 20):
            for cut in range(len(blob)):
                assert not codec.well_formed(blob[:cut]), cut

    def test_every_one_byte_extension_fails(self):
        for blob in _blobs(3, 10):
            for byte in range(256):
                assert not codec.well_formed(blob + bytes([byte])), byte

    def test_foreign_values_fail(self):
        (blob,) = _blobs(4, 1)
        assert not codec.well_formed(bytes([9]) + blob[1:])
        assert not codec.well_formed(blob.decode("latin-1"))
        assert not codec.well_formed(bytearray(blob))
        assert not codec.well_formed(7)


def _bad_name_count(blob: bytes) -> bytes:
    """``blob`` with one NUL added to its names block: same lengths,
    so it passes the structural check, but one more name than
    energies."""
    (dlen, wlen, nlen, n) = struct.unpack_from("<IIII", blob, 18)
    assert nlen > 0
    start = 34 + dlen + wlen
    return blob[:start] + b"\0" + blob[start + 1:]


class TestBadBlobOnRead:
    def _fill(self, tmp_path, estimator):
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        good = Metrics(
            design="TC", workload="64x64x64: A=dense, B=dense",
            cycles=4096.0,
            energy_breakdown_pj={"mac": 1.5, "glb_data": 2.25},
        )
        cache.put("TC", ("good",), good)
        cache.put("TC", ("bad",), good)
        cache.close()
        return cache.path, good

    def test_check_passing_bad_blob_is_a_miss_and_rebuilds(
        self, tmp_path
    ):
        estimator = Estimator()
        path, good = self._fill(tmp_path, estimator)
        bad_digest = pair_digest("TC", ("bad",))
        with sqlite3.connect(path) as conn:
            (blob,) = conn.execute(
                "SELECT metrics FROM entries WHERE digest = ?",
                (bad_digest,),
            ).fetchone()
            poisoned = _bad_name_count(blob)
            assert codec.well_formed(poisoned)
            with pytest.raises(CacheError, match="names"):
                codec.decode_blob(poisoned)
            conn.execute(
                "UPDATE entries SET metrics = ? WHERE digest = ?",
                (poisoned, bad_digest),
            )
        conn.close()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        assert len(cache) == 2  # the load-time check passes both rows
        assert cache.get_many([("TC", ("bad",)), ("TC", ("good",))]) == [
            MISS, good,
        ]
        assert cache.get("TC", ("bad",)) is MISS
        # The caller re-evaluates the miss; the flush rotates the file
        # aside and rebuilds it, writing the unread blobs through.
        cache.put("TC", ("bad",), None)
        cache.close()
        assert path.with_name(path.name + ".corrupt").exists()
        reloaded = PersistentCache.for_estimator(tmp_path, estimator)
        assert reloaded.get("TC", ("bad",)) is None
        assert reloaded.get("TC", ("good",)) == good

    def test_rebuild_writes_unread_blobs_byte_for_byte(self, tmp_path):
        estimator = Estimator()
        path, _ = self._fill(tmp_path, estimator)
        with sqlite3.connect(path) as conn:
            before = dict(conn.execute("SELECT digest, metrics FROM entries"))
        conn.close()
        cache = PersistentCache.for_estimator(tmp_path, estimator)
        cache.store.mark_unreadable()
        cache.put("TC", ("new",), None)
        cache.close()
        with sqlite3.connect(path) as conn:
            after = dict(conn.execute("SELECT digest, metrics FROM entries"))
        conn.close()
        assert path.with_name(path.name + ".corrupt").exists()
        assert {d: after[d] for d in before} == before


def _random_operand(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return dense_operand()
    if kind == 1:
        return unstructured_operand(rng.choice((0.0, rng.random() * 0.99)))
    if kind == 2:
        h = rng.choice((2, 4, 8, 16))
        return structured_operand(rng.randint(1, h), h)
    if kind == 3:
        h0, h1 = rng.choice((2, 4, 8)), rng.choice((2, 4, 8))
        return hss_operand(HSSPattern.from_ratios(
            (rng.randint(1, h0), h0), (rng.randint(1, h1), h1)
        ))
    return g8_operand(rng.random() * 0.99)


class TestDigestProperty:
    def test_composed_digest_is_sha256_of_repr(self):
        rng = random.Random(1)
        for _ in range(2000):
            design = rng.choice(
                ("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO", "µ'x")
            )
            m, k, n = (rng.choice((1, 64, 256, 1000, 2 ** 40))
                       for _ in range(3))
            a, b = _random_operand(rng), _random_operand(rng)
            for key in (
                (m, k, n, a.key(), b.key()),
                (n, k, m, b.key(), a.key()),  # the swapped orientation
            ):
                expected = hashlib.sha256(
                    repr((design, key)).encode()
                ).hexdigest()
                assert pair_digest(design, key) == expected

    def test_other_keys_take_the_plain_path(self):
        for key in (("key",), (), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
            expected = hashlib.sha256(repr(("TC", key)).encode()).hexdigest()
            assert pair_digest("TC", key) == expected

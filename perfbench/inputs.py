"""Seeded workload inputs: grid degree lists and the served request mix.

Everything here is a pure function of the seed, so one seed always
yields the same commands and requests, and the program under test only
ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: The seed a bare ``run.py`` uses, and the one the grid digest is for.
DEFAULT_SEED: int = REFERENCE["default_seed"]
#: Kept out of tuning: later speed claims are re-checked on it.
HELD_OUT_SEED: int = REFERENCE["held_out_seed"]

DESIGNS = ("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO")
MODELS = ("ResNet50", "DeiT-small", "Transformer-Big", "EfficientNet-B0")

#: Degrees every grid contains: dense plus HighLight's canonical HSS
#: degrees, so each grid exercises the structured realizations.
FIXED_DEGREES = (0.0, 0.5, 0.625, 0.75)
GRID_RANDOM_DEGREES = 48
GRID_SIZES = (256, 512, 1024, 2048, 4096)


def _degree(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def grid_degrees(seed: int) -> Tuple[float, ...]:
    """About 50 sorted A/B degrees: the fixed four plus seeded ones."""
    rng = random.Random(f"grid-degrees-{seed}")
    degrees = set(FIXED_DEGREES)
    while len(degrees) < len(FIXED_DEGREES) + GRID_RANDOM_DEGREES:
        degrees.add(_degree(rng, 0.0, 0.95))
    return tuple(sorted(degrees))


def grid_sizes(seed: int) -> Tuple[int, int]:
    """Two distinct cubic GEMM sizes for the grid."""
    rng = random.Random(f"grid-sizes-{seed}")
    first, second = rng.sample(GRID_SIZES, 2)
    return first, second


# ----------------------------------------------------------------------
# serve_mix: lockstep rounds of two requests
# ----------------------------------------------------------------------

#: The single artifacts a warm request may name; "all" is its own kind.
SINGLE_ARTIFACTS = ("fig16", "fig17", "tables")

#: The served traffic: (kind, requests in one block of ten lockstep
#: rounds). The shares were chosen, not measured, because the repository
#: records no served traffic; perfbench/README.md gives the reason for
#: each. A measured mix replaces this table and nothing else. The two
#: "coalesce" requests are one round in which both clients send the
#: same new spec.
BLOCK_MIX = (
    ("fig16", 4),
    ("fig17", 4),
    ("tables", 3),
    ("all", 1),
    ("sweep_cold", 2),
    ("sweep_warm", 3),
    ("invalid", 1),
    ("coalesce", 2),
)

INVALID_SPECS = (
    ("/v1/artifacts", {"artifacts": ["fig99"]}),
    ("/v1/sweep", {"designs": ["TC"], "a_degrees": [1.5]}),
    ("/v1/sweep", {"model": "NoSuchNet"}),
)


@dataclass(frozen=True)
class Request:
    """One request of the mix; ``key`` names identical specs."""

    kind: str
    path: str
    body: Any
    key: str
    expect_status: int = 200


def _request(kind: str, path: str, body: Any,
             expect_status: int = 200) -> Request:
    key = path + " " + json.dumps(body, sort_keys=True)
    return Request(kind, path, body, key, expect_status)


def _artifacts(names: Any) -> Request:
    return _request("artifact", "/v1/artifacts", {"artifacts": names})


class ServeMix:
    """The seeded request schedule of one ``serve_mix`` server.

    :meth:`warmup` is the pass made before timing; :meth:`rounds`
    yields pairs of requests that the two clients send at once. Each
    block of ten rounds has the same composition; the seed draws the
    order, the sweep specs' degrees and designs, and which earlier spec
    a repeat targets. The new specs of each kind alternate between a
    model sweep (the four models in turn) and a small grid, so every
    seed sends the same number of each size of cold work.
    """

    def __init__(self, seed: "int | str") -> None:
        self._rng = random.Random(f"serve-mix-{seed}")
        self._sent: List[Dict[str, Any]] = []
        #: Request kind -> new specs made for it so far.
        self._made: Dict[str, int] = {}

    def _new_spec(self, kind: str) -> Dict[str, Any]:
        rng, count = self._rng, self._made.get(kind, 0)
        self._made[kind] = count + 1
        if count % 2 == 0:
            designs = rng.sample(DESIGNS, 3)
            spec: Dict[str, Any] = {
                "model": MODELS[count // 2 % len(MODELS)],
                "designs": [d for d in DESIGNS if d in designs],
                "degrees": sorted(_degree(rng, 0.3, 0.9) for _ in range(2)),
            }
        else:
            others = rng.sample(DESIGNS[1:], 3)
            spec = {
                "designs": ["TC"] + [d for d in DESIGNS if d in others],
                "a_degrees": sorted(_degree(rng, 0.05, 0.9) for _ in range(3)),
                "b_degrees": sorted(_degree(rng, 0.05, 0.9) for _ in range(3)),
                "size": rng.choice((256, 512, 1024)),
            }
        self._sent.append(spec)
        return spec

    def warmup(self) -> List[Request]:
        """``all`` first (cold, compared with the CLI stream), then each
        single artifact, then two specs so repeats have a target."""
        requests = [_artifacts("all")]
        requests += [_artifacts([name]) for name in SINGLE_ARTIFACTS]
        requests += [
            _request("sweep_cold", "/v1/sweep", self._new_spec("sweep_cold"))
            for _ in range(2)
        ]
        return requests

    def _solo(self, kind: str) -> Request:
        if kind == "all":
            return _artifacts("all")
        if kind in SINGLE_ARTIFACTS:
            return _artifacts([kind])
        if kind == "invalid":
            path, body = self._rng.choice(INVALID_SPECS)
            return _request("invalid", path, body, expect_status=400)
        if kind == "sweep_warm":
            return _request(kind, "/v1/sweep", self._rng.choice(self._sent))
        return _request(kind, "/v1/sweep", self._new_spec(kind))

    def rounds(self) -> Iterator[Tuple[Request, Request]]:
        """Endless blocks of :data:`BLOCK_MIX`: the solo requests
        shuffled into rounds of two, and the coalesced rounds inserted
        at random places."""
        rng = self._rng
        solo_mix = [kind for kind, count in BLOCK_MIX if kind != "coalesce"
                    for _ in range(count)]
        coalesced_rounds = dict(BLOCK_MIX)["coalesce"] // 2
        while True:
            solo = list(solo_mix)
            rng.shuffle(solo)
            pairs = [tuple(solo[i:i + 2]) for i in range(0, len(solo), 2)]
            for _ in range(coalesced_rounds):
                pairs.insert(rng.randrange(len(pairs) + 1), ("coalesce",))
            for pair in pairs:
                if pair == ("coalesce",):
                    twin = _request("coalesce", "/v1/sweep",
                                    self._new_spec("coalesce"))
                    yield twin, twin
                else:
                    yield self._solo(pair[0]), self._solo(pair[1])

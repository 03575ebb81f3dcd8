"""Shared numerics and reproducibility helpers.

Randomness policy: every stochastic operation derives its stream from a
counter-based Philox generator keyed by (seed, *indices).  Streams for
different indices are statistically independent and order-independent.
"""
from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def frozen_array(values, dtype=float) -> np.ndarray:
    """Copy to a contiguous read-only array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def json_ready(obj):
    """Recursively convert arrays and numpy scalars for json.dumps."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, repr-exact floats, newline-terminated."""
    return json.dumps(json_ready(obj), sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    """Shortest round-tripping decimal form, stable across runs."""
    return repr(float(x))


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV writer with deterministic float formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            ]
            fh.write(",".join(cells) + "\n")

"""Constants and helpers shared by the workloads."""

from __future__ import annotations

import os
import random
import resource
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.exact_periodic import exact_periodic_q_min
from repro.crypto.rsa import is_probable_prime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything a run writes (scratch sinks, traced-run tables, spans).
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

BLOCK_SIZE = 128
PAYLOAD_SIZE = 256
RSA_BITS = 2048
Q_TARGET = 0.75

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 31


@dataclass
class Report:
    """What one run prints: checks, operation counts, metrics."""

    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


#: Units of the end-to-end metrics, in the order they are printed.
END_TO_END_UNITS = {
    "auth_pkts_per_s": "pkts/s",
    "block_ms_p50": "ms",
    "block_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_auth_pkt": "B",
    "auth_delay_ms_mean": "ms",
    "q_mean_min": "ratio",
}


def derive_rsa_primes(seed: int, bits: int = RSA_BITS) -> Tuple[int, int]:
    """Two distinct primes from the workload seed.

    The search takes a random number of steps, so it runs before any
    timing starts; set-up then builds the signer from the fixed primes.
    """
    rng = random.Random(f"perfbench-rsa-{seed}")

    def prime(size: int) -> int:
        while True:
            candidate = rng.getrandbits(size)
            candidate |= (1 << (size - 1)) | (1 << (size - 2)) | 1
            if is_probable_prime(candidate, rounds=24):
                return candidate

    first = prime(bits // 2)
    second = prime(bits - bits // 2)
    while second == first:
        second = prime(bits - bits // 2)
    return first, second


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scratch_dir() -> str:
    """A fresh directory under ``perfbench/out`` for one run's sinks."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)


class BlockFault:
    """The controller fault as a per-operation verdict.

    A served block fails when the exact ``q_min`` of the design flying
    it, at the block's scheduled loss rate, is below the target.  The
    controller chose that design with the Eq. 8/9 recurrence, which
    treats hash paths as independent and overstates ``q_min``.
    """

    def __init__(self, target: float = Q_TARGET) -> None:
        self.target = target
        self._cache: Dict[Tuple[Tuple[int, ...], float], float] = {}

    def exact_q_min(self, offsets: Tuple[int, ...], p: float) -> float:
        key = (offsets, p)
        if key not in self._cache:
            self._cache[key] = exact_periodic_q_min(BLOCK_SIZE,
                                                    list(offsets), p)
        return self._cache[key]

    def failed(self, offsets: Tuple[int, ...], p: float) -> bool:
        return self.exact_q_min(offsets, p) < self.target

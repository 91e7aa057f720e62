"""Host-speed meter, attribute patching and the timing estimator.

Why a meter
-----------
On a shared 2-vCPU host the same Python work runs at two speeds that
alternate every millisecond or so, and the share of time spent at the
slow speed drifts over tens of seconds.  Identical two-block fan-out
sessions took 0.67-1.43 s back to back, and an interval-minimum over
eight repeats of a session still wandered by 25 % (README, "Noise").
A plain median of long units therefore measures the neighbours as much
as the program.

The meter runs a fixed pure-Python probe (:func:`_probe_kernel`) at
most once per millisecond, from hooks the workloads place on hot
program paths.  Each probe's cost is a sample of "how slow is the host
right now".  A timed interval is then reported as

    busy(a, b) * REFERENCE_PROBE_S / mean(probe costs around [a, b])

where ``busy`` is the interval's wall time minus the probes run inside
it: the interval's time on a host where the probe costs
``REFERENCE_PROBE_S``, the probe's cost at the fast speed of the 2-vCPU
VM the benchmark was calibrated on.  A fixed reference rather than a
per-run floor removes the run-to-run drift of the fast speed itself
(the 2nd-percentile probe cost moved 22.4-23.8 us between runs).  The
probe is benchmark code, so a change to the program moves ``busy`` and
never the probe.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from time import perf_counter
from typing import Callable, List, Sequence, Tuple

#: Minimum spacing between two probes.
PROBE_EVERY_S = 0.001

#: Probe cost at the fast speed of the calibration host (seconds).
REFERENCE_PROBE_S = 23e-6


def _probe_kernel() -> int:
    """Fixed interpreter work shaped like the program's: small tuples,
    dicts and byte strings allocated, sliced and dropped."""
    out = []
    for index in range(60):
        item = (index, b"x" * 40, {"a": index})
        out.append(item[1][:8] + bytes(4))
    return len(out)


class SpeedMeter:
    """Samples the host's speed while the program runs.

    :meth:`tick` is cheap when a probe is not due; hooks call it on
    every hot-path entry.  All probe samples stay in memory, so any
    interval of the run can be cleaned after the fact.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.costs = array("d")
        self._next = 0.0

    def tick(self) -> None:
        """Probe if the last probe is more than ``PROBE_EVERY_S`` old."""
        now = perf_counter()
        if now >= self._next:
            self._probe(now)

    def _probe(self, now: float) -> None:
        _probe_kernel()
        end = perf_counter()
        self.starts.append(now)
        self.costs.append(end - now)
        self._next = end + PROBE_EVERY_S

    def burst(self, count: int) -> None:
        """Probe ``count`` times back to back (used between units)."""
        for _ in range(count):
            self._probe(perf_counter())

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost around ``[start, end)`` over the reference."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < 3:
            # Too few probes inside: widen to the nearest neighbours.
            lo = max(0, lo - 2)
            hi = min(len(self.starts), hi + 2)
        costs = self.costs[lo:hi]
        return (sum(costs) / len(costs)) / REFERENCE_PROBE_S

    def busy(self, start: float, end: float) -> float:
        """Wall time of ``[start, end)`` minus the probes run inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return (end - start) - sum(self.costs[lo:hi])

    def clean(self, start: float, end: float) -> float:
        """The interval's time at the reference speed."""
        return self.busy(start, end) / self.slowdown(start, end)


class Patches:
    """Replace program attributes inside a ``with`` block, then restore.

    The benchmark measures the program from outside: it never edits
    ``src/``; it wraps public functions for the duration of a run.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def method(self, owner: type, name: str,
               wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``owner.name`` (which ``owner`` itself must define)."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def function(self, original: Callable, replacement: Callable) -> None:
        """Rebind every ``repro`` module global that names ``original``.

        ``from module import name`` copies the reference, so a module
        function has to be replaced wherever it was imported.
        """
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attribute, original))
                    setattr(module, attribute, replacement)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> bool:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False


def subclasses_defining(base: type, name: str) -> List[type]:
    """``base`` and every loaded subclass whose own body defines ``name``."""
    found: List[type] = []
    pending = [base]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: at least ``100 - pct`` % lie at or above."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


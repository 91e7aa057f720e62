"""Output checks.

Each check compares the program's output with a computation that does
not share the code path under test (the exact transfer-matrix oracle,
the paper's closed forms, the payloads the benchmark itself submitted,
a second run of the same seed) or with a property the method must
have.  A check returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import NormalDist
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.analysis.conformance import analytic_q_profile, deviation_rows
from repro.core.metrics import (
    mean_hashes_per_packet,
    overhead_bytes_per_packet,
)
from repro.packets import Packet
from repro.schemes.base import Scheme
from repro.simulation.stats import SimulationStats

#: Family-wise false-alarm rate allowed for one profile of n positions.
FAMILY_ALPHA = 1e-3


def family_cap(positions: int) -> float:
    """Per-position bound, in SE, for testing ``positions`` at once.

    The single-position agreement bound is 3 SE.  Testing 128 positions
    at once, the family-wise allowance is the Bonferroni bound ``z``
    with ``2 * positions * (1 - Phi(z)) = FAMILY_ALPHA``: 4.47 SE at 128
    positions.  It holds under any dependence between positions, which
    matters because positions on one hash chain rise and fall together
    (a count of positions beyond 3 SE, which assumes independence,
    fired on a sampling excursion of ten neighbouring positions).
    """
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * positions))


def q_profile_agrees(stats: SimulationStats, scheme: Scheme, n: int,
                     p: float, label: str) -> List[str]:
    """Wire ``q_i`` against the exact analytic profile, all positions."""
    rows = deviation_rows(stats, analytic_q_profile(scheme, n, p), label)
    cap = family_cap(len(rows))
    worst = max(rows, key=lambda row: row["deviation_se"])
    if worst["deviation_se"] > cap:
        return [f"{label}: position {worst['position']} deviates by "
                f"{worst['deviation_se']:.2f} SE (wire {worst['wire_q']:.4f}, "
                f"exact {worst['model_q']:.4f}, family-wise cap "
                f"{cap:.2f} SE over {len(rows)} positions)"]
    return []


def no_forgery(label: str, forged_accepted: int) -> List[str]:
    if forged_accepted:
        return [f"{label}: {forged_accepted} forged packets accepted"]
    return []


def conservation(reports: Iterable) -> List[str]:
    """verified <= received <= expected in every receiver-block."""
    failures = []
    for report in reports:
        if not 0 <= report.verified <= report.received <= report.expected:
            failures.append(
                f"receiver {report.receiver_id} block {report.block_id}: "
                f"verified {report.verified}, received {report.received}, "
                f"expected {report.expected}")
    return failures[:5]


def payloads_in_order(delivered_by_receiver: Mapping[str, Sequence],
                      submitted: Mapping[int, Sequence[bytes]]) -> List[str]:
    """Delivered payloads are byte-equal, in order, to submitted ones.

    Each receiver's deliveries must run through the blocks in order,
    and within a block form an ordered subsequence of what the sender
    was given, at the right position.
    """
    failures = []
    for receiver_id in sorted(delivered_by_receiver):
        last = (-1, 0)
        by_block: Dict[int, List] = defaultdict(list)
        for item in delivered_by_receiver[receiver_id]:
            if (item.block_id, item.seq) <= last:
                failures.append(f"{receiver_id}: delivery out of order at "
                                f"block {item.block_id} seq {item.seq}")
                break
            last = (item.block_id, item.seq)
            by_block[item.block_id].append(item)
        for block_id, items in by_block.items():
            block = submitted.get(block_id)
            if block is None:
                failures.append(f"{receiver_id}: delivered block {block_id} "
                                f"that was never submitted")
                continue
            # Payloads are distinct within a block, so the first one
            # fixes the block's base sequence number; every other
            # delivery must sit at its own position under that base.
            first = items[0]
            base = (first.seq - block.index(first.payload)
                    if first.payload in block else None)
            for item in items:
                index = None if base is None else item.seq - base
                if (index is None or not 0 <= index < len(block)
                        or block[index] != item.payload):
                    failures.append(
                        f"{receiver_id}: payload of block {block_id} seq "
                        f"{item.seq} differs from the submitted payload")
                    break
    return failures[:5]


def cost_model(label: str, packets: Sequence[Packet], scheme: Scheme,
               l_hash: int, l_sign: Optional[int] = -1) -> List[str]:
    """Eq. 2 and Eq. 3 against the packets of one complete block.

    Carried hashes per packet must equal ``|E|/n``; authentication
    bytes per packet (carried hashes plus the signature field, which
    under batch signing is the whole batch attachment) must equal
    ``(l_sign + l_hash |E|) / n`` with ``l_sign`` the signature field's
    actual size (``l_sign``; -1 reads it from the packets, None skips
    the Eq. 3 half).
    """
    graph = scheme.build_graph(len(packets))
    if graph is None:
        return []
    signatures = [p.signature for p in packets if p.signature is not None]
    if len(signatures) != 1:
        return [f"{label}: {len(signatures)} signature packets in a block"]
    if l_sign == -1:
        l_sign = len(signatures[0])
    carried = sum(len(p.carried) for p in packets) / len(packets)
    want_carried = mean_hashes_per_packet(graph)
    failures = []
    if not math.isclose(carried, want_carried, rel_tol=1e-12):
        failures.append(f"{label}: {carried} hashes per packet, Eq. 2 "
                        f"gives {want_carried}")
    if l_sign is None:
        return failures
    auth = (sum(len(h) for p in packets for _, h in p.carried)
            + l_sign) / len(packets)
    want_auth = overhead_bytes_per_packet(graph, l_sign, l_hash)
    if not math.isclose(auth, want_auth, rel_tol=1e-12):
        failures.append(f"{label}: {auth} authentication bytes per packet, "
                        f"Eq. 3 gives {want_auth}")
    return failures


def stats_equal(label: str, left: SimulationStats,
                right: SimulationStats) -> List[str]:
    """Exact equality of two accumulators (tallies, delays, counters)."""
    def flat(stats: SimulationStats):
        return (
            {pos: (t.received, t.verified)
             for pos, t in stats.tallies.items()},
            list(stats.delays), stats.message_buffer_peak,
            stats.hash_buffer_peak, stats.sent, stats.dropped, stats.forged,
            stats.corrupted, stats.injected, stats.replayed,
            stats.undecodable, stats.forged_rejected, stats.replays_dropped,
            stats.forged_accepted)

    if flat(left) != flat(right):
        return [f"{label}: per-trial stats folded with merge differ from a "
                f"single-call run"]
    return []


def real_tail(label: str, samples: Sequence[float], tail: float) -> List[str]:
    beyond = sum(1 for value in samples if value > tail)
    if beyond < 10:
        return [f"{label}: only {beyond} of {len(samples)} samples lie "
                f"beyond the tail percentile"]
    return []

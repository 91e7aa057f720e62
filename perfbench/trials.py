"""The ``trial-kernel`` workload: the offline trial runners at n=128.

One round runs trial ``i`` of every case below, each call timed alone
by its global trial index.  Rounds repeat until the run's time is up
and enough trials exist for the tail percentile.  Every trial is one
operation; it fails when its own stats show a forged packet accepted
or a position verified more often than it was received.

The cases are the per-subsystem copies of the trial loop: passive wire
trials for four schemes, the adversarial runner under pollution, the
TESLA runner, a multicast session and the topology runner.  Each trial
has one block, one receiver (four for multicast) and fresh state, so
codec sharing and session-length fixes on the serve path do not reach
this workload: it is the control for serve-path changes.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from perfbench import checks
from perfbench.common import (
    BLOCK_SIZE,
    END_TO_END_UNITS,
    PAYLOAD_SIZE,
    SETUP_SAMPLES,
    Report,
    peak_rss_mb,
)
from perfbench.meter import Patches, SpeedMeter, percentile

from repro.analysis.conformance import attack_mix
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import HmacStubSigner
from repro.faults.channel import AdversarialChannel
from repro.network.channel import Channel
from repro.network.loss import BernoulliLoss
from repro.schemes.registry import make_scheme
from repro.simulation.adversarial import run_adversarial_trials
from repro.simulation.multicast import ReceiverSpec, run_multicast_session
from repro.simulation.runner import (
    WireTrialConfig,
    run_tesla_trials,
    run_wire_trials,
)
from repro.simulation.sender import make_payloads
from repro.simulation.stats import SimulationStats
from repro.topology import make_topology, redundant_trees
from repro.topology.conformance import run_topology_trials
from repro.topology.trees import union_paths

LOSS_RATE = 0.1
#: Percentile reported as ``block_ms_tail`` (of single-trial times).
TAIL_PCT = 99.0
#: Trials a run times at least, so >= 10 lie beyond the tail.
MIN_TRIALS = 1200
#: Rounds re-run as single calls for the merge check and wire bytes.
CHECK_ROUNDS = 48
#: Trials folded at once into a case's running total.
FOLD_BATCH = 64
MULTICAST_RECEIVERS = 4
TOPOLOGY_LEAVES = 8
#: Passive schemes whose q_i is checked against the exact profile.
PASSIVE_SPECS = ("emss(2,1)", "offsets(1,3)", "rohatgi", "wong-lam")
#: Schemes whose packets are checked against Eq. 2 and Eq. 3.
COST_MODEL_SPECS = ("emss(2,1)", "ac(3,3)", "offsets(1,3)", "rohatgi")


@dataclass(frozen=True)
class TrialCase:
    """One runner x scheme pairing, addressable by global trial index."""

    name: str
    group: str
    run: Callable[[int], SimulationStats]
    #: ``count -> stats`` as one call over trials ``0..count-1``; None
    #: when the runner has no trial-range entry point.
    single: Optional[Callable[[int], SimulationStats]]
    #: Scheme whose exact q_i profile the merged stats must match.
    conformance: Optional[object] = None


def build_cases(seed: int) -> List[TrialCase]:
    """Every case, keyed on the workload seed (this is the set-up)."""
    cases: List[TrialCase] = []
    wire_config = WireTrialConfig(block_size=BLOCK_SIZE, trials=1,
                                  loss_rate=LOSS_RATE, seed=seed)
    for spec in PASSIVE_SPECS:
        scheme = make_scheme(spec)
        cases.append(TrialCase(
            name=f"wire {spec}", group="passive",
            run=lambda i, s=scheme: run_wire_trials(s, wire_config, i, 1),
            single=lambda k, s=scheme: run_wire_trials(s, wire_config, 0, k),
            conformance=scheme))
    emss = make_scheme("emss(2,1)")
    cases.append(TrialCase(
        name="adversarial emss(2,1) pollution", group="adversarial",
        run=lambda i: run_adversarial_trials(
            emss, BLOCK_SIZE, LOSS_RATE, attack_mix("pollution"), i, 1,
            seed=seed),
        single=lambda k: run_adversarial_trials(
            emss, BLOCK_SIZE, LOSS_RATE, attack_mix("pollution"), 0, k,
            seed=seed)))
    tesla = make_scheme("tesla(d=5,T=0.1,n=160)").parameters
    cases.append(TrialCase(
        name="tesla", group="tesla",
        run=lambda i: run_tesla_trials(tesla, BLOCK_SIZE, i, 1, LOSS_RATE,
                                       seed=seed),
        single=lambda k: run_tesla_trials(tesla, BLOCK_SIZE, 0, k,
                                          LOSS_RATE, seed=seed)))
    signer = HmacStubSigner(key=b"perfbench-multicast", signature_size=128)

    def multicast(index: int) -> SimulationStats:
        receivers = [
            ReceiverSpec(f"m{r}", loss=BernoulliLoss(
                LOSS_RATE, seed=seed + 104729 * index + r))
            for r in range(MULTICAST_RECEIVERS)]
        result = run_multicast_session(emss, BLOCK_SIZE, 1, receivers,
                                       signer=signer,
                                       payload_size=PAYLOAD_SIZE)
        return SimulationStats.merge_all(
            [result.per_receiver[name] for name in sorted(
                result.per_receiver)])

    cases.append(TrialCase(name="multicast emss(2,1)", group="multicast",
                           run=multicast, single=None))
    leaves = [f"r{index:02d}" for index in range(TOPOLOGY_LEAVES)]
    topology = make_topology("spine:4", leaves)
    paths = union_paths(redundant_trees(topology, 1), leaves[0])
    cases.append(TrialCase(
        name="topology emss(2,1) spine:4", group="topology",
        run=lambda i: run_topology_trials(emss, topology, paths, leaves[0],
                                          BLOCK_SIZE, LOSS_RATE, i, 1,
                                          seed=seed),
        single=lambda k: run_topology_trials(emss, topology, paths,
                                             leaves[0], BLOCK_SIZE,
                                             LOSS_RATE, 0, k, seed=seed)))
    return cases


def install_meter(patches: Patches, meter: SpeedMeter) -> None:
    tick = meter.tick

    def wrap_digest(original):
        def digest(self, data):
            tick()
            return original(self, data)
        return digest

    def wrap_chain(original):
        def chain(self, parts):
            tick()
            return original(self, parts)
        return chain

    patches.method(HashFunction, "digest", wrap_digest)
    patches.method(HashFunction, "chain", wrap_chain)


@dataclass
class TrialSample:
    case: int
    index: int
    start: float
    end: float
    verified: int
    failed: bool
    #: Kept for the first ``CHECK_ROUNDS`` rounds only (the merge check
    #: and the traced run); later trials are folded as they finish, so
    #: the benchmark's own storage does not grow with the run.
    stats: Optional[SimulationStats]


class CaseFold:
    """One case's trials folded with ``SimulationStats.merge``, in order."""

    def __init__(self) -> None:
        self._total = SimulationStats()
        self._pending: List[SimulationStats] = []

    def add(self, stats: SimulationStats) -> None:
        self._pending.append(stats)
        if len(self._pending) == FOLD_BATCH:
            self._fold()

    def _fold(self) -> None:
        self._total = self._total.merge(
            SimulationStats.merge_all(self._pending))
        self._pending = []

    def result(self) -> SimulationStats:
        self._fold()
        return self._total


def time_setups(seed: int, meter: SpeedMeter) -> List[Tuple[float, float]]:
    intervals = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        meter.burst(5)
        start = perf_counter()
        build_cases(seed)
        end = perf_counter()
        meter.burst(5)
        intervals.append((start, end))
    return intervals


def run_rounds(cases: List[TrialCase], seconds: float, min_trials: int,
               first_round: int = 0,
               folds: Optional[List[CaseFold]] = None) -> List[TrialSample]:
    """Rounds of one trial per case until time and sample count suffice."""
    samples: List[TrialSample] = []
    began = perf_counter()
    index = first_round
    while perf_counter() - began < seconds or len(samples) < min_trials:
        for number, case in enumerate(cases):
            start = perf_counter()
            stats = case.run(index)
            end = perf_counter()
            if folds is not None:
                folds[number].add(stats)
            samples.append(TrialSample(
                number, index, start, end, verified(stats),
                trial_failed(stats),
                stats if index < CHECK_ROUNDS else None))
        index += 1
    return samples


def merged_by_case(cases: List[TrialCase], samples: List[TrialSample],
                   limit: Optional[int] = None) -> List[SimulationStats]:
    """Each case's per-trial stats folded with ``SimulationStats.merge``."""
    per_case: List[List[SimulationStats]] = [[] for _ in cases]
    for sample in samples:
        if limit is None or sample.index < limit:
            per_case[sample.case].append(sample.stats)
    return [SimulationStats.merge_all(shards) for shards in per_case]


class WireBytes:
    """Counts data bytes the channels deliver (check pass only)."""

    def __init__(self) -> None:
        self.bytes = 0
        self._inside_adversarial = 0

    def install(self, patches: Patches) -> None:
        counter = self

        def wrap_transmit(original):
            def transmit(self, packets):
                deliveries = original(self, packets)
                if not counter._inside_adversarial:
                    counter.bytes += sum(len(d.packet.to_wire())
                                         for d in deliveries)
                return deliveries
            return transmit

        def wrap_transmit_wire(original):
            def transmit_wire(self, packets):
                counter._inside_adversarial += 1
                try:
                    deliveries = original(self, packets)
                finally:
                    counter._inside_adversarial -= 1
                counter.bytes += sum(len(d.data) for d in deliveries)
                return deliveries
            return transmit_wire

        patches.method(Channel, "transmit", wrap_transmit)
        patches.method(AdversarialChannel, "transmit_wire",
                       wrap_transmit_wire)


def verified(stats: SimulationStats) -> int:
    return sum(tally.verified for tally in stats.tallies.values())


def trial_failed(stats: SimulationStats) -> bool:
    """A trial fails if it accepted a forgery or over-counted a position."""
    return stats.forged_accepted > 0 or any(
        tally.verified > tally.received for tally in stats.tallies.values())


def check_pass(cases: List[TrialCase], samples: List[TrialSample],
               merged: List[SimulationStats]) -> Tuple[List[str], float]:
    """Output checks; returns failures and wire bytes per auth packet."""
    failures: List[str] = []
    rounds = 1 + max(sample.index for sample in samples)
    for case, stats in zip(cases, merged):
        failures += checks.no_forgery(case.name, stats.forged_accepted)
        if case.conformance is not None:
            failures += checks.q_profile_agrees(
                stats, case.conformance, BLOCK_SIZE, LOSS_RATE, case.name)
    count = min(rounds, CHECK_ROUNDS)
    prefix = merged_by_case(cases, samples, limit=count)
    counter = WireBytes()
    auth = 0
    with Patches() as patches:
        counter.install(patches)
        for case, folded in zip(cases, prefix):
            if case.single is not None:
                single = case.single(count)
                failures += checks.stats_equal(case.name, folded, single)
            else:
                single = SimulationStats.merge_all(
                    [case.run(index) for index in range(count)])
            auth += verified(single)
    signer = HmacStubSigner(key=b"perfbench-cost-model", signature_size=128)
    payloads = make_payloads(BLOCK_SIZE, PAYLOAD_SIZE)
    for spec in COST_MODEL_SPECS:
        scheme = make_scheme(spec)
        packets = scheme.make_block(payloads, signer, sha256)
        failures += checks.cost_model(spec, packets, scheme,
                                      sha256.digest_size)
    return failures, counter.bytes / auth


def run_workload(seed: int, seconds: float, trace: bool) -> Report:
    if trace:
        from perfbench import tracing
        return tracing.trace_trials(seed)
    report = Report()
    meter = SpeedMeter()
    with Patches() as patches:
        install_meter(patches, meter)
        setups = time_setups(seed, meter)
        cases = build_cases(seed)
        folds = [CaseFold() for _ in cases]
        samples = run_rounds(cases, seconds, MIN_TRIALS, folds=folds)
        meter.burst(20)
    merged = [fold.result() for fold in folds]
    failures, wire_bytes = check_pass(cases, samples, merged)
    report.failures += failures
    report.attempted = len(samples)
    report.failed = sum(sample.failed for sample in samples)
    durations = [meter.clean(s.start, s.end) for s in samples]
    delays = [d for stats in merged for d in stats.delays]
    values = {
        "auth_pkts_per_s": sum(s.verified for s in samples)
        / sum(durations),
        "block_ms_p50": 1e3 * median(durations),
        "block_ms_tail": 1e3 * percentile(durations, TAIL_PCT),
        "setup_s": median([meter.clean(a, b) for a, b in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "wire_bytes_per_auth_pkt": wire_bytes,
        "auth_delay_ms_mean": 1e3 * sum(delays) / len(delays),
        "q_mean_min": min(stats.overall_q for stats in merged),
    }
    report.failures += checks.real_tail("trial-kernel", durations,
                                        values["block_ms_tail"] / 1e3)
    report.metrics = {name: (values[name], unit)
                      for name, unit in END_TO_END_UNITS.items()}
    return report

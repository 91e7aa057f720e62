"""The serve workloads: ``fanout`` and ``hostile-churn``.

A run repeats one session, identical byte for byte, until the run's
time is up and enough blocks are timed for the tail percentile.  Hooks
on four public serve functions time every block from
``SenderService.submit_block`` to ``ReceiverPool.wait_block`` and count
the data-frame bytes handed to receivers; hooks on
``HashFunction.digest``/``.chain`` and ``TraceSink.write`` drive the
speed meter.
"""

from __future__ import annotations

import gc
import os
import shutil
from collections import defaultdict
from statistics import median
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.common import (
    BLOCK_SIZE,
    END_TO_END_UNITS,
    PAYLOAD_SIZE,
    Q_TARGET,
    RSA_BITS,
    SETUP_SAMPLES,
    BlockFault,
    Report,
    derive_rsa_primes,
    peak_rss_mb,
    scratch_dir,
)
from perfbench.meter import (
    Patches,
    SpeedMeter,
    percentile,
    subclasses_defining,
)

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.rsa import generate_keypair
from repro.crypto.signatures import RsaSigner
from repro.design import DesignTable, TableSpec
from repro.obs.health import AlertSink, HealthMonitor
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.sinks import TraceSink
from repro.obs.timeseries import TimeseriesSampler
from repro.packets import Packet, packet_from_wire
from repro.schemes.base import Scheme
from repro.schemes.registry import make_scheme
from repro.serve.receiver import ReceiverPool
from repro.serve.sender import SenderService
from repro.serve.service import ServeConfig, SessionResult, run_live_session
from repro.serve.transport import CONTROL_PREFIX, LocalTransport
from repro.simulation.stats import SimulationStats


@dataclass(frozen=True)
class ServeWorkload:
    """One serve workload: the session and how a run samples it."""

    name: str
    receivers: int
    blocks: int
    batch_size: int
    queue_size: int
    loss_schedule: Tuple[Tuple[int, float], ...]
    attack: Optional[str]
    churn: Optional[str]
    topology: Optional[str]
    telemetry: bool
    design_table: bool
    #: Percentile reported as ``block_ms_tail``.
    tail_pct: float
    #: Blocks a run times at least, so >= 10 lie beyond the tail.
    min_blocks: int
    #: Blocks the traced run's call-counting (profiled) pass covers.
    profile_blocks: int

    def config(self, seed: int, table_path: Optional[str]) -> ServeConfig:
        return ServeConfig(
            receivers=self.receivers, blocks=self.blocks,
            block_size=BLOCK_SIZE, payload_size=PAYLOAD_SIZE,
            loss_schedule=self.loss_schedule, attack=self.attack,
            q_min_target=Q_TARGET, seed=seed, queue_size=self.queue_size,
            transport="local", adaptive=True, batch_size=self.batch_size,
            topology=self.topology, churn=self.churn,
            design_table=table_path, scheme_family="emss")

    def loss_for_block(self, block_id: int) -> float:
        return [rate for first, rate in self.loss_schedule
                if first <= block_id][-1]


FANOUT = ServeWorkload(
    name="fanout", receivers=64, blocks=8, batch_size=8,
    # The queue holds one full batch: 8 blocks x (128 data + 1 control).
    queue_size=8 * (BLOCK_SIZE + 1),
    loss_schedule=((0, 0.05),), attack=None, churn=None, topology=None,
    telemetry=False, design_table=False, tail_pct=75.0, min_blocks=40,
    profile_blocks=8)

HOSTILE_CHURN = ServeWorkload(
    name="hostile-churn", receivers=16, blocks=64, batch_size=1,
    queue_size=256, loss_schedule=((0, 0.05), (32, 0.2)),
    attack="pollution", churn="flap:16", topology="spine:4",
    telemetry=True, design_table=True, tail_pct=90.0, min_blocks=128,
    profile_blocks=16)


class StopSession(Exception):
    """Raised at a chosen block to end a session early (set-up timing)."""


@dataclass
class SessionProbe:
    """What the hooks record during one serve session."""

    capture: bool = False
    #: Raise :class:`StopSession` when this block is submitted.
    stop_at_block: Optional[int] = None
    submit_at: Dict[int, float] = field(default_factory=dict)
    settled_at: Dict[int, float] = field(default_factory=dict)
    first_submit: Optional[float] = None
    design_of: Dict[int, Tuple[str, Tuple[int, ...]]] = field(
        default_factory=dict)
    payloads: Dict[int, List[bytes]] = field(default_factory=dict)
    reports: List[object] = field(default_factory=list)
    wire_bytes: int = 0
    genuine: Dict[int, bytes] = field(default_factory=dict)
    blocks: List[List[Packet]] = field(default_factory=list)
    pool: Optional[ReceiverPool] = None


class ServeHooks:
    """Boundary hooks on the serve path, shared by the sessions of a run."""

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.probe = SessionProbe()

    def install(self, patches: Patches, with_meter: bool = True) -> None:
        hooks = self
        tick = self.meter.tick

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

        def wrap_submit(original):
            async def submit_block(self, scheme, payloads, loss_rate, phase):
                probe = hooks.probe
                now = perf_counter()
                block_id = self.next_block_id
                if block_id == probe.stop_at_block:
                    raise StopSession()
                probe.submit_at[block_id] = now
                if probe.first_submit is None:
                    probe.first_submit = now
                probe.design_of[block_id] = (scheme.name,
                                             tuple(scheme.offsets))
                if probe.capture:
                    probe.payloads[block_id] = list(payloads)
                return await original(self, scheme, payloads, loss_rate,
                                      phase)
            return submit_block

        def wrap_wait(original):
            async def wait_block(self, block_id):
                reports = await original(self, block_id)
                probe = hooks.probe
                probe.settled_at[block_id] = perf_counter()
                probe.reports.extend(reports)
                if probe.capture:
                    probe.pool = self
                return reports
            return wait_block

        def wrap_send(original):
            async def send(self, receiver_id, deliveries):
                dropped = await original(self, receiver_id, deliveries)
                probe = hooks.probe
                for delivery in deliveries:
                    if delivery.data.startswith(CONTROL_PREFIX):
                        continue
                    probe.wire_bytes += len(delivery.data)
                    if (probe.capture and delivery.kind == "genuine"
                            and delivery.seq_hint not in probe.genuine):
                        probe.genuine[delivery.seq_hint] = delivery.data
                for delivery in dropped:
                    probe.wire_bytes -= len(delivery.data)
                return dropped
            return send

        def wrap_make_block(original):
            def make_block(self, *args, **kwargs):
                packets = original(self, *args, **kwargs)
                if hooks.probe.capture:
                    hooks.probe.blocks.append(list(packets))
                return packets
            return make_block

        def wrap_write(original):
            def write(self, record):
                tick()
                return original(self, record)
            return write

        if with_meter:
            patches.method(HashFunction, "digest", wrap_digest)
            patches.method(HashFunction, "chain", wrap_chain)
            # The lifecycle flush at session end writes record by record.
            patches.method(TraceSink, "write", wrap_write)
        patches.method(SenderService, "submit_block", wrap_submit)
        patches.method(ReceiverPool, "wait_block", wrap_wait)
        patches.method(LocalTransport, "send", wrap_send)
        for owner in subclasses_defining(Scheme, "make_block"):
            patches.method(owner, "make_block", wrap_make_block)


@dataclass
class Telemetry:
    """The hostile-churn observability sinks, in a scratch directory."""

    directory: str
    lifecycle: LifecycleTracer
    timeseries: TimeseriesSampler
    health: HealthMonitor

    @classmethod
    def open(cls, seed: int, directory: str) -> "Telemetry":
        os.makedirs(directory, exist_ok=True)
        return cls(
            directory=directory,
            lifecycle=LifecycleTracer(
                seed, sample=4,
                sink=os.path.join(directory, "lifecycle.jsonl")),
            timeseries=TimeseriesSampler(
                interval_s=0.05,
                sink=os.path.join(directory, "timeseries.jsonl")),
            health=HealthMonitor(
                q_target=Q_TARGET,
                sink=AlertSink(os.path.join(directory, "alerts.jsonl"))))

    def close(self) -> int:
        """Flush and close every sink; returns the bytes written."""
        self.lifecycle.close()
        self.timeseries.close()
        self.health.close()
        return sum(os.path.getsize(os.path.join(self.directory, name))
                   for name in os.listdir(self.directory))

    def discard(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


class ServeRun:
    """Set-up and sessions for one serve workload and seed."""

    def __init__(self, workload: ServeWorkload, seed: int,
                 scratch: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.primes = derive_rsa_primes(seed)
        self._opened = 0

    def set_up(self) -> Tuple[RsaSigner, ServeConfig, Optional[Telemetry]]:
        """Signer from the fixed key, design table, config and sinks."""
        signer = RsaSigner(generate_keypair(RSA_BITS, _primes=self.primes))
        table_path = None
        if self.workload.design_table:
            table = DesignTable.build(
                TableSpec(block_sizes=(BLOCK_SIZE,), q_targets=(Q_TARGET,),
                          families=("emss",), seed=self.seed), workers=1)
            table_path = os.path.join(self.scratch, "design-table.json")
            table.save(table_path)
        config = self.workload.config(self.seed, table_path)
        telemetry = None
        if self.workload.telemetry:
            self._opened += 1
            telemetry = Telemetry.open(
                self.seed,
                os.path.join(self.scratch, f"telemetry-{self._opened}"))
        return signer, config, telemetry

    @staticmethod
    def session(signer: RsaSigner, config: ServeConfig,
                telemetry: Optional[Telemetry]) -> SessionResult:
        if telemetry is None:
            return run_live_session(config, signer=signer)
        return run_live_session(config, signer=signer,
                                lifecycle=telemetry.lifecycle,
                                timeseries=telemetry.timeseries,
                                health=telemetry.health)


def time_setups(run: ServeRun, hooks: ServeHooks,
                meter: SpeedMeter) -> List[Tuple[float, float]]:
    """Set up and start a session up to its first block, several times.

    Each sample starts from a collected heap, so the garbage an earlier
    sample left (the cancelled session's task cycles) is not collected
    inside a later one.
    """
    intervals = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        meter.burst(5)
        hooks.probe = SessionProbe(stop_at_block=0)
        start = perf_counter()
        signer, config, telemetry = run.set_up()
        try:
            run.session(signer, config, telemetry)
        except StopSession:
            end = perf_counter()
        else:
            raise RuntimeError("session ended before its first block")
        finally:
            if telemetry is not None:
                telemetry.close()
                telemetry.discard()
        meter.burst(5)
        intervals.append((start, end))
    return intervals


@dataclass
class ServeSession:
    """One finished session and what its hooks saw."""

    result: SessionResult
    probe: SessionProbe
    ended: float
    artifact_bytes: int = 0


def run_session(run: ServeRun, hooks: ServeHooks,
                capture: bool = False) -> ServeSession:
    gc.collect()
    signer, config, telemetry = run.set_up()
    hooks.probe = SessionProbe(capture=capture)
    try:
        result = run.session(signer, config, telemetry)
        # Flushing the sinks is work the session does, so it counts in
        # the serving time; deleting the scratch files does not.
        artifact_bytes = telemetry.close() if telemetry is not None else 0
        ended = perf_counter()
    finally:
        if telemetry is not None:
            telemetry.discard()
    return ServeSession(result=result, probe=hooks.probe, ended=ended,
                        artifact_bytes=artifact_bytes)


def operations(workload: ServeWorkload, sessions: List[ServeSession],
               fault: BlockFault) -> Tuple[int, int]:
    """Attempted and failed blocks under the controller fault."""
    attempted = failed = 0
    for session in sessions:
        for block_id, (_, offsets) in sorted(session.probe.design_of.items()):
            attempted += 1
            if fault.failed(offsets, workload.loss_for_block(block_id)):
                failed += 1
    return attempted, failed


def check_session(workload: ServeWorkload, session: ServeSession
                  ) -> List[str]:
    """Every output check on the first (captured) session."""
    result, probe = session.result, session.probe
    failures = checks.no_forgery(workload.name, result.forged_accepted)
    for phase, stats in sorted(result.stats.items()):
        failures += checks.no_forgery(phase, stats.forged_accepted)
    failures += checks.conservation(probe.reports)
    if workload.attack is None and workload.churn is None:
        drops = sum(result.queue_drops.values())
        if drops:
            failures.append(f"{workload.name}: {drops} queue drops")
        for phase, stats in sorted(result.stats.items()):
            spec, rate = phase.split("@p=")
            failures += checks.q_profile_agrees(
                stats, make_scheme(spec), BLOCK_SIZE, float(rate), phase)
    failures += checks.payloads_in_order(
        {rid: s.stream.delivered for rid, s in probe.pool.sessions.items()},
        probe.payloads)
    # Eq. 2/3 on every block the sender built.  Under batch signing the
    # root's signature field is replaced by the batch attachment after
    # packetization, so its size is read from a genuine wire copy.
    signed = 0
    for packets in probe.blocks:
        root = next(p for p in packets if p.signature is not None)
        block_id = root.block_id
        spec, _ = probe.design_of[block_id]
        wire = probe.genuine.get(root.seq)
        if wire is not None:
            l_sign = len(packet_from_wire(wire).signature)
        elif workload.batch_size == 1:
            l_sign = len(root.signature)
        else:
            l_sign = None  # the root reached no receiver intact
        signed += l_sign is not None
        failures += checks.cost_model(
            f"{workload.name} block {block_id} {spec}", packets,
            make_scheme(spec), sha256.digest_size, l_sign)
    if len(probe.blocks) != len(probe.design_of) or not signed:
        failures.append(f"{workload.name}: Eq. 2/3 checked on "
                        f"{len(probe.blocks)} blocks ({signed} with a "
                        f"signature size) of {len(probe.design_of)}")
    return failures


def measure(workload: ServeWorkload, seed: int, seconds: float,
            meter: SpeedMeter, scratch: str):
    """The untraced run: set-ups, then sessions until time is up."""
    run = ServeRun(workload, seed, scratch)
    hooks = ServeHooks(meter)
    sessions: List[ServeSession] = []
    failures: List[str] = []
    with Patches() as patches:
        hooks.install(patches)
        setups = time_setups(run, hooks, meter)
        began = perf_counter()
        timed_blocks = 0
        while (not sessions or perf_counter() - began < seconds
               or timed_blocks < workload.min_blocks):
            session = run_session(run, hooks, capture=not sessions)
            timed_blocks += len(session.probe.submit_at)
            if not sessions:
                # Check, then drop what only the checks need, so the
                # receiver pool does not count into later peak memory.
                failures += check_session(workload, session)
                session.probe.pool = None
                session.probe.genuine = {}
                session.probe.blocks = []
                session.probe.payloads = {}
            else:
                if (session.result.transcripts
                        != sessions[0].result.transcripts):
                    failures.append(f"{workload.name}: session "
                                    f"{len(sessions)} transcripts differ "
                                    f"from session 0")
                session.result.transcripts = {}
                session.result.stats = {}
            sessions.append(session)
        meter.burst(20)
    return setups, sessions, failures


def end_to_end(workload: ServeWorkload, setups, sessions: List[ServeSession],
               meter: SpeedMeter) -> Tuple[Dict[str, float], List[float]]:
    """The eight end-to-end metrics, from the untraced sessions."""
    latencies: List[float] = []
    delivered = 0
    serving = 0.0
    for session in sessions:
        probe = session.probe
        for block_id, start in probe.submit_at.items():
            latencies.append(meter.clean(start, probe.settled_at[block_id]))
        delivered += session.result.delivered
        serving += meter.clean(probe.first_submit, session.ended)
    first = sessions[0]
    stats = first.result.stats
    delays = [d for phase in stats.values() for d in phase.delays]
    # Phases are "<design>@p=<rate>"; pool the designs flown at one
    # scheduled rate, so a switch a block earlier or later (which the
    # seed decides) does not create a phase of two noisy blocks.
    by_rate: Dict[str, List] = defaultdict(list)
    for phase in sorted(stats):
        by_rate[phase.split("@p=")[1]].append(stats[phase])
    q_means = [SimulationStats.merge_all(group).overall_q
               for group in by_rate.values()]
    values = {
        "auth_pkts_per_s": delivered / serving,
        "block_ms_p50": 1e3 * median(latencies),
        "block_ms_tail": 1e3 * percentile(latencies, workload.tail_pct),
        "setup_s": median([meter.clean(a, b) for a, b in setups]),
        "peak_rss_mb": peak_rss_mb(),
        "wire_bytes_per_auth_pkt": (first.probe.wire_bytes
                                    / first.result.delivered),
        "auth_delay_ms_mean": 1e3 * sum(delays) / len(delays),
        "q_mean_min": min(q_means),
    }
    return values, latencies


def run_workload(workload: ServeWorkload, seed: int, seconds: float,
                 trace: bool) -> Report:
    report = Report()
    meter = SpeedMeter()
    scratch = scratch_dir()
    try:
        if trace:
            from perfbench import tracing
            return tracing.trace_serve(workload, seed, meter, scratch)
        setups, sessions, failures = measure(workload, seed, seconds, meter,
                                             scratch)
        report.failures += failures
        report.attempted, report.failed = operations(workload, sessions,
                                                     BlockFault())
        values, latencies = end_to_end(workload, setups, sessions, meter)
        report.failures += checks.real_tail(
            workload.name, latencies, values["block_ms_tail"] / 1e3)
        report.metrics = {name: (values[name], unit)
                          for name, unit in END_TO_END_UNITS.items()}
        return report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

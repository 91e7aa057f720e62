"""The traced run: spans around each layer's public calls, per-layer metrics.

Spans are recorded from the benchmark's own wrappers around public
functions of every ``repro`` layer (the program itself is unchanged).
Each span carries a name, start, end and parent; parents are tracked
per asyncio task, so a receiver's spans never nest under the sender's.
Spans stay in memory and are written when the run ends, to
``perfbench/out/<workload>-spans.tsv.gz``, beside a per-layer table
``perfbench/out/<workload>-layers.md``.

A span's self time is its duration minus the part covered by its child
spans.  Python call counts per layer come from a separate profiled pass
over the same operations (``cProfile``), because a profiler slows every
call and would distort the span times.

A traced run makes three passes over the same operations: untraced
(the baseline for the tracing overhead), traced, and profiled.
"""

from __future__ import annotations

import asyncio
import cProfile
import gzip
import os
import pstats
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import serve, trials
from perfbench.common import OUT_DIR, BlockFault, Report
from perfbench.meter import Patches, SpeedMeter, subclasses_defining

from repro.crypto.hashing import HashFunction
from repro.crypto.signatures import HmacStubSigner, RsaSigner
from repro.design.service import DesignService
from repro.faults.channel import AdversarialChannel
from repro.network.channel import Channel
from repro.obs.health import HealthMonitor
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.timeseries import TimeseriesSampler
from repro.packets import Packet, packet_from_wire
from repro.schemes.base import Scheme
from repro.serve.adaptive import AdaptiveController
from repro.serve.receiver import ReceiverPool, ReceiverSession
from repro.serve.transport import LocalTransport
from repro.simulation.receiver import ChainReceiver
from repro.simulation.stream_receiver import StreamReceiver

#: Layers reported by ``<layer>.calls_per_delivery``.
CALL_LAYERS = ("crypto", "schemes", "packets", "network", "faults", "serve",
               "simulation", "topology", "design", "obs")

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "crypto.sign_ms_per_block": "ms",
    "crypto.verify_ms_per_block": "ms",
    "crypto.sig_verifies_per_block": "count",
    "crypto.digests_per_delivery": "count",
    "schemes.make_block_us_per_pkt": "us",
    "schemes.hashes_per_pkt": "count",
    "packets.encode_us_per_delivery": "us",
    "packets.encodes_per_delivery": "count",
    "packets.decode_us_per_delivery": "us",
    "packets.decodes_per_delivery": "count",
    "packets.auth_bytes_calls_per_delivery": "count",
    "network.channel_us_per_pkt": "us",
    "serve.transport_us_per_frame": "us",
    "serve.queue_depth_peak": "count",
    "serve.ingest_us_per_delivery": "us",
    "serve.close_block_us_per_receiver": "us",
    "serve.controller_us_per_block": "us",
    "serve.membership_ms_per_event": "ms",
    "serve.barrier_wait_ms_per_block": "ms",
    "simulation.verify_us_per_delivery": "us",
    "simulation.verifier_entries": "count",
    "simulation.hash_buffer_peak": "count",
    "simulation.msg_buffer_peak": "count",
    "simulation.passive_trial_ms": "ms",
    "simulation.adversarial_trial_ms": "ms",
    "simulation.tesla_trial_ms": "ms",
    "simulation.multicast_trial_ms": "ms",
    "topology.trial_ms": "ms",
    "design.lookup_us": "us",
    "design.inline_calls": "count",
    "obs.health_us_per_block": "us",
    "obs.lifecycle_us_per_event": "us",
    "obs.lifecycle_events": "count",
    "obs.flush_ms": "ms",
    "obs.artifact_bytes": "B",
}
PER_LAYER.update({f"{layer}.calls_per_delivery": "count"
                  for layer in CALL_LAYERS})
PER_LAYER["trace.overhead_x"] = "x"

SIGN_SPANS = ("RsaSigner.sign", "HmacStubSigner.sign")
VERIFY_SPANS = ("RsaSigner.verify", "HmacStubSigner.verify")
CHANNEL_SPANS = ("Channel.transmit", "AdversarialChannel.transmit_wire")
HEALTH_SPANS = ("HealthMonitor.observe_slo", "HealthMonitor.observe_envelope",
                "HealthMonitor.observe_sentinels")
FLUSH_SPANS = ("LifecycleTracer.close", "TimeseriesSampler.close",
               "HealthMonitor.close")
MEMBERSHIP_SPANS = ("ReceiverPool.admit", "ReceiverPool.retire",
                    "ReceiverPool.crash")
WAIT_SPANS = ("ReceiverPool.wait_block",)


class SpanRecorder:
    """Spans in parallel arrays; a parent stack per asyncio task."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stacks: Dict[object, List[int]] = defaultdict(list)
        #: Per-span measurements the wrappers attach (packets, depth...).
        self.extra: Dict[int, int] = {}
        self.peaks: Dict[str, int] = defaultdict(int)
        self.controller: Optional[AdaptiveController] = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @staticmethod
    def _task():
        if asyncio._get_running_loop() is None:
            return None
        return asyncio.current_task()

    def enter(self, name_id: int) -> int:
        stack = self._stacks[self._task()]
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stacks[self._task()].pop()

    def wrap(self, name: str, original: Callable,
             after: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``original`` (sync or async)."""
        name_id = self.name_id(name)
        enter, leave = self.enter, self.exit
        if asyncio.iscoroutinefunction(original):
            async def traced_async(*args, **kwargs):
                index = enter(name_id)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    leave(index)
                if after is not None:
                    after(index, args, result)
                return result
            return traced_async

        def traced(*args, **kwargs):
            index = enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(index)
            if after is not None:
                after(index, args, result)
            return result
        return traced

    # -- analysis ------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        covered = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                covered[parent] += durations[index]
        table: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total": 0.0, "self": 0.0}
            for name in self.names}
        for index in range(count):
            row = table[self.names[self.name_ids[index]]]
            row["calls"] += 1
            row["total"] += durations[index]
            row["self"] += durations[index] - covered[index]
        return table

    def _has_ancestor(self, index: int, names: Tuple[str, ...]) -> bool:
        wanted = {self._ids[name] for name in names if name in self._ids}
        parent = self.parents[index]
        while parent >= 0:
            if self.name_ids[parent] in wanted:
                return True
            parent = self.parents[parent]
        return False

    def nested_total(self, names: Tuple[str, ...],
                     under: Tuple[str, ...]) -> float:
        """Duration of ``names`` spans that run inside an ``under`` span."""
        ids = {self._ids[name] for name in names if name in self._ids}
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts))
                   if self.name_ids[i] in ids and self._has_ancestor(i, under))

    def top_level(self, names: Tuple[str, ...]) -> Tuple[float, int]:
        """Total duration and attached counts of outermost ``names`` spans."""
        ids = {self._ids[name] for name in names if name in self._ids}
        total = 0.0
        attached = 0
        for index in range(len(self.starts)):
            if self.name_ids[index] in ids and not self._has_ancestor(
                    index, names):
                total += self.ends[index] - self.starts[index]
                attached += self.extra.get(index, 0)
        return total, attached

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: name, start and end in ns from the
        first span, parent index."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index in range(len(self.starts)):
                out.write(
                    f"{index}\t{self.names[self.name_ids[index]]}\t"
                    f"{int((self.starts[index] - origin) * 1e9)}\t"
                    f"{int((self.ends[index] - origin) * 1e9)}\t"
                    f"{self.parents[index]}\n")


def install_spans(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap the public calls of every layer."""
    def method(owner, name, after=None):
        label = f"{owner.__name__}.{name}"
        patches.method(owner, name,
                       lambda original: recorder.wrap(label, original, after))

    def count_packets(index, args, result):
        packets = args[1]
        recorder.extra[index] = len(packets) if hasattr(
            packets, "__len__") else 0

    def note_block(index, args, result):
        recorder.peaks["packets_made"] += len(result)
        recorder.peaks["hashes_carried"] += sum(len(p.carried)
                                                for p in result)

    def note_queue(index, args, result):
        transport, receiver_id, deliveries = args[0], args[1], args[2]
        recorder.extra[index] = len(deliveries)
        depth = transport._queue(receiver_id).qsize()
        recorder.peaks["queue_depth"] = max(recorder.peaks["queue_depth"],
                                            depth)

    def note_verifier(index, args, result):
        verifier = args[0]
        peaks = recorder.peaks
        peaks["entries"] = max(peaks["entries"], len(verifier.outcomes))
        peaks["hash_buffer"] = max(peaks["hash_buffer"],
                                   verifier.hash_buffer_peak)
        peaks["msg_buffer"] = max(peaks["msg_buffer"],
                                  verifier.message_buffer_peak)

    def note_controller(index, args, result):
        recorder.controller = args[0]

    for owner in (RsaSigner, HmacStubSigner):
        method(owner, "sign")
        method(owner, "verify")
    method(HashFunction, "digest")
    method(HashFunction, "chain")
    for owner in subclasses_defining(Scheme, "make_block"):
        method(owner, "make_block", note_block)
    method(Packet, "to_wire")
    method(Packet, "auth_bytes")
    patches.function(packet_from_wire,
                     recorder.wrap("packet_from_wire", packet_from_wire))
    method(Channel, "transmit", count_packets)
    method(AdversarialChannel, "transmit_wire", count_packets)
    method(LocalTransport, "send", note_queue)
    method(StreamReceiver, "ingest_wire")
    method(ReceiverSession, "close_block")
    method(AdaptiveController, "observe", note_controller)
    for name in ("admit", "retire", "crash", "wait_block"):
        method(ReceiverPool, name)
    method(ChainReceiver, "ingest", note_verifier)
    method(DesignService, "lookup")
    for name in ("observe_slo", "observe_envelope", "observe_sentinels",
                 "close"):
        method(HealthMonitor, name)
    method(LifecycleTracer, "record")
    method(LifecycleTracer, "close")
    method(TimeseriesSampler, "close")


def layer_of(filename: str) -> Optional[str]:
    """``.../repro/serve/sender.py`` -> ``serve``; None outside ``repro``."""
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return None
    rest = filename.split(marker, 1)[1]
    head = rest.split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


#: Key under which :func:`profiled_calls` reports ingest calls.
INGEST_CALLS = "StreamReceiver.ingest_wire"


def profiled_session(run, hooks, workload) -> None:
    """A session cut at ``workload.profile_blocks`` (counts a prefix)."""
    signer, config, telemetry = run.set_up()
    hooks.probe = serve.SessionProbe(stop_at_block=workload.profile_blocks)
    try:
        run.session(signer, config, telemetry)
    except serve.StopSession:
        pass
    finally:
        if telemetry is not None:
            telemetry.close()
            telemetry.discard()


def profiled_calls(work: Callable[[], object]) -> Dict[str, int]:
    """Python calls per ``repro`` layer while ``work`` runs, plus the
    number of data frames receivers ingested (``INGEST_CALLS``)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    calls: Dict[str, int] = defaultdict(int)
    for (filename, _, function), row in pstats.Stats(
            profiler).stats.items():
        layer = layer_of(filename)
        if layer is not None:
            calls[layer] += row[1]
        if layer == "simulation" and function == "ingest_wire" and \
                filename.endswith("stream_receiver.py"):
            calls[INGEST_CALLS] += row[1]
    return calls


def layer_metrics(recorder: SpanRecorder, blocks: int, deliveries: int,
                  calls: Dict[str, int],
                  profiled_deliveries: int) -> Dict[str, float]:
    """The per-layer metrics from one traced pass."""
    table = recorder.summary()

    def total(*names):
        return sum(table[n]["total"] for n in names if n in table)

    def own(*names):
        return sum(table[n]["self"] for n in names if n in table)

    def calls_of(*names):
        return sum(table[n]["calls"] for n in names if n in table)

    def per(value, count, scale=1.0):
        return scale * value / count if count else 0.0

    made = recorder.peaks["packets_made"]
    make_block = [n for n in table if n.endswith(".make_block")]
    make_total = total(*make_block) - recorder.nested_total(
        SIGN_SPANS, tuple(make_block))
    channel_time, channel_packets = recorder.top_level(CHANNEL_SPANS)
    frames = sum(recorder.extra.get(i, 0) for i in range(len(recorder.starts))
                 if recorder.names[recorder.name_ids[i]]
                 == "LocalTransport.send")
    closes = calls_of("ReceiverSession.close_block")
    events = calls_of(*MEMBERSHIP_SPANS)
    controller = recorder.controller
    values = {
        "crypto.sign_ms_per_block": per(total(*SIGN_SPANS), blocks, 1e3),
        "crypto.verify_ms_per_block": per(total(*VERIFY_SPANS), blocks, 1e3),
        "crypto.sig_verifies_per_block": per(calls_of("RsaSigner.verify"),
                                             blocks),
        "crypto.digests_per_delivery": per(calls_of("HashFunction.digest"),
                                           deliveries),
        "schemes.make_block_us_per_pkt": per(make_total, made, 1e6),
        "schemes.hashes_per_pkt": per(recorder.peaks["hashes_carried"],
                                      made),
        "packets.encode_us_per_delivery": per(total("Packet.to_wire"),
                                              deliveries, 1e6),
        "packets.encodes_per_delivery": per(calls_of("Packet.to_wire"),
                                            deliveries),
        "packets.decode_us_per_delivery": per(total("packet_from_wire"),
                                              deliveries, 1e6),
        "packets.decodes_per_delivery": per(calls_of("packet_from_wire"),
                                            deliveries),
        "packets.auth_bytes_calls_per_delivery": per(
            calls_of("Packet.auth_bytes"), deliveries),
        "network.channel_us_per_pkt": per(channel_time, channel_packets, 1e6),
        "serve.transport_us_per_frame": per(total("LocalTransport.send"),
                                            frames, 1e6),
        "serve.queue_depth_peak": recorder.peaks["queue_depth"],
        "serve.ingest_us_per_delivery": per(own("StreamReceiver.ingest_wire"),
                                            deliveries, 1e6),
        "serve.close_block_us_per_receiver": per(
            total("ReceiverSession.close_block"), closes, 1e6),
        "serve.controller_us_per_block": per(
            total("AdaptiveController.observe"), blocks, 1e6),
        "serve.membership_ms_per_event": per(total(*MEMBERSHIP_SPANS),
                                             events, 1e3),
        "serve.barrier_wait_ms_per_block": per(
            total("ReceiverPool.wait_block"), blocks, 1e3),
        "simulation.verify_us_per_delivery": per(own("ChainReceiver.ingest"),
                                                 deliveries, 1e6),
        "simulation.verifier_entries": recorder.peaks["entries"],
        "simulation.hash_buffer_peak": recorder.peaks["hash_buffer"],
        "simulation.msg_buffer_peak": recorder.peaks["msg_buffer"],
        "design.lookup_us": per(total("DesignService.lookup"),
                                calls_of("DesignService.lookup"), 1e6),
        "design.inline_calls": (controller.inline_calls
                                if controller is not None else 0),
        "obs.health_us_per_block": per(total(*HEALTH_SPANS), blocks, 1e6),
        "obs.lifecycle_us_per_event": per(total("LifecycleTracer.record"),
                                          calls_of("LifecycleTracer.record"),
                                          1e6),
        "obs.lifecycle_events": calls_of("LifecycleTracer.record"),
        "obs.flush_ms": 1e3 * total(*FLUSH_SPANS),
    }
    for layer in CALL_LAYERS:
        values[f"{layer}.calls_per_delivery"] = per(calls.get(layer, 0),
                                                   profiled_deliveries)
    return values


def write_table(workload: str, recorder: SpanRecorder,
                values: Dict[str, float], baseline: str) -> str:
    """The per-layer table: span self time and counts, plus the metrics."""
    os.makedirs(OUT_DIR, exist_ok=True)
    table = recorder.summary()
    # An awaiting span's time is other tasks running, which their own
    # spans already count: it is shown but kept out of the shares.
    wall = sum(row["self"] for name, row in table.items()
               if name not in WAIT_SPANS) or 1.0
    lines = [f"# Traced run: {workload}", "", baseline, "",
             "| layer | span | calls | total ms | self ms | self share |",
             "|---|---|---:|---:|---:|---:|"]
    owners = {}
    for name in table:
        owners[name] = _span_layer(name)
    for name in sorted(table, key=lambda n: (owners[n], -table[n]["self"])):
        row = table[name]
        if not row["calls"]:
            continue
        share = ("(wait)" if name in WAIT_SPANS
                 else f"{row['self'] / wall:.1%}")
        lines.append(f"| {owners[name]} | {name} | {row['calls']} | "
                     f"{1e3 * row['total']:.1f} | {1e3 * row['self']:.1f} | "
                     f"{share} |")
    lines += ["", "| metric | value | unit |", "|---|---:|---|"]
    for name, unit in PER_LAYER.items():
        lines.append(f"| {name} | {values.get(name, 0.0):.6g} | {unit} |")
    path = os.path.join(OUT_DIR, f"{workload}-layers.md")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join(lines) + "\n")
    recorder.write(os.path.join(OUT_DIR, f"{workload}-spans.tsv.gz"))
    return path


_SPAN_LAYERS = {
    "RsaSigner": "crypto", "HmacStubSigner": "crypto",
    "HashFunction": "crypto", "Packet": "packets",
    "packet_from_wire": "packets", "Channel": "network",
    "AdversarialChannel": "faults", "LocalTransport": "serve",
    "StreamReceiver": "simulation", "ReceiverSession": "serve",
    "AdaptiveController": "serve", "ReceiverPool": "serve",
    "ChainReceiver": "simulation", "DesignService": "design",
    "HealthMonitor": "obs", "LifecycleTracer": "obs",
    "TimeseriesSampler": "obs",
}


def _span_layer(name: str) -> str:
    return _SPAN_LAYERS.get(name.split(".")[0], "schemes")


def _report(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------

def trace_serve(workload, seed: int, meter: SpeedMeter,
                scratch: str) -> Report:
    """Untraced, traced and profiled passes over one session each."""
    report = Report()
    run = serve.ServeRun(workload, seed, scratch)
    hooks = serve.ServeHooks(meter)
    sessions = []
    with Patches() as patches:
        hooks.install(patches, with_meter=False)
        baseline = serve.run_session(run, hooks, capture=True)
        report.failures += serve.check_session(workload, baseline)
        baseline.probe.pool = None
        sessions.append(baseline)
        recorder = SpanRecorder()
        with Patches() as traced:
            install_spans(traced, recorder)
            session = serve.run_session(run, hooks)
        sessions.append(session)
        calls = profiled_calls(lambda: profiled_session(run, hooks,
                                                        workload))
    report.attempted, report.failed = serve.operations(workload, sessions,
                                                       BlockFault())
    deliveries = sum(row["calls"] for name, row in recorder.summary().items()
                     if name == "StreamReceiver.ingest_wire")
    values = layer_metrics(recorder, len(session.probe.settled_at),
                           deliveries, calls, calls.pop(INGEST_CALLS))
    values["obs.artifact_bytes"] = session.artifact_bytes
    untraced = ((baseline.ended - baseline.probe.first_submit)
                / baseline.result.delivered)
    traced_cost = ((session.ended - session.probe.first_submit)
                   / session.result.delivered)
    values["trace.overhead_x"] = traced_cost / untraced
    write_table(workload.name, recorder, values,
                f"Untraced: {baseline.result.delivered / (baseline.ended - baseline.probe.first_submit):.0f} "
                f"authenticated pkts/s (raw wall time); traced pass "
                f"{values['trace.overhead_x']:.2f}x slower.")
    report.metrics = _report(values)
    return report


# ---------------------------------------------------------------------
# Trial kernel
# ---------------------------------------------------------------------

TRACE_ROUNDS = 40


def trace_trials(seed: int) -> Report:
    report = Report()
    cases = trials.build_cases(seed)
    samples: List[trials.TrialSample] = []
    traced: List[trials.TrialSample] = []
    recorder = SpanRecorder()
    # Alternate untraced and traced rounds, so both passes see the same
    # drift in host speed and their ratio is the tracing overhead.
    for index in range(TRACE_ROUNDS):
        samples += trials.run_rounds(cases, 0.0, len(cases), index)
        with Patches() as patches:
            install_spans(patches, recorder)
            traced += trials.run_rounds(cases, 0.0, len(cases), index)
    calls = profiled_calls(
        lambda: trials.run_rounds(cases, 0.0, TRACE_ROUNDS * len(cases)))
    failures, _ = trials.check_pass(cases, samples,
                                    trials.merged_by_case(cases, samples))
    report.failures += failures
    report.attempted = len(samples) + len(traced)
    report.failed = sum(sample.failed for sample in samples + traced)
    deliveries = sum(s.stats.sent - s.stats.dropped for s in traced)
    calls.pop(INGEST_CALLS, None)
    values = layer_metrics(recorder, len(traced), deliveries, calls,
                           deliveries)
    by_group: Dict[str, List[float]] = defaultdict(list)
    for sample in samples:
        by_group[cases[sample.case].group].append(sample.end - sample.start)
    for group, metric in (("passive", "simulation.passive_trial_ms"),
                          ("adversarial", "simulation.adversarial_trial_ms"),
                          ("tesla", "simulation.tesla_trial_ms"),
                          ("multicast", "simulation.multicast_trial_ms"),
                          ("topology", "topology.trial_ms")):
        times = by_group[group]
        values[metric] = 1e3 * sum(times) / len(times)
    untraced = sum(s.end - s.start for s in samples)
    values["trace.overhead_x"] = sum(s.end - s.start
                                     for s in traced) / untraced
    write_table("trial-kernel", recorder, values,
                f"Untraced: {len(samples)} trials in {untraced:.2f} s "
                f"(raw wall time); traced pass "
                f"{values['trace.overhead_x']:.2f}x slower.")
    report.metrics = _report(values)
    return report

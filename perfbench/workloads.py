"""The two workloads: set-up, correctness gates, timed phases.

Every workload follows the same order: set up (several times, for a
median ``setup_s``), check the answers against an in-process oracle,
then time.  A failed gate raises :class:`GateError` before any timing.
``run_churn`` and ``run_local`` return an :class:`Outcome` holding the
untimed facts (set-up times, gates), the timed phases, and — for a
traced run — the recorded spans.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import spans
from loadgen import PhaseResult, timed_call
from tier import StandIn, TierHost, leaked, measurement_network, pss_mib

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 15
BATCH = 64
#: Faults drawn for ``wire-churn``; each is failed and then recovered.
CHURN_FAULTS = 8
#: Pairs compared against the degraded oracle after every gate patch.
CHURN_SAMPLE = 32
#: Requests in the ``local-provision`` trace, offered load in Erlangs.
PROVISION_REQUESTS = 400
PROVISION_LOAD = 40.0
#: Socket timeout of each frame exchange; a stuck tier fails the run.
FRAME_TIMEOUT = 30.0


class GateError(RuntimeError):
    """A correctness gate failed; the run must not report numbers."""


@dataclass(frozen=True)
class Shape:
    """How a workload's timed phases become its end-to-end metrics."""

    #: The phase whose samples give the latency metrics and whose
    #: completions give throughput, and queries per completion in it.
    phase: str
    per_op: int
    #: Equal time windows per phase: as many as leave each window at
    #: least 10 samples beyond its 90th percentile.
    windows: int


SHAPES = {
    "wire-churn": Shape("batches", BATCH, 6),
    "local-provision": Shape("simulation", 1, 20),
}


@dataclass
class Outcome:
    """Everything one workload run measured."""

    shape: Shape
    setup_s: list[float] = field(default_factory=list)
    gates: dict[str, Any] = field(default_factory=dict)
    phases: dict[str, PhaseResult] = field(default_factory=dict)
    pss_mib: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)
    #: Traced runs only: spans per process and the traced phase window.
    spans: dict[str, Any] = field(default_factory=dict)


def same_path(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.hops == b.hops and a.total_cost == b.total_cost


def _oracle_paths(network) -> dict:
    from repro.core.routing import LiangShenRouter

    return LiangShenRouter(network).route_all_pairs().paths


def _all_pairs(network) -> list[tuple[Any, Any]]:
    nodes = list(network.nodes())
    return [(s, t) for s in nodes for t in nodes if s != t]


def _batches(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _batch_source(pairs: list, seed: int) -> Callable[[], list]:
    rng = random.Random(seed)
    return lambda: [pairs[rng.randrange(len(pairs))] for _ in range(BATCH)]


# -- wire-churn: the served tier ----------------------------------------------


class WireSession:
    """One booted tier plus the generator's frontend over it."""

    def __init__(self, host: TierHost, oracle: dict, probe: tuple) -> None:
        from repro.cluster.frontend import FrontendRouter

        self.host = host
        self.info = host.boot()
        self.standin = StandIn(self.info["addresses"])
        self.frontend = FrontendRouter(self.standin, timeout=FRAME_TIMEOUT)
        path = self.frontend.route(*probe)
        if not same_path(path, oracle.get(probe)):
            raise GateError(f"first answer for {probe} differs from the oracle")
        self.setup_s = (time.monotonic_ns() - self.info["t0_ns"]) / 1e9

    def clients(self) -> list[list[Any]]:
        from repro.server.client import RouterClient

        return [
            [RouterClient(a, timeout=FRAME_TIMEOUT) for a in row]
            for row in self.info["addresses"]
        ]

    def close(self) -> None:
        self.frontend.close()
        self.host.close_tier()
        residue = leaked(self.info["segments"])
        if residue:
            raise GateError(f"segments left in /dev/shm after close: {residue}")


def _gate_wire(session: WireSession, oracle: dict, pairs: list) -> dict[str, int]:
    """Placement parity, then all pairs at every replica and via the
    frontend; also leaves every replica's forests warm."""
    placement = session.info["placement"]
    misplaced = sum(
        1 for node, shard in placement.items() if session.standin.shard_for(node) != shard
    )
    mismatches = checked = 0
    clients = session.clients()
    try:
        for shard, row in enumerate(clients):
            mine = [p for p in pairs if placement[p[0]] == shard]
            for client in row:
                for chunk in _batches(mine, BATCH):
                    for pair, path in zip(chunk, client.route_batch(chunk)):
                        checked += 1
                        mismatches += not same_path(path, oracle.get(pair))
    finally:
        for row in clients:
            for client in row:
                client.close()
    for chunk in _batches(pairs, BATCH):
        for pair, path in zip(chunk, session.frontend.route_batch(chunk)):
            checked += 1
            mismatches += not same_path(path, oracle.get(pair))
    if misplaced or mismatches:
        raise GateError(
            f"wire gate: {misplaced} misplaced nodes, {mismatches} of "
            f"{checked} answers differ from the oracle"
        )
    return {"placement_checked": len(placement), "answers_checked": checked}


@dataclass
class Fault:
    fail_event: Any
    recover_event: Any
    fail_ops: list
    recover_ops: list


def _faults(network, seed: int) -> list[Fault]:
    from repro.cluster.chaos import event_to_patch_ops
    from repro.faults.plan import generate_plan

    plan = generate_plan(
        network, seed=seed, num_faults=CHURN_FAULTS, kinds=("link", "channel", "converter")
    )
    faults = []
    for event in plan.events:
        if not event.kind.endswith("_fail"):
            continue
        recover = dataclasses.replace(event, kind=event.kind.replace("_fail", "_recover"))
        faults.append(
            Fault(
                event,
                recover,
                event_to_patch_ops(network, event),
                event_to_patch_ops(network, recover),
            )
        )
    return faults


def _delta_epochs(session: WireSession) -> list[int]:
    clients = session.clients()
    try:
        return [c.snapshot()["delta_epoch"] for row in clients for c in row]
    finally:
        for row in clients:
            for client in row:
                client.close()


def _gate_churn(
    session: WireSession, network, oracle: dict, pairs: list, faults: list[Fault], seed: int
) -> dict[str, int]:
    """Every fail and recover of one cycle, each checked against a fresh
    router on that fault state's network, with replica epochs equal."""
    from repro.core.routing import LiangShenRouter
    from repro.exceptions import NoPathError
    from repro.faults.injector import FaultInjector

    injector = FaultInjector(network)
    rng = random.Random(seed)
    mismatches = checked = diverged = 0
    for fault in faults:
        for event, ops in (
            (fault.fail_event, fault.fail_ops),
            (fault.recover_event, fault.recover_ops),
        ):
            session.frontend.patch(ops)
            injector.apply(event)
            epochs = _delta_epochs(session)
            diverged += len(set(epochs)) != 1
            fresh = LiangShenRouter(injector.network_view())
            sample = [pairs[rng.randrange(len(pairs))] for _ in range(CHURN_SAMPLE)]
            for pair, path in zip(sample, session.frontend.route_batch(sample)):
                try:
                    expected = fresh.route(*pair).path
                except NoPathError:
                    expected = None
                checked += 1
                mismatches += not same_path(path, expected)
    if not injector.pristine:
        raise GateError("churn cycle did not return to the pristine network")
    if mismatches or diverged:
        raise GateError(
            f"churn gate: {mismatches} of {checked} answers differ from the "
            f"degraded oracle; {diverged} patches left replica epochs unequal"
        )
    # Back on the pristine network: re-warm and re-check every pair.
    _gate_wire(session, oracle, pairs)
    return {"churn_answers_checked": checked, "churn_patches": 2 * len(faults)}


def _phase_churn(
    frontend, pairs: list, faults: list[Fault], seed: int, seconds: float
) -> dict[str, PhaseResult]:
    """One caller: patch, batch, patch, batch … — every fail is followed
    by its recover, and the loop stops only on the pristine network."""
    batches = PhaseResult()
    patches = PhaseResult()
    next_batch = _batch_source(pairs, seed * 100 + 1)

    start = time.monotonic()
    deadline = start + seconds
    index = 0
    while time.monotonic() < deadline:
        fault = faults[index % len(faults)]
        index += 1
        for ops in (fault.fail_ops, fault.recover_ops):
            timed_call(frontend.patch, ops, patches)
            timed_call(frontend.route_batch, next_batch(), batches)
    batches.slices = [(start, time.monotonic())]
    patches.slices = list(batches.slices)
    return {"batches": batches, "patches": patches}


def _gossip_counts(session: WireSession) -> dict[str, int]:
    clients = session.clients()
    totals = {"forwarded": 0, "failed": 0, "duplicates": 0}
    try:
        for row in clients:
            for client in row:
                gossip = client.stats()["gossip"]
                for key in totals:
                    totals[key] += gossip[key]
    finally:
        for row in clients:
            for client in row:
                client.close()
    return totals


def _post_check(session: WireSession, oracle: dict, pairs: list, seed: int) -> None:
    """After timing the tier must still agree with the oracle."""
    epochs = _delta_epochs(session)
    rng = random.Random(seed + 1)
    sample = [pairs[rng.randrange(len(pairs))] for _ in range(4 * BATCH)]
    bad = sum(
        not same_path(path, oracle.get(pair))
        for chunk in _batches(sample, BATCH)
        for pair, path in zip(chunk, session.frontend.route_batch(chunk))
    )
    if bad or len(set(epochs)) != 1:
        raise GateError(
            f"after timing: {bad} answers differ, replica delta epochs {epochs}"
        )


def run_churn(seed: int, seconds: float, traced: bool, run_dir: str) -> Outcome:
    network = measurement_network()
    oracle = _oracle_paths(network)
    pairs = _all_pairs(network)
    faults = _faults(network, seed)
    probe = random.Random(seed).choice(pairs)
    out = Outcome(SHAPES["wire-churn"])
    measure_s = seconds / 2 if traced else seconds

    # Set-up is timed in a host of its own, so the measured tier runs in
    # a fresh host process that no earlier boot has left memory in.
    with TierHost(os.path.join(run_dir, "setup")) as host:
        for _ in range(SETUPS):
            session = WireSession(host, oracle, probe)
            out.setup_s.append(session.setup_s)
            session.close()

    def boot_gate_and_time(host: TierHost, phase_s: float):
        session = WireSession(host, oracle, probe)
        try:
            out.gates.update(_gate_wire(session, oracle, pairs))
            out.gates.update(_gate_churn(session, network, oracle, pairs, faults, seed))
            t0 = time.monotonic_ns()
            result = _phase_churn(session.frontend, pairs, faults, seed, phase_s)
            t1 = time.monotonic_ns()
            pss = pss_mib(session.info["pids"])
            _post_check(session, oracle, pairs, seed)
            gossip = _gossip_counts(session)
            metrics = session.frontend.metrics.snapshot()
        finally:
            session.close()
        return result, (t0, t1), pss, gossip, metrics

    with TierHost(os.path.join(run_dir, "untraced")) as host:
        out.phases, _window, out.pss_mib, gossip, fmetrics = boot_gate_and_time(
            host, measure_s
        )
    out.extra.update(gossip=gossip, frontend=fmetrics)
    if traced:
        recorder = spans.Recorder()
        spans.install_generator(recorder)
        with TierHost(os.path.join(run_dir, "traced"), traced=True) as host:
            t_phases, window, _pss, t_gossip, t_fmetrics = boot_gate_and_time(
                host, measure_s
            )
            host_spans = host.host_spans()
            host.stop()
            workers = host.worker_spans()
        out.spans = {
            "generator": recorder.dump(),
            "host": host_spans,
            "workers": workers,
            "window": window,
            "phases": t_phases,
            "gossip": t_gossip,
            "frontend": t_fmetrics,
        }
    return out


# -- in-process provisioning --------------------------------------------------


class _Recording:
    """Duck-typed provisioner that times each arrival and keeps outcomes."""

    def __init__(self, provisioner) -> None:
        self.provisioner = provisioner
        self.phase = PhaseResult()
        self.outcomes: list[Any] = []

    def try_establish(self, source, target):
        t0 = time.monotonic()
        connection = self.provisioner.try_establish(source, target)
        finished = time.monotonic()
        self.phase.attempted += 1
        self.phase.record(finished - t0, finished)
        self.outcomes.append(
            None if connection is None else (connection.path.hops, connection.path.total_cost)
        )
        return connection

    def teardown(self, connection) -> None:
        self.provisioner.teardown(connection)


def _simulate(network, trace_requests, service: bool):
    from repro.wdm.provisioning import SemilightpathProvisioner
    from repro.wdm.simulation import DynamicSimulation

    provisioner = SemilightpathProvisioner(network)
    svc = provisioner.attach_service() if service else None
    recording = _Recording(provisioner)
    try:
        stats = DynamicSimulation(recording).run(trace_requests)
        counters = svc.metrics_snapshot() if svc is not None else {}
    finally:
        if svc is not None:
            svc.close()
    return recording, stats, counters


def run_local(seed: int, seconds: float, traced: bool) -> Outcome:
    from repro.core.routing import LiangShenRouter
    from repro.wdm.provisioning import SemilightpathProvisioner
    from repro.wdm.traffic import TrafficGenerator

    network = measurement_network()
    requests = TrafficGenerator(
        network.nodes(), PROVISION_LOAD, 1.0, seed=seed
    ).generate(PROVISION_REQUESTS)
    probe = random.Random(seed).choice(_all_pairs(network))
    expected = LiangShenRouter(network).route(*probe).path
    out = Outcome(SHAPES["local-provision"])

    for _ in range(SETUPS):
        t0 = time.monotonic_ns()
        provisioner = SemilightpathProvisioner(network)
        svc = provisioner.attach_service()
        try:
            if not same_path(svc.route(*probe), expected):
                raise GateError(f"first provisioning answer for {probe} is wrong")
            out.setup_s.append((time.monotonic_ns() - t0) / 1e9)
        finally:
            svc.close()

    reference, ref_stats, _c = _simulate(network, requests, service=False)
    served, served_stats, _c = _simulate(network, requests, service=True)
    if served.outcomes != reference.outcomes or served_stats.blocked != ref_stats.blocked:
        diff = sum(a != b for a, b in zip(served.outcomes, reference.outcomes))
        raise GateError(
            f"service-backed provisioning differs from the plain provisioner on "
            f"{diff} of {len(requests)} requests"
        )
    out.gates.update(
        requests_checked=len(requests), admitted=ref_stats.admitted, blocked=ref_stats.blocked
    )
    out.extra["blocking_ratio"] = ref_stats.blocking_probability

    def timed_reps(phase_s: float) -> tuple[PhaseResult, dict]:
        """Replay the trace on fresh service-backed provisioners until
        *phase_s* has passed; every replay must match the reference.

        The replays run in one thread, and the CPUs of a shared virtual
        machine can differ in speed by over half for seconds at a time,
        so successive replays take turns on each CPU the run may use.
        """
        phase = PhaseResult()
        counters: dict[str, int] = {}
        cpus = sorted(os.sched_getaffinity(0))
        replays = 0
        start = time.monotonic()
        try:
            while time.monotonic() - start < phase_s:
                os.sched_setaffinity(0, {cpus[replays % len(cpus)]})
                replays += 1
                recording, _stats, snap = _simulate(network, requests, service=True)
                if recording.outcomes != reference.outcomes:
                    raise GateError("a timed provisioning run admitted different paths")
                phase.merge(recording.phase)
                for key, value in snap.items():
                    if isinstance(value, int):
                        counters[key] = counters.get(key, 0) + value
        finally:
            os.sched_setaffinity(0, cpus)
        phase.slices = [(start, time.monotonic())]
        return phase, counters

    measure_s = seconds / 2 if traced else seconds
    out.phases["simulation"], out.extra["cache"] = timed_reps(measure_s)
    out.pss_mib = pss_mib([os.getpid()])
    if traced:
        recorder = spans.Recorder()
        spans.install_local(recorder)
        t0 = time.monotonic_ns()
        t_phase, t_counters = timed_reps(measure_s)
        out.spans = {
            "generator": recorder.dump(),
            "window": (t0, time.monotonic_ns()),
            "phases": {"simulation": t_phase},
            "cache": t_counters,
        }
    return out

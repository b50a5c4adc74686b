"""The serving tier in its own process, and the generator's view of it.

The tier host is a spawned process that owns a ``ShardManager``; the
generator process talks to it over a pipe for control (boot, close,
counters, spans) and over the tier's own sockets for traffic.  Keeping
the tier out of the generator's process keeps the two from sharing one
interpreter lock, which otherwise swings the tier's latency with the
generator's own load.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import tempfile
import time
from typing import Any, Hashable

from repro.cluster.ring import HashRing

#: Tier shape of ``wire-churn``: the smallest shape that
#: exercises placement, replica rotation and gossip.
SHARDS = 2
REPLICAS = 2
WORKERS = 1
VNODES = 64

NodeId = Hashable


def measurement_network():
    """The ROADMAP measurement network: 32 nodes, 4 wavelengths, seed 7."""
    from repro.topology.generators import degree_bounded_network

    return degree_bounded_network(32, 4, seed=7)


class StandIn:
    """What ``FrontendRouter`` reads from a tier, rebuilt in the generator.

    The ring is blake2b-deterministic, so this copy places every source
    on the same shard as the host's ``ShardManager`` (a gate checks it).
    """

    def __init__(self, addresses: list[list[Any]]) -> None:
        self.num_shards = len(addresses)
        self.num_replicas = len(addresses[0])
        self._addresses = addresses
        self.ring = HashRing(range(self.num_shards), vnodes=VNODES)

    def replica_addresses(self, shard: int) -> list[Any]:
        return list(self._addresses[shard])

    def shard_for(self, source: NodeId) -> int:
        return self.ring.shard_for(source)


def _host_main(conn, run_dir: str, traced: bool) -> None:
    """Tier host body: serve control commands until ``exit``."""
    from repro.cluster.shards import ShardManager

    # Unix sockets go under the run directory (relative, so the path
    # stays short) instead of the system temp directory.
    tempfile.tempdir = run_dir
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder()
        spans.install_host(recorder, worker_dump_dir=run_dir)
    network = measurement_network()
    manager = None
    try:
        while True:
            command, _arg = conn.recv()
            if command == "boot":
                t0 = time.monotonic_ns()
                manager = ShardManager(
                    network,
                    shards=SHARDS,
                    replicas=REPLICAS,
                    workers=WORKERS,
                    heap="flat",
                    vnodes=VNODES,
                )
                manager.start()
                conn.send(
                    {
                        "t0_ns": t0,
                        "addresses": [
                            manager.replica_addresses(s) for s in range(SHARDS)
                        ],
                        "placement": {
                            node: manager.shard_for(node) for node in network.nodes()
                        },
                        "segments": manager.segment_names(),
                        "pids": [os.getpid()]
                        + [
                            pid
                            for server in manager.all_servers()
                            for pid in server.worker_pids()
                        ],
                    }
                )
            elif command == "close":
                manager.close()
                manager = None
                conn.send({"closed": True})
            elif command == "spans":
                conn.send(recorder.dump() if recorder is not None else None)
            elif command == "exit":
                conn.send({"exited": True})
                return
    finally:
        # Also reached when the generator dies and the pipe breaks: the
        # tier's workers and shared segments must not outlive the host.
        if manager is not None:
            manager.close()


class TierHost:
    """Generator-side handle on one tier host process.

    ``traced`` installs the span recorder in the host before any tier
    boots, so the tier's forked workers inherit it.
    """

    def __init__(self, run_dir: str, traced: bool = False) -> None:
        os.makedirs(run_dir, exist_ok=True)
        self.run_dir = run_dir
        self._stopped = False
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_host_main, args=(child, run_dir, traced), name="tier-host"
        )
        self._proc.start()
        child.close()

    def _ask(self, command: str, arg: Any = None, timeout: float = 60.0) -> Any:
        self._conn.send((command, arg))
        if not self._conn.poll(timeout):
            raise TimeoutError(f"tier host did not answer {command!r}")
        return self._conn.recv()

    def boot(self) -> dict[str, Any]:
        return self._ask("boot")

    def close_tier(self) -> None:
        self._ask("close")

    def host_spans(self) -> dict[str, Any] | None:
        return self._ask("spans")

    def worker_spans(self) -> list[dict[str, Any]]:
        """Span dumps the tier's workers left behind when they exited."""
        dumps = []
        for name in sorted(os.listdir(self.run_dir)):
            if name.startswith("worker-") and name.endswith(".pkl"):
                # Written by this benchmark's own worker processes.
                with open(os.path.join(self.run_dir, name), "rb") as fh:
                    dumps.append(pickle.load(fh))
        return dumps

    def stop(self) -> None:
        """Close any tier, end the host process, and wait for it."""
        if self._stopped:
            return
        self._stopped = True
        if self._proc.is_alive():
            try:
                self._ask("exit", timeout=30.0)
            except (TimeoutError, OSError, EOFError):
                pass
        self._proc.join(timeout=30.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10.0)
        self._conn.close()

    def __enter__(self) -> "TierHost":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def pss_mib(pids: list[int]) -> float:
    """Summed proportional set size of *pids*, in MiB."""
    total_kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0


def leaked(segments: list[str]) -> list[str]:
    """The run's own segments still present in ``/dev/shm``."""
    return [name for name in segments if os.path.exists(f"/dev/shm/{name}")]

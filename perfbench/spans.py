"""Span recording around the program's public functions.

The benchmark records spans from its own files: each installer below
replaces a public function or method of the program with a wrapper that
times the call and keeps ``(thread, start_ns, end_ns, extra)`` in a
:class:`Recorder`.  Spans stay in memory until the run ends.  Times are
``CLOCK_MONOTONIC`` nanoseconds, which every process on the machine
shares, so spans from the generator, the tier host and the tier's
workers can be compared directly.

Three processes record:

* the generator (:func:`install_generator`) — frontend, client and the
  client half of the frame codec;
* the tier host (:func:`install_host`) — frame reads and writes of the
  handler threads, gossip forwards, the delta overlay, the seqlock
  bracket, and the ``G_all`` build/publish/attach;
* the tier's workers, which the server forks from the host and which
  therefore inherit the host's wrappers: stable reads, forest builds
  and decodes, and path encoding.  A worker resets the inherited spans
  on its first attach and writes its own to a file when it exits.

The in-process provisioning workload uses :func:`install_local`.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from typing import Any, Callable

now = time.monotonic_ns
_ident = threading.get_ident


class Recorder:
    """Spans of one process, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def add(self, name: str, tid: int, t0: int, t1: int, extra: Any = None) -> None:
        # list.append is atomic under the interpreter lock, so handler
        # threads may record concurrently.
        self.spans.setdefault(name, []).append((tid, t0, t1, extra))

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: dict[str, list[tuple[int, int, int, Any]]] = {}

    def dump(self) -> dict[str, Any]:
        return {"pid": self.pid, "spans": self.spans}


def _wrap(
    owner: Any,
    attr: str,
    recorder: Recorder,
    name: str,
    extra: Callable[[tuple, Any], Any] | None = None,
) -> None:
    """Replace ``owner.attr`` with a wrapper recording one span per call."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        t0 = now()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            t1 = now()
            recorder.add(
                name,
                _ident(),
                t0,
                t1,
                extra(args, result) if extra is not None and result is not None else None,
            )

    setattr(owner, attr, wrapper)


def _frame_size(_args: tuple, frame: bytes) -> int:
    return len(frame)


def install_generator(recorder: Recorder) -> None:
    """Wrap the frontend, the client and the client-side codec."""
    from repro.cluster.frontend import FrontendRouter
    from repro.server import protocol
    from repro.server.client import RouterClient

    for method in ("route", "route_batch"):
        _wrap(FrontendRouter, method, recorder, "frontend.call")
        _wrap(
            RouterClient,
            method,
            recorder,
            "client.call",
            # The replica's address ties the call to the host's spans.
            extra=lambda args, _r: getattr(args[0], "_address", None),
        )
    _wrap(FrontendRouter, "patch", recorder, "frontend.patch")
    _wrap(protocol, "encode_frame", recorder, "codec.encode_frame", _frame_size)
    _wrap(protocol, "decode_path", recorder, "codec.decode_path")


def install_host(recorder: Recorder, worker_dump_dir: str) -> None:
    """Wrap the tier host's layers, and the worker layers its forks inherit."""
    from multiprocessing import util

    from repro.core import forest
    from repro.core.forest import LazyForest
    from repro.server import protocol
    from repro.server import server as server_mod
    from repro.server.client import RouterClient
    from repro.shortestpath.delta import DeltaOverlay
    from repro.shortestpath.shared import SharedCSR

    local = threading.local()

    # -- handler threads: resident time from request read to reply write --
    read_frame = protocol.read_frame
    send_frame = protocol.send_frame

    def traced_read_frame(sock):
        frame = read_frame(sock)
        if frame is not None and not getattr(local, "gossip", 0):
            local.read_end = now()
            local.request = (sock.getsockname(), int(frame[0]))
        return frame

    def traced_send_frame(sock, op, payload=None):
        if not getattr(local, "gossip", 0):
            read_end = getattr(local, "read_end", None)
            if read_end is not None:
                recorder.add("server.resident", _ident(), read_end, now(), local.request)
                local.read_end = None
        return send_frame(sock, op, payload)

    protocol.read_frame = traced_read_frame
    protocol.send_frame = traced_send_frame
    _wrap(protocol, "encode_frame", recorder, "codec.encode_frame", _frame_size)

    # -- gossip: replica-to-replica PATCH forwards --
    patch = RouterClient.patch

    @functools.wraps(patch)
    def traced_patch(self, ops, **kwargs):
        local.gossip = getattr(local, "gossip", 0) + 1
        t0 = now()
        try:
            return patch(self, ops, **kwargs)
        finally:
            recorder.add("gossip.forward", _ident(), t0, now())
            local.gossip -= 1

    RouterClient.patch = traced_patch

    # -- delta overlay and the seqlock bracket around each patch --
    for method in (
        "fail_channel",
        "recover_channel",
        "fail_link",
        "recover_link",
        "fail_converter",
        "recover_converter",
    ):
        _wrap(
            DeltaOverlay, method, recorder, "delta.op",
            extra=lambda _a, slots: len(slots),
        )
    begin_patch = SharedCSR.begin_patch
    end_patch = SharedCSR.end_patch

    @functools.wraps(begin_patch)
    def traced_begin(self):
        local.patch_t0 = now()
        return begin_patch(self)

    @functools.wraps(end_patch)
    def traced_end(self):
        result = end_patch(self)
        recorder.add("shared.patch", _ident(), local.patch_t0, now())
        return result

    SharedCSR.begin_patch = traced_begin
    SharedCSR.end_patch = traced_end

    # -- G_all build and publication (host), attach (host and workers) --
    _wrap(server_mod, "build_all_pairs_graph", recorder, "aux.build")
    _wrap(server_mod, "share_all_pairs_graph", recorder, "shared.publish")
    attach = server_mod.attach_all_pairs_graph

    def dump_worker() -> None:
        path = os.path.join(worker_dump_dir, f"worker-{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(recorder.dump(), fh)

    @functools.wraps(attach)
    def traced_attach(shared):
        if recorder.pid != os.getpid():
            # First call in a freshly forked worker: drop the host spans
            # the fork copied, and write this worker's own at its exit.
            recorder.reset()
            util.Finalize(None, dump_worker, exitpriority=100)
        t0 = now()
        aux = attach(shared)
        recorder.add("shared.attach", _ident(), t0, now())
        return aux

    server_mod.attach_all_pairs_graph = traced_attach

    # -- worker: stable reads, forests, path encoding --
    read_stable = SharedCSR.read_stable

    @functools.wraps(read_stable)
    def traced_read_stable(self, fn, *args, **kwargs):
        calls = [0]

        def counted():
            calls[0] += 1
            return fn()

        t0 = now()
        try:
            return read_stable(self, counted, *args, **kwargs)
        finally:
            # More than one call of *fn* means a patch raced the read.
            recorder.add("worker.busy", _ident(), t0, now(), calls[0])

    SharedCSR.read_stable = traced_read_stable
    _wrap(
        forest, "run_forest", recorder, "forest.build",
        extra=lambda _a, f: (f.run.settled, f.run.relaxations),
    )
    path_to = LazyForest.path_to

    @functools.wraps(path_to)
    def traced_path_to(self, target):
        before = self.decoded_targets
        t0 = now()
        path = path_to(self, target)
        # Extra: whether this call decoded (grew the memo) or hit it.
        recorder.add("forest.path_to", _ident(), t0, now(), self.decoded_targets > before)
        return path

    LazyForest.path_to = traced_path_to
    _wrap(protocol, "encode_path", recorder, "codec.encode_path")


def install_local(recorder: Recorder) -> None:
    """Wrap the provisioning, service, cache and ``G_all`` layers."""
    from repro.core import routing
    from repro.service.service import RoutingService
    from repro.wdm.provisioning import SemilightpathProvisioner

    _wrap(SemilightpathProvisioner, "establish", recorder, "provision.establish")
    _wrap(SemilightpathProvisioner, "teardown", recorder, "provision.teardown")
    _wrap(RoutingService, "route", recorder, "service.route")
    _wrap(routing, "build_all_pairs_graph", recorder, "aux.build")
    _wrap(routing, "run_tree", recorder, "cache.tree_build")

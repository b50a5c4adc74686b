"""Per-layer metrics derived from a traced run's spans.

Every metric the spec lists is returned for every workload; a layer the
workload does not run reports 0 (see README.md for which workload moves
which metric).  Spans are clipped to the traced phase's window, except
the one-off set-up spans (``G_all`` build, publish, attach), which
happen before it.
"""

from __future__ import annotations

from statistics import fmean, median

from stats import TAIL_Q, nested, self_times, tail_at

ROUTE_OPS = (1, 2)  # ROUTE and ROUTE_BATCH opcodes: requests that reach a worker


def _in(spans: dict, name: str, window) -> list:
    lo, hi = window
    return [s for s in spans.get(name, ()) if s[1] >= lo and s[2] <= hi]


def _all(spans: dict, name: str) -> list:
    return list(spans.get(name, ()))


def _dur(spans: list) -> list[int]:
    return [s[2] - s[1] for s in spans]


def _p50(values, scale: float = 1.0) -> float:
    return median(values) / scale if values else 0.0


def _mean(values, scale: float = 1.0) -> float:
    return fmean(values) / scale if values else 0.0


def _triples(spans: list) -> list[tuple[int, int, int]]:
    return [(s[0], s[1], s[2]) for s in spans]


def _merge(dumps: list[dict | None]) -> dict[str, list]:
    merged: dict[str, list] = {}
    for dump in dumps:
        if dump is None:
            continue
        for name, spans in dump["spans"].items():
            merged.setdefault(name, []).extend(spans)
    return merged


def _client_self(client: list, net: list[float], resident: list) -> list[float]:
    """Per client call: *net* (RTT minus its codec spans) minus the one
    server residency nested inside it on the same replica (ns).

    Calls whose server residency cannot be matched to exactly one span
    (two callers on one replica at once) are left out.
    """
    inner = nested(
        [(addr, a, b) for _tid, a, b, addr in client],
        [(addr, a, b) for _tid, a, b, (addr, _op) in resident],
    )
    return [
        rest - (inside[0][1] - inside[0][0])
        for rest, inside in zip(net, inner)
        if len(inside) == 1
    ]


def _zeros(names) -> dict[str, float]:
    return {name: 0 for name in names}


def wire_layers(names, traced: dict, queries: int, patches: int) -> dict[str, float]:
    """Metrics of the frontend, client, codec, server, worker, forest,
    kernel, delta, shared-segment and gossip layers."""
    out = _zeros(names)
    window = traced["window"]
    gen = traced["generator"]["spans"]
    host = traced["host"]["spans"]
    workers = _merge(traced["workers"])

    calls = _in(gen, "frontend.call", window)
    client = [s for s in _in(gen, "client.call", window) if s[3] is not None]
    codec = _in(gen, "codec.encode_frame", window) + _in(gen, "codec.decode_path", window)
    resident = [s for s in _in(host, "server.resident", window) if s[3][1] in ROUTE_OPS]
    busy = _in(workers, "worker.busy", window)
    frames = _in(gen, "codec.encode_frame", window) + _in(host, "codec.encode_frame", window)

    frontend_self = self_times(_triples(calls), _triples(client))
    client_net = self_times(_triples(client), _triples(codec))
    client_self = _client_self(client, client_net, resident)
    out.update(
        {
            "frontend.self_us_p50": _p50(frontend_self, 1e3),
            "frontend.frames_per_call": len(client) / len(calls) if calls else 0,
            "frontend.failovers": traced["frontend"].get("frontend.failovers", 0),
            "frontend.shed": traced["frontend"].get("frontend.shed", 0),
            "client.rtt_us_p50": _p50(_dur(client), 1e3),
            "client.rtt_us_p90": tail_at(_dur(client), TAIL_Q, "client calls") / 1e3,
            "client.self_us_p50": _p50(client_self, 1e3),
            "protocol.encode_frame_us_p50": _p50(_dur(frames), 1e3),
            "protocol.frame_bytes_p50": _p50([s[3] for s in frames if s[3] is not None]),
            "protocol.encode_path_us": _mean(_dur(_in(workers, "codec.encode_path", window)), 1e3),
            "protocol.decode_path_us": _mean(_dur(_in(gen, "codec.decode_path", window)), 1e3),
            "server.resident_us_p50": _p50(_dur(resident), 1e3),
            "server.handoff_us": (_mean(_dur(resident)) - _mean(_dur(busy))) / 1e3,
            "worker.busy_us_p50": _p50(_dur(busy), 1e3),
            "worker.read_retries": sum(s[3] - 1 for s in busy),
        }
    )

    builds = _in(workers, "forest.build", window)
    lookups = _in(workers, "forest.path_to", window)
    decodes = [s for s in lookups if s[3]]
    out.update(
        {
            "forest.builds_per_kquery": 1000.0 * len(builds) / queries if queries else 0,
            "forest.hit_ratio": 1.0 - len(builds) / len(lookups) if lookups else 0,
            "forest.build_ms_p50": _p50(_dur(builds), 1e6),
            "forest.decode_us_p50": _p50(_dur(decodes), 1e3),
            "kernel.settled_per_run": _mean([s[3][0] for s in builds]),
            "kernel.relaxations_per_run": _mean([s[3][1] for s in builds]),
        }
    )

    ops = _in(host, "delta.op", window)
    forwards = _in(host, "gossip.forward", window)
    traced["samples"] = {
        "frontend.call": len(calls),
        "client.call": len(client),
        "server.resident": len(resident),
        "worker.busy": len(busy),
        "forest.build": len(builds),
    }
    out.update(
        {
            "delta.op_us_p50": _p50(_dur(ops), 1e3),
            "delta.slots_per_op": _mean([s[3] for s in ops if s[3] is not None]),
            "shared.patch_us_p50": _p50(_dur(_in(host, "shared.patch", window)), 1e3),
            "shared.publish_ms": _p50(_dur(_all(host, "shared.publish")), 1e6),
            "shared.attach_ms": _p50(_dur(_all(workers, "shared.attach")), 1e6),
            "gossip.forward_us_p50": _p50(_dur(forwards), 1e3),
            "gossip.forwards_per_patch": len(forwards) / patches if patches else 0,
            "gossip.failed": traced["gossip"]["failed"],
            "gossip.duplicates": traced["gossip"]["duplicates"],
            "aux.build_ms_p50": _p50(_dur(_all(host, "aux.build")), 1e6),
            "aux.builds_per_request": len(_in(host, "aux.build", window)) / queries if queries else 0,
        }
    )
    return out


def local_layers(names, traced: dict, requests: int) -> dict[str, float]:
    """Metrics of the provisioning, service-cache and ``G_all`` layers."""
    out = _zeros(names)
    window = traced["window"]
    gen = traced["generator"]["spans"]
    cache = traced["cache"]
    establish = _in(gen, "provision.establish", window)
    routes = _in(gen, "service.route", window)
    aux = _in(gen, "aux.build", window)
    hits, misses = cache.get("cache.hits", 0), cache.get("cache.misses", 0)
    kept, dropped = cache.get("cache.trees_kept", 0), cache.get("cache.trees_dropped", 0)
    out.update(
        {
            "provision.establish_self_us_p50": _p50(
                self_times(_triples(establish), _triples(routes)), 1e3
            ),
            "provision.teardown_us_p50": _p50(_dur(_in(gen, "provision.teardown", window)), 1e3),
            "aux.build_ms_p50": _p50(_dur(aux), 1e6),
            "aux.builds_per_request": len(aux) / requests if requests else 0,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0,
            "cache.trees_kept_ratio": kept / (kept + dropped) if kept + dropped else 0,
            "cache.rebuilds_per_request": cache.get("cache.rebuilds", 0) / requests
            if requests
            else 0,
            "cache.tree_build_us_p50": _p50(_dur(_in(gen, "cache.tree_build", window)), 1e3),
        }
    )
    return out

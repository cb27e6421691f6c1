"""Per-layer metrics from the spans of one traced window.

A layer's time is its self time: span duration minus the durations of
its direct child spans.  Every ratio is taken over the operations the
client completed in the traced window (a batch of k counts as k), over
the transformations a shard ran, or over the writes (grants and
revokes) the client sent, as each metric's name says.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from loadgen import Window, percentile, sliced_p99
from spans import COUNT, END, NAME, PARENT, SPAN_ID, START

# Client spans that are the request itself rather than a layer under it.
CLIENT_FRAME = ("client.call", "wire.exchange")


@dataclass
class Tally:
    calls: int = 0
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


def tally(records: list[list], t0: float, t1: float) -> tuple[dict[str, Tally], float]:
    """Per-name tallies of the records that started in ``[t0, t1]``.

    Also returns the summed duration of root spans (spans without a
    parent), which on the server is the time spent inside the request
    entry or the event-loop framing around it.
    """
    child_s: dict[int, float] = defaultdict(float)
    for record in records:
        if record[PARENT]:
            child_s[record[PARENT]] += record[END] - record[START]
    tallies: dict[str, Tally] = defaultdict(Tally)
    root_s = 0.0
    for record in records:
        if not t0 <= record[START] <= t1:
            continue
        duration = record[END] - record[START]
        entry = tallies[record[NAME]]
        entry.calls += 1
        entry.count += record[COUNT]
        entry.total_s += duration
        entry.self_s += duration - child_s.get(record[SPAN_ID], 0.0)
        entry.max_s = max(entry.max_s, duration)
        if record[SPAN_ID] and not record[PARENT]:
            root_s += duration
    return tallies, root_s


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(
    client_records: list[list],
    server_records: list[list],
    window: Window,
    reference: Window,
    writes: int,
) -> dict[str, float]:
    """``reference`` is the untraced window run just before the traced one."""
    client, _ = tally(client_records, window.start, window.end)
    server, server_root_s = tally(server_records, window.start, window.end)
    client = defaultdict(Tally, client)
    server = defaultdict(Tally, server)
    ops = max(window.items, 1)

    def ms_per(entry_s: float, base: int) -> float:
        return entry_s * 1000.0 / base if base else 0.0

    client_layers_s = sum(
        entry.self_s for name, entry in client.items() if name not in CLIENT_FRAME
    )
    unattributed_s = client["client.call"].total_s - client_layers_s - server_root_s
    pairs = server["pairing.pair"]
    precomputes = server["pairing.precompute"]
    transforms = server["proxy.reencrypt"]
    appends = server["persistence.append"]
    groups = server["batch.group"]
    if window.open_loop:
        # The offered rate fixes ops_per_s, so tracing shows in CPU per op.
        overhead_ratio = reference.cpu_ms_per_op / window.cpu_ms_per_op
    else:
        overhead_ratio = window.ops_per_s / reference.ops_per_s
    return {
        "ec.server_g1_decodes_per_op": server["ec.g1_decode"].calls / ops,
        "ec.server_g1_decode_ms_per_op": ms_per(server["ec.g1_decode"].self_s, ops),
        "ec.client_g1_decodes_per_op": client["ec.g1_decode"].calls / ops,
        "ec.client_g1_decode_ms_per_op": ms_per(client["ec.g1_decode"].self_s, ops),
        # From the untraced window: the span wrappers cost client CPU too.
        "client.cpu_ms_per_op": reference.client_cpu_s * 1000.0 / max(reference.items, 1),
        "ec.g1_muls_per_op": server["ec.g1_mul"].calls / ops,
        "ec.g1_mul_ms_per_op": ms_per(server["ec.g1_mul"].self_s, ops),
        "pairing.pairings_per_op": pairs.count / ops,
        "pairing.pair_ms_per_op": ms_per(pairs.self_s + precomputes.self_s, ops),
        "pairing.precomputes_per_op": precomputes.calls / ops,
        "pairing.gt_ms_per_op": ms_per(server["pairing.gt"].self_s, ops),
        "proxy.reencrypt_ms_per_item": ms_per(transforms.self_s, transforms.count),
        "batch.groups_per_call": groups.count / groups.calls if groups.calls else 0.0,
        "gateway.busy_ms_per_op": ms_per(server["gateway.op"].self_s, ops),
        "gateway.result_cache_hit_ratio": _ratio(
            server["result_cache.hit"].calls, server["result_cache.miss"].calls
        ),
        "gateway.key_cache_hit_ratio": _ratio(
            server["key_cache.hit"].calls, server["key_cache.miss"].calls
        ),
        "codec.server_decode_ms_per_op": ms_per(server["codec.decode"].self_s, ops),
        "codec.server_encode_ms_per_op": ms_per(server["codec.encode"].self_s, ops),
        "codec.client_decode_ms_per_op": ms_per(client["codec.decode"].self_s, ops),
        "codec.client_encode_ms_per_op": ms_per(client["codec.encode"].self_s, ops),
        "wire.bytes_per_op": client["wire.exchange"].count / ops,
        "wire.server_handle_ms_per_op": ms_per(server["wire.server_handle"].total_s, ops),
        "wire.unattributed_ms_per_op": ms_per(unattributed_s, ops),
        "auth.sign_ms_per_op": ms_per(client["auth.sign"].self_s, ops),
        "auth.verify_ms_per_op": ms_per(server["auth.verify"].self_s, ops),
        "cache.invalidate_ms_per_write": ms_per(server["cache.invalidate"].self_s, writes),
        "persistence.append_ms_per_write": ms_per(appends.self_s, writes),
        "persistence.log_bytes_per_write": appends.count / writes if writes else 0.0,
        "persistence.compactions": float(server["persistence.compact"].calls),
        "persistence.compact_ms_max": server["persistence.compact"].max_s * 1000.0,
        "telemetry.spans_per_op": server["telemetry.span"].calls / ops,
        "telemetry.events_per_op": server["telemetry.event"].calls / ops,
        "loadgen.p90_ms": percentile(window.latencies_ms, 0.90),
        "loadgen.p99_ms": sliced_p99(window.latencies_ms),
        "loadgen.late_ms_p99": percentile(window.late_ms, 0.99),
        "trace.overhead_ratio": overhead_ratio,
    }

#!/usr/bin/env python3
"""Benchmark of the PHR re-encryption gateway, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-reads --seed 1 --seconds 20 --trace 0

The workload drives a real ``repro-pre serve`` process (the default
``tipre/v1`` scheme) from this process, with at most two load threads
and connections.  Inputs are generated here from ``--seed``; the server
sees them only as grants and requests over the wire.

``--trace 0`` reports the end-to-end metrics: the server is set up
three times and the median set-up time is reported, then the last
server is measured for ``--seconds``, split into twenty equal rounds,
each followed by the workload's revoke phase.  Every timing (throughput,
the call latency median, CPU per operation, the grant and revoke
medians) is taken over the faster half of the rounds, ranked by that
timing: on a shared host, CPU steal comes in episodes of seconds to
minutes that can slow every call by half, and the faster half is the
part they disturbed least.  A slower program is slower in every round,
so the faster half still shows it.

``--trace 1`` sets up once, runs an untraced reference window of half
that length, then a traced window of ``--seconds`` whose spans (client
and server) give the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records where the numbers came from.  The exit code is 0 only if
every answer the program gave was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUPS = 3
ROUNDS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "grant_p50_ms": "ms",
    "revoke_p50_ms": "ms",
    "ok_ratio": "ratio",
    "server_cpu_ms_per_op": "ms/op",
    "server_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ec.server_g1_decodes_per_op": "count/op",
    "ec.server_g1_decode_ms_per_op": "ms/op",
    "ec.client_g1_decodes_per_op": "count/op",
    "ec.client_g1_decode_ms_per_op": "ms/op",
    "client.cpu_ms_per_op": "ms/op",
    "ec.g1_muls_per_op": "count/op",
    "ec.g1_mul_ms_per_op": "ms/op",
    "pairing.pairings_per_op": "count/op",
    "pairing.pair_ms_per_op": "ms/op",
    "pairing.precomputes_per_op": "count/op",
    "pairing.gt_ms_per_op": "ms/op",
    "proxy.reencrypt_ms_per_item": "ms/item",
    "batch.groups_per_call": "groups/call",
    "gateway.busy_ms_per_op": "ms/op",
    "gateway.result_cache_hit_ratio": "ratio",
    "gateway.key_cache_hit_ratio": "ratio",
    "codec.server_decode_ms_per_op": "ms/op",
    "codec.server_encode_ms_per_op": "ms/op",
    "codec.client_decode_ms_per_op": "ms/op",
    "codec.client_encode_ms_per_op": "ms/op",
    "wire.bytes_per_op": "B/op",
    "wire.server_handle_ms_per_op": "ms/op",
    "wire.unattributed_ms_per_op": "ms/op",
    "auth.sign_ms_per_op": "ms/op",
    "auth.verify_ms_per_op": "ms/op",
    "cache.invalidate_ms_per_write": "ms/write",
    "persistence.append_ms_per_write": "ms/write",
    "persistence.log_bytes_per_write": "B/write",
    "persistence.compactions": "count",
    "persistence.compact_ms_max": "ms",
    "telemetry.spans_per_op": "count/op",
    "telemetry.events_per_op": "count/op",
    "loadgen.p90_ms": "ms",
    "loadgen.p99_ms": "ms",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
}

WORKLOAD_NAMES = ("warm-reads", "cold-batches", "grant-churn")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(workload, url: str, seed: int, trace: bool) -> dict:
    from repro.math.backend import backend_name

    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "workload": workload.name,
        "trace": trace,
        "seed": seed,
        "group": workload.group_name,
        "listen_scheme": urlsplit(url).scheme,
        "load_threads": workload.n_threads,
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gil": "enabled" if gil is None or gil() else "disabled",
        "int_backend": backend_name(),
        "git_sha": _git_sha(),
    }


def _rounds(workload, client, server, seconds: float) -> list:
    """The untraced timed part: one window per round, each followed by a revoke phase."""
    windows = []
    for _ in range(ROUNDS):
        windows.append(workload.window(client, seconds / ROUNDS, server))
        workload.revoke_phase(client)
    return windows


def _traced(workload, client, server, seconds: float, recorder):
    """An untraced reference window, then a traced one; returns both."""
    reference = workload.window(client, seconds / 2, server)
    recorder.enabled = True
    server.proc.send_signal(signal.SIGUSR1)
    time.sleep(0.3)  # let the server's main thread run its signal handler
    window = workload.window(client, seconds, server, recorder)
    recorder.enabled = False
    server.proc.send_signal(signal.SIGUSR2)
    return window, reference


def _faster_half(rounds: list, cost) -> list:
    """The half of ``rounds`` (at least one) with the lowest ``cost``."""
    return sorted(rounds, key=cost)[: max(1, len(rounds) // 2)]


def _pooled_median(samples: list[list[float]]) -> float:
    """Median of every sample of the faster half of the rounds in ``samples``."""
    rounds = [values for values in samples if values]
    return statistics.median(
        value for values in _faster_half(rounds, statistics.median) for value in values
    )


def _end_to_end(workload, setup_s: list[float], windows: list, answered, rss_mb: float) -> dict:
    fast = _faster_half(windows, lambda window: -window.ops_per_s)
    ops_per_s = sum(window.items for window in fast) / sum(window.duration_s for window in fast)
    fast = _faster_half(windows, lambda window: window.server_cpu_s / max(window.items, 1))
    server_cpu_ms = 1000.0 * sum(window.server_cpu_s for window in fast)
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": ops_per_s,
        "p50_ms": _pooled_median([window.latencies_ms for window in windows]),
        "grant_p50_ms": _pooled_median(workload.write_ms["grant"]),
        "revoke_p50_ms": _pooled_median(workload.write_ms["revoke"]),
        "ok_ratio": (answered.items - answered.failed_items) / max(answered.items, 1),
        "server_cpu_ms_per_op": server_cpu_ms / max(sum(window.items for window in fast), 1),
        "server_rss_mb": rss_mb,
    }


def _merge(windows: list):
    """One window holding the calls of consecutive ``windows``."""
    from loadgen import Window

    merged = Window(start=windows[0].start, end=windows[-1].end, open_loop=windows[0].open_loop)
    for window in windows:
        merged.calls += window.calls
        merged.items += window.items
        merged.failed_items += window.failed_items
        merged.late_ms += window.late_ms
        merged.mismatches += window.mismatches
        merged.errors += window.errors
    return merged


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    import layers
    import spans
    from loadgen import LATE_LIMIT_MS, LATE_SHARE_LIMIT, MIN_CALLS_FOR_P99
    from server_proc import ServerProcess
    from workloads import WORKLOADS

    n_threads = max(1, min(2, len(os.sched_getaffinity(0))))
    workload = WORKLOADS[name](seed, workdir, n_threads)
    workload.generate()
    recorder = None
    if trace:
        recorder = spans.Recorder()
        spans.install_client(recorder)
    setup_s: list[float] = []
    n_setups = 1 if trace else SETUPS
    for index in range(n_setups):
        setup_dir = workdir / ("setup-%d" % index)
        setup_dir.mkdir()
        last = index == n_setups - 1
        spans_path = setup_dir / "spans.json" if trace else None
        started = time.monotonic()
        server = ServerProcess(workload.serve_args(setup_dir), setup_dir, spans_path)
        client = None
        try:
            url = server.wait_ready()
            client = workload.connect(url)
            workload.setup(client)
            setup_s.append(time.monotonic() - started)
            if last:
                workload.settle(client)
                if trace:
                    window, reference = _traced(workload, client, server, seconds, recorder)
                    answered = _merge([reference, window])
                else:
                    rounds = _rounds(workload, client, server, seconds)
                    window = answered = _merge(rounds)
                rss_mb = server.peak_rss_mb()
                workload.final_check(client)
        finally:
            # Server first: a mux client's reader thread then sees EOF and
            # close() returns at once instead of waiting out its join.
            stopped = server.stop()
            if client is not None:
                client.close()
        if not stopped:
            workload.mismatches.append("server ignored SIGTERM and was killed")
    workload.check()

    mismatches = workload.mismatches + answered.mismatches
    for message in mismatches[:10]:
        print("MISMATCH %s" % message, file=sys.stderr)
    for message in answered.errors[:10]:
        print("FAILED %s" % message, file=sys.stderr)
    if trace and window.calls < MIN_CALLS_FOR_P99:
        print(
            "warning: %d calls in the traced window; p99 wants at least %d"
            % (window.calls, MIN_CALLS_FOR_P99),
            file=sys.stderr,
        )
    origin = provenance(workload, url, seed, trace)
    if window.open_loop:
        origin["late_share"] = window.late_share
        origin["kept_up"] = window.late_share <= LATE_SHARE_LIMIT
        if not origin["kept_up"]:
            print(
                "warning: %.1f%% of the open-loop calls went out more than %.0f ms late;"
                " the offered rate was not held" % (100 * window.late_share, LATE_LIMIT_MS),
                file=sys.stderr,
            )
    if trace:
        writes = sum(len(window.by_kind_ms.get(kind, ())) for kind in ("grant", "revoke"))
        values = layers.per_layer(
            recorder.records, spans.load(str(spans_path)), window, reference, writes
        )
        units = PER_LAYER_UNITS
    else:
        values = _end_to_end(workload, setup_s, rounds, answered, rss_mb)
        units = END_TO_END_UNITS
    result = {
        "correct": not mismatches,
        "attempted": answered.items,
        "failed": answered.failed_items,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return result, origin


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("error: no gateway source under %s/src; nothing to measure" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    workdir = WORK_ROOT / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        result, origin = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"provenance": origin}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

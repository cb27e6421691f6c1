"""In-memory span recording and the layer wrappers that feed it.

The benchmark times each layer from the outside: :func:`install_client`
and :func:`install_server` patch the public functions of each layer, in
the module where their callers look them up, with a wrapper that records
a span (name, start, end, parent, request id) when the :class:`Recorder`
is enabled and is a plain call-through otherwise.  Spans stay in memory and are written out once,
when the process ends (:meth:`Recorder.dump`).

Timestamps come from ``time.monotonic``, which on Linux reads the
system-wide CLOCK_MONOTONIC, so client and server spans share one
timeline and can both be clipped to the client's timed window.

A span record is a list ``[name, start, end, span_id, parent_id,
request_id, count]``; ``count`` is the amount of work the call did
(pairings in a batch, groups formed, log bytes appended) where that is
more than one.  Point events (cache hits, server telemetry records) use
the same shape with ``end == start``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

NAME, START, END, SPAN_ID, PARENT, RID, COUNT = range(7)


class Recorder:
    """Spans and events of one process, recorded while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: str | None = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[RID]
        span = [name, time.monotonic(), 0.0, next(self._ids),
                parent[SPAN_ID] if parent is not None else 0, rid, 1]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.monotonic()
        stack = self._stack()
        # Pop through the span even if an inner span was left open by an
        # exception path; the stack must never grow without bound.
        while stack:
            if stack.pop() is span:
                break
        self.records.append(span)

    def tag_request(self, rid: str) -> None:
        """Stamp ``rid`` on every span open on this thread."""
        for span in self._stack():
            span[RID] = rid

    def event(self, name: str) -> None:
        now = time.monotonic()
        self.records.append([name, now, now, 0, 0, None, 1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle, separators=(",", ":"))


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ wrappers


def _wrap(recorder: Recorder, owner, attr: str, name: str, count=None, static=False):
    """Replace ``owner.attr`` with a span-recording call-through.

    ``count(args, result)`` gives the work the call did; ``static``
    re-wraps a staticmethod so the class attribute keeps its kind.
    """
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if count is not None:
            span[COUNT] = count(args, result)
        return result

    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _install_common(recorder: Recorder) -> None:
    """Layers both processes run: element decoding, curve and pairing math."""
    from repro.pairing import group as group_module
    from repro.pairing.group import PairingGroup

    _wrap(recorder, PairingGroup, "deserialize_g1", "ec.g1_decode")
    _wrap(recorder, PairingGroup, "g1_mul", "ec.g1_mul")
    for attr in ("gt_exp", "gt_mul", "gt_div"):
        _wrap(recorder, PairingGroup, attr, "pairing.gt")
    _wrap(recorder, group_module, "tate_pairing", "pairing.pair")
    _wrap(recorder, group_module, "tate_pairing_batch", "pairing.pair",
          count=lambda args, result: len(result))
    _wrap(recorder, group_module, "multi_tate_pairing", "pairing.pair",
          count=lambda args, result: len(args[1]))
    _wrap(recorder, group_module, "MillerPrecomp", "pairing.precompute")


def install_client(recorder: Recorder) -> None:
    """Wrap the client-side layers: codec, signing and the raw exchange."""
    from repro.service.auth.signing import RequestSigner
    from repro.service.wire import aio_client, client

    _install_common(recorder)
    _wrap(recorder, client, "to_wire", "codec.encode")
    _wrap(recorder, client, "from_wire", "codec.decode")
    _wrap(recorder, aio_client, "encode_frame", "codec.encode")
    _wrap(recorder, aio_client, "decode_frame_payload", "codec.decode")
    _wrap(recorder, RequestSigner, "header", "auth.sign")

    for cls in (client.RemoteGateway, aio_client.MuxRemoteGateway):
        original = cls.__dict__["_raw_request"]

        def exchange(self, method, path, data, replayable=True, trace=None,
                     _original=original):
            if not recorder.enabled:
                return _original(self, method, path, data, replayable, trace)
            if trace is not None:
                recorder.tag_request(trace.trace_id)
            span = recorder.open("wire.exchange")
            try:
                status, body = _original(self, method, path, data, replayable, trace)
            finally:
                recorder.close(span)
            span[COUNT] = len(data or b"") + len(body)
            return status, body

        cls._raw_request = exchange


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layers, from the request entry down to the log."""
    from repro.core.proxy import ProxyService
    from repro.service.auth.signing import RequestVerifier
    from repro.service.batch import ReEncryptBatcher
    from repro.service.cache import LruCache
    from repro.service.gateway import ReEncryptionGateway
    from repro.service.persistence import AppendLogKeyStore, DurableProxyKeyTable
    from repro.service.telemetry import EventLog, Tracer
    from repro.service.wire import aio_server, server

    _install_common(recorder)
    for module in (server, aio_server):
        _wrap(recorder, module, "from_wire", "codec.decode")
        _wrap(recorder, module, "to_wire", "codec.encode")
    _wrap(recorder, aio_server, "decode_frame_payload", "codec.decode")
    _wrap(recorder, aio_server, "encode_frame", "codec.encode")
    _wrap(recorder, RequestVerifier, "verify", "auth.verify")
    for attr in ("reencrypt", "reencrypt_batch", "grant", "revoke"):
        _wrap(recorder, ReEncryptionGateway, attr, "gateway.op")
    _wrap(recorder, ProxyService, "reencrypt_with_key", "proxy.reencrypt")
    _wrap(recorder, ProxyService, "reencrypt_many_with_key", "proxy.reencrypt",
          count=lambda args, result: len(result))
    _wrap(recorder, ReEncryptBatcher, "group", "batch.group",
          count=lambda args, result: len(result), static=True)
    _wrap(recorder, LruCache, "invalidate_where", "cache.invalidate")
    _wrap(recorder, DurableProxyKeyTable, "compact", "persistence.compact")
    _install_request_entry(recorder, server._GatewayRequestHandler, aio_server.WireRequestExecutor)
    _install_counters(recorder, LruCache, Tracer, EventLog)
    _install_append(recorder, AppendLogKeyStore)


def _install_request_entry(recorder: Recorder, handler_cls, executor_cls) -> None:
    """Span the request entry of both stacks, keyed by the trace id header."""
    from repro.service.telemetry import TRACE_HEADER, TraceContext

    def rid_of(value):
        context = TraceContext.from_header(value)
        return context.trace_id if context is not None else None

    do_post = handler_cls.do_POST

    def traced_do_post(self):
        if not recorder.enabled:
            return do_post(self)
        span = recorder.open("wire.server_handle", rid_of(self.headers.get(TRACE_HEADER)))
        try:
            return do_post(self)
        finally:
            recorder.close(span)

    handle = executor_cls.handle
    header_key = TRACE_HEADER.lower()

    def traced_handle(self, method, target, body, headers, client):
        if not recorder.enabled:
            return handle(self, method, target, body, headers, client)
        span = recorder.open("wire.server_handle", rid_of(headers.get(header_key)))
        try:
            return handle(self, method, target, body, headers, client)
        finally:
            recorder.close(span)

    handler_cls.do_POST = traced_do_post
    executor_cls.handle = traced_handle


def _install_counters(recorder: Recorder, cache_cls, tracer_cls, event_log_cls) -> None:
    """Point events: cache hits and misses, server telemetry records."""
    get = cache_cls.get
    missing = object()

    def counted_get(self, key, default=None):
        value = get(self, key, missing)
        if recorder.enabled:
            recorder.event("%s.%s" % (self.name, "miss" if value is missing else "hit"))
        return default if value is missing else value

    record = tracer_cls.record

    def counted_record(self, span):
        if recorder.enabled:
            recorder.event("telemetry.span")
        return record(self, span)

    emit = event_log_cls.emit

    def counted_emit(self, kind, **fields):
        if recorder.enabled:
            recorder.event("telemetry.event")
        return emit(self, kind, **fields)

    cache_cls.get = counted_get
    tracer_cls.record = counted_record
    event_log_cls.emit = counted_emit


def _install_append(recorder: Recorder, store_cls) -> None:
    """Span each durable log append and count the bytes it wrote."""
    append = store_cls._append

    def traced_append(self, record):
        if not recorder.enabled:
            return append(self, record)
        before = os.fstat(self._file.fileno()).st_size if self._file is not None else 0
        span = recorder.open("persistence.append")
        try:
            append(self, record)
        finally:
            recorder.close(span)
        span[COUNT] = os.fstat(self._file.fileno()).st_size - before

    store_cls._append = traced_append

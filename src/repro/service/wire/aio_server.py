"""The asyncio gateway server: one event loop, thousands of connections.

:class:`AsyncGatewayServer` is the escape from thread-per-connection.
A single event loop accepts every socket; gateway calls are dispatched
to a bounded :class:`~concurrent.futures.ThreadPoolExecutor` (the shard
locks still serialize exactly as they do under the threaded server, and
CPU-bound pairing work never blocks the accept loop for long).  The
listening port speaks *two* protocols, sniffed from the first octet of
each connection:

* **mux framing** (first octet ``0x00``): length-prefixed JSON frames
  (see ``codec.encode_frame``); after a ``hello`` handshake every
  client frame is a ``request`` carrying an integer id, and responses
  stream back tagged with the same id in completion order — many
  in-flight requests multiplexed over ONE socket, HTTP/2-style.
  :class:`~repro.service.wire.aio_client.MuxRemoteGateway` is the
  matching client.

* **HTTP/1.1** (first octet an ASCII method byte — no HTTP verb starts
  with NUL): a minimal keep-alive HTTP server, so the existing pooled
  :class:`~repro.service.wire.client.RemoteGateway` (and bare ``curl``)
  can talk to an async server unchanged.

Both transports feed the same :class:`WireRequestExecutor`, the one
request engine of the wire layer: routes, auth gates, tenant stamping,
the idempotency window and the taxonomy bodies all live there.  The
threaded :class:`~repro.service.wire.server.GatewayHttpServer` is a thin
``http.server`` transport over the same executor, so every stack answers
byte-identically by construction; ``tests/data/wire_transcript.json``
(replayed by ``tests/test_wire_aio.py``) pins those bytes as recorded
data.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import parse_qs, urlsplit

from repro.core.api import PreBackend, resolve_backend
from repro.pairing.group import PairingGroup
from repro.service.auth.errors import ForbiddenError
from repro.service.auth.signing import AUTH_HEADER
from repro.service.gateway import (
    EntryMissingError,
    FetchRequest,
    GatewayError,
    GrantRequest,
    InvalidRequestError,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.metrics import WireServerStats
from repro.service.telemetry import (
    TRACE_HEADER,
    EventLog,
    TraceContext,
    render_prometheus,
    span_to_json,
)
from repro.service.wire.codec import (
    FRAME_HEADER_LEN,
    MUX_PROTOCOL,
    FrameProtocolError,
    GrantBatchRequest,
    GrantBatchResponse,
    KeyExportRequest,
    KeyExportResponse,
    ReEncryptBatchRequest,
    ReEncryptBatchResponse,
    ResizeRequest,
    decode_frame_payload,
    encode_frame,
    frame_length,
    from_wire,
    mux_hello,
    mux_response,
    neutral_error_to_wire,
    scheme_document,
    to_wire,
)

__all__ = [
    "AsyncGatewayServer",
    "IdempotencyWindow",
    "PROMETHEUS_CONTENT_TYPE",
    "STATUS_BY_CODE",
    "WireRequestExecutor",
    "WireResponse",
    "build_host_map",
    "rejection",
    "request_body_length",
]

_SERVER_ID = "repro-gateway-aio/1.0"
_MAX_BODY_BYTES = 64 * 1024 * 1024  # refuse absurd Content-Length up front

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Taxonomy code -> HTTP status.  Codes not listed map to 500.
STATUS_BY_CODE = {
    "rate-limited": 429,
    "quota-exceeded": 429,
    "no-delegation": 404,
    "entry-not-found": 404,
    "invalid-request": 400,
    "no-store": 503,
    # A routing tier that cannot reach a shard process is the server
    # being (partially) unavailable, not the request being wrong.
    "wire-transport": 503,
    # Authentication failures (who are you?) are 401; an authenticated
    # tenant whose roles refuse the operation is 403.
    "auth-failed": 401,
    "auth-required": 401,
    "auth-unknown-tenant": 401,
    "auth-bad-signature": 401,
    "auth-stale-timestamp": 401,
    "auth-replay": 401,
    "auth-forbidden": 403,
}

# The per-fleet operation names (the last path segment after the scheme
# prefix, or the whole tail for the legacy unprefixed family).
_POST_OPS = frozenset({"grant", "revoke", "reencrypt", "fetch", "resize", "export"})
_GET_OPS = frozenset({"metrics", "scheme"})

# Mutations whose wire replay must be deduplicated by client request id.
_IDEMPOTENT_OPS = frozenset({"revoke", "resize"})

_AUTH_HEADER_LOWER = AUTH_HEADER.lower()
_TRACE_HEADER_LOWER = TRACE_HEADER.lower()


def build_host_map(gateway=None, group=None, gateways=None):
    """Validate the hosted-fleet arguments into ``(hosts, scheme_ids)``.

    Shared by the threaded and asyncio servers so both accept the exact
    same ``gateway``/``group``/``gateways`` spellings: ``hosts`` maps
    each scheme id to its ``(fleet, backend)`` pair, ``scheme_ids``
    keeps the hosting order.
    """
    if gateways is None:
        if gateway is None:
            raise ValueError("pass a gateway (or a gateways sequence)")
        gateways = [gateway]
    elif gateway is not None:
        raise ValueError("pass either gateway or gateways, not both")
    gateways = list(gateways)
    if not gateways:
        raise ValueError("gateways must not be empty")
    hosts: dict[str, tuple] = {}
    scheme_ids: list[str] = []
    for fleet in gateways:
        # The wire speaks each gateway's own backend when it has one (an
        # in-process ReEncryptionGateway always does); ``group`` is the
        # legacy spelling and the fallback for bare gateway-like objects.
        backend = getattr(fleet, "backend", None)
        if backend is None:
            if group is None:
                raise ValueError("gateway has no backend; pass group or backend")
            backend = resolve_backend(group)
        if backend.scheme_id in hosts:
            raise ValueError(
                "scheme %r is already hosted; one fleet per scheme"
                % backend.scheme_id
            )
        hosts[backend.scheme_id] = (fleet, backend)
        scheme_ids.append(backend.scheme_id)
    return hosts, scheme_ids


class IdempotencyWindow:
    """A bounded single-flight LRU of completed mutation responses.

    Revoke and resize are not blind replays: rerunning one against the
    state its first run produced mis-reports the outcome (``removed``
    flips to False, a second migration moves zero keys).  So the server
    remembers, per ``(scheme, op, request_id)``, the encoded response of
    the execution that completed — a retry carrying the same id gets
    that response verbatim instead of a second execution.

    :meth:`claim` is also a single-flight gate: while one thread
    executes a key, a duplicate blocks until the executor finishes (or
    its wait times out and it takes over), so the drop-retry race — the
    retry arriving while the original request is still running — cannot
    execute twice either.  Failed executions are never recorded; their
    retry executes for real.

    Each claim is stamped with an owner token.  When a waiter takes
    over a stuck key, the original (slow, not dead) executor's
    :meth:`complete` arrives holding a stale token: it must neither
    record its payload nor release the taker's in-flight claim —
    otherwise a third retry would see a free key and execute again
    while the taker is still running.
    """

    def __init__(self, capacity: int = 4096, wait_timeout: float = 30.0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.wait_timeout = wait_timeout
        self.hits = 0
        self.takeovers = 0
        self.stale_completions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, str] = OrderedDict()
        self._inflight: dict[tuple, _InflightClaim] = {}

    def claim(self, key: tuple) -> "tuple[str | None, _InflightClaim | None]":
        """``(recorded_response, None)``, or ``(None, token)`` once the
        caller owns execution; the token must be passed to :meth:`complete`."""
        while True:
            with self._lock:
                payload = self._entries.get(key)
                if payload is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return payload, None
                claim = self._inflight.get(key)
                if claim is None:
                    claim = _InflightClaim()
                    self._inflight[key] = claim
                    return None, claim
            if not claim.event.wait(self.wait_timeout):
                with self._lock:
                    # The executor is stuck or died without completing;
                    # take over if nobody else already has.  The stale
                    # owner's eventual complete() sees a token mismatch
                    # and cannot clobber this fresh claim.
                    if self._inflight.get(key) is claim:
                        takeover = _InflightClaim()
                        self._inflight[key] = takeover
                        self.takeovers += 1
                        return None, takeover
                # Someone else already took over (or the executor just
                # finished): loop and wait on whatever claim is current.

    def complete(self, key: tuple, token: "_InflightClaim", payload: str | None) -> None:
        """Record a successful payload (or release the claim on failure).

        A stale ``token`` — one whose claim was taken over while it ran —
        records nothing and leaves the current owner's claim in place; it
        only wakes threads still parked on the stale event so they re-queue
        behind the current owner.
        """
        with self._lock:
            if self._inflight.get(key) is not token:
                self.stale_completions += 1
            else:
                del self._inflight[key]
                if payload is not None:
                    self._entries[key] = payload
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
        token.event.set()


class _InflightClaim:
    """One in-flight execution's identity: its owner token and wake event."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = threading.Event()


@dataclass
class WireResponse:
    """One finished request, transport-agnostic: status + body + echo."""

    status: int
    body: bytes
    content_type: str = "application/json"
    trace_echo: str | None = None
    close: bool = False


def request_body_length(headers: dict[str, str]) -> int:
    """The body length a request's (lowercase) HTTP headers declare.

    Both HTTP transports call this before reading a body.  Raises
    :class:`InvalidRequestError` for a chunked body (never drained here,
    so its framing bytes would desync the keep-alive stream), a
    malformed ``Content-Length`` or one past the 64 MiB cap; answer
    those with :func:`rejection`, which closes the connection.
    """
    if headers.get("transfer-encoding"):
        raise InvalidRequestError("Transfer-Encoding is not supported")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise InvalidRequestError("invalid Content-Length") from None
    if length < 0 or length > _MAX_BODY_BYTES:
        raise InvalidRequestError("unacceptable Content-Length %d" % length)
    return length


def rejection(error: InvalidRequestError) -> WireResponse:
    """The 400 for a request the transport could not frame; closes the
    connection, since unread request bytes would masquerade as the next
    request."""
    return WireResponse(400, neutral_error_to_wire(error).encode("utf-8"), close=True)


class _UnknownEndpoint(Exception):
    def __init__(self, path: str):
        super().__init__(path)
        self.path = path


class WireRequestExecutor:
    """The transport-independent request engine behind both servers.

    ``handle`` takes one parsed request (method, target, body, lowercase
    headers, client address string) and returns a :class:`WireResponse`.
    It is synchronous and thread-safe: the asyncio server runs it on its
    bounded worker pool, the threaded server on each connection's
    handler thread.
    """

    def __init__(
        self,
        hosts: dict,
        scheme_ids: list,
        event_log: EventLog,
        dedup: IdempotencyWindow,
        auth=None,
        trace_sample: float = 1.0,
        wire_stats: WireServerStats | None = None,
    ):
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be in [0, 1]")
        self.hosts = hosts
        self.scheme_ids = list(scheme_ids)
        self.single = scheme_ids[0] if len(scheme_ids) == 1 else None
        self.event_log = event_log
        self.dedup = dedup
        self.auth = auth
        self.trace_sample = float(trace_sample)
        self.wire_stats = wire_stats
        # Deterministic seed: sampling decisions are reproducible across
        # runs, and tests can predict exact sampled counts.  The lock
        # serializes concurrent draws so the deterministic sequence (and
        # the generator state itself) survives concurrency.
        self._trace_rng = random.Random(0x5EED)
        self._trace_rng_lock = threading.Lock()

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _json(status: int, payload: str, trace: str | None = None,
              close: bool = False) -> WireResponse:
        return WireResponse(
            status, payload.encode("utf-8"), "application/json", trace, close
        )

    def _error(
        self,
        error: GatewayError,
        backend: PreBackend | None = None,
        trace: str | None = None,
        close: bool = False,
    ) -> WireResponse:
        payload = (
            to_wire(backend, error) if backend is not None else neutral_error_to_wire(error)
        )
        return self._json(STATUS_BY_CODE.get(error.code, 500), payload, trace, close)

    def _unknown_endpoint(self, path: str, trace: str | None) -> WireResponse:
        return self._json(
            404,
            neutral_error_to_wire(InvalidRequestError("unknown endpoint %r" % path)),
            trace,
        )

    def _resolve(self, path: str):
        if not path.startswith("/v1/"):
            raise _UnknownEndpoint(path)
        rest = path[len("/v1/"):]
        if "/" in rest:
            scheme_id, op = rest.rsplit("/", 1)
            pair = self.hosts.get(scheme_id)
            if pair is None:
                raise _UnknownEndpoint(path)
            return op, pair[0], pair[1]
        if self.single is None:
            raise InvalidRequestError(
                "this server hosts several schemes (%s); use /v1/<scheme>/%s"
                % (", ".join(self.scheme_ids), rest)
            )
        gateway, backend = self.hosts[self.single]
        return rest, gateway, backend

    # ------------------------------------------------------------ entrance

    def handle(
        self,
        method: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        client: str,
    ) -> WireResponse:
        """One request in, one :class:`WireResponse` out; never raises."""
        try:
            # The echo is re-serialized from the strict parse, never the
            # raw client value: a header with embedded CR/LF must not
            # split the keep-alive response stream.
            parsed_trace = TraceContext.from_header(headers.get(_TRACE_HEADER_LOWER))
            echo = parsed_trace.to_header() if parsed_trace is not None else None
            if method == "GET":
                result = self._handle_get(target, headers, echo, client)
            elif method == "POST":
                result = self._handle_post(
                    target, body, headers, parsed_trace, echo, client
                )
            else:
                result = self._json(
                    501,
                    neutral_error_to_wire(
                        InvalidRequestError("unsupported method %r" % method)
                    ),
                    echo,
                    close=True,
                )
        except Exception as error:  # noqa: BLE001 - transport boundary
            self.event_log.emit(
                "server-error",
                op=method,
                error=str(error),
                error_type=type(error).__name__,
                traceback=traceback.format_exc(limit=8),
            )
            result = self._json(
                500,
                neutral_error_to_wire(GatewayError("internal error: %s" % error)),
                close=True,
            )
        # Every request (any transport) leaves an access line in the
        # structured event log instead of a stderr nobody reads.
        self.event_log.emit(
            "http-log",
            client=client,
            message='"%s %s" %d %d' % (method, target, result.status, len(result.body)),
        )
        return result

    # ----------------------------------------------------------------- GET

    def _authorize_observability(
        self, op: str, target: str, headers: dict, client: str
    ) -> GatewayError | None:
        """The rejection to send (or None) for a GET observability route."""
        if self.auth is None:
            return None
        try:
            # The client signs the path it requests, query string included.
            self.auth.verify("GET", target, b"", headers.get(_AUTH_HEADER_LOWER))
        except GatewayError as error:
            self.event_log.emit(
                "auth-failure",
                op=op,
                code=error.code,
                client=client,
                detail=str(error),
            )
            return error
        return None

    def _prometheus(self, hosts: dict) -> WireResponse:
        snapshots = {
            scheme_id: fleet.snapshot() for scheme_id, (fleet, _backend) in hosts.items()
        }
        wire = self.wire_stats.snapshot() if self.wire_stats is not None else None
        return WireResponse(
            200,
            render_prometheus(snapshots, wire=wire).encode("utf-8"),
            PROMETHEUS_CONTENT_TYPE,
        )

    def _handle_get(
        self, target: str, headers: dict, echo: str | None, client: str
    ) -> WireResponse:
        parts = urlsplit(target)
        base = parts.path
        query = parse_qs(parts.query)
        out_format = (query.get("format") or [""])[0]
        if base == "/v1/health":
            return self._json(200, json.dumps({"status": "ok"}), echo)
        if base == "/v1/schemes":
            return self._json(
                200,
                json.dumps(
                    {
                        "schemes": [
                            scheme_document(self.hosts[scheme_id][1])
                            for scheme_id in self.scheme_ids
                        ]
                    },
                    sort_keys=True,
                ),
                echo,
            )
        if base.startswith("/v1/trace/"):
            denied = self._authorize_observability("trace", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._trace_response(base[len("/v1/trace/"):], echo)
        if base == "/v1/events":
            denied = self._authorize_observability("events", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._events_response((query.get("tail") or [""])[0], echo)
        if base == "/v1/metrics" and out_format == "prometheus":
            denied = self._authorize_observability("metrics", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            return self._prometheus(self.hosts)
        try:
            op, gateway, backend = self._resolve(base)
            if op not in _GET_OPS:
                raise _UnknownEndpoint(base)
        except _UnknownEndpoint as error:
            return self._unknown_endpoint(error.path, echo)
        except InvalidRequestError as error:
            return self._error(error, trace=echo)
        if op == "metrics":
            denied = self._authorize_observability("metrics", target, headers, client)
            if denied is not None:
                return self._error(denied, trace=echo)
            if out_format == "prometheus":
                return self._prometheus({backend.scheme_id: (gateway, backend)})
            return self._json(200, to_wire(backend, gateway.snapshot()), echo)
        return self._json(
            200, json.dumps(scheme_document(backend), sort_keys=True), echo
        )

    def _trace_response(self, trace_id: str, echo: str | None) -> WireResponse:
        for scheme_id in self.scheme_ids:
            fleet, _backend = self.hosts[scheme_id]
            tracer = getattr(fleet, "tracer", None)
            if tracer is None:
                continue
            spans = tracer.trace(trace_id)
            if spans:
                return self._json(
                    200,
                    json.dumps(
                        {
                            "trace": trace_id,
                            "scheme": scheme_id,
                            "spans": [span_to_json(span) for span in spans],
                        },
                        sort_keys=True,
                    ),
                    echo,
                )
        return self._error(EntryMissingError("no trace %r" % trace_id), trace=echo)

    def _events_response(self, tail: str, echo: str | None) -> WireResponse:
        count: int | None = None
        if tail:
            try:
                count = int(tail)
            except ValueError:
                count = -1
            if count < 1:
                return self._error(
                    InvalidRequestError("tail must be a positive integer"), trace=echo
                )
        return self._json(
            200, json.dumps({"events": self.event_log.tail(count)}, sort_keys=True), echo
        )

    # ---------------------------------------------------------------- POST

    def _authenticate(self, op: str, base: str, raw: bytes, headers: dict):
        if self.auth is None:
            return None
        credential = self.auth.verify("POST", base, raw, headers.get(_AUTH_HEADER_LOWER))
        if not self.auth.store.allows(credential, op):
            raise ForbiddenError(
                "tenant %r (roles: %s) may not call %r"
                % (credential.tenant, ", ".join(credential.roles) or "-", op)
            )
        return credential.tenant

    def _auth_failure(
        self, op: str, gateway, backend, headers: dict, client: str,
        error: GatewayError, echo: str | None,
    ) -> WireResponse:
        header = headers.get(_AUTH_HEADER_LOWER) or ""
        tenant = None
        for part in header.split(";"):
            if part.startswith("tenant="):
                tenant = part[len("tenant="):] or None
                break
        metrics = getattr(gateway, "metrics", None)
        if metrics is not None and hasattr(metrics, "observe_auth_failure"):
            metrics.observe_auth_failure(error.code, op=op, tenant=tenant)
        self.event_log.emit(
            "auth-failure",
            scheme=backend.scheme_id,
            op=op,
            code=error.code,
            tenant=tenant,
            client=client,
            detail=str(error),
        )
        return self._error(error, backend, trace=echo)

    @staticmethod
    def _stamp_tenant(request, tenant: str):
        if isinstance(request, (GrantBatchRequest, ReEncryptBatchRequest)):
            return dataclasses.replace(
                request,
                requests=tuple(
                    dataclasses.replace(item, tenant=tenant)
                    for item in request.requests
                ),
            )
        return dataclasses.replace(request, tenant=tenant)

    def _handle_post(
        self,
        target: str,
        raw: bytes,
        headers: dict,
        trace: TraceContext | None,
        echo: str | None,
        client: str,
    ) -> WireResponse:
        if trace is not None and self.trace_sample < 1.0:
            with self._trace_rng_lock:
                sampled = self._trace_rng.random() < self.trace_sample
            if not sampled:
                trace = None
        base = urlsplit(target).path
        try:
            op, gateway, backend = self._resolve(base)
            if op not in _POST_OPS:
                raise _UnknownEndpoint(base)
        except _UnknownEndpoint as error:
            return self._unknown_endpoint(error.path, echo)
        except InvalidRequestError as error:
            return self._error(error, trace=echo)
        try:
            auth_tenant = self._authenticate(op, base, raw, headers)
        except GatewayError as error:
            return self._auth_failure(op, gateway, backend, headers, client, error, echo)
        try:
            payload = self._dispatch(op, gateway, backend, raw, trace, auth_tenant)
        except GatewayError as error:
            return self._error(error, backend, trace=echo)
        except Exception as error:  # noqa: BLE001 - wire boundary
            self.event_log.emit(
                "server-error",
                scheme=backend.scheme_id,
                op=op,
                error=str(error),
                error_type=type(error).__name__,
                trace=trace.trace_id if trace is not None else None,
                traceback=traceback.format_exc(limit=8),
            )
            return self._error(
                GatewayError("internal error: %s" % error), backend, trace=echo
            )
        return self._json(200, payload, echo)

    def _dispatch(
        self, op: str, gateway, backend: PreBackend, raw: bytes,
        trace: TraceContext | None, auth_tenant: str | None,
    ) -> str:
        tracer = getattr(gateway, "tracer", None)
        traced = tracer is not None and trace is not None
        root = tracer.span(trace, "http:%s" % op) if traced else nullcontext(None)
        with root as http_span:
            sub = http_span.context if http_span is not None else None
            with (
                tracer.span(sub, "decode", {"bytes": len(raw)})
                if traced
                else nullcontext()
            ):
                if op == "grant":
                    request = from_wire(
                        backend, raw, expect=(GrantRequest, GrantBatchRequest)
                    )
                elif op == "revoke":
                    request = from_wire(backend, raw, expect=RevokeRequest)
                elif op == "reencrypt":
                    request = from_wire(
                        backend, raw, expect=(ReEncryptRequest, ReEncryptBatchRequest)
                    )
                elif op == "fetch":
                    request = from_wire(backend, raw, expect=FetchRequest)
                elif op == "export":
                    request = from_wire(backend, raw, expect=KeyExportRequest)
                else:  # op == "resize"
                    request = from_wire(backend, raw, expect=ResizeRequest)
                if auth_tenant is not None:
                    request = self._stamp_tenant(request, auth_tenant)
            dedup_key = None
            dedup_token = None
            if op in _IDEMPOTENT_OPS:
                request_id = getattr(request, "request_id", None)
                if request_id:
                    dedup_key = (backend.scheme_id, op, request_id)
                    cached, dedup_token = self.dedup.claim(dedup_key)
                    if cached is not None:
                        if http_span is not None:
                            http_span.set("idempotent_replay", True)
                        return cached
            try:
                kwargs = {"trace": sub} if traced else {}
                if op == "grant":
                    if isinstance(request, GrantBatchRequest):
                        response = GrantBatchResponse(
                            responses=tuple(
                                gateway.grant(item, **kwargs)
                                for item in request.requests
                            )
                        )
                    else:
                        response = gateway.grant(request, **kwargs)
                elif op == "revoke":
                    response = gateway.revoke(request, **kwargs)
                elif op == "reencrypt":
                    if isinstance(request, ReEncryptBatchRequest):
                        response = ReEncryptBatchResponse(
                            responses=tuple(
                                gateway.reencrypt_batch(list(request.requests), **kwargs)
                            )
                        )
                    else:
                        response = gateway.reencrypt(request, **kwargs)
                elif op == "fetch":
                    response = gateway.fetch(request, **kwargs)
                elif op == "export":
                    response = KeyExportResponse(keys=tuple(gateway.list_keys()))
                else:  # op == "resize"
                    response = gateway.resize(
                        request.shard_count, tenant=request.tenant, **kwargs
                    )
                with (
                    tracer.span(sub, "encode") if traced else nullcontext()
                ):
                    payload = to_wire(backend, response)
            except BaseException:
                if dedup_token is not None:
                    self.dedup.complete(dedup_key, dedup_token, None)
                raise
            if dedup_token is not None:
                self.dedup.complete(dedup_key, dedup_token, payload)
        return payload


class AsyncGatewayServer:
    """Serve gateways over mux frames *and* HTTP/1.1 from one event loop.

    The constructor surface mirrors :class:`GatewayHttpServer` (gateway/
    group/gateways hosting, ``event_log``, ``tls``, ``auth``,
    ``trace_sample``), plus ``workers`` (the bounded executor that runs
    gateway calls — shard locks serialize there exactly as under the
    threaded server) and ``max_streams`` (per-connection in-flight cap,
    the mux backpressure bound).

    :attr:`url` is the mux address (``mux://host:port``, ``muxs://``
    under TLS); :attr:`http_url` is the same port spelled for HTTP
    clients — both protocols share the listener, sniffed per connection.
    ``tls`` is the same server-side ``ssl.SSLContext`` the threaded
    server takes; asyncio wraps each accepted connection with it.
    """

    def __init__(
        self,
        gateway=None,
        group: PairingGroup | PreBackend | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        gateways: Sequence | None = None,
        event_log: EventLog | None = None,
        tls=None,
        auth=None,
        trace_sample: float = 1.0,
        workers: int = 8,
        max_streams: int = 256,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.hosts, self.scheme_ids = build_host_map(gateway, group, gateways)
        self.gateway = self.hosts[self.scheme_ids[0]][0]
        self.backend = self.hosts[self.scheme_ids[0]][1]
        self.group = self.backend.group
        self.event_log = event_log if event_log is not None else EventLog()
        self.dedup = IdempotencyWindow()
        self.auth = auth
        self.stats = WireServerStats()
        self.executor = WireRequestExecutor(
            self.hosts,
            self.scheme_ids,
            self.event_log,
            self.dedup,
            auth=auth,
            trace_sample=trace_sample,
            wire_stats=self.stats,
        )
        self.max_streams = max_streams
        self._tls = tls
        self._bind_host = host
        self._bind_port = port
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="gateway-aio"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._sockname: tuple | None = None

    # ------------------------------------------------------------ lifecycle

    @property
    def host(self) -> str:
        return self._sockname[0] if self._sockname else self._bind_host

    @property
    def port(self) -> int:
        return self._sockname[1] if self._sockname else self._bind_port

    @property
    def url(self) -> str:
        scheme = "muxs" if self._tls is not None else "mux"
        return "%s://%s:%d" % (scheme, self.host, self.port)

    @property
    def http_url(self) -> str:
        scheme = "https" if self._tls is not None else "http"
        return "%s://%s:%d" % (scheme, self.host, self.port)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection,
                self._bind_host,
                self._bind_port,
                ssl=self._tls,
                # Match the threaded server's listen depth so a burst of
                # HTTP clients dialling at once is queued, not reset.
                backlog=1024,
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            raise
        self._sockname = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException:  # noqa: BLE001 - surfaced via _startup_error
            if not self._ready.is_set():
                self._ready.set()

    def start(self) -> "AsyncGatewayServer":
        """Run the event loop in a daemon thread; returns once bound."""
        if self._thread is None:
            self._ready.clear()
            self._thread = threading.Thread(
                target=self._run, name="gateway-aio", daemon=True
            )
            self._thread.start()
            self._ready.wait(timeout=30.0)
            if self._startup_error is not None:
                error, self._startup_error = self._startup_error, None
                self._thread.join(timeout=5.0)
                self._thread = None
                raise error
        return self

    def serve_forever(self) -> None:
        """Block serving until :meth:`close` (or KeyboardInterrupt)."""
        self.start()
        # Join in slices so the main thread stays interruptible.
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def close(self) -> None:
        """Stop the loop, join its thread, shut the worker pool down."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        # The loop has stopped submitting work; wait for the workers so
        # no gateway-aio thread outlives the server.
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "AsyncGatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connection_opened()
        try:
            try:
                # Four bytes decide the protocol: a mux frame's length
                # prefix leads with 0x00 (frames are capped below 2**24),
                # an HTTP request line leads with an ASCII method byte.
                first = await reader.readexactly(FRAME_HEADER_LEN)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if first[0] == 0:
                await self._serve_mux(reader, writer, first)
            else:
                await self._serve_http(reader, writer, first)
        except asyncio.CancelledError:
            # Server shutdown cancels live connection handlers; finishing
            # normally here keeps the teardown quiet (the task is done
            # either way, and asyncio.run is about to close the loop).
            pass
        except (asyncio.IncompleteReadError, ConnectionError, TimeoutError, OSError):
            pass  # peer went away mid-exchange; nothing to answer
        except FrameProtocolError as error:
            self.event_log.emit(
                "connection-error",
                client=self._peer(writer),
                error=str(error),
                error_type="FrameProtocolError",
            )
        except Exception:  # noqa: BLE001 - connection boundary
            self.event_log.emit(
                "connection-error",
                client=self._peer(writer),
                traceback=traceback.format_exc(limit=8),
            )
        finally:
            self.stats.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) and peer else "-"

    # ------------------------------------------------------------------ mux

    async def _serve_mux(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        header: bytes,
    ) -> None:
        hello = decode_frame_payload(await reader.readexactly(frame_length(header)))
        if hello.get("mux") != MUX_PROTOCOL or hello.get("type") != "hello":
            raise FrameProtocolError(
                "connection opened with %r, expected a %s hello"
                % (hello.get("mux"), MUX_PROTOCOL)
            )
        writer.write(
            encode_frame(
                mux_hello(server=_SERVER_ID, schemes=list(self.scheme_ids))
            )
        )
        await writer.drain()
        peer = self._peer(writer)
        write_lock = asyncio.Lock()
        # Per-connection backpressure: past max_streams in-flight the
        # read loop stops pulling frames, so a flooding client queues in
        # its own socket buffer instead of ours.
        gate = asyncio.Semaphore(self.max_streams)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_LEN)
                except asyncio.IncompleteReadError:
                    break  # clean close between frames
                payload = await reader.readexactly(frame_length(header))
                document = decode_frame_payload(payload)
                if document.get("type") != "request" or not isinstance(
                    document.get("id"), int
                ):
                    raise FrameProtocolError("expected a request frame with an id")
                await gate.acquire()
                task = asyncio.create_task(
                    self._run_stream(document, writer, write_lock, gate, peer)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _run_stream(
        self,
        document: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        gate: asyncio.Semaphore,
        peer: str,
    ) -> None:
        self.stats.stream_started()
        try:
            request_id = document["id"]
            method = str(document.get("method") or "POST").upper()
            target = str(document.get("path") or "/")
            body_text = document.get("body")
            body = body_text.encode("utf-8") if isinstance(body_text, str) else b""
            raw_headers = document.get("headers") or {}
            headers = {
                str(name).lower(): str(value) for name, value in raw_headers.items()
            }
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool, self.executor.handle, method, target, body, headers, peer
            )
            frame = encode_frame(
                mux_response(
                    request_id,
                    result.status,
                    result.body.decode("utf-8"),
                    result.content_type,
                    trace=result.trace_echo,
                )
            )
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass  # connection died under the response; reader loop ends too
        except Exception:  # noqa: BLE001 - stream boundary
            self.event_log.emit(
                "connection-error",
                client=peer,
                traceback=traceback.format_exc(limit=8),
            )
        finally:
            gate.release()
            self.stats.stream_finished()

    # ----------------------------------------------------------------- http

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        prefix: bytes,
    ) -> None:
        peer = self._peer(writer)
        while True:
            if prefix is not None:
                line = prefix + await reader.readline()
                prefix = None
            else:
                line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                return
            parts = line.decode("latin-1").strip().split()
            if len(parts) < 2:
                await self._write_http(
                    writer, rejection(InvalidRequestError("malformed request line"))
                )
                return
            method, target = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                hline = await reader.readline()
                if hline in (b"\r\n", b"\n", b""):
                    break
                name, sep, value = hline.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            try:
                length = request_body_length(headers)
            except InvalidRequestError as error:
                await self._write_http(writer, rejection(error))
                return
            body = await reader.readexactly(length) if length else b""
            self.stats.stream_started()
            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self.executor.handle, method, target, body, headers, peer
                )
            finally:
                self.stats.stream_finished()
            if headers.get("connection", "").lower() == "close":
                result.close = True
            await self._write_http(writer, result)
            if result.close:
                return

    async def _write_http(
        self, writer: asyncio.StreamWriter, result: WireResponse
    ) -> None:
        head = [
            "HTTP/1.1 %d %s" % (result.status, _REASONS.get(result.status, "OK")),
            "Server: %s" % _SERVER_ID,
            "Content-Type: %s" % result.content_type,
            "Content-Length: %d" % len(result.body),
        ]
        if result.trace_echo:
            head.append("%s: %s" % (TRACE_HEADER, result.trace_echo))
        if result.close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + result.body)
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

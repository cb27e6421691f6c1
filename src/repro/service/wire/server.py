"""The gateway behind HTTP: stdlib threading server, stable error bodies.

:class:`GatewayHttpServer` puts one or *several*
:class:`~repro.service.gateway.ReEncryptionGateway` fleets (or anything
with the same typed API) behind ``http.server.ThreadingHTTPServer`` —
the paper's semi-trusted proxy finally answers over a socket instead of
a method call, and one process can host a fleet per scheme backend.

Every hosted fleet owns a scheme-id-prefixed route family::

    POST /v1/{scheme}/grant        install a proxy key
    POST /v1/{scheme}/revoke       remove a delegation
    POST /v1/{scheme}/reencrypt    transform one ciphertext, or a batch
    POST /v1/{scheme}/fetch        read stored ciphertext blobs
    POST /v1/{scheme}/resize       rebalance that fleet's shards
    GET  /v1/{scheme}/metrics      that fleet's live metrics snapshot
    GET  /v1/{scheme}/scheme       that fleet's scheme document

where ``{scheme}`` is the backend's wire-stable id (slash included:
``/v1/tipre/v1/reencrypt``).  Two routes are scheme-neutral::

    GET  /v1/schemes               every hosted fleet's scheme document
    GET  /v1/health                liveness probe (no gateway call)
    GET  /v1/events?tail=N         newest N structured server events

and the *legacy unprefixed* family (``/v1/grant``, ``/v1/reencrypt``,
``/v1/scheme``, ...) keeps working verbatim whenever the server hosts
exactly one scheme — a pre-multi-scheme client or a bare ``curl`` never
notices the difference.  On a multi-scheme server an unprefixed
operation is ambiguous and is rejected as ``invalid-request`` naming the
hosted ids.

Each fleet is fully isolated: its own shards, caches, durable key
tables and metrics — the only shared thing is the listening socket.
Mismatched messages that reach a fleet anyway (an element envelope for
another scheme) are rejected by the codec as ``invalid-request``.

Every failure body is ``{"wire": ..., "type": "error", "body": {code,
message}}`` with the taxonomy's stable ``code``, and the HTTP status is
derived from that code (`429` rate-limited, `404` no-delegation /
entry-not-found, `400` invalid-request, `503` no-store, `500` anything
else), so HTTP-level callers and :class:`RemoteGateway` agree on
semantics without parsing prose.

This module is only the HTTP/1.1 transport: routing, auth, tenant
stamping, idempotency and error mapping are the shared
:class:`~repro.service.wire.aio_server.WireRequestExecutor`, the same
engine the asyncio server runs.  Thread-safety comes for free: every
gateway already serializes on its shard locks, so the threading server
can hand every connection its own handler thread.
"""

from __future__ import annotations

import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from repro.core.api import PreBackend
from repro.pairing.group import PairingGroup
from repro.service.gateway import InvalidRequestError
from repro.service.telemetry import TRACE_HEADER, EventLog
from repro.service.wire.aio_server import (
    PROMETHEUS_CONTENT_TYPE,
    STATUS_BY_CODE,
    IdempotencyWindow,
    WireRequestExecutor,
    WireResponse,
    build_host_map,
    rejection,
    request_body_length,
)

# The engine decodes and encodes through ``aio_server``'s codec names;
# these stay importable here so per-module wrappers (perfbench's codec
# spans) resolve on both server modules.
from repro.service.wire.codec import from_wire, to_wire  # noqa: F401

__all__ = [
    "GatewayHttpServer",
    "IdempotencyWindow",
    "STATUS_BY_CODE",
    "PROMETHEUS_CONTENT_TYPE",
    "build_host_map",
]


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 framing around the shared :class:`WireRequestExecutor`."""

    server_version = "repro-gateway/1.0"
    # HTTP/1.1 + explicit Content-Length on every response enables client
    # keep-alive without chunked encoding.
    protocol_version = "HTTP/1.1"
    # Persistent connections interleave small writes both ways; leaving
    # Nagle on stalls every keep-alive round trip behind a delayed ACK.
    disable_nagle_algorithm = True

    def log_request(self, code="-", size="-") -> None:
        # The executor already logs one access line per request.
        pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        # Not stderr (operators never see a daemon's stderr): what the
        # stdlib still reports itself (malformed request lines, timeouts)
        # becomes a structured event in the server's bounded event log.
        self.server.executor.event_log.emit(
            "http-log", client=self.client_address[0], message=format % args
        )

    def __getattr__(self, name: str):
        # http.server answers a method without a do_<METHOD> with its own
        # HTML 501; send every method to the executor instead, which
        # answers unsupported ones with the taxonomy's JSON 501.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)

    def _serve(self) -> None:
        headers = {name.lower(): value for name, value in self.headers.items()}
        try:
            length = request_body_length(headers)
        except InvalidRequestError as error:
            self._send(rejection(error))
            return
        body = self.rfile.read(length) if length else b""
        self._send(
            self.server.executor.handle(
                self.command.upper(), self.path, body, headers, self.client_address[0]
            )
        )

    do_GET = do_POST = _serve  # noqa: N815 - stdlib handler names

    def _send(self, result: WireResponse) -> None:
        self.send_response(result.status)
        self.send_header("Content-Type", result.content_type)
        self.send_header("Content-Length", str(len(result.body)))
        # Echo the request's trace header so the caller can correlate the
        # response (and any retrieved trace) with the id it generated.
        if result.trace_echo:
            self.send_header(TRACE_HEADER, result.trace_echo)
        if result.close:
            # Also flips self.close_connection in the base class, so the
            # keep-alive loop ends after this response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(result.body)


class _EventedThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose per-connection crashes become events.

    The stdlib prints a traceback to stderr and drops the connection;
    here the traceback also lands in the structured event log so a
    dropped connection is diagnosable after the fact.
    """

    executor: WireRequestExecutor

    # The socketserver default backlog of 5 resets connections the moment
    # a pooled client dials its sockets in one burst; listen deep enough
    # that a fleet-sized pool (hundreds of connections) can connect while
    # handler threads are still being spawned.
    request_queue_size = 1024

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        self.executor.event_log.emit(
            "connection-error",
            client=str(client_address),
            traceback=traceback.format_exc(limit=8),
        )


class GatewayHttpServer:
    """Serve one or more gateways over HTTP/JSON; in-thread or blocking.

    ``gateway`` hosts a single fleet (the historical spelling, with
    ``group`` as the backend fallback for bare gateway-like objects);
    ``gateways`` hosts one fleet per element side by side, each routed
    under its backend's scheme-id prefix.  Scheme ids must be unique —
    one fleet per scheme per process.

    ``port=0`` binds an ephemeral port (tests, loopback benchmarks);
    :attr:`url` reports the bound address either way.  :meth:`start` runs
    the accept loop in a daemon thread and returns; :meth:`serve_forever`
    blocks the caller (the CLI's ``serve --http`` mode).  Closing the
    server stops the accept loop but deliberately leaves every gateway
    open — the owner decides when to release the shard fleets.
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
    ):
        """``tls`` is a server-side :class:`ssl.SSLContext` (see
        :func:`repro.service.auth.tls.server_context`); ``auth`` is a
        :class:`~repro.service.auth.signing.RequestVerifier` — with one
        installed every POST must carry a valid ``X-Repro-Auth``
        signature, without one the wire stays anonymous.
        ``trace_sample`` is the server-side head-sampling fraction for
        incoming trace headers (1.0 records every traced request)."""
        self.hosts, self.scheme_ids = build_host_map(gateway, group, gateways)
        # Single-scheme attribute surface, kept for existing callers.
        self.gateway = self.hosts[self.scheme_ids[0]][0]
        self.backend = self.hosts[self.scheme_ids[0]][1]
        self.group = self.backend.group
        # The server-level event stream: HTTP access lines, handler
        # crashes and connection errors.  Injectable so tests (and the
        # CLI's --event-log) choose the sink; shared with the hosted
        # gateways by the CLI so one JSONL stream tells the whole story.
        self.event_log = event_log if event_log is not None else EventLog()
        # One dedup window per server (scheme id is part of the key), so
        # retried revoke/resize replays are answered from the record.
        self.dedup = IdempotencyWindow()
        self.executor = WireRequestExecutor(
            self.hosts,
            self.scheme_ids,
            self.event_log,
            self.dedup,
            auth=auth,
            trace_sample=trace_sample,
        )
        self._httpd = _EventedThreadingHTTPServer((host, port), _GatewayRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.executor = self.executor
        self.auth = auth
        self._url_scheme = "http"
        if tls is not None:
            # Wrapping the *listening* socket makes every accepted
            # connection TLS; the handshake completes during accept().
            self._httpd.socket = tls.wrap_socket(self._httpd.socket, server_side=True)
            self._url_scheme = "https"
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "%s://%s:%d" % (self._url_scheme, self.host, self.port)

    def start(self) -> "GatewayHttpServer":
        """Run the accept loop in a daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="gateway-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or KeyboardInterrupt)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting, join the serving thread, release the socket."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "GatewayHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

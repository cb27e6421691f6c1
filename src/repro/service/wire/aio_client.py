"""The framed multiplexed client: many in-flight requests, one socket.

:class:`MuxRemoteGateway` speaks the mux framing of
:class:`~repro.service.wire.aio_server.AsyncGatewayServer` — length-
prefixed JSON frames with an integer request id, responses correlated
by id in whatever order the server finishes them.  Where the pooled
:class:`~repro.service.wire.client.RemoteGateway` needs one socket per
concurrent request, the mux client holds exactly ONE connection and
interleaves every caller's streams on it, HTTP/2-style: 512 threads
cost 512 sockets on the pooled client and one here.

It *is* a :class:`RemoteGateway` — the subclass replaces only the
transport seam (``_raw_request``) plus connection management, so every
typed operation, the scheme negotiation, request signing, tracing and
taxonomy-error decoding are literally the same code.  A mux response
body is byte-identical to what the threaded stack returns (the server
frames the same codec output), which the conformance suite asserts.

:func:`connect_gateway` is the URL-dispatching factory the CLI, driver
and fleet use: ``mux://`` / ``muxs://`` builds a mux client, ``http://``
/ ``https://`` the pooled one — ``serve --async`` prints a ``mux://``
banner and every consumer auto-negotiates from the URL alone.
"""

from __future__ import annotations

import socket
import threading
import urllib.parse

from repro.core.api import PreBackend
from repro.pairing.group import PairingGroup
from repro.service.auth.signing import AUTH_HEADER
from repro.service.auth.tls import client_context
from repro.service.telemetry import TRACE_HEADER, TraceContext
from repro.service.wire.client import (
    _RETRYABLE,
    RemoteGateway,
    WireTransportError,
)
from repro.service.wire.codec import (
    FRAME_HEADER_LEN,
    MUX_PROTOCOL,
    FrameProtocolError,
    decode_frame_payload,
    encode_frame,
    frame_length,
    mux_hello,
    mux_request,
)

__all__ = ["MuxRemoteGateway", "connect_gateway"]


def _recv_exactly(sock, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("mux peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Waiter:
    """One in-flight stream: its wake event and eventual outcome."""

    __slots__ = ("event", "document", "error")

    def __init__(self):
        self.event = threading.Event()
        self.document: dict | None = None
        self.error: Exception | None = None


class MuxRemoteGateway(RemoteGateway):
    """A typed gateway client multiplexing every request over one socket.

    ``url`` is ``mux://host:port`` (or ``muxs://`` for TLS; ``tls_ca``
    pins the CA bundle exactly as on the pooled client).  Everything
    else — ``context``, ``timeout``, ``negotiate``, ``trace_requests``,
    ``tenant``/``secret`` — means what it means on
    :class:`RemoteGateway`; ``pool_size`` does not exist here because
    one connection carries every stream.

    Thread-safe like the base client: callers block only on their own
    stream's response (plus a brief send lock), so slow requests never
    head-of-line-block fast ones.  A transport failure wakes every
    in-flight waiter with the error, reconnects lazily, and retries
    replayable requests once — the same drop-retry contract as the
    pooled client, which the server's idempotency window backs for
    revoke/resize.
    """

    def __init__(
        self,
        url: str,
        context: PairingGroup | PreBackend,
        timeout: float = 30.0,
        negotiate: bool = True,
        trace_requests: bool | float = True,
        tenant: str | None = None,
        secret: str | None = None,
        tls_ca: str | None = None,
    ):
        parts = urllib.parse.urlsplit(url.rstrip("/"))
        if parts.scheme not in ("mux", "muxs") or not parts.netloc:
            raise ValueError(
                "mux gateway url must be mux(s)://host[:port], got %r" % url
            )
        if parts.port is None:
            raise ValueError("mux gateway url must carry an explicit port")
        http_scheme = "https" if parts.scheme == "muxs" else "http"
        # The base class owns negotiation, signing, tracing and the typed
        # API; it validates an http(s) spelling of the same endpoint (and
        # builds the TLS context for muxs). Its connection pool goes
        # unused — this subclass owns the transport seam.
        super().__init__(
            "%s://%s" % (http_scheme, parts.netloc),
            context,
            timeout=timeout,
            negotiate=negotiate,
            pool_size=1,
            trace_requests=trace_requests,
            tenant=tenant,
            secret=secret,
            tls_ca=tls_ca,
        )
        self.url = "%s://%s" % (parts.scheme, parts.netloc)
        self._mux_host = parts.hostname or "127.0.0.1"
        self._mux_port = parts.port
        if parts.scheme == "muxs" and self._tls_context is None:
            self._tls_context = client_context(tls_ca)
        self._connect_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._conn_gen = 0
        self._next_id = 0
        self._waiters: dict[int, _Waiter] = {}
        self._reader: threading.Thread | None = None
        self.server_hello: dict | None = None
        # Mux gauges: one socket, many streams.
        self.streams_in_flight = 0
        self.peak_streams = 0

    # ------------------------------------------------------------ transport

    def _ensure_connected(self) -> tuple[socket.socket, int]:
        with self._connect_lock:
            if self._sock is not None:
                return self._sock, self._conn_gen
            sock = socket.create_connection(
                (self._mux_host, self._mux_port), timeout=self.timeout
            )
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._tls_context is not None:
                    sock = self._tls_context.wrap_socket(
                        sock, server_hostname=self._mux_host
                    )
                sock.sendall(encode_frame(mux_hello()))
                header = _recv_exactly(sock, FRAME_HEADER_LEN)
                hello = decode_frame_payload(
                    _recv_exactly(sock, frame_length(header))
                )
                if hello.get("mux") != MUX_PROTOCOL:
                    raise WireTransportError(
                        "%s answered with %r, expected a %s hello"
                        % (self.url, hello.get("mux"), MUX_PROTOCOL)
                    )
            except BaseException:
                sock.close()
                raise
            # The handshake ran under the dial timeout; the reader thread
            # blocks indefinitely (per-stream timeouts are the waiters').
            sock.settimeout(None)
            self.server_hello = hello
            with self._state_lock:
                self._conn_gen += 1
                generation = self._conn_gen
                self._sock = sock
                self.connections_opened += 1
                if self.connections_opened - self.connections_closed > self.peak_connections:
                    self.peak_connections = self.connections_opened - self.connections_closed
            self._reader = threading.Thread(
                target=self._reader_loop,
                args=(sock, generation),
                name="mux-reader-%d" % generation,
                daemon=True,
            )
            self._reader.start()
            return sock, generation

    def _reader_loop(self, sock: socket.socket, generation: int) -> None:
        """Demultiplex response frames to their waiters until the socket dies."""
        try:
            while True:
                header = _recv_exactly(sock, FRAME_HEADER_LEN)
                payload = _recv_exactly(sock, frame_length(header))
                document = decode_frame_payload(payload)
                if document.get("type") != "response":
                    continue  # future protocol extensions (pings) are ignorable
                request_id = document.get("id")
                with self._state_lock:
                    waiter = self._waiters.pop(request_id, None)
                # A missing waiter is a stream whose caller timed out and
                # moved on; the late response is dropped on the floor.
                if waiter is not None:
                    waiter.document = document
                    waiter.event.set()
        except (FrameProtocolError, ConnectionError, OSError, ValueError) as error:
            self._fail_connection(generation, error)

    def _fail_connection(self, generation: int, error: Exception) -> None:
        """Tear one connection generation down, waking its waiters with the error."""
        with self._state_lock:
            if generation != self._conn_gen or self._sock is None:
                return  # an older generation already replaced
            sock, self._sock = self._sock, None
            self.connections_closed += 1
            orphans = list(self._waiters.values())
            self._waiters.clear()
        # close() alone does not wake a reader blocked in recv on Linux;
        # shutdown() does, so the reader exits now instead of lingering.
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            sock.close()
        except OSError:
            pass
        for waiter in orphans:
            if waiter.error is None:
                waiter.error = ConnectionError("mux connection failed: %s" % error)
            waiter.event.set()

    def _register_waiter(self, generation: int) -> tuple[int, _Waiter] | None:
        with self._state_lock:
            if generation != self._conn_gen or self._sock is None:
                return None  # connection died between checkout and send
            self._next_id += 1
            waiter = _Waiter()
            self._waiters[self._next_id] = waiter
            self.streams_in_flight = len(self._waiters)
            if self.streams_in_flight > self.peak_streams:
                self.peak_streams = self.streams_in_flight
            return self._next_id, waiter

    def _drop_waiter(self, request_id: int) -> None:
        with self._state_lock:
            self._waiters.pop(request_id, None)
            self.streams_in_flight = len(self._waiters)

    def _raw_request(
        self,
        method: str,
        path: str,
        data: bytes | None,
        replayable: bool = True,
        trace: TraceContext | None = None,
    ) -> tuple[int, bytes]:
        """One framed exchange on the shared connection, status + body.

        The same contract as the pooled client's transport seam: sign per
        attempt, retry replayable requests exactly once after a transport
        failure (reconnecting lazily), fail fast otherwise.
        """
        headers: dict[str, str] = {}
        if trace is not None:
            headers[TRACE_HEADER] = trace.to_header()
        body_text = data.decode("utf-8") if data is not None else None
        last_error: Exception | None = None
        for _attempt in (0, 1) if replayable else (0,):
            if self._signer is not None:
                # Each attempt is its own signed request — a fresh nonce
                # keeps the server's replay window from rejecting the
                # legitimate retry of a request whose response was lost.
                headers[AUTH_HEADER] = self._signer.header(method, path, data or b"")
            try:
                sock, generation = self._ensure_connected()
            except (*_RETRYABLE, FrameProtocolError, WireTransportError) as error:
                last_error = error
                continue
            registered = self._register_waiter(generation)
            if registered is None:
                last_error = ConnectionError("mux connection lost before send")
                continue
            request_id, waiter = registered
            frame = encode_frame(
                mux_request(request_id, method, path, body_text, headers or None)
            )
            try:
                with self._send_lock:
                    sock.sendall(frame)
            except _RETRYABLE as error:
                self._drop_waiter(request_id)
                self._fail_connection(generation, error)
                last_error = error
                continue
            if not waiter.event.wait(self.timeout):
                # Only this stream timed out; the connection (and every
                # other in-flight stream) stays up.  A late response finds
                # no waiter and is discarded by the reader.
                self._drop_waiter(request_id)
                last_error = TimeoutError(
                    "no response to stream %d within %.1fs" % (request_id, self.timeout)
                )
                continue
            self._drop_waiter(request_id)
            if waiter.error is not None:
                last_error = waiter.error
                continue
            document = waiter.document or {}
            status = document.get("status")
            body = document.get("body")
            if not isinstance(status, int) or not isinstance(body, str):
                last_error = FrameProtocolError("response frame lacks status/body")
                self._fail_connection(generation, last_error)
                continue
            self.last_trace_echo = document.get("trace")
            return status, body.encode("utf-8")
        raise WireTransportError(
            "cannot reach %s%s: %s" % (self.url, path, last_error)
        ) from last_error

    def close(self) -> None:
        """Close the multiplexed connection; in-flight callers see the error."""
        self._fail_connection(self._conn_gen, ConnectionError("client closed"))
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=2.0)


def connect_gateway(url: str, context: PairingGroup | PreBackend, **kwargs):
    """Build the right typed client for a gateway URL.

    ``mux://`` and ``muxs://`` dial the async server's framed transport
    (:class:`MuxRemoteGateway`); ``http://`` and ``https://`` the pooled
    keep-alive client (:class:`RemoteGateway`).  ``pool_size`` is
    meaningful only for the pooled client and silently dropped for mux,
    so callers can pass one kwargs dict for either transport.
    """
    scheme = urllib.parse.urlsplit(url).scheme
    if scheme in ("mux", "muxs"):
        kwargs.pop("pool_size", None)
        return MuxRemoteGateway(url, context, **kwargs)
    return RemoteGateway(url, context, **kwargs)

"""JSON over HTTP/1.1 on plain sockets, for the broker's and historian's APIs.

An API is a table of routes, one per method: a :data:`Route` takes the
request's path and body bytes and returns the reply's status and JSON body.
``JsonHandler`` does the rest for every request: it reads the head as RFC
9112 lays it out (a request line, header fields), looks up the route, reads
a body of at most :data:`MAX_BODY` bytes, framed by ``Content-Length``, and
answers in one write of the head and JSON body. The standard library's HTTP
server would load its HTTP client, ``email`` and ``ssl`` too, about 6 MB
that no route here uses.

Nothing here starts a thread. ``FrontEnds`` holds the listening sockets of
any number of ``JsonHttpServer``s and their connections in one selector, and
:meth:`FrontEnds.serve` serves what is ready within a timeout on the thread
that calls it, then returns. No client can hold it up: each connection keeps
the bytes it has received and not yet parsed and the reply bytes its socket
has not yet taken, and a request is parsed once its bytes are there.
"""

from __future__ import annotations

import json
import logging
import re
import selectors
import socket
from functools import partial
from typing import Callable

log = logging.getLogger(__name__)

MAX_LINE = 65536        # bytes in a request line or a header line
MAX_HEADERS = 100
MAX_HEAD = 65536        # bytes in a request line and its header lines together
MAX_BODY = 65536        # bytes in a request body
RECV_SIZE = 65536       # bytes taken from a connection at a time
# method, target, major and minor version; any HTTP/d.d is well formed, and
# one that is not 1.x is answered 505
REQUEST_LINE = re.compile(r"(\S+) (\S+) HTTP/([0-9])\.([0-9])\r?\n")
REASONS = {200: "OK", 204: "No Content", 400: "Bad Request",
           403: "Forbidden", 404: "Not Found", 409: "Conflict",
           413: "Content Too Large", 414: "URI Too Long",
           431: "Request Header Fields Too Large",
           501: "Not Implemented", 502: "Bad Gateway",
           503: "Service Unavailable", 505: "HTTP Version Not Supported"}


# (path, body bytes) -> (status, reply to send as JSON; None sends no body)
Route = Callable[[str, bytes], tuple[int, object]]


class JsonHandler:
    """One client connection. Its requests are read and answered in turn,
    each by its method's route in the server's table, until the client
    closes it, a request asks for ``Connection: close`` or is HTTP/1.0, or a
    reply leaves the connection out of step.

    The reading methods are generators: they yield while the bytes they
    need have not come, or a reply is still unsent, and :meth:`step` resumes
    them when the socket is ready."""

    def __init__(self, sock: socket.socket, routes: dict[str, Route]):
        self.sock, self.routes = sock, routes
        self.received = bytearray()     # from the client, not yet parsed
        self.unsent = bytearray()       # replies the socket has not taken
        self.eof = False                # the client closed its side
        self.close_connection = False
        self.events = 0                 # the selector's wait; 0: none
        self._requests = self._handle()

    def step(self) -> int:
        """Take what the socket has, answer each request whose bytes have
        come and send what the socket takes. Returns the selector events to
        wait for, 0 once the connection is over; raises ``OSError`` when the
        client went away, and whatever a route raises."""
        if not self.unsent:
            try:
                data = self.sock.recv(RECV_SIZE)
                self.received += data
                self.eof = not data
            except BlockingIOError:     # nothing has come yet
                pass
        while True:
            if self.unsent:
                try:
                    del self.unsent[:self.sock.send(self.unsent)]
                except BlockingIOError:
                    pass
                if self.unsent:
                    return selectors.EVENT_WRITE
            if self._requests is None:
                return 0
            try:
                next(self._requests)
            except StopIteration:
                self._requests = None
                continue
            if not self.unsent:
                return selectors.EVENT_READ

    def _handle(self):
        while not self.close_connection and (yield from self._read_head()):
            route = self.routes.get(self.command)
            if route is None:
                # its body, if any, is unread: close after the reply
                self._refuse(501, f"unsupported method {self.command}")
                continue
            # read a body on every route, or keep-alive parses it as the
            # next request
            body = yield from self.read_body()
            if body is not None:
                self.send_json(*route(self.path, body))

    def _take(self, size: int, line: bool = False):
        """The next ``size`` bytes, or with ``line`` the next line if it is
        shorter, once every reply is sent and they have come; fewer when the
        client closed first."""
        received = self.received
        while True:
            if not self.unsent:
                end = received.find(b"\n", 0, size) + 1 if line else 0
                if end or len(received) >= size or self.eof:
                    taken = bytes(received[:end or size])
                    del received[:end or size]
                    return taken
            yield

    def _read_head(self):
        """Read one request line and its header fields, by lower-cased name,
        into ``command``, ``path`` and ``headers``. False when there is no
        request to serve: the client closed, or the head was refused with a
        reply."""
        line = yield from self._take(MAX_LINE + 1, line=True)
        if not line:
            return False
        if len(line) > MAX_LINE:
            return self._refuse(414, "request line too long")
        m = REQUEST_LINE.fullmatch(line.decode("latin-1"))
        if m is None:
            return self._refuse(400, "malformed request line")
        method, target, major, minor = m.groups()
        if major != "1":
            return self._refuse(505, f"HTTP/{major}.{minor} is not supported")
        headers: dict[str, str] = {}
        head_bytes = len(line)
        for _ in range(MAX_HEADERS + 1):
            line = yield from self._take(MAX_LINE + 1, line=True)
            if line in (b"\r\n", b"\n"):
                break
            if not line:        # the client closed mid-request
                return False
            if len(line) > MAX_LINE:
                return self._refuse(431, "header line too long")
            head_bytes += len(line)
            if head_bytes > MAX_HEAD:
                return self._refuse(431, f"a request head is at most {MAX_HEAD} bytes")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name.strip() != name:
                return self._refuse(400, "malformed header line")
            name, value = name.lower(), value.strip()
            first = headers.setdefault(name, value)
            if name == "content-length" and first != value:
                # either may frame the body: neither can be trusted
                return self._refuse(
                    400, f"conflicting Content-Length {first!r} and {value!r}")
        else:
            return self._refuse(431, f"more than {MAX_HEADERS} header lines")
        if "transfer-encoding" in headers:
            # a body framed other than by Content-Length cannot be skipped
            return self._refuse(501, "Transfer-Encoding is not supported")
        self.command, self.path, self.headers = method, target, headers
        self.close_connection = (
            minor == "0" or headers.get("connection", "").lower() == "close")
        self.expects_continue = (
            minor != "0" and headers.get("expect", "").lower() == "100-continue")
        return True

    def _refuse(self, status: int, error: str) -> bool:
        """Reply ``status`` and close: where the next request would start is
        unknown. Returns False, for ``_read_head``."""
        self.close_connection = True
        self.send_json(status, {"error": error})
        return False

    def send_json(self, status: int, body) -> None:
        """Reply ``body`` as JSON; ``None`` is an empty body. Head and body
        go in one write: two small writes stall ~40 ms on keep-alive (Nagle
        vs delayed ACK)."""
        raw = b"" if body is None else json.dumps(body).encode()
        head = f"HTTP/1.1 {status} {REASONS.get(status, '')}\r\n"
        if status != 204:       # a 204 carries no Content-Length (RFC 9110)
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(raw)}\r\n")
        if self.close_connection:
            head += "Connection: close\r\n"
        self.unsent += head.encode() + b"\r\n" + raw

    def read_body(self):
        """The request body, or ``None`` when there is none to act on: after
        a 400 reply when Content-Length is not a decimal count of bytes, a
        413 when it counts more than ``MAX_BODY``, or when the client closed
        before all of it came. ``Expect: 100-continue`` is answered only
        once the length is accepted."""
        length = self.headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            self._refuse(400, f"invalid Content-Length {length!r}")
            return None
        digits = length.lstrip("0") or "0"
        # measured as text first: int() refuses more than 4,300 digits
        size = (int(digits) if len(digits) <= len(str(MAX_BODY))
                else MAX_BODY + 1)
        if size > MAX_BODY:
            self._refuse(413, f"a body is at most {MAX_BODY} bytes")
            return None
        if self.expects_continue:
            self.unsent += b"HTTP/1.1 100 Continue\r\n\r\n"
        body = yield from self._take(size)
        if len(body) < size:
            self.close_connection = True
            return None
        return body


class JsonHttpServer:
    """A listening socket that serves ``routes``, a :data:`Route` by method,
    once a :class:`FrontEnds` holds it."""

    def __init__(self, address: tuple[str, int], routes: dict[str, Route]):
        self.routes = routes
        self.socket = socket.create_server(address)     # SO_REUSEADDR
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % self.server_address

    def server_close(self) -> None:
        self.socket.close()


class FrontEnds:
    """The listening sockets of ``servers`` and their connections in one
    selector, served by the thread that calls :meth:`serve`."""

    def __init__(self, servers: list[JsonHttpServer]):
        self._selector = selectors.DefaultSelector()
        for server in servers:
            self._selector.register(server.socket, selectors.EVENT_READ,
                                    partial(self._accept, server))

    def serve(self, timeout: float) -> None:
        """Serve whatever is ready within ``timeout`` seconds, then return."""
        for key, _ in self._selector.select(timeout):
            if isinstance(key.data, JsonHandler):
                self._step(key.data)
            else:
                key.data()

    def _accept(self, server: JsonHttpServer) -> None:
        """Take a connection waiting on ``server`` and serve what it has
        sent already; the selector reports any other still waiting."""
        try:
            sock, _ = server.socket.accept()
        except OSError:     # the client gave up before it was accepted
            return
        sock.setblocking(False)
        self._step(JsonHandler(sock, server.routes))

    def _step(self, conn: JsonHandler) -> None:
        try:
            events = conn.step()
        except OSError:         # the client went away
            events = 0
        except Exception:       # a route failed: only its connection ends
            log.exception("closing a connection after a failed request")
            events = 0
        if not events:
            if conn.events:
                self._selector.unregister(conn.sock)
            conn.sock.close()
        elif not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif events != conn.events:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def close(self) -> None:
        """Close every connection and the selector; each server's listening
        socket is its ``server_close()``'s to close."""
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, JsonHandler):
                key.fileobj.close()
        self._selector.close()

"""JSON over HTTP/1.1 on plain sockets, for the broker's and historian's APIs.

An API is a table of routes, one per method: a :data:`Route` takes the
request's path and body bytes and returns the reply's status and JSON body.
``JsonHandler`` does the rest for every request: it reads the head as RFC
9112 lays it out (a request line, header fields), looks up the route, reads
a body of at most :data:`MAX_BODY` bytes, framed by ``Content-Length``, and
answers in one write of the head and JSON body. A ``JsonHttpServer`` gives
each connection a daemon thread of its own, and ``serve`` accepts for any
number of servers on one thread that sleeps in a selector until a client
connects or it is stopped. The standard library's HTTP server would load
its HTTP client, ``email`` and ``ssl`` too, about 6 MB that no route here
uses.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import socketserver
import threading
from typing import Callable

MAX_LINE = 65536        # bytes in a request line or a header line
MAX_HEADERS = 100
MAX_BODY = 65536        # bytes in a request body
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


class JsonHandler(socketserver.StreamRequestHandler):
    """One client connection. Its requests are read and answered in turn,
    each by its method's route in the server's table, until the client
    closes it, a request asks for ``Connection: close`` or is HTTP/1.0, or a
    reply leaves the connection out of step."""

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection and self._read_head():
                route = self.server.routes.get(self.command)
                if route is None:
                    # its body, if any, is unread: close after the reply
                    self._refuse(501, f"unsupported method {self.command}")
                    continue
                # read a body on every route, or keep-alive parses it as
                # the next request
                body = self.read_body()
                if body is not None:
                    self.send_json(*route(self.path, body))
        except OSError:     # the client went away, or the server closed
            pass

    def _read_head(self) -> bool:
        """Read one request line and its header fields, by lower-cased name,
        into ``command``, ``path`` and ``headers``. False when there is no
        request to serve: the client closed, or the head was refused with a
        reply."""
        line = self.rfile.readline(MAX_LINE + 1)
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
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line:        # the client closed mid-request
                return False
            if len(line) > MAX_LINE:
                return self._refuse(431, "header line too long")
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
        self.wfile.write(head.encode() + b"\r\n" + raw)

    def read_body(self) -> bytes | None:
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
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(size)
        if len(body) < size:
            self.close_connection = True
            return None
        return body


class JsonHttpServer(socketserver.TCPServer):
    """A listening socket that serves ``routes``, a :data:`Route` by method,
    and whose connections each get a daemon thread: a command's route
    blocks until the run loop has made its delivery, and a keep-alive client
    must not hold up the others."""

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], routes: dict[str, Route]):
        self.routes = routes
        # first: a failed bind calls server_close(), which reads these
        self._lock = threading.Lock()
        self._connections: dict[socket.socket, threading.Thread] = {}
        super().__init__(address, JsonHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return "http://%s:%d" % self.server_address

    def accept(self) -> None:
        """Accept one waiting connection and serve it on its own thread."""
        try:
            request, address = self.socket.accept()
        except OSError:     # the client gave up before it was accepted
            return
        thread = threading.Thread(target=self._serve_connection,
                                  args=(request, address), daemon=True)
        with self._lock:
            self._connections[request] = thread
        thread.start()

    def _serve_connection(self, request: socket.socket, address) -> None:
        try:
            self.finish_request(request, address)
        except Exception:
            self.handle_error(request, address)
        finally:
            with self._lock:
                del self._connections[request]
            self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every open connection, and wait
        for their threads to end."""
        super().server_close()
        with self._lock:
            connections = list(self._connections.items())
        for request, thread in connections:
            try:
                # wakes a thread blocked reading an idle keep-alive client
                request.shutdown(socket.SHUT_RDWR)
            except OSError:     # its thread closed it first
                pass
            thread.join()


def serve(servers: list[JsonHttpServer]) -> Callable[[], None]:
    """Accept connections for every one of ``servers`` on one daemon thread.
    It sleeps in one selector until a client connects or the returned stop
    function writes a byte to a socketpair; stop returns once the thread has
    ended, and leaves the servers to their ``server_close()``."""
    wake, waker = socket.socketpair()
    selector = selectors.DefaultSelector()
    selector.register(wake, selectors.EVENT_READ)
    for server in servers:
        selector.register(server.socket, selectors.EVENT_READ, server)

    def accept_until_woken() -> None:
        while True:
            for key, _ in selector.select():
                if key.data is None:
                    return
                key.data.accept()

    thread = threading.Thread(target=accept_until_woken, daemon=True)
    thread.start()

    def stop() -> None:
        waker.send(b"\0")
        thread.join()
        selector.close()
        wake.close()
        waker.close()

    return stop

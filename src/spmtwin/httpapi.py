"""What the broker's and the historian's stdlib HTTP front ends share: JSON
replies in one write, a checked request body, and a server that starts on a
daemon thread and shuts down quickly."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# serve_forever looks for a shutdown request this often, so shutdown() blocks
# for up to this long; the stdlib's 0.5 s made every run end ~1 s late
SHUTDOWN_POLL_S = 0.05


class JsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # buffer each response into one write: headers and body sent in two
    # small writes stall ~40 ms on keep-alive (Nagle vs delayed ACK)
    wbufsize = -1

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def send_json(self, status: int, body) -> None:
        """Reply ``body`` as JSON; ``None`` is an empty body."""
        raw = b"" if body is None else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        if raw:
            self.wfile.write(raw)

    def read_body(self) -> bytes | None:
        """The request body, or ``None`` after a 400 reply when
        Content-Length is not a decimal count of bytes."""
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            # where this body ends, and so the next request starts, is unknown
            self.close_connection = True
            self.send_json(400, {"error": f"invalid Content-Length {length!r}"})
            return None
        return self.rfile.read(int(length))


class JsonHttpServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> None:
        threading.Thread(target=self.serve_forever, args=(SHUTDOWN_POLL_S,),
                         daemon=True).start()

"""The edges of HTTP/1.1 (RFC 9112) that the twin's own front ends parse,
each checked on both servers. Requests are written as raw bytes, so each
case can be exactly as malformed as it means to be."""

import json
import socket

import pytest

from spmtwin import broker as broker_mod
from spmtwin import historian as historian_mod
from spmtwin.broker import Broker
from spmtwin.historian import Historian
from spmtwin.httpapi import MAX_BODY, MAX_HEAD

PANEL = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"


def broker_server():
    broker = Broker()
    broker.create_thing("FDT:solar-panel-1", {"panel": {"power": 0.0}})
    # a read and its reply, and a write (method, path, body) and its status
    return (broker_mod.http_routes(broker.handle_request), (PANEL, 0.0),
            ("PUT", PANEL, b"33.0", 204))


def historian_server():
    def unused(*args):
        raise AssertionError("nothing is polled")

    hist = Historian(unused, unused, unused, unused)
    routes = historian_mod.http_routes(
        hist, lambda target, value: {"ok": True, "target": target})
    return (routes, ("/datapoint/getAll", []),
            ("POST", "/command", b'{"target": "x:y", "value": 1}', 200))


@pytest.fixture(params=[broker_server, historian_server],
                ids=["broker", "historian"])
def served(request, http_server):
    routes, read, write = request.param()
    return http_server(routes), read, write


def connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=2)


def read_reply(sock, buf=b""):
    """Read one reply; returns (status, lower-cased headers, JSON body or
    None, the bytes read past it)."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-reply after {buf!r}"
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    body = json.loads(rest[:length]) if length else None
    return int(status_line.split()[1]), headers, body, rest[length:]


def closes(sock, wait: float = 2.0) -> bool:
    """True when the server closes ``sock`` within ``wait`` seconds."""
    sock.settimeout(wait)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False


def exchange(server, raw: bytes):
    """Send ``raw`` on a fresh connection; returns the reply as read_reply
    does, with whether the server then closed the connection."""
    with connect(server) as sock:
        sock.sendall(raw)
        status, headers, body, rest = read_reply(sock)
        assert rest == b""
        return status, headers, body, closes(sock)


# each request is sent whole and nothing past the point where the server
# stops reading, so the server's close never resets unread bytes
@pytest.mark.parametrize("raw, status", [
    (b"NONSENSE\r\n", 400),
    (b"GET /\r\n", 400),
    (b"GET / FOO/1.1\r\n", 400),
    (b"GET / HTTP/1.1 extra\r\n", 400),
    (b"GET / HTTP/2.0\r\n", 505),
    (b"GET /" + b"a" * (65537 - 5), 414),
    (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101, 431),
    (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8), 431),
    (b"GET / HTTP/1.1\r\nno colon here\r\n", 400),
], ids=["one-word", "two-words", "not-http", "four-words", "http-2",
        "line-too-long", "101-headers", "header-too-long", "header-no-colon"])
def test_a_malformed_head_is_refused_and_closed(served, raw, status):
    server, *_ = served
    got, headers, body, closed = exchange(server, raw)
    assert (got, closed) == (status, True)
    assert headers["connection"] == "close"
    assert "error" in body


def test_a_head_over_its_byte_bound_is_431(served):
    # 70 header lines of 1,000 bytes: each line is short enough, the head
    # is not. The server takes all of them, in two receives, before it
    # reaches the line past the bound, so its close resets nothing unread.
    server, (path, _), _ = served
    line = b"X-Big: " + b"a" * (1000 - 9) + b"\r\n"
    raw = f"GET {path} HTTP/1.1\r\n".encode() + line * 70 + b"\r\n"
    status, headers, body, closed = exchange(server, raw)
    assert (status, closed) == (431, True)
    assert headers["connection"] == "close"
    assert str(MAX_HEAD) in body["error"]


def test_a_head_at_its_byte_bound_is_served(served):
    server, (path, value), _ = served
    request_line = f"GET {path} HTTP/1.1\r\n".encode()
    size = MAX_HEAD - len(request_line) - 9   # the bound, to the byte
    raw = request_line + b"X-Big: " + b"a" * size + b"\r\n\r\n"
    assert len(raw) - 2 == MAX_HEAD
    assert exchange(server, raw)[:3:2] == (200, value)


def test_a_hundred_headers_are_served(served):
    server, (path, value), _ = served
    raw = f"GET {path} HTTP/1.1\r\n".encode() + b"X-Many: 1\r\n" * 100 + b"\r\n"
    assert exchange(server, raw)[:3:2] == (200, value)


@pytest.mark.parametrize("method", ["HEAD", "DELETE", "OPTIONS"])
def test_an_unknown_method_is_501_with_a_json_body(served, method):
    server, (path, _), _ = served
    status, headers, body, closed = exchange(
        server, f"{method} {path} HTTP/1.1\r\n\r\n".encode())
    assert (status, closed) == (501, True)
    assert headers["content-type"] == "application/json"
    assert method in body["error"]


def test_a_chunked_body_is_refused_not_misread(served):
    server, _, (method, path, body, _) = served
    raw = (f"{method} {path} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
           .encode())
    with connect(server) as sock:
        sock.sendall(raw)
        status, _, reply, _ = read_reply(sock)
        assert status == 501 and "Transfer-Encoding" in reply["error"]
        assert closes(sock)


def test_lower_case_content_length_is_honoured(served):
    server, _, (method, path, body, ok) = served
    with connect(server) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\ncontent-length: {len(body)}"
                     "\r\n\r\n".encode() + body)
        status, _, _, rest = read_reply(sock)
        assert (status, rest) == (ok, b"")
        assert not closes(sock, 0.2)     # kept alive, and the body was all read


@pytest.mark.parametrize("head", [
    "HTTP/1.1\r\nConnection: close", "HTTP/1.1\r\nconnection: Close",
    "HTTP/1.0"])
def test_close_and_http_1_0_close_after_the_reply(served, head):
    server, (path, value), _ = served
    status, headers, body, closed = exchange(
        server, f"GET {path} {head}\r\n\r\n".encode())
    assert (status, body, closed) == (200, value, True)
    assert headers["connection"] == "close"


def test_keep_alive_is_the_default_in_http_1_1(served):
    server, (path, value), _ = served
    with connect(server) as sock:
        for _ in range(3):
            sock.sendall(f"GET {path} HTTP/1.1\r\n\r\n".encode())
            status, headers, body, _ = read_reply(sock)
            assert (status, body) == (200, value)
            assert "connection" not in headers


def test_expect_100_continue_is_answered_before_the_body(served):
    server, _, (method, path, body, ok) = served
    with connect(server) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}"
                     "\r\nExpect: 100-continue\r\n\r\n".encode())
        buf = b""
        while b"\r\n\r\n" not in buf:
            buf += sock.recv(65536)
        assert buf == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        assert read_reply(sock)[0] == ok


@pytest.mark.parametrize("partial", [
    b"GET / HT", b"GET / HTTP/1.1\r\nHost: x", b"{method} {path} HTTP/1.1\r\n"
    b"Content-Length: 100\r\n\r\n12"], ids=["line", "headers", "body"])
def test_a_client_gone_mid_request_leaves_the_server_serving(
        served, http_server, partial, capsys, caplog):
    server, (path, value), (method, _, _, _) = served
    with connect(server) as sock:
        sock.sendall(partial.replace(b"{method}", method.encode())
                     .replace(b"{path}", path.encode()))
    status, _, body, _ = exchange(server, f"GET {path} HTTP/1.1\r\n"
                                          "Connection: close\r\n\r\n".encode())
    assert (status, body) == (200, value)
    http_server.stop()     # ends the thread that serves every connection
    assert capsys.readouterr().err == ""
    assert caplog.records == []


def test_a_route_that_raises_closes_only_its_own_connection(
        http_server, caplog):
    def get(path, _raw):
        if path == "/boom":
            raise RuntimeError("boom")
        return 200, {"path": path}

    server = http_server({"GET": get})
    with connect(server) as idle, connect(server) as failing:
        idle.sendall(b"GET /a HTTP/1.1\r\n\r\n")
        assert read_reply(idle)[::2] == (200, {"path": "/a"})
        failing.sendall(b"GET /boom HTTP/1.1\r\n\r\n")
        assert closes(failing)
        idle.sendall(b"GET /b HTTP/1.1\r\n\r\n")
        assert read_reply(idle)[::2] == (200, {"path": "/b"})
    status, _, body, closed = exchange(
        server, b"GET /c HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert (status, body, closed) == (200, {"path": "/c"}, True)
    http_server.stop()
    assert [r.exc_info[1].args for r in caplog.records] == [("boom",)]


@pytest.mark.parametrize("length", [
    str(MAX_BODY + 1), "1000000000000000", "9" * 5000],
    ids=["one-over", "a-petabyte", "5000-digits"])
@pytest.mark.parametrize("expect", ["", "Expect: 100-continue\r\n"],
                         ids=["plain", "expect-100"])
def test_a_body_over_max_body_is_413_before_any_100_continue(
        served, length, expect):
    server, _, (method, path, _, _) = served
    status, headers, body, closed = exchange(
        server, f"{method} {path} HTTP/1.1\r\nContent-Length: {length}\r\n"
                f"{expect}\r\n".encode())
    assert (status, closed) == (413, True)
    assert headers["connection"] == "close"
    assert str(MAX_BODY) in body["error"]


def test_a_body_of_max_body_bytes_is_served(served):
    server, _, (method, path, body, ok) = served
    body = body.ljust(MAX_BODY)     # JSON allows the trailing spaces
    with connect(server) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nContent-Length: "
                     f"{len(body)}\r\n\r\n".encode() + body)
        assert read_reply(sock)[0] == ok
        assert not closes(sock, 0.2)


@pytest.mark.parametrize("lengths", [(2, 4), (4, 2)], ids=["2-4", "4-2"])
def test_differing_content_lengths_are_400_and_closed(served, lengths):
    server, _, (method, path, _, _) = served
    fields = "".join(f"Content-Length: {n}\r\n" for n in lengths)
    status, headers, body, closed = exchange(
        server, f"{method} {path} HTTP/1.1\r\n{fields}\r\n".encode())
    assert (status, closed) == (400, True)
    assert headers["connection"] == "close"
    assert "Content-Length" in body["error"]


def test_a_repeated_equal_content_length_frames_the_body(served):
    server, _, (method, path, body, ok) = served
    with connect(server) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\n".encode()
                     + f"Content-Length: {len(body)}\r\n".encode() * 2
                     + b"\r\n" + body)
        status, _, _, rest = read_reply(sock)
        assert (status, rest) == (ok, b"")
        assert not closes(sock, 0.2)


def test_a_body_that_is_not_utf_8_is_400_and_kept_alive(served):
    server, (path, value), (method, write_path, _, _) = served
    with connect(server) as sock:
        sock.sendall(f"{method} {write_path} HTTP/1.1\r\nContent-Length: 3"
                     "\r\n\r\n".encode() + b'"\xff"')
        assert read_reply(sock)[0] == 400
        sock.sendall(f"GET {path} HTTP/1.1\r\n\r\n".encode())
        assert read_reply(sock)[:3:2] == (200, value)

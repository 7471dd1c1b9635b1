import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

from spmtwin.httpapi import FrontEnds, JsonHttpServer

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture(scope="session")
def scenario_path() -> str:
    return os.path.abspath(os.path.join(SCENARIO_DIR, "spm.json"))


@pytest.fixture(scope="session")
def scenario_dir() -> str:
    return os.path.abspath(SCENARIO_DIR)


WEEK_RUN_TEST = "test_criterion_07_week_run"

# The CLI run of criterion 07; prints its wall seconds as the last line
WEEK_RUN_CHILD = """
import sys, time
from spmtwin.cli import main
start = time.monotonic()
code = main(sys.argv[1:])
print(time.monotonic() - start)
sys.exit(code)
"""


def pytest_collection_modifyitems(items):
    # the week-run test only collects the run week_run_child started, so it
    # goes last and the other tests run while that run sleeps between events
    items.sort(key=lambda item: item.name == WEEK_RUN_TEST)


@pytest.fixture(scope="session", autouse=True)
def week_run_child(request, tmp_path_factory, scenario_path):
    """The paced 7-day run of criterion 07 (about ten wall-minutes, nearly
    all of it asleep), started in its own process when the session starts.
    Yields ``(process, out_dir, console_path)``, or None when the week-run
    test is not selected."""
    if not any(item.name == WEEK_RUN_TEST for item in request.session.items):
        yield None
        return
    out = tmp_path_factory.mktemp("week")
    console = tmp_path_factory.mktemp("week_console") / "console.txt"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    with open(console, "w") as fh:
        child = subprocess.Popen(
            [sys.executable, "-c", WEEK_RUN_CHILD, "run", scenario_path,
             "--out", str(out), "--quiet"],
            stdout=fh, stderr=subprocess.STDOUT, env=env)
    try:
        yield child, str(out), console
    finally:
        child.kill()
        child.wait()


@pytest.fixture
def keepalive_median_ms():
    """Median wall time in ms of ``count`` identical requests sent over one
    persistent HTTP/1.1 connection to ``port``."""

    def measure(port, method, path, body=None, count=20):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        times = []
        try:
            for _ in range(count):
                start = time.perf_counter()
                conn.request(method, path, body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                resp.read()
                times.append((time.perf_counter() - start) * 1e3)
                assert resp.status < 300, (method, path, resp.status)
        finally:
            conn.close()
        return statistics.median(times)

    return measure


@pytest.fixture
def bad_length_reply():
    """Send ``method path`` to ``port`` with the header ``Content-Length:
    length`` and no body; returns the reply's status and JSON body, which
    must come within 2 s."""

    def send(port, method, path, length):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        try:
            conn.putrequest(method, path)
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    return send


class Serving:
    """Serves tables of routes, each on a free port of 127.0.0.1, from one
    thread per table that calls ``FrontEnds.serve`` until stopped."""

    def __init__(self):
        self._running = []

    def __call__(self, routes) -> JsonHttpServer:
        server = JsonHttpServer(("127.0.0.1", 0), routes)
        front_ends = FrontEnds([server])
        stopping = threading.Event()

        def loop():
            while not stopping.is_set():
                front_ends.serve(0.05)      # a stop is seen within 50 ms

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        self._running.append((server, front_ends, stopping, thread))
        return server

    def stop(self) -> None:
        """Stop every serving thread, then close each server and its
        connections."""
        for server, front_ends, stopping, thread in self._running:
            stopping.set()
            thread.join(timeout=5)
            assert not thread.is_alive()
            front_ends.close()
            server.server_close()
        self._running = []


@pytest.fixture
def http_server():
    """``http_server(routes)`` serves a table of routes and returns its
    ``JsonHttpServer``; every one is stopped and closed when the test ends,
    or at ``http_server.stop()``."""
    serving = Serving()
    yield serving
    serving.stop()

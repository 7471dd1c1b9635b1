import http.client
import json
import os
import statistics
import time

import pytest

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


@pytest.fixture(scope="session")
def scenario_path() -> str:
    return os.path.abspath(os.path.join(SCENARIO_DIR, "spm.json"))


@pytest.fixture(scope="session")
def scenario_dir() -> str:
    return os.path.abspath(SCENARIO_DIR)


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

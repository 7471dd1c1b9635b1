import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin.broker import (
    Broker,
    BrokerHttpServer,
    Conflict,
    NotFound,
    SubscriberLagged,
    ValidationError,
)


def make_broker(**kwargs) -> Broker:
    broker = Broker(**kwargs)
    broker.create_thing("FDT:solar-panel-1", {"panel": {"power": 0.0}})
    return broker


class TestThings:
    def test_create_and_list(self):
        broker = make_broker()
        broker.create_thing("FDT:energy-store-1")
        assert broker.list_things() == ["FDT:energy-store-1", "FDT:solar-panel-1"]

    def test_duplicate_create_conflicts(self):
        broker = make_broker()
        with pytest.raises(Conflict):
            broker.create_thing("FDT:solar-panel-1")

    @pytest.mark.parametrize("bad", ["no-namespace", "a:b:c", "", "a b:c", ":x"])
    def test_malformed_thing_id(self, bad):
        with pytest.raises(ValidationError):
            Broker().create_thing(bad)

    def test_non_scalar_values_rejected(self):
        broker = make_broker()
        with pytest.raises(ValidationError):
            broker.put_property("FDT:solar-panel-1", "panel", "power", [1, 2])
        with pytest.raises(ValidationError):
            broker.create_thing("FDT:x", {"f": {"p": {"nested": 1}}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_numbers_rejected(self, value):
        broker = make_broker()
        with pytest.raises(ValidationError, match="finite"):
            broker.put_property("FDT:solar-panel-1", "panel", "power", value)
        assert broker.get_property("FDT:solar-panel-1", "panel", "power") == 0.0
        assert broker.revision("FDT:solar-panel-1") == 0
        reply = broker.handle_request({
            "method": "PUT", "body": value,
            "path": "/api/2/things/FDT:solar-panel-1/features/panel"
                    "/properties/power"})
        assert reply["status"] == 400


class TestProperties:
    def test_read_your_write(self):
        broker = make_broker()
        broker.put_property("FDT:solar-panel-1", "panel", "power", 42.5)
        assert broker.get_property("FDT:solar-panel-1", "panel", "power") == 42.5

    def test_unknown_paths_raise(self):
        broker = make_broker()
        with pytest.raises(NotFound):
            broker.get_property("FDT:nope", "panel", "power")
        with pytest.raises(NotFound):
            broker.get_property("FDT:solar-panel-1", "panel", "nope")
        with pytest.raises(NotFound):
            broker.put_property("FDT:nope", "panel", "power", 1)

    def test_revisions_increment_per_write(self):
        broker = make_broker()
        revs = [broker.put_property("FDT:solar-panel-1", "panel", "power", i)
                for i in range(10)]
        assert revs == list(range(1, 11))
        assert broker.revision("FDT:solar-panel-1") == 10

    def test_timestamp_comes_from_injected_clock(self):
        t = [0.0]
        broker = Broker(time_fn=lambda: t[0])
        broker.create_thing("FDT:a", {"f": {"p": 0}})
        sub = broker.subscribe("FDT:a/f/p")
        t[0] = 123.4
        broker.put_property("FDT:a", "f", "p", 1)
        assert sub.get(timeout=1).timestamp == 123.4


class TestSubscriptions:
    def test_filtering_and_order(self):
        broker = make_broker()
        broker.create_thing("FDT:b", {"f": {"p": 0, "q": 0}})
        all_sub = broker.subscribe("FDT:b")
        prop_sub = broker.subscribe("FDT:b/f/p")
        star_sub = broker.subscribe("*/f/q")
        broker.put_property("FDT:b", "f", "p", 1)
        broker.put_property("FDT:b", "f", "q", 2)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 3)
        assert [e.new for e in all_sub.drain()] == [1, 2]
        assert [e.new for e in prop_sub.drain()] == [1]
        assert [e.new for e in star_sub.drain()] == [2]

    def test_old_and_new_values(self):
        broker = make_broker()
        sub = broker.subscribe("FDT:solar-panel-1/panel/power")
        broker.put_property("FDT:solar-panel-1", "panel", "power", 7)
        event = sub.get(timeout=1)
        assert (event.old, event.new) == (0.0, 7)

    def test_overflow_disconnects_with_lag_error(self):
        broker = make_broker()
        sub = broker.subscribe("FDT:solar-panel-1", maxlen=5)
        for i in range(6):
            broker.put_property("FDT:solar-panel-1", "panel", "power", i)
        for _ in range(5):
            sub.get(timeout=1)
        with pytest.raises(SubscriberLagged):
            sub.get(timeout=1)

    def test_unsubscribe_stops_delivery(self):
        broker = make_broker()
        sub = broker.subscribe("FDT:solar-panel-1")
        broker.unsubscribe(sub)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 1)
        assert sub.closed

    def test_callback_subscription(self):
        broker = make_broker()
        seen = []
        broker.subscribe("FDT:solar-panel-1/panel/power", callback=seen.append)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 9)
        assert [e.new for e in seen] == [9]


class TestConcurrency:
    def test_16_writers_1000_writes_gap_free_and_ordered(self):
        broker = Broker()
        broker.create_thing("FDT:hot", {"f": {"p": 0}})
        sub = broker.subscribe("FDT:hot/f/p", maxlen=20000)

        def writer(worker: int):
            for i in range(1000):
                broker.put_property("FDT:hot", "f", "p", worker * 1000 + i)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert broker.revision("FDT:hot") == 16000
        events = sub.drain()
        assert len(events) == 16000
        # revisions are gap-free and delivered in revision order
        assert [e.revision for e in events] == list(range(1, 16001))
        # each event chains old -> new against its predecessor
        for prev, cur in zip(events, events[1:]):
            assert cur.old == prev.new


class TestRequestHandler:
    def test_structured_get_put(self):
        broker = make_broker()
        put = broker.handle_request({
            "method": "PUT",
            "path": "/api/2/things/FDT:solar-panel-1/features/panel/properties/power",
            "body": 55.0,
        })
        assert put["status"] == 204
        get = broker.handle_request({
            "method": "GET",
            "path": "/api/2/things/FDT:solar-panel-1/features/panel/properties/power",
        })
        assert (get["status"], get["body"]) == (200, 55.0)

    def test_unknown_paths(self):
        broker = make_broker()
        assert broker.handle_request({"method": "GET", "path": "/nope"})["status"] == 404
        missing = broker.handle_request({
            "method": "GET",
            "path": "/api/2/things/FDT:x/features/f/properties/p",
        })
        assert missing["status"] == 404

    def test_list_things_endpoint(self):
        broker = make_broker()
        result = broker.handle_request({"method": "GET", "path": "/api/2/things"})
        assert result == {"status": 200, "body": ["FDT:solar-panel-1"]}


class TestHttpServer:
    def test_http_round_trip(self):
        broker = make_broker()
        server = BrokerHttpServer(broker.handle_request)
        server.start()
        base = f"http://127.0.0.1:{server.port}"
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        try:
            req = urllib.request.Request(
                base + path, data=json.dumps(33.0).encode(), method="PUT",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                assert resp.status in (200, 204)
            with urllib.request.urlopen(base + path) as resp:
                assert json.load(resp) == 33.0
            with urllib.request.urlopen(base + "/api/2/things") as resp:
                assert json.load(resp) == ["FDT:solar-panel-1"]
        finally:
            server.shutdown()
            server.server_close()

    def test_keepalive_responses_do_not_stall(self, keepalive_median_ms):
        server = BrokerHttpServer(make_broker().handle_request)
        server.start()
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        try:
            assert keepalive_median_ms(server.port, "GET", path) < 10
            assert keepalive_median_ms(server.port, "PUT", path, "33.0") < 10
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, bad_length_reply, length):
        server = BrokerHttpServer(make_broker().handle_request)
        server.start()
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        try:
            status, body = bad_length_reply(server.port, "PUT", path, length)
            assert status == 400
            assert "Content-Length" in body["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_get_with_a_body_keeps_the_connection_in_step(self):
        server = BrokerHttpServer(make_broker().handle_request)
        server.start()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=2)
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        try:
            # on one keep-alive connection, a body left unread would be
            # parsed as the next request
            conn.request("GET", path, body=b"GET /nope HTTP/1.1\r\n\r\n")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) == (200, 0.0)
            conn.request("GET", "/api/2/things")
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())) \
                == (200, ["FDT:solar-panel-1"])
        finally:
            conn.close()
            server.shutdown()
            server.server_close()

    def test_http_404(self):
        broker = make_broker()
        server = BrokerHttpServer(broker.handle_request)
        server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}"
                    "/api/2/things/FDT:x/features/f/properties/p")
            assert err.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


@given(st.lists(st.one_of(st.integers(),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.booleans(), st.text(max_size=10)),
                min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_last_write_wins_property(values):
    broker = Broker()
    broker.create_thing("FDT:p", {"f": {"p": 0}})
    for v in values:
        broker.put_property("FDT:p", "f", "p", v)
    assert broker.get_property("FDT:p", "f", "p") == values[-1]
    assert broker.revision("FDT:p") == len(values)

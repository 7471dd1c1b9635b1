import http.client
import json
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin.broker import (
    Broker,
    Conflict,
    NotFound,
    ValidationError,
    http_routes,
)


def make_broker(**kwargs) -> Broker:
    broker = Broker(**kwargs)
    broker.create_thing("FDT:solar-panel-1", {"panel": {"power": 0.0}})
    return broker


# the structured request fields that name make_broker's one property
PANEL_POWER = {"thing": "FDT:solar-panel-1", "feature": "panel",
               "prop": "power"}


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
        reply = broker.handle_request({"method": "PUT", **PANEL_POWER,
                                       "body": value})
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
        events = []
        broker.subscribe("FDT:a/f/p", callback=events.append)
        t[0] = 123.4
        broker.put_property("FDT:a", "f", "p", 1)
        assert [e.timestamp for e in events] == [123.4]


class TestSubscriptions:
    def test_filtering_and_order(self):
        broker = make_broker()
        broker.create_thing("FDT:b", {"f": {"p": 0, "q": 0}})
        all_events, prop_events, star_events = [], [], []
        broker.subscribe("FDT:b", callback=all_events.append)
        broker.subscribe("FDT:b/f/p", callback=prop_events.append)
        broker.subscribe("*/f/q", callback=star_events.append)
        broker.put_property("FDT:b", "f", "p", 1)
        broker.put_property("FDT:b", "f", "q", 2)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 3)
        assert [e.new for e in all_events] == [1, 2]
        assert [e.new for e in prop_events] == [1]
        assert [e.new for e in star_events] == [2]

    def test_old_and_new_values(self):
        broker = make_broker()
        events = []
        broker.subscribe("FDT:solar-panel-1/panel/power", callback=events.append)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 7)
        (event,) = events
        assert (event.old, event.new) == (0.0, 7)

    def test_unsubscribe_stops_delivery(self):
        broker = make_broker()
        events = []
        sub = broker.subscribe("FDT:solar-panel-1", callback=events.append)
        broker.unsubscribe(sub)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 1)
        assert events == []

    def test_callback_unsubscribing_itself_during_delivery(self):
        broker = make_broker()
        first, second = [], []

        def once(event):
            first.append(event.new)
            broker.unsubscribe(sub)

        sub = broker.subscribe("FDT:solar-panel-1", callback=once)
        broker.subscribe("FDT:solar-panel-1", callback=second.append)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 1)
        broker.put_property("FDT:solar-panel-1", "panel", "power", 2)
        # the subscriber after it still gets the event being delivered
        assert first == [1]
        assert [e.new for e in second] == [1, 2]

    def test_callback_reads_the_notified_thing_and_another(self):
        broker = make_broker()
        broker.create_thing("FDT:other", {"f": {"p": "x"}})
        reads = []
        broker.subscribe("FDT:solar-panel-1", callback=lambda ev: reads.append((
            broker.get_property(ev.thing_id, ev.feature, ev.prop),
            broker.revision(ev.thing_id),
            broker.get_property("FDT:other", "f", "p"))))
        # in a thread: a lock that a callback cannot take again hangs here
        writer = threading.Thread(target=broker.put_property, daemon=True,
                                  args=("FDT:solar-panel-1", "panel", "power", 5))
        writer.start()
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert reads == [(5, 1, "x")]

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
        events = []
        broker.subscribe("FDT:hot/f/p", callback=events.append)

        def writer(worker: int):
            for i in range(1000):
                broker.put_property("FDT:hot", "f", "p", worker * 1000 + i)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert broker.revision("FDT:hot") == 16000
        assert len(events) == 16000
        # revisions are gap-free and delivered in revision order
        assert [e.revision for e in events] == list(range(1, 16001))
        # each event chains old -> new against its predecessor
        for prev, cur in zip(events, events[1:]):
            assert cur.old == prev.new

    def test_16_writers_on_16_things_under_one_wildcard_subscriber(self):
        broker = Broker()
        things = [f"FDT:t{w}" for w in range(16)]
        for thing in things:
            broker.create_thing(thing, {"f": {"p": -1}})
        events = []
        broker.subscribe("*", callback=events.append)

        def writer(thing: str):
            for i in range(1000):
                broker.put_property(thing, "f", "p", i)

        threads = [threading.Thread(target=writer, args=(t,)) for t in things]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(events) == 16000
        for thing in things:
            mine = [e for e in events if e.thing_id == thing]
            # gap-free, in revision order, each chaining old -> new
            assert [e.revision for e in mine] == list(range(1, 1001))
            assert [(e.old, e.new) for e in mine] \
                == [(i - 1, i) for i in range(1000)]


class TestRequestHandler:
    def test_structured_get_put(self):
        broker = make_broker()
        put = broker.handle_request({"method": "PUT", **PANEL_POWER,
                                     "body": 55.0})
        assert put["status"] == 204
        get = broker.handle_request({"method": "GET", **PANEL_POWER})
        assert (get["status"], get["body"]) == (200, 55.0)
        delete = broker.handle_request({"method": "DELETE", **PANEL_POWER})
        assert delete["status"] == 400
        assert "DELETE" in delete["body"]["error"]
        assert broker.get_property("FDT:solar-panel-1", "panel", "power") == 55.0

    def test_unknown_paths(self):
        broker = make_broker()
        missing = broker.handle_request({
            "method": "GET", "thing": "FDT:x", "feature": "f", "prop": "p"})
        assert missing["status"] == 404

    def test_list_things_endpoint(self):
        broker = make_broker()
        result = broker.handle_request({"method": "GET"})
        assert result == {"status": 200, "body": ["FDT:solar-panel-1"]}


class TestHttpServer:
    def test_http_round_trip(self, http_server):
        broker = make_broker()
        server = http_server(http_routes(broker.handle_request))
        base = f"http://127.0.0.1:{server.port}"
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        req = urllib.request.Request(
            base + path, data=json.dumps(33.0).encode(), method="PUT",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            assert resp.status in (200, 204)
        with urllib.request.urlopen(base + path) as resp:
            assert json.load(resp) == 33.0
        with urllib.request.urlopen(base + "/api/2/things") as resp:
            assert json.load(resp) == ["FDT:solar-panel-1"]

    def test_keepalive_responses_do_not_stall(self, http_server,
                                              keepalive_median_ms):
        server = http_server(http_routes(make_broker().handle_request))
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        assert keepalive_median_ms(server.port, "GET", path) < 10
        assert keepalive_median_ms(server.port, "PUT", path, "33.0") < 10

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, http_server,
                                             bad_length_reply, length):
        server = http_server(http_routes(make_broker().handle_request))
        path = "/api/2/things/FDT:solar-panel-1/features/panel/properties/power"
        status, body = bad_length_reply(server.port, "PUT", path, length)
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_get_with_a_body_keeps_the_connection_in_step(self, http_server):
        server = http_server(http_routes(make_broker().handle_request))
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

    @pytest.mark.parametrize("method, path, reaches_broker", [
        ("GET", "/api/2/things/FDT:x/features/f/properties/p", True),
        ("GET", "/nope", False),
        ("GET", "/api/2/things/FDT:solar-panel-1/features/panel"
                "/properties/power/extra", False),
        ("GET", "/api/2/things//features/f/properties/p", False),
        ("PUT", "/api/2/things", False),
    ], ids=["unknown-thing", "unknown-path", "trailing-segment",
            "empty-segment", "put-on-list"])
    def test_http_404(self, http_server, method, path, reaches_broker):
        broker = make_broker()
        calls = []

        def handle(request):
            calls.append(request)
            return broker.handle_request(request)

        server = http_server(http_routes(handle))
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=2)
        try:
            conn.request(method, path, body=b"1.0")
            resp = conn.getresponse()
            assert resp.status == 404
            assert "error" in json.loads(resp.read())
            # only a matched path becomes a request; the rest stop at the edge
            assert len(calls) == (1 if reaches_broker else 0)
        finally:
            conn.close()


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

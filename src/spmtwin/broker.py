"""Field-layer twin-state broker.

Holds the latest reported state of every thing (thing -> features ->
properties), serves scalar property reads/writes, and forwards change events
to subscribers in revision order. An HTTP front end exposes the property
paths under ``/api/2/things``; it hands each request to a callable and never
holds the broker. During a run that callable is the runner's, which delivers
the request through the fabric as management -> broker on the simulation
thread, so the firewall checks external traffic as it checks any other.
"""

from __future__ import annotations

import json
import re
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .httpapi import JsonHandler, JsonHttpServer

THING_ID_RE = re.compile(r"^[A-Za-z0-9_-]+:[A-Za-z0-9_-]+$")
PROPERTY_PATH_RE = re.compile(
    r"^/api/2/things/([^/]+)/features/([^/]+)/properties/([^/]+)$")

Scalar = int | float | bool | str


class BrokerError(Exception):
    pass


class NotFound(BrokerError):
    pass


class Conflict(BrokerError):
    pass


class ValidationError(BrokerError):
    pass


class SubscriberLagged(BrokerError):
    """The subscriber's buffer overflowed; it has been disconnected."""


@dataclass(frozen=True)
class ChangeEvent:
    thing_id: str
    feature: str
    prop: str
    old: Scalar | None
    new: Scalar
    revision: int
    timestamp: float


@dataclass
class ThingState:
    thing_id: str
    features: dict[str, dict[str, Scalar]]
    revision: int = 0
    last_modified: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class Subscription:
    """Bounded, ordered event stream for one path filter.

    Filters are ``thing``, ``thing/feature`` or ``thing/feature/property``
    with ``*`` wildcards per segment. Overflow disconnects the subscriber
    with an explicit lag error instead of dropping events silently.
    """

    def __init__(self, path_filter: str, maxlen: int = 65536,
                 callback: Callable[[ChangeEvent], None] | None = None):
        parts = path_filter.split("/")
        if not 1 <= len(parts) <= 3:
            raise ValidationError(f"bad path filter {path_filter!r}")
        self._parts = parts
        self._queue: deque[ChangeEvent] = deque()
        self._maxlen = maxlen
        self._cond = threading.Condition()
        self._lagged = False
        self.closed = False
        self.callback = callback

    def matches(self, event: ChangeEvent) -> bool:
        path = (event.thing_id, event.feature, event.prop)
        return all(p in ("*", path[i]) for i, p in enumerate(self._parts))

    def _offer(self, event: ChangeEvent) -> None:
        if self.callback is not None:
            self.callback(event)
            return
        with self._cond:
            if self.closed:
                return
            if len(self._queue) >= self._maxlen:
                self._lagged = True
                self.closed = True
                self._cond.notify_all()
                return
            self._queue.append(event)
            self._cond.notify_all()

    def get(self, timeout: float | None = None) -> ChangeEvent | None:
        """Next event, or None on timeout; raises once lagged."""
        with self._cond:
            if not self._queue and not self._cond.wait_for(
                lambda: self._queue or self.closed, timeout
            ):
                return None
            if self._lagged and not self._queue:
                raise SubscriberLagged("event buffer overflowed")
            if not self._queue:
                return None
            return self._queue.popleft()

    def drain(self) -> list[ChangeEvent]:
        with self._cond:
            if self._lagged:
                raise SubscriberLagged("event buffer overflowed")
            events = list(self._queue)
            self._queue.clear()
            return events


class Broker:
    """In-memory latest-state store with per-thing serialized writes."""

    def __init__(self, time_fn: Callable[[], float] = lambda: 0.0):
        self._things: dict[str, ThingState] = {}
        self._registry_lock = threading.Lock()
        self._subscriptions: list[Subscription] = []
        self._time_fn = time_fn

    # ── things ────────────────────────────────────────────────────────

    def create_thing(self, thing_id: str,
                     features: dict[str, dict[str, Scalar]] | None = None) -> ThingState:
        if not THING_ID_RE.match(thing_id):
            raise ValidationError(
                f"thing id {thing_id!r} must match 'namespace:name'"
            )
        features = features or {}
        for fname, props in features.items():
            for pname, value in props.items():
                _check_scalar(thing_id, fname, pname, value)
        with self._registry_lock:
            if thing_id in self._things:
                raise Conflict(f"thing {thing_id!r} already exists")
            state = ThingState(thing_id, {f: dict(p) for f, p in features.items()},
                               revision=0, last_modified=self._time_fn())
            self._things[thing_id] = state
        return state

    def list_things(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._things)

    def _thing(self, thing_id: str) -> ThingState:
        with self._registry_lock:
            try:
                return self._things[thing_id]
            except KeyError:
                raise NotFound(f"unknown thing {thing_id!r}") from None

    # ── properties ────────────────────────────────────────────────────

    def put_property(self, thing_id: str, feature: str, prop: str, value: Scalar) -> int:
        _check_scalar(thing_id, feature, prop, value)
        thing = self._thing(thing_id)
        with thing.lock:
            props = thing.features.setdefault(feature, {})
            old = props.get(prop)
            props[prop] = value
            thing.revision += 1
            thing.last_modified = self._time_fn()
            event = ChangeEvent(thing_id, feature, prop, old, value,
                                thing.revision, thing.last_modified)
            # deliver under the thing lock so per-thing revision order is
            # preserved in every subscriber queue
            with self._registry_lock:
                subs = list(self._subscriptions)
            for sub in subs:
                if sub.matches(event):
                    sub._offer(event)
            return thing.revision

    def get_property(self, thing_id: str, feature: str, prop: str) -> Scalar:
        thing = self._thing(thing_id)
        with thing.lock:
            try:
                return thing.features[feature][prop]
            except KeyError:
                raise NotFound(
                    f"unknown path {thing_id}/{feature}/{prop}"
                ) from None

    def revision(self, thing_id: str) -> int:
        return self._thing(thing_id).revision

    def subscribe(self, path_filter: str,
                  callback: Callable[[ChangeEvent], None] | None = None,
                  maxlen: int = 65536) -> Subscription:
        sub = Subscription(path_filter, maxlen=maxlen, callback=callback)
        with self._registry_lock:
            self._subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._registry_lock:
            if sub in self._subscriptions:
                self._subscriptions.remove(sub)
        sub.closed = True

    # ── structured request handler (shared by HTTP and fabric paths) ──

    def handle_request(self, request: dict) -> dict:
        """Process a {method, path, body} request; returns {status, body}."""
        method = request.get("method", "GET")
        path = request.get("path", "")
        if method == "GET" and path == "/api/2/things":
            return {"status": 200, "body": self.list_things()}
        m = PROPERTY_PATH_RE.match(path)
        if not m:
            return {"status": 404, "body": {"error": "unknown path"}}
        thing_id, feature, prop = m.groups()
        try:
            if method == "GET":
                return {"status": 200,
                        "body": self.get_property(thing_id, feature, prop)}
            if method == "PUT":
                self.put_property(thing_id, feature, prop, request.get("body"))
                return {"status": 204, "body": None}
        except NotFound as exc:
            return {"status": 404, "body": {"error": str(exc)}}
        except ValidationError as exc:
            return {"status": 400, "body": {"error": str(exc)}}
        return {"status": 400, "body": {"error": f"unsupported method {method}"}}


def _check_scalar(thing_id: str, feature: str, prop: str, value) -> None:
    if not isinstance(value, (int, float, bool, str)) or value is None:
        raise ValidationError(
            f"{thing_id}/{feature}/{prop}: values must be scalars, "
            f"got {type(value).__name__}"
        )


# ── HTTP front end ─────────────────────────────────────────────────────────


class _BrokerHandler(JsonHandler):
    def _respond(self, result: dict) -> None:
        self.send_json(result["status"], result["body"])

    def do_GET(self):
        self._respond(self.server.handle({"method": "GET", "path": self.path}))

    def do_PUT(self):
        raw = self.read_body()
        if raw is None:
            return
        try:
            body = json.loads(raw) if raw else None
        except json.JSONDecodeError:
            self.send_json(400, {"error": "invalid JSON body"})
            return
        self._respond(self.server.handle(
            {"method": "PUT", "path": self.path, "body": body}))


class BrokerHttpServer(JsonHttpServer):
    def __init__(self, handle: Callable[[dict], dict],
                 host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _BrokerHandler)
        # {method, path, body} -> {status, body}, as Broker.handle_request
        self.handle = handle

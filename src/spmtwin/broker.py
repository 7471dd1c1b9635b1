"""Field-layer twin-state broker.

Holds the latest reported state of every thing (thing -> features ->
properties), serves scalar property reads/writes, and calls back each
matching subscriber with every change event, in revision order. The broker's
one re-entrant lock orders the writes: a write and the delivery of its
events hold it, so writers on several threads give each thing gap-free
revisions and each subscriber its events in revision order. A read takes no
lock. It is one chain of dict and attribute lookups, a write replaces each
value whole, and each lookup is atomic in CPython, so a read sees a value
some write made. A request is a :class:`BrokerRequest`
``(method, thing, feature, prop, body)``, and a reply ``{status, body}``; a
``GET`` with no ``thing`` lists the things. Only the HTTP
routes of :func:`http_routes` read ``/api/2/things`` paths: they answer an
unknown one with 404 and hand the rest to a callable, never holding the
broker. In a run that callable delivers each request through the fabric as
management -> broker on the simulation thread, so the firewall checks it as
any other traffic.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

THING_ID_RE = re.compile(r"^[A-Za-z0-9_-]+:[A-Za-z0-9_-]+$")
PROPERTY_PATH_RE = re.compile(r"^/api/2/things(?:/(?P<thing>[^/]+)/features/"
                              r"(?P<feature>[^/]+)/properties/(?P<prop>[^/]+))?$")

Scalar = int | float | bool | str


class BrokerError(Exception):
    pass


class NotFound(BrokerError):
    pass


class Conflict(BrokerError):
    pass


class ValidationError(BrokerError):
    pass


class BrokerRequest(NamedTuple):
    """``method`` on the property ``thing/feature/prop``; ``body`` is the
    value a ``PUT`` writes. A ``GET`` with no ``thing`` lists the things."""

    method: str
    thing: str | None = None
    feature: str | None = None
    prop: str | None = None
    body: object = None


class ChangeEvent(NamedTuple):
    thing_id: str
    feature: str
    prop: str
    old: Scalar | None
    new: Scalar
    revision: int
    timestamp: float


@dataclass
class ThingState:
    features: dict[str, dict[str, Scalar]]
    revision: int = 0
    last_modified: float = 0.0


class Subscription:
    """A callback for the change events that match one path filter:
    ``thing``, ``thing/feature`` or ``thing/feature/property``, with ``*``
    wildcards per segment."""

    def __init__(self, path_filter: str, callback: Callable[[ChangeEvent], None]):
        parts = path_filter.split("/")
        if not 1 <= len(parts) <= 3:
            raise ValidationError(f"bad path filter {path_filter!r}")
        # (thing, feature, property); an omitted segment matches any
        self._parts = tuple(parts + ["*"] * (3 - len(parts)))
        self.callback = callback

    def matches(self, thing_id: str, feature: str, prop: str) -> bool:
        t, f, p = self._parts
        return ((t == "*" or t == thing_id) and (f == "*" or f == feature)
                and (p == "*" or p == prop))

    def _offer(self, event: ChangeEvent) -> None:
        self.callback(event)


class Broker:
    """In-memory latest-state store. One re-entrant lock orders the writes
    and the delivery of their events, so a subscriber sees each thing's
    revisions gap-free and in order, and its callback may read or write any
    thing. A read takes no lock: a value it returns is one that some write
    stored, and the revisions a reader sees of a thing never go down."""

    def __init__(self, time_fn: Callable[[], float] = lambda: 0.0):
        self._lock = threading.RLock()
        self._things: dict[str, ThingState] = {}
        # replaced, never changed in place: a delivery iterates the tuple it
        # started with while a callback unsubscribes
        self._subscriptions: tuple[Subscription, ...] = ()
        self._time_fn = time_fn

    # ── things ────────────────────────────────────────────────────────

    def create_thing(self, thing_id: str,
                     features: dict[str, dict[str, Scalar]] | None = None) -> None:
        if not THING_ID_RE.match(thing_id):
            raise ValidationError(f"thing id {thing_id!r} must match 'namespace:name'")
        features = features or {}
        for fname, props in features.items():
            for pname, value in props.items():
                _check_scalar(thing_id, fname, pname, value)
        with self._lock:
            if thing_id in self._things:
                raise Conflict(f"thing {thing_id!r} already exists")
            self._things[thing_id] = ThingState(
                {f: dict(p) for f, p in features.items()},
                last_modified=self._time_fn())

    def list_things(self) -> list[str]:
        with self._lock:
            return sorted(self._things)

    def _thing(self, thing_id: str) -> ThingState:
        """The thing's state. Things are only added, so no lock is needed
        to find one."""
        try:
            return self._things[thing_id]
        except KeyError:
            raise NotFound(f"unknown thing {thing_id!r}") from None

    # ── properties ────────────────────────────────────────────────────

    def put_property(self, thing_id: str, feature: str, prop: str, value: Scalar) -> int:
        # a write is the broker's hot path: the exact types a run writes
        # pass inline (x - x is 0.0 for a finite float, NaN for inf or NaN),
        # and anything else, subclasses included, is _check_scalar's to
        # pass or refuse with its message
        cls = type(value)
        if not (cls is float and value - value == 0.0 or cls is str
                or cls is int or cls is bool):
            _check_scalar(thing_id, feature, prop, value)
        # things are only added, so no lock is needed to find one
        thing = self._things.get(thing_id)
        if thing is None:
            raise NotFound(f"unknown thing {thing_id!r}")
        # acquire/release, not `with`: `with` costs about twice as much per
        # call on CPython 3.11
        lock = self._lock
        lock.acquire()
        try:
            props = thing.features.get(feature)
            if props is None:
                props = thing.features[feature] = {}
            old = props.get(prop)
            props[prop] = value
            thing.revision += 1
            thing.last_modified = self._time_fn()
            # an event is built only for a write that some subscription wants
            event = None
            for sub in self._subscriptions:
                if sub.matches(thing_id, feature, prop):
                    if event is None:
                        event = ChangeEvent(thing_id, feature, prop, old, value,
                                            thing.revision, thing.last_modified)
                    sub._offer(event)
            return thing.revision
        finally:
            lock.release()

    def get_property(self, thing_id: str, feature: str, prop: str) -> Scalar:
        try:
            return self._thing(thing_id).features[feature][prop]
        except KeyError:
            raise NotFound(f"unknown path {thing_id}/{feature}/{prop}") from None

    def revision(self, thing_id: str) -> int:
        return self._thing(thing_id).revision

    def subscribe(self, path_filter: str,
                  callback: Callable[[ChangeEvent], None]) -> Subscription:
        sub = Subscription(path_filter, callback)
        with self._lock:
            self._subscriptions += (sub,)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            self._subscriptions = tuple(s for s in self._subscriptions if s is not sub)

    # ── structured request handler (shared by HTTP and fabric paths) ──

    def handle_request(self, request: BrokerRequest) -> dict:
        """Process a request on one property, or a ``GET`` without ``thing``
        for the thing list; returns {status, body}."""
        method, thing_id, feature, prop, body = request
        try:
            # a PUT first: the controllers' publishes are most requests
            if method == "PUT":
                self.put_property(thing_id, feature, prop, body)
                return {"status": 204, "body": None}
            if method == "GET":
                if thing_id is None:
                    return {"status": 200, "body": self.list_things()}
                return {"status": 200, "body": self.get_property(thing_id, feature, prop)}
        except NotFound as exc:
            return {"status": 404, "body": {"error": str(exc)}}
        except ValidationError as exc:
            return {"status": 400, "body": {"error": str(exc)}}
        return {"status": 400, "body": {"error": f"unsupported method {method}"}}


def _check_scalar(thing_id: str, feature: str, prop: str, value) -> None:
    if not isinstance(value, (int, float, bool, str)):
        raise ValidationError(f"{thing_id}/{feature}/{prop}: values must be "
                              f"scalars, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(
            f"{thing_id}/{feature}/{prop}: numbers must be finite, got {value}")


# ── HTTP routes ────────────────────────────────────────────────────────────


def http_routes(handle: Callable[[BrokerRequest], dict]
                ) -> dict[str, Callable[[str, bytes], tuple[int, object]]]:
    """The broker's HTTP API as routes by method, for a ``JsonHttpServer``.
    ``handle`` serves a :class:`BrokerRequest` and returns {status, body},
    as :meth:`Broker.handle_request` does."""

    def respond(method: str, path: str, body=None) -> tuple[int, object]:
        m = PROPERTY_PATH_RE.match(path)
        if m is None or not (m["thing"] or method == "GET"):  # list: GET only
            return 404, {"error": "unknown path"}
        result = handle(BrokerRequest(method, *m.groups(), body))
        return result["status"], result["body"]

    def put(path: str, raw: bytes) -> tuple[int, object]:
        try:
            body = json.loads(raw) if raw else None
        except ValueError:      # not JSON, or not UTF-8 at all
            return 400, {"error": "invalid JSON body"}
        return respond("PUT", path, body)

    return {"GET": lambda path, raw: respond("GET", path), "PUT": put}

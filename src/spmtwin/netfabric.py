"""Policy-checked virtual network fabric.

Segments plus prioritized firewall rules decide who may talk to whom; every
cross-module message goes through :meth:`Fabric.deliver`, which enforces the
policy and counts blocked traffic per segment pair. A reply is the return
value of a delivery, never a delivery of its own, so traffic the other way
is a new connection, checked by policy like any other. Every blocked
delivery is counted, but a ``(src, dst)`` pair is logged once, as its
blocking starts, so the log is bounded by the plant's pairs.

A delivery is routed once: the first allowed delivery on a
``(src, dst, service)`` keeps that route to the destination's handler, and
each later one on it goes straight to the handler. The policy is fixed once
the fabric is built, so a pair's verdict changes only when
:meth:`Fabric.attach` moves either end, and a kept route stands exactly as
long as its verdict: :meth:`Fabric.attach` drops every route from or to the
node it moves, and :meth:`Fabric.register_handler` drops the route to the
handler it replaces. A denied delivery keeps nothing, so it is checked and
counted every time. The routes are bounded by the plant's allowed pairs.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

log = logging.getLogger(__name__)

SEGMENTS = ("client", "dmz", "control", "field", "internet", "management")

ALLOW = "allow"
DENY = "deny"


class FabricError(Exception):
    """Unknown node or segment."""


@dataclass(frozen=True)
class FirewallRule:
    src_segment: str
    dst_segment: str
    verdict: str
    priority: int = 0

    def __post_init__(self):
        for end, segment in (("src", self.src_segment),
                             ("dst", self.dst_segment)):
            if segment != "*" and segment not in SEGMENTS:
                raise ValueError(f"{end}: unknown segment {segment!r}")
        if self.verdict not in (ALLOW, DENY):
            raise ValueError(f"verdict must be allow/deny, got {self.verdict!r}")

    def matches(self, src: str, dst: str) -> bool:
        return self.src_segment in (src, "*") and self.dst_segment in (dst, "*")


@dataclass
class Node:
    id: str
    segment: str


def permits(policy: Sequence[FirewallRule], src: Node, dst: Node) -> str:
    """Verdict for a connection src -> dst.

    Higher priority wins; ties resolve in rule-list order. Intra-segment
    traffic is allowed implicitly; everything else defaults to deny.
    """
    for rule in sorted(policy, key=lambda r: -r.priority):
        if rule.matches(src.segment, dst.segment):
            return rule.verdict
    if src.segment == dst.segment:
        return ALLOW
    return DENY


class Blocked(Exception):
    """Delivery denied by the firewall policy."""

    def __init__(self, src: str, dst: str):
        super().__init__(f"delivery blocked by policy: {src} -> {dst}")
        self.src = src
        self.dst = dst


class Fabric:
    """In-process message fabric with policy enforcement at delivery time.

    Services register per-node handlers; :meth:`deliver` routes a payload to
    the destination node's handler iff the policy permits. Not thread-safe:
    during a run only the simulation thread uses it.
    """

    def __init__(self, policy: Sequence[FirewallRule] = ()):
        self.policy = tuple(policy)
        self._nodes: dict[str, Node] = {}
        self._handlers: dict[str, dict[str, Callable[[Any], Any]]] = {}
        # (src, dst, service) -> handler, for allowed deliveries only
        self._routes: dict[tuple[str, str, str], Callable[[Any], Any]] = {}
        self.delivered_count = 0
        self.blocked_count = 0
        # blocked deliveries per (src segment, dst segment): bounded by the
        # segment pairs however long the run
        self.blocked_by_segment: Counter[tuple[str, str]] = Counter()
        # the (src, dst) pairs whose blocking has been logged
        self._blocked_pairs: set[tuple[str, str]] = set()

    # ── topology ──────────────────────────────────────────────────────

    def attach(self, node_id: str, segment: str) -> Node:
        if segment not in SEGMENTS:
            raise FabricError(f"unknown segment {segment!r}")
        node = Node(node_id, segment)
        self._nodes[node_id] = node
        # moving a node changes the verdicts of its pairs: drop their routes
        # and forget their logged blocking
        self._routes = {route: fn for route, fn in self._routes.items()
                        if node_id not in route[:2]}
        self._blocked_pairs = {pair for pair in self._blocked_pairs
                               if node_id not in pair}
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise FabricError(f"unknown node {node_id!r}") from None

    def register_handler(self, node_id: str, service: str, fn: Callable[[Any], Any]):
        self.node(node_id)
        self._handlers.setdefault(node_id, {})[service] = fn
        self._routes = {route: handler for route, handler in self._routes.items()
                        if route[1:] != (node_id, service)}

    # ── enforcement ───────────────────────────────────────────────────

    def permits(self, src_id: str, dst_id: str) -> str:
        return permits(self.policy, self.node(src_id), self.node(dst_id))

    def deliver(self, src_id: str, dst_id: str, service: str, payload: Any) -> Any:
        """Route ``payload`` to the destination handler; returns its response.

        A delivery on a kept route goes straight to its handler. Any other
        is checked by policy: a denied one is counted and raises
        :class:`Blocked`, and an allowed one keeps its route. A pair's
        verdict changes only when :meth:`attach` moves either end, which
        drops the pair's routes, so a delivery on a kept route never walks
        the policy.
        """
        route = (src_id, dst_id, service)
        handler = self._routes.get(route)
        if handler is None:
            if self.permits(src_id, dst_id) != ALLOW:
                self._note_blocked(src_id, dst_id)
                raise Blocked(src_id, dst_id)
            handler = self._handlers.get(dst_id, {}).get(service)
            if handler is None:
                raise FabricError(f"node {dst_id!r} exposes no service {service!r}")
            self._routes[route] = handler
        self.delivered_count += 1
        return handler(payload)

    def _note_blocked(self, src_id: str, dst_id: str) -> None:
        src, dst = self.node(src_id), self.node(dst_id)
        self.blocked_count += 1
        self.blocked_by_segment[src.segment, dst.segment] += 1
        pair = (src_id, dst_id)
        if pair not in self._blocked_pairs:
            self._blocked_pairs.add(pair)
            log.warning("blocked delivery %s (%s) -> %s (%s)",
                        src_id, src.segment, dst_id, dst.segment)

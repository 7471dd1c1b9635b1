"""Policy-checked virtual network fabric.

Segments plus prioritized firewall rules decide who may talk to whom; every
cross-module message goes through :meth:`Fabric.deliver`, which enforces the
policy and counts blocked traffic. Return traffic of an allowed connection is
allowed statefully.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable

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
        if self.verdict not in (ALLOW, DENY):
            raise ValueError(f"verdict must be allow/deny, got {self.verdict!r}")

    def matches(self, src: str, dst: str) -> bool:
        return self.src_segment in (src, "*") and self.dst_segment in (dst, "*")


@dataclass
class Node:
    id: str
    segment: str


def load_policy(path: str) -> list[FirewallRule]:
    """Read a JSON list of {src, dst, verdict, priority} rules."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError(f"{path}: policy file must contain a JSON list")
    return parse_policy(raw)


def parse_policy(raw: list[dict]) -> list[FirewallRule]:
    rules = []
    for entry in raw:
        rules.append(
            FirewallRule(
                src_segment=entry["src"],
                dst_segment=entry["dst"],
                verdict=entry["verdict"],
                priority=int(entry.get("priority", 0)),
            )
        )
    return rules


def permits(
    policy: list[FirewallRule],
    src: Node,
    dst: Node,
    established: AbstractSet[tuple[str, str]] = frozenset(),
) -> str:
    """Verdict for a new connection src -> dst.

    Higher priority wins; ties resolve in rule-list order. Intra-segment
    traffic and replies on established connections are allowed implicitly;
    everything else defaults to deny.
    """
    if (dst.id, src.id) in established:
        return ALLOW
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
    the destination node's handler iff the policy permits.
    """

    def __init__(self, policy: list[FirewallRule] | None = None):
        self.policy = list(policy or [])
        self._nodes: dict[str, Node] = {}
        self._handlers: dict[str, dict[str, Callable[[Any], Any]]] = {}
        self._established: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        self.delivered_count = 0
        self.blocked_count = 0
        self.blocked_log: list[tuple[str, str, str]] = []

    # ── topology ──────────────────────────────────────────────────────

    def attach(self, node_id: str, segment: str) -> Node:
        if segment not in SEGMENTS:
            raise FabricError(f"unknown segment {segment!r}")
        with self._lock:
            node = Node(node_id, segment)
            self._nodes[node_id] = node
            # moving a node invalidates its connection state
            self._established = {
                pair for pair in self._established if node_id not in pair
            }
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise FabricError(f"unknown node {node_id!r}") from None

    def register_handler(self, node_id: str, service: str, fn: Callable[[Any], Any]):
        self.node(node_id)
        self._handlers.setdefault(node_id, {})[service] = fn

    # ── enforcement ───────────────────────────────────────────────────

    def permits(self, src_id: str, dst_id: str) -> str:
        src, dst = self.node(src_id), self.node(dst_id)
        with self._lock:
            return permits(self.policy, src, dst, self._established)

    def check_connect(self, src_id: str, dst_id: str) -> None:
        """Connection-establishment checkpoint; raises :class:`Blocked`."""
        verdict = self.permits(src_id, dst_id)
        if verdict != ALLOW:
            self._note_blocked(src_id, dst_id)
            raise Blocked(src_id, dst_id)
        with self._lock:
            self._established.add((src_id, dst_id))

    def deliver(self, src_id: str, dst_id: str, service: str, payload: Any) -> Any:
        """Route ``payload`` to the destination handler; returns its response."""
        self.check_connect(src_id, dst_id)
        handler = self._handlers.get(dst_id, {}).get(service)
        if handler is None:
            raise FabricError(f"node {dst_id!r} exposes no service {service!r}")
        with self._lock:
            self.delivered_count += 1
        return handler(payload)

    def _note_blocked(self, src_id: str, dst_id: str) -> None:
        src, dst = self.node(src_id), self.node(dst_id)
        with self._lock:
            self.blocked_count += 1
            self.blocked_log.append((src_id, dst_id, f"{src.segment}->{dst.segment}"))
        log.warning("blocked delivery %s (%s) -> %s (%s)",
                    src_id, src.segment, dst_id, dst.segment)

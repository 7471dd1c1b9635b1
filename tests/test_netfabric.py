import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin.netfabric import (
    ALLOW,
    DENY,
    SEGMENTS,
    Blocked,
    Fabric,
    FabricError,
    FirewallRule,
    Node,
    permits,
)
from spmtwin.scenario import parse_policy

PLANT_POLICY = parse_policy([
    {"src": "control", "dst": "field", "verdict": "allow", "priority": 10},
    {"src": "field", "dst": "control", "verdict": "allow", "priority": 10},
    {"src": "client", "dst": "dmz", "verdict": "allow", "priority": 10},
    {"src": "management", "dst": "control", "verdict": "allow", "priority": 10},
    {"src": "field", "dst": "internet", "verdict": "deny", "priority": 20},
    {"src": "client", "dst": "field", "verdict": "deny", "priority": 20},
])


def node(segment: str, name: str | None = None) -> Node:
    return Node(name or f"{segment}-node", segment)


class TestPolicyVerdicts:
    def test_field_to_internet_denied(self):
        assert permits(PLANT_POLICY, node("field"), node("internet")) == DENY

    def test_control_to_field_allowed(self):
        assert permits(PLANT_POLICY, node("control"), node("field")) == ALLOW

    def test_client_to_field_denied(self):
        assert permits(PLANT_POLICY, node("client"), node("field")) == DENY

    def test_default_deny_without_matching_rule(self):
        assert permits(PLANT_POLICY, node("dmz"), node("internet")) == DENY

    def test_intra_segment_implicitly_allowed(self):
        assert permits([], node("field", "a"), node("field", "b")) == ALLOW

    def test_higher_priority_wins(self):
        policy = parse_policy([
            {"src": "field", "dst": "internet", "verdict": "allow", "priority": 1},
            {"src": "*", "dst": "internet", "verdict": "deny", "priority": 9},
        ])
        assert permits(policy, node("field"), node("internet")) == DENY

    def test_wildcard_rules(self):
        policy = parse_policy([{"src": "*", "dst": "*", "verdict": "allow"}])
        assert permits(policy, node("client"), node("field")) == ALLOW

    def test_invalid_verdict_rejected(self):
        with pytest.raises(ValueError):
            FirewallRule("a", "b", "maybe")


@given(
    src=st.sampled_from(SEGMENTS),
    dst=st.sampled_from(SEGMENTS),
)
@settings(max_examples=100)
def test_empty_policy_defaults_to_deny_across_segments(src, dst):
    verdict = permits([], node(src, "s"), node(dst, "d"))
    assert verdict == (ALLOW if src == dst else DENY)


class TestFabric:
    def make(self) -> Fabric:
        fabric = Fabric(PLANT_POLICY)
        fabric.attach("ems", "control")
        fabric.attach("plc", "field")
        fabric.attach("laptop", "client")
        fabric.register_handler("plc", "modbus", lambda p: b"ok:" + p)
        return fabric

    def test_deliver_allowed(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"req") == b"ok:req"
        assert fabric.delivered_count == 1

    def test_deliver_blocked_counts_and_raises(self):
        fabric = self.make()
        with pytest.raises(Blocked):
            fabric.deliver("laptop", "plc", "modbus", b"req")
        assert fabric.blocked_count == 1
        assert fabric.blocked_by_segment == {("client", "field"): 1}

    def test_unknown_node_or_service(self):
        fabric = self.make()
        with pytest.raises(FabricError):
            fabric.deliver("ghost", "plc", "modbus", b"")
        with pytest.raises(FabricError):
            fabric.deliver("ems", "plc", "ssh", b"")

    def test_reattach_moves_segment_and_drops_state(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"req") == b"ok:req"
        fabric.attach("plc", "internet")
        assert fabric.permits("ems", "plc") == DENY
        with pytest.raises(Blocked):
            fabric.deliver("ems", "plc", "modbus", b"req")
        assert fabric.blocked_by_segment == {("control", "internet"): 1}

    def test_attach_rejects_unknown_segment(self):
        fabric = self.make()
        with pytest.raises(FabricError):
            fabric.attach("x", "wifi")

    def test_the_policy_is_fixed_once_built(self):
        fabric = self.make()
        assert fabric.policy == tuple(PLANT_POLICY)
        with pytest.raises(AttributeError):
            fabric.policy.append(
                FirewallRule("client", "field", "allow", priority=99))
        assert fabric.permits("laptop", "plc") == DENY


class TestEstablishedPairs:
    """Each direction of a pair is checked by policy on its own; an allowed
    pair is admitted without the policy walk until attach."""

    def make(self, policy=PLANT_POLICY) -> Fabric:
        fabric = Fabric(policy)
        fabric.attach("ems", "control")
        fabric.attach("plc", "field")
        fabric.register_handler("plc", "modbus", lambda p: b"ok:" + p)
        fabric.register_handler("ems", "modbus", lambda p: b"ack:" + p)
        return fabric

    def test_attach_revokes_an_established_pair(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
        fabric.attach("plc", "internet")
        with pytest.raises(Blocked):
            fabric.deliver("ems", "plc", "modbus", b"r")
        assert fabric.blocked_count == 1
        assert fabric.blocked_by_segment == {("control", "internet"): 1}
        assert fabric.delivered_count == 1

    def test_each_established_delivery_counts(self):
        fabric = self.make()
        for n in range(1, 6):
            assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
            assert fabric.delivered_count == n
        assert fabric.blocked_count == 0

    def test_no_reply_through_the_reverse_pair(self, caplog):
        caplog.set_level(logging.INFO, logger="spmtwin.netfabric")
        # only control -> field is allowed; field -> control has no rule
        fabric = self.make(parse_policy([
            {"src": "control", "dst": "field", "verdict": "allow"}]))
        with pytest.raises(Blocked):
            fabric.deliver("plc", "ems", "modbus", b"x")
        # a reply is the delivery's return value, not a delivery of its own
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
        for payload in (b"x", b"y"):
            with pytest.raises(Blocked):
                fabric.deliver("plc", "ems", "modbus", payload)
        assert fabric.delivered_count == 1
        assert fabric.blocked_count == 3
        assert fabric.blocked_by_segment == {("field", "control"): 3}
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "blocked delivery plc (field) -> ems (control)"),
        ]

    def test_blocked_record_is_one_count_per_segment_pair(self, caplog):
        caplog.set_level(logging.ERROR, logger="spmtwin.netfabric")
        fabric = self.make()
        fabric.attach("laptop", "client")
        for _ in range(10_000):
            with pytest.raises(Blocked):
                fabric.deliver("laptop", "plc", "modbus", b"r")
        assert fabric.blocked_by_segment == {("client", "field"): 10_000}
        assert fabric.blocked_count == 10_000

    def test_a_blocked_pair_logs_once_until_a_move(self, caplog):
        caplog.set_level(logging.INFO, logger="spmtwin.netfabric")
        # only control -> field is allowed; field -> control has no rule
        fabric = self.make(parse_policy([
            {"src": "control", "dst": "field", "verdict": "allow"}]))
        fabric.attach("laptop", "client")
        for _ in range(3):
            for src in ("plc", "laptop"):
                with pytest.raises(Blocked):
                    fabric.deliver(src, "ems", "modbus", b"x")
        # a move forgets the laptop's blocking: blocked again, logged again
        fabric.attach("laptop", "dmz")
        with pytest.raises(Blocked):
            fabric.deliver("laptop", "ems", "modbus", b"x")
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "blocked delivery plc (field) -> ems (control)"),
            (logging.WARNING,
             "blocked delivery laptop (client) -> ems (control)"),
            (logging.WARNING, "blocked delivery laptop (dmz) -> ems (control)"),
        ]
        assert fabric.blocked_count == 7
        assert fabric.blocked_by_segment == {
            ("field", "control"): 3, ("client", "control"): 3,
            ("dmz", "control"): 1}

    def test_denied_pair_is_checked_on_every_delivery(self):
        fabric = self.make()
        fabric.attach("laptop", "client")
        for n in range(1, 4):
            with pytest.raises(Blocked):
                fabric.deliver("laptop", "plc", "modbus", b"r")
            assert fabric.blocked_count == n
        assert fabric.delivered_count == 0


class TestKeptRoutes:
    """A delivery's route is kept once allowed, and dropped by attach and by
    register_handler, so a kept route never outlives its verdict or its
    handler."""

    def make(self) -> Fabric:
        fabric = Fabric(PLANT_POLICY)
        fabric.attach("ems", "control")
        fabric.attach("plc", "field")
        fabric.attach("laptop", "client")
        fabric.register_handler("plc", "modbus", lambda p: b"ok:" + p)
        fabric.register_handler("ems", "modbus", lambda p: b"ack:" + p)
        return fabric

    def test_a_moved_destination_is_checked_again(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
        fabric.attach("plc", "internet")
        for n in range(1, 3):
            with pytest.raises(Blocked):
                fabric.deliver("ems", "plc", "modbus", b"r")
            assert fabric.blocked_by_segment == {("control", "internet"): n}
        assert fabric.delivered_count == 1

    def test_a_moved_source_is_checked_again(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
        fabric.attach("ems", "client")
        with pytest.raises(Blocked):
            fabric.deliver("ems", "plc", "modbus", b"r")
        assert fabric.blocked_by_segment == {("client", "field"): 1}
        # moved back, the pair is allowed and routed afresh
        fabric.attach("ems", "control")
        assert fabric.deliver("ems", "plc", "modbus", b"s") == b"ok:s"
        assert fabric.delivered_count == 2

    def test_a_move_keeps_the_routes_of_other_nodes(self):
        fabric = self.make()
        fabric.attach("scada", "control")
        fabric.deliver("ems", "plc", "modbus", b"r")
        fabric.deliver("scada", "plc", "modbus", b"r")
        fabric.attach("scada", "client")
        assert fabric.deliver("ems", "plc", "modbus", b"s") == b"ok:s"
        with pytest.raises(Blocked):
            fabric.deliver("scada", "plc", "modbus", b"s")

    def test_a_replaced_handler_gets_the_next_delivery(self):
        fabric = self.make()
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"ok:r"
        fabric.register_handler("plc", "modbus", lambda p: b"new:" + p)
        assert fabric.deliver("ems", "plc", "modbus", b"r") == b"new:r"
        # a handler of another service leaves the route as it is
        fabric.register_handler("plc", "http", lambda p: "web")
        assert fabric.deliver("ems", "plc", "modbus", b"s") == b"new:s"
        assert fabric.delivered_count == 3

    def test_a_denied_pair_counts_on_every_delivery(self, caplog):
        caplog.set_level(logging.ERROR, logger="spmtwin.netfabric")
        fabric = self.make()
        fabric.deliver("ems", "plc", "modbus", b"r")
        for n in range(1, 6):
            with pytest.raises(Blocked):
                fabric.deliver("laptop", "plc", "modbus", b"r")
            assert fabric.blocked_by_segment == {("client", "field"): n}
            assert fabric.blocked_count == n
        assert fabric.delivered_count == 1

    def test_a_missing_service_is_refused_every_time(self):
        fabric = self.make()
        for _ in range(2):
            with pytest.raises(FabricError):
                fabric.deliver("ems", "plc", "ssh", b"")
        fabric.register_handler("plc", "ssh", lambda p: "shell")
        assert fabric.deliver("ems", "plc", "ssh", b"") == "shell"
        assert fabric.delivered_count == 1

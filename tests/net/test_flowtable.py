"""Unit tests for OpenFlow-style flow tables."""

import pytest

from repro.net import Action, ActionType, FlowEntry, FlowKey, FlowTable, Match, Packet, Protocol


def packet(dst_port=80, src_ip="10.0.0.1", dst_ip="10.0.0.2",
           protocol=Protocol.TCP):
    return Packet(FlowKey(src_ip, dst_ip, 1234, dst_port, protocol))


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches(packet(), in_port=3)

    def test_exact_field_match(self):
        match = Match(dst_port=80)
        assert match.matches(packet(80), 1)
        assert not match.matches(packet(81), 1)

    def test_in_port_match(self):
        match = Match(in_port=2)
        assert match.matches(packet(), 2)
        assert not match.matches(packet(), 3)

    def test_multiple_fields_all_required(self):
        match = Match(dst_ip="10.0.0.2", dst_port=80, protocol=Protocol.TCP)
        assert match.matches(packet(), 1)
        assert not match.matches(packet(protocol=Protocol.UDP), 1)

    def test_specificity(self):
        assert Match().specificity() == 0
        assert Match(dst_port=80).specificity() == 1
        assert Match(src_ip="a", dst_ip="b", src_port=1, dst_port=2,
                     protocol=Protocol.TCP).specificity() == 5


class TestAction:
    def test_constructors(self):
        assert Action.forward(3).out_ports == (3,)
        assert Action.drop().type is ActionType.DROP
        assert Action.flood().type is ActionType.FLOOD
        assert Action.split([1, 2]).out_ports == (1, 2)
        assert Action.controller().type is ActionType.CONTROLLER

    def test_split_requires_two_ports(self):
        with pytest.raises(ValueError):
            Action.split([1])

    def test_split_round_robin(self):
        entry = FlowEntry(Match(), Action.split([1, 2, 3]))
        picks = [entry.next_split_port() for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_round_robin_only_for_split(self):
        entry = FlowEntry(Match(), Action.forward(1))
        with pytest.raises(ValueError):
            entry.next_split_port()


class TestFlowTable:
    def test_miss_returns_none(self):
        assert FlowTable().lookup(packet(), 1) is None

    def test_priority_wins(self):
        table = FlowTable()
        table.install(Match(), Action.drop(), priority=0)
        table.install(Match(dst_port=80), Action.forward(1), priority=10)
        entry = table.lookup(packet(80), 1)
        assert entry.action.type is ActionType.FORWARD

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        table.install(Match(), Action.drop(), priority=5)
        table.install(Match(dst_port=80), Action.forward(2), priority=5)
        entry = table.lookup(packet(80), 1)
        assert entry.action.out_ports == (2,)

    def test_add_replaces_same_match_and_priority(self):
        table = FlowTable()
        table.install(Match(dst_port=80), Action.drop(), priority=5)
        table.install(Match(dst_port=80), Action.forward(1), priority=5)
        assert len(table) == 1
        assert table.lookup(packet(80), 1).action.type is ActionType.FORWARD

    def test_same_match_different_priority_coexist(self):
        table = FlowTable()
        table.install(Match(dst_port=80), Action.drop(), priority=1)
        table.install(Match(dst_port=80), Action.forward(1), priority=2)
        assert len(table) == 2

    def test_remove(self):
        table = FlowTable()
        table.install(Match(dst_port=80), Action.drop(), priority=1)
        table.install(Match(dst_port=80), Action.drop(), priority=2)
        assert table.remove(Match(dst_port=80), priority=1) == 1
        assert len(table) == 1
        assert table.remove(Match(dst_port=80)) == 1
        assert len(table) == 0

    def test_counters_account(self):
        table = FlowTable()
        entry = table.install(Match(dst_port=80), Action.forward(1))
        pkt = packet(80)
        entry.account(pkt)
        entry.account(pkt)
        assert entry.packet_count == 2
        assert entry.byte_count == 2 * pkt.size_bytes

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin import modbus
from spmtwin.modbus import (
    COIL_OFF,
    COIL_ON,
    EXC_ILLEGAL_ADDRESS,
    EXC_ILLEGAL_FUNCTION,
    EXC_ILLEGAL_VALUE,
    READ_COILS,
    READ_HOLDING,
    READ_INPUT,
    WRITE_COIL,
    WRITE_REGISTER,
    MbapFrame,
    NeedMoreBytes,
    Pdu,
    RegisterFile,
    decode_frame,
    encode_frame,
    execute,
    parse_read_coils_response,
    parse_read_registers_response,
    read_request,
    serve_frame_bytes,
    write_coil_request,
    write_register_request,
)

# Golden byte sequences hand-checked against the published MBAP layout:
# txn(u16) proto(=0,u16) length(u16)=1+len(pdu) unit(u8) | fc(u8) data...
GOLDEN_READ_INPUT = bytes.fromhex("000100000006010400640002")
GOLDEN_WRITE_COIL_PDU = bytes.fromhex("050064FF00")


class TestGoldenFrames:
    def test_read_input_registers_request(self):
        frame = MbapFrame(1, 1, read_request(READ_INPUT, 100, 2))
        assert encode_frame(frame) == GOLDEN_READ_INPUT

    def test_write_single_coil_on_pdu(self):
        pdu = write_coil_request(100, True)
        assert bytes([pdu.function_code]) + pdu.payload == GOLDEN_WRITE_COIL_PDU

    def test_write_single_coil_off_uses_zero(self):
        pdu = write_coil_request(100, False)
        assert pdu.payload[2:] == b"\x00\x00"

    def test_golden_decodes_back(self):
        frame, consumed = decode_frame(GOLDEN_READ_INPUT)
        assert consumed == len(GOLDEN_READ_INPUT)
        assert frame.transaction_id == 1
        assert frame.unit_id == 1
        assert frame.pdu.function_code == READ_INPUT
        addr, count = struct.unpack(">HH", frame.pdu.payload)
        assert (addr, count) == (100, 2)


class TestCodec:
    def test_need_more_bytes(self):
        with pytest.raises(NeedMoreBytes):
            decode_frame(GOLDEN_READ_INPUT[:5])
        with pytest.raises(NeedMoreBytes):
            decode_frame(GOLDEN_READ_INPUT[:-1])

    def test_trailing_bytes_report_consumed(self):
        data = GOLDEN_READ_INPUT + b"\xAA\xBB"
        _, consumed = decode_frame(data)
        assert consumed == len(GOLDEN_READ_INPUT)

    def test_nonzero_protocol_rejected(self):
        frame = MbapFrame(1, 1, read_request(READ_INPUT, 0, 1), protocol_id=5)
        with pytest.raises(modbus.EncodingError):
            encode_frame(frame)

    @given(
        txn=st.integers(min_value=0, max_value=0xFFFF),
        unit=st.integers(min_value=0, max_value=0xFF),
        fc=st.sampled_from([READ_COILS, READ_HOLDING, READ_INPUT,
                            WRITE_COIL, WRITE_REGISTER]),
        payload=st.binary(min_size=0, max_size=64),
    )
    @settings(max_examples=10000, deadline=None)
    def test_round_trip_property(self, txn, unit, fc, payload):
        frame = MbapFrame(txn, unit, Pdu(fc, payload))
        decoded, consumed = decode_frame(encode_frame(frame))
        assert consumed == len(encode_frame(frame))
        assert decoded.transaction_id == txn
        assert decoded.unit_id == unit
        assert decoded.pdu.function_code == fc
        assert decoded.pdu.payload == payload


def cabinet_rf() -> RegisterFile:
    rf = RegisterFile()
    rf.set_input(100, 1500)
    rf.set_input(101, 10000)
    rf.set_coil(100, False)
    rf.set_coil(101, True)
    return rf


class TestExecute:
    def test_read_input_registers(self):
        reply = execute(cabinet_rf(), read_request(READ_INPUT, 100, 2))
        assert parse_read_registers_response(reply) == [1500, 10000]

    def test_read_coils_packing(self):
        reply = execute(cabinet_rf(), read_request(READ_COILS, 100, 2))
        assert parse_read_coils_response(reply, 2) == [False, True]

    def test_write_coil_echoes_request(self):
        rf = cabinet_rf()
        pdu = write_coil_request(100, True)
        reply = execute(rf, pdu)
        assert reply == pdu
        assert rf.get_coil(100) is True

    def test_write_register_holding(self):
        rf = RegisterFile()
        rf.set_holding(5, 0)
        reply = execute(rf, write_register_request(5, 1234))
        assert not reply.is_exception()
        assert rf.holding_registers[5] == 1234

    def test_unknown_function_code(self):
        reply = execute(cabinet_rf(), Pdu(0x10, b"\x00\x00\x00\x01"))
        assert reply.is_exception()
        assert reply.function_code == 0x10 | 0x80
        assert reply.payload[0] == EXC_ILLEGAL_FUNCTION

    def test_unmapped_address(self):
        reply = execute(cabinet_rf(), read_request(READ_INPUT, 900, 1))
        assert reply.is_exception()
        assert reply.payload[0] == EXC_ILLEGAL_ADDRESS

    def test_write_unmapped_coil(self):
        reply = execute(cabinet_rf(), write_coil_request(77, True))
        assert reply.is_exception()
        assert reply.payload[0] == EXC_ILLEGAL_ADDRESS

    @pytest.mark.parametrize("count", [0, 126, 1000])
    def test_out_of_range_count(self, count):
        reply = execute(cabinet_rf(), read_request(READ_INPUT, 100, count))
        assert reply.is_exception()
        assert reply.payload[0] == EXC_ILLEGAL_VALUE

    def test_serve_frame_bytes_round_trip(self):
        request = encode_frame(MbapFrame(7, 1, read_request(READ_INPUT, 100, 1)))
        raw = serve_frame_bytes(cabinet_rf(), request)
        frame, _ = decode_frame(raw)
        assert frame.transaction_id == 7
        assert parse_read_registers_response(frame.pdu) == [1500]


def general_read(table: dict, fc: int, address: int, count: int) -> Pdu:
    """The specification's register read for any count: the oracle of the
    replies served from prepared requests."""
    addresses = range(address, address + count)
    if any(a not in table for a in addresses):
        return Pdu(fc | 0x80, bytes([EXC_ILLEGAL_ADDRESS]))
    values = [table[a] for a in addresses]
    return Pdu(fc, bytes([2 * count]) + struct.pack(f">{count}H", *values))


class TestSingleRegisterRead:
    @pytest.mark.parametrize("fc", [READ_HOLDING, READ_INPUT])
    def test_unmapped_register_is_illegal_address(self, fc):
        rf = cabinet_rf()
        rf.set_holding(100, 7)
        reply = execute(rf, read_request(fc, 901, 1))
        assert reply == Pdu(fc | 0x80, bytes([EXC_ILLEGAL_ADDRESS]))
        with pytest.raises(modbus.ModbusExceptionResponse) as exc:
            parse_read_registers_response(reply)
        assert exc.value.exception_code == EXC_ILLEGAL_ADDRESS

    @given(
        txn=st.integers(min_value=0, max_value=0xFFFF),
        fc=st.sampled_from([READ_HOLDING, READ_INPUT]),
        address=st.integers(min_value=0, max_value=0xFFFF),
        value=st.integers(min_value=0, max_value=0xFFFF),
        mapped=st.booleans(),
    )
    @settings(max_examples=2000, deadline=None)
    def test_response_bytes_equal_the_general_path(self, txn, fc, address,
                                                   value, mapped):
        rf = RegisterFile()
        table = rf.input_registers if fc == READ_INPUT else rf.holding_registers
        table[address ^ 1] = 0x5A5A           # a neighbour, never read
        if mapped:
            table[address] = value
        request = encode_frame(MbapFrame(txn, 1, read_request(fc, address, 1)))
        expected = general_read(table, fc, address, 1)
        assert serve_frame_bytes(rf, request) \
            == encode_frame(MbapFrame(txn, 1, expected))
        if mapped:
            assert parse_read_registers_response(expected) == [value]


def read_frame(txn: int, unit: int, fc: int, address: int, count: int = 1,
               proto: int = 0) -> bytes:
    """A read request's bytes, any protocol id included."""
    return (modbus.MBAP_HEADER.pack(txn, proto, 6, unit) + bytes([fc])
            + modbus.U16_PAIR.pack(address, count))


class TestPreparedRequests:
    """A request served once is prepared; its later replies must be the
    general path's bytes, whatever the register file holds by then."""

    @given(
        txn=st.integers(min_value=0, max_value=0xFFFF),
        unit=st.integers(min_value=0, max_value=0xFF),
        proto=st.sampled_from([0, 0, 1, 0xFFFF]),
        fc=st.sampled_from([READ_HOLDING, READ_INPUT]),
        address=st.integers(min_value=0, max_value=0xFFFF),
        value=st.integers(min_value=0, max_value=0xFFFF),
        mapped=st.booleans(),
    )
    @settings(max_examples=2000, deadline=None)
    def test_cold_and_prepared_replies_equal_the_general_path(
            self, txn, unit, proto, fc, address, value, mapped):
        modbus._prepared.clear()

        def device(v):
            rf = RegisterFile()
            table, other = ((rf.input_registers, rf.holding_registers)
                            if fc == READ_INPUT else
                            (rf.holding_registers, rf.input_registers))
            table[address ^ 1] = 0x5A5A       # a neighbour, never read
            other[address] = 0xA5A5           # the other table, never read
            if mapped:
                table[address] = v
            return rf, table

        def general(table):
            return encode_frame(MbapFrame(
                txn, unit, general_read(table, fc, address, 1)))

        rf, table = device(value)
        request = read_frame(txn, unit, fc, address, proto=proto)
        expected = general(table)
        assert serve_frame_bytes(rf, request) == expected        # cold
        assert request in modbus._prepared
        assert serve_frame_bytes(rf, request) == expected        # prepared
        for view in (bytearray(request), memoryview(request)):
            assert serve_frame_bytes(rf, view) == expected
        # a second device shares the prepared request, not its values
        other, other_table = device(value ^ 0xFFFF)
        assert serve_frame_bytes(other, request) == general(other_table)
        # unmapped after the request was prepared, then mapped again
        table.pop(address, None)
        assert serve_frame_bytes(rf, request) == encode_frame(MbapFrame(
            txn, unit, Pdu(fc | 0x80, bytes([EXC_ILLEGAL_ADDRESS]))))
        table[address] = value
        assert serve_frame_bytes(rf, request) == general(table)

    @pytest.mark.parametrize("request_bytes", [
        read_frame(1, 1, READ_INPUT, 100, count=2),
        read_frame(1, 1, READ_COILS, 100),
        read_frame(1, 1, READ_INPUT, 100) + b"\x00",             # trailing
        encode_frame(MbapFrame(1, 1, write_register_request(100, 5))),
        encode_frame(MbapFrame(1, 1, Pdu(READ_INPUT, b"\x00\x64"))),
        read_frame(1, 1, 0x10, 100),                              # unsupported
        bytearray(read_frame(1, 1, READ_INPUT, 100)),
        memoryview(read_frame(1, 1, READ_INPUT, 100)),
    ], ids=["two-registers", "coil", "trailing-byte", "write", "short-pdu",
            "unsupported", "bytearray", "memoryview"])
    def test_only_single_register_reads_are_prepared(self, request_bytes):
        modbus._prepared.clear()
        rf = cabinet_rf()
        frame, _ = decode_frame(request_bytes)
        expected = encode_frame(MbapFrame(1, 1, execute(cabinet_rf(),
                                                        frame.pdu)))
        for _ in range(2):
            assert serve_frame_bytes(rf, request_bytes) == expected
        assert modbus._prepared == {}

    def test_map_stays_within_its_bound(self):
        # reads and coil writes, mixed, share the one bound
        modbus._prepared.clear()
        n = modbus.PREPARED_READS + 100
        rf = RegisterFile()
        for address in range(n):
            rf.set_input(address, address)
            rf.set_coil(address, False)
        try:
            requests = [read_frame(1, 1, READ_INPUT, a) if a % 2 else
                        write_frame(1, 1, a, COIL_ON) for a in range(n)]
            for address, request in enumerate(requests):
                expected = (encode_frame(MbapFrame(1, 1, Pdu(
                    READ_INPUT, b"\x02" + struct.pack(">H", address))))
                    if address % 2 else request)
                for _ in range(2):
                    assert serve_frame_bytes(rf, request) == expected
                assert len(modbus._prepared) <= modbus.PREPARED_READS
            assert all(rf.coils[a] for a in range(0, n, 2))
            assert len(modbus._prepared) == modbus.PREPARED_READS
            assert requests[0] in modbus._prepared
            assert requests[-1] not in modbus._prepared
        finally:
            modbus._prepared.clear()


def write_frame(txn: int, unit: int, address: int, value: int,
                proto: int = 0) -> bytes:
    """A Write Single Coil request's bytes, any value or protocol id
    included."""
    return (modbus.MBAP_HEADER.pack(txn, proto, 6, unit) + bytes([WRITE_COIL])
            + modbus.U16_PAIR.pack(address, value))


def general_write_coil(coils: dict, address: int, value: int) -> Pdu:
    """The specification's Write Single Coil on ``coils``: the oracle of the
    replies served from prepared writes."""
    if value not in (COIL_ON, COIL_OFF):
        return Pdu(WRITE_COIL | 0x80, bytes([EXC_ILLEGAL_VALUE]))
    if address not in coils:
        return Pdu(WRITE_COIL | 0x80, bytes([EXC_ILLEGAL_ADDRESS]))
    coils[address] = value == COIL_ON
    return Pdu(WRITE_COIL, modbus.U16_PAIR.pack(address, value))


class TestPreparedCoilWrites:
    """A coil write answered with its own bytes is prepared; its later
    replies and coil states must be the general path's, on any device."""

    @given(
        txn=st.integers(min_value=0, max_value=0xFFFF),
        unit=st.integers(min_value=0, max_value=0xFF),
        proto=st.sampled_from([0, 0, 1, 0xFFFF]),
        address=st.integers(min_value=0, max_value=0xFFFF),
        value=st.one_of(st.sampled_from([COIL_ON, COIL_OFF]),
                        st.integers(min_value=0, max_value=0xFFFF)),
        start=st.booleans(),
    )
    @settings(max_examples=2000, deadline=None)
    def test_cold_and_prepared_replies_equal_the_general_path(
            self, txn, unit, proto, address, value, start):
        modbus._prepared.clear()
        request = write_frame(txn, unit, address, value, proto)

        def device(mapped):
            coils = {address ^ 1: not start}      # a neighbour, never written
            if mapped:
                coils[address] = start
            rf = RegisterFile()
            rf.coils.update(coils)
            return rf, coils

        def serve(rf, coils, data=request):
            # the reply and the coils after it, against the oracle's
            expected = encode_frame(MbapFrame(
                txn, unit, general_write_coil(coils, address, value)))
            assert serve_frame_bytes(rf, data) == expected
            assert rf.coils == coils

        rf, coils = device(mapped=True)
        serve(rf, coils)                                         # cold
        prepared = proto == 0 and value in (COIL_ON, COIL_OFF)
        assert (request in modbus._prepared) is prepared
        rf.coils[address] = coils[address] = start
        serve(rf, coils)                                         # prepared
        for view in (bytearray(request), memoryview(request)):
            rf.coils[address] = coils[address] = start
            serve(rf, coils, view)
        serve(*device(mapped=False))                  # another device, unmapped
        del rf.coils[address], coils[address]         # unmapped after preparing
        serve(rf, coils)
        rf.coils[address] = coils[address] = start    # and mapped again
        serve(rf, coils)
        assert (request in modbus._prepared) is prepared

    @pytest.mark.parametrize("request_bytes", [
        write_frame(1, 1, 100, COIL_ON) + b"\x00",                # trailing
        bytearray(write_frame(1, 1, 100, COIL_ON)),
        memoryview(write_frame(1, 1, 100, COIL_OFF)),
        write_frame(1, 1, 100, COIL_ON, proto=1),
        write_frame(1, 1, 100, 0x1234),                           # bad value
        write_frame(1, 1, 77, COIL_ON),                           # unmapped
    ], ids=["trailing-byte", "bytearray", "memoryview", "protocol-1",
            "invalid-value", "unmapped"])
    def test_only_echoed_coil_writes_are_prepared(self, request_bytes):
        modbus._prepared.clear()
        frame, _ = decode_frame(request_bytes)
        for _ in range(2):
            rf, expected_rf = cabinet_rf(), cabinet_rf()
            expected = encode_frame(MbapFrame(1, 1, execute(expected_rf,
                                                            frame.pdu)))
            assert serve_frame_bytes(rf, request_bytes) == expected
            assert rf == expected_rf
        assert modbus._prepared == {}


def hooked_rf() -> tuple[RegisterFile, list]:
    """A cabinet's register file with holding register 5, whose
    ``on_write`` records the coils and holding registers it sees."""
    rf = cabinet_rf()
    rf.set_holding(5, 0)
    calls = []
    rf.on_write = lambda: calls.append(
        (dict(rf.coils), dict(rf.holding_registers)))
    return rf, calls


def register_frame(address: int, value: int) -> bytes:
    return encode_frame(MbapFrame(1, 1, write_register_request(address,
                                                                value)))


class TestWriteHook:
    """``RegisterFile.on_write`` is called once after each served write that
    changes a value, on the general path and the prepared one, and for
    nothing else."""

    @pytest.mark.parametrize("path", ["general", "prepared"])
    def test_each_changing_coil_write_calls_it_once(self, path):
        modbus._prepared.clear()
        on, off = write_frame(1, 1, 100, COIL_ON), write_frame(1, 1, 100,
                                                               COIL_OFF)
        if path == "prepared":
            for request in (on, off):        # prepared on another device
                serve_frame_bytes(cabinet_rf(), request)
            assert on in modbus._prepared and off in modbus._prepared
        rf, calls = hooked_rf()
        holding = dict(rf.holding_registers)
        for request, changes in [(on, True), (on, False), (off, True),
                                 (off, False), (on, True)]:
            before = len(calls)
            # a bytearray is never prepared: it takes the general path
            data = request if path == "prepared" else bytearray(request)
            assert serve_frame_bytes(rf, data) == request
            assert len(calls) == before + changes
            assert calls[-1] == ({100: request == on, 101: True}, holding)
        assert len(calls) == 3
        assert modbus._prepared.keys() == (
            {on, off} if path == "prepared" else set())

    def test_each_changing_register_write_calls_it_once(self):
        rf, calls = hooked_rf()
        coils = dict(rf.coils)
        for value, changes in [(1234, True), (1234, False), (0, True),
                               (0, False)]:
            before = len(calls)
            request = register_frame(5, value)
            assert serve_frame_bytes(rf, request) == request
            assert len(calls) == before + changes
            assert calls[-1] == (coils, {5: value})
        assert execute(rf, write_register_request(5, 7)) \
            == write_register_request(5, 7)
        assert len(calls) == 3

    @pytest.mark.parametrize("request_bytes", [
        encode_frame(MbapFrame(1, 1, read_request(READ_INPUT, 100, 1))),
        encode_frame(MbapFrame(1, 1, read_request(READ_HOLDING, 5, 1))),
        encode_frame(MbapFrame(1, 1, read_request(READ_COILS, 100, 2))),
        write_frame(1, 1, 77, COIL_ON),                   # unmapped coil
        write_frame(1, 1, 100, 0x1234),                   # bad coil value
        register_frame(6, 1),                             # unmapped register
        register_frame(101, 1),       # an input register, not a holding one
        encode_frame(MbapFrame(1, 1, Pdu(0x10, b"\x00\x05\x00\x01"))),
    ], ids=["read-input", "read-holding", "read-coils", "unmapped-coil",
            "bad-coil-value", "unmapped-register", "input-register",
            "unknown-function"])
    def test_reads_and_exception_replies_never_call_it(self, request_bytes):
        modbus._prepared.clear()
        rf, calls = hooked_rf()
        untouched, _ = hooked_rf()
        for _ in range(2):                        # cold, then prepared
            serve_frame_bytes(rf, request_bytes)
        assert calls == []
        assert rf == untouched

    def test_a_register_file_without_it_serves_the_same(self):
        modbus._prepared.clear()
        plain, (hooked, calls) = cabinet_rf(), hooked_rf()
        plain.set_holding(5, 0)
        assert plain == hooked and repr(plain) == repr(hooked)
        assert plain.on_write is None
        requests = [write_frame(1, 1, 100, COIL_ON), write_frame(1, 1, 100,
                                                                 COIL_ON),
                    write_frame(1, 1, 101, COIL_OFF), register_frame(5, 9),
                    write_frame(1, 1, 77, COIL_ON), register_frame(6, 1),
                    encode_frame(MbapFrame(1, 1, read_request(READ_HOLDING,
                                                              5, 1)))]
        for request in requests + requests:       # cold, then prepared
            assert serve_frame_bytes(plain, request) \
                == serve_frame_bytes(hooked, request)
            assert plain == hooked
        assert len(calls) == 3


class TestFrameValues:
    def test_compare_by_value_and_hash(self):
        a = MbapFrame(7, 1, Pdu(READ_INPUT, b"\x00\x64\x00\x01"))
        b = MbapFrame(7, 1, Pdu(READ_INPUT, b"\x00\x64\x00\x01"), 0)
        assert a == b and hash(a) == hash(b)
        assert a.protocol_id == 0
        assert len({a, b, a._replace(transaction_id=8)}) == 2
        assert {a.pdu: "x"}[b.pdu] == "x"

    def test_reject_attribute_assignment(self):
        frame = MbapFrame(7, 1, Pdu(READ_INPUT, b""))
        with pytest.raises(AttributeError):
            frame.unit_id = 2
        with pytest.raises(AttributeError):
            frame.pdu.function_code = READ_HOLDING


class TestRegisterFile:
    def test_input_saturates_u16(self):
        rf = RegisterFile()
        rf.set_input(100, 70000)
        assert rf.get_input(100) == 0xFFFF
        rf.set_input(100, -5)
        assert rf.get_input(100) == 0

    def test_coil_on_constant(self):
        assert COIL_ON == 0xFF00

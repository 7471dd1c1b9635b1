import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmtwin import modbus
from spmtwin.modbus import (
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
    count-1 fast path."""
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

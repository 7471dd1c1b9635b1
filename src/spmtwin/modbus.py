"""Modbus/TCP codec and register-file executor.

Supports function codes 0x01 (read coils), 0x03 (read holding registers),
0x04 (read input registers), 0x05 (write single coil) and 0x06 (write single
register). Framing is MBAP, big-endian throughout; frames travel as bytes
over the in-process fabric.

Every historian poll is a single-register read of the same request bytes,
and every operator command on a coil is a Write Single Coil of the same
bytes, so :func:`serve_frame_bytes` prepares both (up to
:data:`PREPARED_READS` requests together). The first time the general path
decodes a well-formed single-register read, its bytes are kept with its
:func:`read_reply_header` and the register to read; the first time it
answers a coil write with the request's own bytes, the echo the
specification gives a successful write, its bytes are kept with the coil
and the value it sets. The same bytes again are answered without the
codec: a read with that header and the register's current value, a write by
setting the coil and returning the request. An unmapped register or coil,
or any other input, takes the general path and gets its reply, exception
included. The prepared requests depend on the bytes alone, never on a
register file, so one map serves every device in the process.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

READ_COILS = 0x01
READ_HOLDING = 0x03
READ_INPUT = 0x04
WRITE_COIL = 0x05
WRITE_REGISTER = 0x06

SUPPORTED_FUNCTIONS = (READ_COILS, READ_HOLDING, READ_INPUT, WRITE_COIL, WRITE_REGISTER)

EXC_ILLEGAL_FUNCTION = 0x01
EXC_ILLEGAL_ADDRESS = 0x02
EXC_ILLEGAL_VALUE = 0x03

COIL_ON = 0xFF00
COIL_OFF = 0x0000

MAX_READ_COUNT = 125

MBAP_HEADER = struct.Struct(">HHHB")    # transaction, protocol, length, unit
U16_PAIR = struct.Struct(">HH")
U16 = struct.Struct(">H")

# distinct request frames, single-register reads and coil writes together,
# that serve_frame_bytes keeps prepared; once that many are kept, new ones
# are served on the general path and not kept
PREPARED_READS = 1024
# request bytes -> (function code, address, the reply header of a read or
# the value a coil write sets) of each prepared request
_prepared: dict[bytes, tuple[int, int, bytes | bool]] = {}


class EncodingError(ValueError):
    """Frame cannot be serialized to valid Modbus/TCP bytes."""


class NeedMoreBytes(Exception):
    """The buffer does not yet hold a complete frame."""


class ModbusExceptionResponse(Exception):
    """Server answered with a Modbus exception PDU."""

    def __init__(self, function_code: int, exception_code: int):
        super().__init__(
            f"modbus exception: function 0x{function_code:02x}, code {exception_code:#04x}"
        )
        self.function_code = function_code
        self.exception_code = exception_code


class Pdu(NamedTuple):
    function_code: int
    payload: bytes

    def is_exception(self) -> bool:
        return bool(self.function_code & 0x80)


class MbapFrame(NamedTuple):
    transaction_id: int
    unit_id: int
    pdu: Pdu
    protocol_id: int = 0


# ── Codec ──────────────────────────────────────────────────────────────────


def encode_frame(frame: MbapFrame) -> bytes:
    if frame.protocol_id != 0:
        raise EncodingError("protocol_id must be 0")
    if not 0 <= frame.transaction_id <= 0xFFFF:
        raise EncodingError("transaction_id out of range")
    if not 0 <= frame.unit_id <= 0xFF:
        raise EncodingError("unit_id out of range")
    body = bytes([frame.pdu.function_code]) + frame.pdu.payload
    length = 1 + len(body)  # unit id + pdu
    if length > 0xFFFF:
        raise EncodingError("pdu too large for MBAP framing")
    return MBAP_HEADER.pack(frame.transaction_id, 0, length, frame.unit_id) + body


def decode_frame(data: bytes) -> tuple[MbapFrame, int]:
    """Decode one frame from ``data``; returns (frame, bytes consumed)."""
    if len(data) < 8:
        raise NeedMoreBytes
    txn, proto, length, unit = MBAP_HEADER.unpack_from(data)
    if length < 2:
        raise EncodingError("MBAP length must cover unit id and function code")
    total = 6 + length
    if len(data) < total:
        raise NeedMoreBytes
    return MbapFrame(txn, unit, Pdu(data[7], bytes(data[8:total])), proto), total


# ── Request builders / response parsers ────────────────────────────────────


def read_request(function_code: int, address: int, count: int) -> Pdu:
    return Pdu(function_code, U16_PAIR.pack(address, count))


def write_coil_request(address: int, on: bool) -> Pdu:
    return Pdu(WRITE_COIL, U16_PAIR.pack(address, COIL_ON if on else COIL_OFF))


def write_register_request(address: int, value: int) -> Pdu:
    return Pdu(WRITE_REGISTER, U16_PAIR.pack(address, value))


def read_reply_header(transaction_id: int, unit_id: int,
                      function_code: int) -> bytes:
    """The first 9 bytes of the reply to a single-register read (MBAP
    header, function code, byte count 2); the register's 2 bytes follow."""
    return (MBAP_HEADER.pack(transaction_id, 0, 5, unit_id)
            + bytes((function_code, 2)))


def parse_read_registers_response(pdu: Pdu) -> list[int]:
    if pdu.is_exception():
        raise ModbusExceptionResponse(pdu.function_code & 0x7F, pdu.payload[0])
    payload = pdu.payload
    count = payload[0] // 2
    return list(struct.unpack(f">{count}H", payload[1 : 1 + 2 * count]))


def parse_read_coils_response(pdu: Pdu, count: int) -> list[bool]:
    if pdu.is_exception():
        raise ModbusExceptionResponse(pdu.function_code & 0x7F, pdu.payload[0])
    bits = []
    for i in range(count):
        byte = pdu.payload[1 + i // 8]
        bits.append(bool(byte >> (i % 8) & 1))
    return bits


# ── Register file and executor ─────────────────────────────────────────────


@dataclass
class RegisterFile:
    """Mapped addresses of one device; unmapped reads are illegal, never 0.

    ``on_write``, if set, is called after a served Write Single Coil or
    Write Single Register changes a stored value, on the general path and
    the prepared one alike; a read, an exception reply and a write of the
    value already held never call it, and neither do the ``set_*`` methods
    the device itself uses.

    Not thread-safe: during a run only the simulation thread uses it."""

    input_registers: dict[int, int] = field(default_factory=dict)
    holding_registers: dict[int, int] = field(default_factory=dict)
    coils: dict[int, bool] = field(default_factory=dict)
    on_write: Callable[[], None] | None = field(default=None, repr=False,
                                                compare=False)

    def set_input(self, address: int, value: int) -> None:
        self.input_registers[address] = max(0, min(0xFFFF, int(value)))

    def set_holding(self, address: int, value: int) -> None:
        self.holding_registers[address] = max(0, min(0xFFFF, int(value)))

    def set_coil(self, address: int, value: bool) -> None:
        self.coils[address] = bool(value)

    def get_coil(self, address: int) -> bool:
        return self.coils[address]

    def get_input(self, address: int) -> int:
        return self.input_registers[address]


def _exception(fc: int, code: int) -> Pdu:
    return Pdu(fc | 0x80, bytes([code]))


def execute(rf: RegisterFile, pdu: Pdu) -> Pdu:
    """Apply a request PDU to ``rf`` and build the response PDU."""
    fc = pdu.function_code
    if fc not in SUPPORTED_FUNCTIONS:
        return _exception(fc, EXC_ILLEGAL_FUNCTION)

    if fc in (READ_COILS, READ_HOLDING, READ_INPUT):
        if len(pdu.payload) != 4:
            return _exception(fc, EXC_ILLEGAL_VALUE)
        address, count = U16_PAIR.unpack(pdu.payload)
        if count == 0 or count > MAX_READ_COUNT:
            return _exception(fc, EXC_ILLEGAL_VALUE)
        if fc == READ_COILS:
            addresses = range(address, address + count)
            if any(a not in rf.coils for a in addresses):
                return _exception(fc, EXC_ILLEGAL_ADDRESS)
            bits = [rf.coils[a] for a in addresses]
            nbytes = (count + 7) // 8
            packed = bytearray(nbytes)
            for i, bit in enumerate(bits):
                if bit:
                    packed[i // 8] |= 1 << (i % 8)
            return Pdu(fc, bytes([nbytes]) + bytes(packed))
        table = rf.holding_registers if fc == READ_HOLDING else rf.input_registers
        addresses = range(address, address + count)
        if any(a not in table for a in addresses):
            return _exception(fc, EXC_ILLEGAL_ADDRESS)
        values = [table[a] for a in addresses]
        return Pdu(fc, bytes([2 * count]) + struct.pack(f">{count}H", *values))

    if len(pdu.payload) != 4:
        return _exception(fc, EXC_ILLEGAL_VALUE)
    address, value = U16_PAIR.unpack(pdu.payload)
    if fc == WRITE_COIL:
        if value not in (COIL_ON, COIL_OFF):
            return _exception(fc, EXC_ILLEGAL_VALUE)
        table, value = rf.coils, value == COIL_ON
    else:  # WRITE_REGISTER
        table = rf.holding_registers
    if address not in table:
        return _exception(fc, EXC_ILLEGAL_ADDRESS)
    _store(rf, table, address, value)
    return Pdu(fc, pdu.payload)  # echo per spec


def _store(rf: RegisterFile, table: dict, address: int, value) -> None:
    """Write a served value to ``table[address]``, a mapped address of
    ``rf``, and call ``rf.on_write`` if that changed it."""
    if table[address] != value:
        table[address] = value
        if rf.on_write is not None:
            rf.on_write()


def serve_frame_bytes(rf: RegisterFile, data: bytes) -> bytes:
    """Decode a request frame, execute it, and encode the response.

    Every cabinet's fabric endpoint is this with its register file bound,
    so the in-process path exercises the real wire format. A request already
    prepared (see the module docstring) is answered from what was kept of
    it and the register file: the same bytes as the general path, and the
    same call of ``rf.on_write`` when a coil write changes the coil.
    """
    if data.__class__ is bytes:
        prepared = _prepared.get(data)
        if prepared is not None:
            fc, address, kept = prepared
            if fc == WRITE_COIL:
                if address in rf.coils:
                    _store(rf, rf.coils, address, kept)
                    return data
            else:
                value = (rf.input_registers if fc == READ_INPUT
                         else rf.holding_registers).get(address)
                if value is not None:
                    return kept + U16.pack(value)
    frame, consumed = decode_frame(data)
    pdu = frame.pdu
    reply = encode_frame(
        MbapFrame(frame.transaction_id, frame.unit_id, execute(rf, pdu)))
    fc = pdu.function_code
    if data.__class__ is bytes and len(_prepared) < PREPARED_READS:
        if fc == WRITE_COIL:
            # a coil write answered with its own bytes was made: 12 bytes,
            # protocol 0, a valid value and a mapped coil
            if reply == data:
                address, value = U16_PAIR.unpack(pdu.payload)
                _prepared[data] = (fc, address, value == COIL_ON)
        elif (consumed == len(data) == 12
              and fc in (READ_HOLDING, READ_INPUT)):
            address, count = U16_PAIR.unpack(pdu.payload)
            if count == 1:
                _prepared[data] = (fc, address, read_reply_header(
                    frame.transaction_id, frame.unit_id, fc))
    return reply

"""The twin's generator against numpy's as the oracle, bit for bit.

``spmtwin.rng.Generator(seed)`` must draw what
``numpy.random.default_rng(seed)`` draws: the raw PCG64 words, the normal
draws, and the ziggurat tables the draws read.
"""

import os
import re
import shutil
import struct
import subprocess

import numpy as np
import pytest

from spmtwin.rng import Generator
from spmtwin.rng_tables import FI, KI, WI

# one 32-bit entropy word, two (seed >= 2**32), and five (seed >= 2**128:
# more words than SeedSequence's pool of four)
SEEDS = [0, 1, 7, 42, 2**40 + 3, 123456789, 2**130 + 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_stream_matches_numpy(seed):
    ours = Generator(seed)
    theirs = np.random.default_rng(seed).bit_generator.random_raw(1000)
    assert [ours._next_uint64() for _ in range(1000)] == theirs.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_matches_numpy(seed):
    ours = Generator(seed)
    theirs = np.random.default_rng(seed).normal(25.0, 5.0, size=100_000)
    assert [ours.normal(25.0, 5.0) for _ in range(100_000)] == theirs.tolist()


def test_tail_and_wedge_branches_are_taken():
    ours = Generator(42)
    theirs = np.random.default_rng(42).normal(0.0, 1.0, size=100_000)
    words = []
    step = ours._next_uint64
    ours._next_uint64 = lambda: words.append(step()) or words[-1]
    tail = wedge = 0
    for want in theirs.tolist():
        first = len(words)
        assert ours.normal(0.0, 1.0) == want
        # the first word of a draw picks its layer; past KI it leaves the
        # fast path, for the tail beyond r in layer 0 or a wedge otherwise
        idx, rabs = words[first] & 0xFF, words[first] >> 9 & (2**52 - 1)
        if rabs >= KI[idx]:
            tail += idx == 0
            wedge += idx != 0
    assert tail >= 10
    assert wedge >= 1000


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed"):
        Generator(-1)


def numpy_tables() -> dict[str, tuple]:
    """``ki_double``, ``wi_double`` and ``fi_double`` as the installed numpy
    holds them: the ``.rodata`` of its distributions object, located by
    symbol with ``objdump``."""
    lib = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                       "libnpyrandom.a")
    if shutil.which("objdump") is None:
        pytest.skip("objdump is not installed")
    if not os.path.exists(lib):
        pytest.skip(f"this numpy ships no {lib}")

    def member_lines(flags):
        out = subprocess.run(["objdump", *flags, lib], capture_output=True,
                             text=True, check=True).stdout
        member = None
        for line in out.splitlines():
            if "file format" in line:
                member = line.split(":")[0]
            elif member == "src_distributions_distributions.c.o":
                yield line

    symbols = {}
    for line in member_lines(["-t"]):
        fields = line.split()
        if len(fields) == 6 and fields[3] == ".rodata":
            symbols[fields[5]] = (int(fields[0], 16), int(fields[4], 16))
    rodata = bytearray()
    for line in member_lines(["-s", "-j", ".rodata"]):
        if re.match(r" [0-9a-f]+ ", line):
            addr, *words = line[:42].split()
            assert int(addr, 16) == len(rodata)
            rodata += bytes.fromhex("".join(words))
    tables = {}
    for name, fmt in (("ki_double", "<256Q"), ("wi_double", "<256d"),
                      ("fi_double", "<256d")):
        if symbols.get(name, (0, 0))[1] != 2048:
            pytest.skip(f"{lib} has no 256-entry {name}")
        offset = symbols[name][0]
        tables[name] = struct.unpack(fmt, rodata[offset:offset + 2048])
    return tables


def test_tables_are_numpys_bit_for_bit():
    tables = numpy_tables()
    assert KI == tables["ki_double"]
    # compare bits, not values: equal floats could still differ in sign
    # of zero, and a NaN would equal nothing
    for ours, theirs in ((WI, tables["wi_double"]), (FI, tables["fi_double"])):
        assert struct.pack("<256d", *ours) == struct.pack("<256d", *theirs)

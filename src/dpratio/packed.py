"""Packed fields: a sequence of nonnegative ints as one int, entry x in the
nbytes-wide little-endian field at byte x * nbytes.

The one format that `dpratio.layered` (the ell >= 3 layer chunks and chain
columns) and `dpratio.moments` (the Kronecker-packed layer polynomials)
share: `field_width` sizes a field from a bound on its values, `pack` and
`unpack` convert, by struct at 1, 2, 4 and 8 bytes and by byte slices past 8.
"""

from __future__ import annotations

import functools
import struct
from itertools import repeat


def field_width(bound: int) -> int:
    """Bytes per field of the fields that unpack reads, the ell >= 3 layer
    tables and packed chain columns, and of the moment runs: the fewest of
    1, 2, 4 and 8 that hold bound, or whole bytes past 8.  The ell = 2 route
    reads no field by unpack and takes exact bytes (layered._walk_widths)."""
    nbytes = max(1, (bound.bit_length() + 7) // 8)
    return nbytes if nbytes > 8 else 1 << (nbytes - 1).bit_length()


#: struct format code of each field width up to 8 bytes, at its standard
#: size (_struct, for pack and unpack)
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


@functools.cache
def _struct(nbytes: int, n: int) -> struct.Struct:
    """n little-endian fields of nbytes in _CODES, compiled once per process
    per (nbytes, n): unpack reads every ell >= 3 layer chunk, and a format
    string built and looked up per call left those counts 2-4% slower."""
    return struct.Struct(f"<{n}{_CODES[nbytes]}")


def pack(col, nbytes: int) -> int:
    """col as one int, entry x in the nbytes-wide field at byte x * nbytes."""
    if nbytes in _CODES:
        raw = _struct(nbytes, len(col)).pack(*col)
    else:
        raw = b"".join(map(int.to_bytes, col, repeat(nbytes), repeat("little")))
    return int.from_bytes(raw, "little")


def unpack(x: int, nbytes: int, n: int) -> tuple[int, ...]:
    """The n fields of x, low first, nbytes each: the inverse of pack."""
    raw = x.to_bytes(n * nbytes, "little")
    if nbytes in _CODES:
        return _struct(nbytes, n).unpack(raw)
    return tuple(int.from_bytes(raw[j : j + nbytes], "little") for j in range(0, len(raw), nbytes))

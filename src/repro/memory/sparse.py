"""Sparse byte-addressable memory.

Backing store for the functional executor.  Pages are materialised
lazily as ``bytearray`` chunks so a 59-bit address space costs only
what the program actually touches.  Values are stored little-endian,
matching the GPU's memory order.
"""

from __future__ import annotations

import struct
from typing import Dict

from ..common.errors import ConfigurationError

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1


class SparseMemory:
    """A lazily-paged flat memory.

    Reads of untouched memory return zero bytes — the simulated
    equivalent of freshly-mapped pages.  ``fill_byte`` can change that
    to a poison value, which temporal-safety tests use to make
    use-after-free reads observable.
    """

    def __init__(self, fill_byte: int = 0) -> None:
        if not 0 <= fill_byte <= 0xFF:
            raise ConfigurationError("fill byte must be in [0, 255]")
        self._pages: Dict[int, bytearray] = {}
        self._fill = fill_byte

    def _page_for(self, address: int) -> bytearray:
        page_id = address >> _PAGE_BITS
        page = self._pages.get(page_id)
        if page is None:
            page = bytearray(bytes([self._fill]) * _PAGE_SIZE)
            self._pages[page_id] = page
        return page

    # ------------------------------------------------------------------
    # Byte-level access

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read *length* bytes starting at *address*."""
        if address < 0 or length < 0:
            raise ConfigurationError("address/length must be non-negative")
        out = bytearray()
        while length:
            offset = address & _PAGE_MASK
            chunk = min(length, _PAGE_SIZE - offset)
            page = self._pages.get(address >> _PAGE_BITS)
            if page is None:
                out.extend(bytes([self._fill]) * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            address += chunk
            length -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write *data* starting at *address*."""
        if address < 0:
            raise ConfigurationError("address must be non-negative")
        view = memoryview(data)
        while view:
            offset = address & _PAGE_MASK
            chunk = min(len(view), _PAGE_SIZE - offset)
            page = self._page_for(address)
            page[offset : offset + chunk] = view[:chunk]
            address += chunk
            view = view[chunk:]

    # ------------------------------------------------------------------
    # Word-level access (little endian)

    def load(self, address: int, width: int = 8, signed: bool = False) -> int:
        """Load an integer of *width* bytes."""
        data = self.read_bytes(address, width)
        return int.from_bytes(data, "little", signed=signed)

    def store(self, address: int, value: int, width: int = 8) -> None:
        """Store an integer truncated to *width* bytes."""
        mask = (1 << (8 * width)) - 1
        self.write_bytes(address, (value & mask).to_bytes(width, "little"))

    def load_f32(self, address: int) -> float:
        """Load a 32-bit IEEE float."""
        return struct.unpack("<f", self.read_bytes(address, 4))[0]

    def store_f32(self, address: int, value: float) -> None:
        """Store a 32-bit IEEE float."""
        self.write_bytes(address, struct.pack("<f", value))

    # ------------------------------------------------------------------

    def unmap(self, address: int, length: int) -> None:
        """Drop whole pages covered by [address, address+length).

        Mirrors the page-invalidation optimisation of Algorithm 1:
        after unmapping, reads return the fill byte again.  Partial
        pages at the edges are zeroed rather than dropped.
        """
        end = address + length
        first_full = (address + _PAGE_SIZE - 1) >> _PAGE_BITS
        last_full = end >> _PAGE_BITS
        for page_id in range(first_full, last_full):
            self._pages.pop(page_id, None)
        # Edge bytes inside partially-covered pages.
        if address & _PAGE_MASK:
            edge = min(end, ((address >> _PAGE_BITS) + 1) << _PAGE_BITS)
            self.write_bytes(address, bytes([self._fill]) * (edge - address))
        if end & _PAGE_MASK and (end >> _PAGE_BITS) >= first_full:
            start = (end >> _PAGE_BITS) << _PAGE_BITS
            if start >= address:
                self.write_bytes(start, bytes([self._fill]) * (end - start))

    def digest(self) -> str:
        """SHA-256 over all materialised pages (sorted by page id).

        The byte-for-byte fingerprint the executor's pinned-fingerprint
        test checks: two runs that performed the same stores produce
        identical digests.
        """
        import hashlib

        h = hashlib.sha256()
        for page_id in sorted(self._pages):
            h.update(page_id.to_bytes(8, "little"))
            h.update(self._pages[page_id])
        return h.hexdigest()

    @property
    def resident_pages(self) -> int:
        """Number of materialised pages (a proxy for RSS)."""
        return len(self._pages)

    @property
    def resident_bytes(self) -> int:
        """Materialised bytes (resident pages x page size)."""
        return len(self._pages) * _PAGE_SIZE

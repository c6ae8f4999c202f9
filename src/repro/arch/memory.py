"""Sparse paged memory with protection.

The address space is 64-bit but programs map only a handful of pages, so a
random corruption of a pointer almost always lands on an unmapped page and
raises an access violation — the effect the paper identifies as the dominant
soft-error symptom ("for many workloads, the virtual address space is
significantly larger than the memory footprint of the application").

Pages are 8 KiB. Reads and writes that cross a page boundary are handled
(byte-by-byte), though the aligned accesses the ISA requires never cross.
"""

from __future__ import annotations

from enum import Enum

from repro.arch.exceptions import AccessViolation
from repro.util.bitops import MASK64

PAGE_SHIFT = 13
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class PageProtection(Enum):
    """Per-page protection; the ISA has no execute permission bit."""

    READ_ONLY = "r"
    READ_WRITE = "rw"


class SparseMemory:
    """Dictionary-of-pages memory image."""

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        self._protection: dict[int, PageProtection] = {}
        # Page numbers whose bytearray may be shared with another image
        # after clone_cow(); a writer copies the page out before its first
        # mutation. Empty for images that never took part in a COW clone,
        # so the write-path barrier is one failed set lookup.
        self._shared: set[int] = set()
        # Bumped by every route that can change read-only (text) bytes:
        # mapping and the protection-bypassing loader. Consumers that cache
        # derived views of text pages (the simulator's pre-decoded
        # instruction cache) compare this to detect staleness — ordinary
        # ``write`` calls cannot touch read-only pages, so they do not bump.
        self.image_version = 0

    # -------------------------------------------------------------- mapping

    def map_region(
        self,
        base: int,
        size: int,
        protection: PageProtection = PageProtection.READ_WRITE,
    ) -> None:
        """Map (and zero) every page overlapping [base, base+size)."""
        if size <= 0:
            raise ValueError("size must be positive")
        first = base >> PAGE_SHIFT
        last = (base + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            if page not in self._pages:
                self._pages[page] = bytearray(PAGE_SIZE)
            self._protection[page] = protection
        self.image_version += 1

    def is_mapped(self, address: int) -> bool:
        return (address & MASK64) >> PAGE_SHIFT in self._pages

    def protection_at(self, address: int) -> PageProtection | None:
        return self._protection.get((address & MASK64) >> PAGE_SHIFT)

    def mapped_pages(self) -> list[int]:
        """Sorted page numbers currently mapped."""
        return sorted(self._pages)

    # ------------------------------------------------------------- loading

    def load_bytes(self, base: int, data: bytes) -> None:
        """Write raw bytes ignoring protection (loader and fault injection).

        This is the one route that can mutate read-only text, so it bumps
        ``image_version`` — which is what invalidates any pre-decoded
        instruction cache built over the text segment (e.g. after a fault
        campaign flips an instruction encoding bit in place).
        """
        self.image_version += 1
        address = base & MASK64
        offset = 0
        while offset < len(data):
            page = (address + offset) >> PAGE_SHIFT
            if page not in self._pages:
                raise AccessViolation(address + offset, "load-image")
            if page in self._shared:
                self._pages[page] = bytearray(self._pages[page])
                self._shared.discard(page)
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(len(data) - offset, PAGE_SIZE - page_offset)
            self._pages[page][page_offset:page_offset + chunk] = (
                data[offset:offset + chunk]
            )
            offset += chunk

    # ------------------------------------------------------------ accesses

    def read(self, address: int, size: int) -> int:
        """Read ``size`` bytes as a little-endian unsigned integer."""
        address &= MASK64
        page = address >> PAGE_SHIFT
        offset = address & PAGE_MASK
        data = self._pages.get(page)
        if data is None:
            raise AccessViolation(address, "read")
        if offset + size <= PAGE_SIZE:
            return int.from_bytes(data[offset:offset + size], "little")
        return self._read_cross_page(address, size)

    def _read_cross_page(self, address: int, size: int) -> int:
        result = bytearray()
        for index in range(size):
            byte_address = (address + index) & MASK64
            page = self._pages.get(byte_address >> PAGE_SHIFT)
            if page is None:
                raise AccessViolation(byte_address, "read")
            result.append(page[byte_address & PAGE_MASK])
        return int.from_bytes(bytes(result), "little")

    def write(self, address: int, size: int, value: int) -> None:
        """Write ``size`` bytes little-endian, honouring protection."""
        address &= MASK64
        page = address >> PAGE_SHIFT
        offset = address & PAGE_MASK
        data = self._pages.get(page)
        if data is None:
            raise AccessViolation(address, "write")
        if self._protection[page] is PageProtection.READ_ONLY:
            raise AccessViolation(address, "write-protected")
        if page in self._shared:
            data = self._pages[page] = bytearray(data)
            self._shared.discard(page)
        if offset + size <= PAGE_SIZE:
            data[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
                size, "little"
            )
            return
        self._write_cross_page(address, size, value)

    def _write_cross_page(self, address: int, size: int, value: int) -> None:
        raw = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        for index, byte in enumerate(raw):
            byte_address = (address + index) & MASK64
            page_number = byte_address >> PAGE_SHIFT
            page = self._pages.get(page_number)
            if page is None:
                raise AccessViolation(byte_address, "write")
            if self._protection[page_number] is PageProtection.READ_ONLY:
                raise AccessViolation(byte_address, "write-protected")
            if page_number in self._shared:
                page = self._pages[page_number] = bytearray(page)
                self._shared.discard(page_number)
            page[byte_address & PAGE_MASK] = byte

    # ----------------------------------------------------------- snapshots

    def clone(self) -> "SparseMemory":
        """Deep copy of the full image (used for golden-run snapshots)."""
        copy = SparseMemory()
        copy._pages = {page: bytearray(data) for page, data in self._pages.items()}
        copy._protection = dict(self._protection)
        copy.image_version = self.image_version
        return copy

    def clone_cow(self) -> "SparseMemory":
        """Copy-on-write copy: pages are shared until either side writes.

        Both images mark every current page as shared; the first mutation
        of a shared page (an ordinary ``write`` or a loader ``load_bytes``)
        copies that page out for the writer, leaving other sharers reading
        the original bytes. Reads never copy. Cloning is O(pages) dict
        copies instead of O(bytes), which is what lets a fault campaign
        materialize a diverged trial's private memory mid-run without
        duplicating the whole image up front.
        """
        copy = SparseMemory()
        copy._pages = dict(self._pages)
        copy._protection = dict(self._protection)
        copy.image_version = self.image_version
        shared = set(self._pages)
        self._shared |= shared
        copy._shared = set(shared)
        return copy

    def hash_into(self, digest) -> None:
        """Feed every mapped page — number, protection and bytes, in page
        order — into a :mod:`hashlib` object."""
        for page in sorted(self._pages):
            digest.update(
                b"%d%s" % (page, self._protection[page].value.encode())
            )
            digest.update(self._pages[page])

    def equals(self, other: "SparseMemory") -> bool:
        """Content equality over all mapped pages."""
        if self._pages.keys() != other._pages.keys():
            return False
        return all(self._pages[page] == other._pages[page] for page in self._pages)

    def diff_addresses(self, other: "SparseMemory", limit: int = 16) -> list[int]:
        """First differing byte addresses, up to ``limit`` (for reports)."""
        differences: list[int] = []
        for page in sorted(set(self._pages) | set(other._pages)):
            mine = self._pages.get(page)
            theirs = other._pages.get(page)
            if mine is None or theirs is None:
                differences.append(page << PAGE_SHIFT)
                if len(differences) >= limit:
                    return differences
                continue
            if mine == theirs:
                continue
            for offset in range(PAGE_SIZE):
                if mine[offset] != theirs[offset]:
                    differences.append((page << PAGE_SHIFT) + offset)
                    if len(differences) >= limit:
                        return differences
        return differences

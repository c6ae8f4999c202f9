"""The machine-state description: injectable banks and shadow state.

Each structure describes its state here once, where it owns it. *Banks*
are the injectable latches and RAM cells: one backing list of ints per
bank, registered with a name, structure, state class and width, each slot
one field. Field *i* of the flat view is arithmetic over bank start
offsets, in registration order, so the fault-injection framework gets a
uniform view of the machine: it can count bits, pick a uniformly random
(field, bit) pair, flip it, snapshot every field and diff two snapshots —
exactly the operations the paper's latch-level campaigns need. *Shadow
state* is what a fork must carry but a flip never targets (predictor
tables, timing metadata, status counters, the event wheel), declared as
attribute names of its owner.

State classes mirror the paper's taxonomy:

- ``ram``  — SRAM arrays: physical register file, alias tables, free lists,
  fetch queue, store buffer ("structures that were implemented as SRAMs in
  our processor include the register file and register alias tables").
  These are the ECC targets of the "low-hanging-fruit" hardened pipeline.
- ``ctrl`` — control word latches: ROB and scheduler control fields, LSQ
  control bits. These are the parity targets of the hardened pipeline.
- ``data`` — datapath latches: in-flight addresses, values, and PCs that
  remain unprotected even in the hardened pipeline; ReStore's symptom
  coverage is what protects them.
- ``mem``  — memory-hierarchy metadata: cache tag/valid/LRU arrays and the
  MSHR file. The paper excludes these from its campaigns ("caches are
  easily protected by ECC or parity"), so they are banks only when a
  pipeline is built with ``memhier_targets`` (shadow state otherwise) —
  the opt-in fault surface behind the miss-rate-spike / stall-outlier /
  spurious-memory-op detector study. Tag-only caches make this class
  timing-only corruption: it can never change an architectural value
  directly.

Predictor tables are always shadow state ("corrupt predictor table entries
cannot lead to failure"), and so are TLBs — their FIFO page list has no
fixed latch encoding.

:meth:`StateRegistry.state` and :meth:`StateRegistry.load_state` are the
one walk over the whole description that a fork's copy and a checkpoint's
save and restore share. :func:`state_digest` hashes the whole description
(banks, shadow state and the memory image) so that two machines can be
compared for equality without keeping either one.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterator

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.arch.memory import SparseMemory

STATE_CLASSES = ("ram", "ctrl", "data", "mem")

# State classes counted as pipeline latches for the Section 5.1.2 study.
LATCH_CLASSES = ("ctrl", "data")


@dataclass(eq=False, repr=False, slots=True)
class StateBank:
    """One registered list: ``len(storage)`` fields of one width and class,
    the first of them at flat index ``start``."""

    name: str
    structure: str
    state_class: str
    width: int
    storage: list[int]
    on_set: Callable[[], None] | None
    start: int

    @property
    def bits(self) -> int:
        return len(self.storage) * self.width


@dataclass(eq=False, repr=False, slots=True)
class StateField:
    """View of one field: slot ``slot`` of ``bank``."""

    bank: StateBank
    slot: int

    @property
    def name(self) -> str:
        return f"{self.bank.name}[{self.slot}]"

    @property
    def structure(self) -> str:
        return self.bank.structure

    @property
    def state_class(self) -> str:
        return self.bank.state_class

    @property
    def width(self) -> int:
        return self.bank.width

    @property
    def index(self) -> int:
        """Position of this field in the flat snapshot."""
        return self.bank.start + self.slot

    def get(self) -> int:
        return self.bank.storage[self.slot]

    def set(self, value: int) -> None:
        """Write through the registry: masks to width, fires ``on_set``."""
        bank = self.bank
        bank.storage[self.slot] = value & ((1 << bank.width) - 1)
        if bank.on_set is not None:
            bank.on_set()

    def flip(self, bit: int) -> None:
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for {self.name}")
        self.set(self.get() ^ (1 << bit))

    def __repr__(self) -> str:
        return f"StateField({self.name}, {self.state_class}, {self.width}b)"


class StateRegistry:
    """The state description of one pipeline instance."""

    def __init__(self):
        self.banks: list[StateBank] = []
        # (weak reference to owner, attribute names) in declaration order.
        self.shadows: list[tuple[weakref.ref, tuple[str, ...]]] = []
        self.size = 0  # fields over all banks

    # ---------------------------------------------------------- describing

    def register_list(
        self,
        structure: str,
        state_class: str,
        base_name: str,
        storage: list[int],
        width: int,
        on_set: Callable[[], None] | None = None,
    ) -> None:
        """Register a list of ints (an SRAM array or a latch bank) as one
        bank. The list must stay in place and keep its length.

        ``on_set``, when given, fires after a write through the registry —
        fault injection (:meth:`StateField.flip`), and once per bank on
        :meth:`restore` and a fork's copy — but not on the structure's own
        direct list writes. Structures use it to invalidate derived lookup
        indexes (e.g. the scheduler's wakeup index) when state changes
        behind their back."""
        if state_class not in STATE_CLASSES:
            raise ValueError(f"unknown state class {state_class!r}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.banks.append(StateBank(
            base_name, structure, state_class, width, storage, on_set, self.size
        ))
        self.size += len(storage)

    def shadow(self, owner: object, *names: str) -> None:
        """Declare attributes of ``owner`` as shadow state, copied by a fork
        and never flipped: a list in place, a dict (the event wheel) one
        level deep, anything else must be immutable. The owner is held
        weakly so that a pipeline's own declarations form no cycle."""
        self.shadows.append((weakref.ref(owner), names))

    # ------------------------------------------------------------- queries

    @property
    def fields(self) -> list[StateField]:
        """Views of every field, in flat snapshot order."""
        return [
            StateField(bank, slot)
            for bank in self.banks for slot in range(len(bank.storage))
        ]

    def field(self, index: int) -> StateField:
        """The field at flat snapshot position ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"field index {index} out of range")
        bank = self.banks[bisect_right(self.banks, index, key=lambda bank: bank.start) - 1]
        return StateField(bank, index - bank.start)

    def _banks_of(self, classes: tuple[str, ...] | None) -> list[StateBank]:
        return [
            bank for bank in self.banks
            if bank.storage and (classes is None or bank.state_class in classes)
        ]

    def total_bits(self, classes: tuple[str, ...] | None = None) -> int:
        return sum(bank.bits for bank in self._banks_of(classes))

    def bits_by_structure(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for bank in self.banks:
            totals[bank.structure] = totals.get(bank.structure, 0) + bank.bits
        return totals

    # ------------------------------------------------------------ sampling

    def pick_bit(
        self,
        rng: DeterministicRng,
        classes: tuple[str, ...] | None = None,
    ) -> tuple[StateField, int]:
        """Uniformly pick one bit across all (optionally filtered) state.
        ``field.index`` is the picked field's flat snapshot position."""
        banks = self._banks_of(classes)
        if not banks:
            raise ValueError("no fields to pick from")
        ends = list(accumulate(bank.bits for bank in banks))
        bit_index = rng.randrange(ends[-1])
        position = bisect_right(ends, bit_index)
        bank = banks[position]
        offset = bit_index - (ends[position - 1] if position else 0)
        slot, bit = divmod(offset, bank.width)
        return StateField(bank, slot), bit

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> list[int]:
        """Values of every field: the banks concatenated, in registration order."""
        values: list[int] = []
        for bank in self.banks:
            values += bank.storage
        return values

    def restore(self, snapshot: list[int]) -> None:
        if len(snapshot) != self.size:
            raise ValueError("snapshot length mismatch")
        for bank in self.banks:
            mask = (1 << bank.width) - 1
            end = bank.start + len(bank.storage)
            bank.storage[:] = [value & mask for value in snapshot[bank.start:end]]
            if bank.on_set is not None:
                bank.on_set()

    # -------------------------------------------------------- whole state

    def state(self) -> list:
        """The whole description's values, by reference: every bank's
        storage, then every shadow attribute, in declaration order. What
        a fork copies and a checkpoint stores."""
        values: list = [bank.storage for bank in self.banks]
        for owner, names in self.shadows:
            target = owner()
            values += [getattr(target, name) for name in names]
        return values

    def load_state(self, values: list) -> None:
        """Copy :meth:`state` values of a machine built with the same
        options into this one: banks and shadow lists in place (firing
        each bank's ``on_set``), the event wheel one level deep, anything
        else by reference (it is immutable)."""
        if len(values) != len(self.banks) + sum(
            len(names) for _, names in self.shadows
        ):
            raise ValueError("state does not fit this description")
        values = iter(values)
        for bank, value in zip(self.banks, values):
            bank.storage[:] = value
            if bank.on_set is not None:
                bank.on_set()
        for owner, names in self.shadows:
            target = owner()
            for name, value in zip(names, values):
                if type(value) is list:
                    getattr(target, name)[:] = value
                    continue
                if type(value) is dict:  # the event wheel: cycle -> [tuple]
                    value = {key: list(items) for key, items in value.items()}
                setattr(target, name, value)

    def diff_indices(self, a: list[int], b: list[int]) -> list[int]:
        """Indices of fields whose values differ between two snapshots."""
        if len(a) != len(b):
            raise ValueError("snapshot length mismatch")
        diff: list[int] = []
        for bank in self.banks:
            start = bank.start
            end = start + len(bank.storage)
            if a[start:end] != b[start:end]:
                diff.extend(
                    index for index in range(start, end) if a[index] != b[index]
                )
        return diff


# ---------------------------------------------------------------- digests


def _encode(value) -> bytes:
    """A tagged, length-prefixed byte encoding of one state value that is
    the same in every process: int lists as bytes or 64-bit words, the
    event wheel in cycle order, anything else (scalars, tuples, lists of
    other values) by ``repr``, which no hash seed affects."""
    if type(value) is list:
        try:
            return b"B%d:" % len(value) + bytearray(value)
        except (TypeError, ValueError):
            pass
        for code in ("q", "Q"):
            try:
                return b"%s%d:" % (code.encode(), len(value)) + array(
                    code, value
                ).tobytes()
            except (TypeError, OverflowError):
                pass
    elif type(value) is dict:
        # Only lookups by cycle read the wheel, so key order is not state.
        value = sorted(value.items())
    data = repr(value).encode()
    return b"r%d:" % len(data) + data


def digest_parts(
    registry: StateRegistry, memory: "SparseMemory"
) -> Iterator[bytes]:
    """The digests of the banks, the shadow state and the memory image, in
    that order (cheapest first, so a lazy comparison usually stops after
    the first). Equal parts mean equal machine state up to a SHA-256
    collision."""
    values: list[int] = []
    for bank in registry.banks:
        values += bank.storage
    yield hashlib.sha256(_encode(values)).digest()
    digest = hashlib.sha256()
    for owner, names in registry.shadows:
        target = owner()
        for name in names:
            digest.update(_encode(getattr(target, name)))
    yield digest.digest()
    digest = hashlib.sha256()
    memory.hash_into(digest)
    yield digest.digest()


def state_digest(
    registry: StateRegistry, memory: "SparseMemory"
) -> tuple[bytes, ...]:
    """The full digest of one machine: every part of :func:`digest_parts`."""
    return tuple(digest_parts(registry, memory))


def digest_matches(
    registry: StateRegistry, memory: "SparseMemory", expected: tuple[bytes, ...]
) -> bool:
    """Does this machine's digest equal ``expected``? Stops at the first
    differing part."""
    return all(
        part == want
        for part, want in zip(digest_parts(registry, memory), expected)
    )

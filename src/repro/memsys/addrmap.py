"""Configurable bit-field physical-address mapping.

A physical address is split, MSB to LSB, into a permutation of the five
architectural fields — channel, bankgroup, bank, row, column — followed
by a fixed low-order *offset* field (the byte position inside one
transaction, never used for mapping).  This mirrors the HBM-PIM layout
``[Channel][Bankgroup][Bank][Row][Column][Offset]`` while letting the
field *order* vary, which is exactly what classic DRAM interleaving
studies (and Ramulator-style simulators) sweep: putting channel or bank
bits near the LSBs spreads a sequential stream across parallel
resources, putting row bits low keeps it inside one row buffer.

The map is a bijection between addresses (with zero offset) and
:class:`Coordinates`; :meth:`AddressMap.decode` and
:meth:`AddressMap.encode` are exact inverses, which the test suite
checks over random address samples.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

__all__ = ["FIELDS", "SCHEMES", "Coordinates", "AddressMap"]

#: Architectural fields, in the *reference* MSB->LSB order.
FIELDS = ("channel", "bankgroup", "bank", "row", "column")

#: Named interleaving schemes: field order from MSB to LSB.
#:
#: ``row-major``
#:     Resource bits on top: a sequential stream drains one row of one
#:     bank completely before touching the next — maximum row-buffer
#:     locality, no parallelism (the single-macro regime of §2.1).
#: ``channel-interleaved``
#:     Channel bits just above the offset (Ramulator's ``RoBaRaCoCh``):
#:     consecutive transactions round-robin the channels.
#: ``bank-interleaved``
#:     Bankgroup/bank bits lowest: consecutive transactions round-robin
#:     the banks of one channel, row bits above column bits.
SCHEMES: _t.Dict[str, _t.Tuple[str, ...]] = {
    "row-major": ("channel", "bankgroup", "bank", "row", "column"),
    "channel-interleaved": ("row", "bankgroup", "bank", "column", "channel"),
    "bank-interleaved": ("channel", "row", "column", "bankgroup", "bank"),
}


@dataclasses.dataclass(frozen=True)
class Coordinates:
    """Decoded position of one transaction in the memory system."""

    channel: int = 0
    bankgroup: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0

    def flat_bank(self, banks_per_group: int) -> int:
        """Bank index flattened across bankgroups within the channel."""
        return self.bankgroup * banks_per_group + self.bank


@dataclasses.dataclass(frozen=True)
class AddressMap:
    """Bit-field address map with a pluggable field order.

    Attributes
    ----------
    channel_bits, bankgroup_bits, bank_bits, row_bits, column_bits:
        Width of each architectural field; a width of 0 means the system
        has exactly one instance of that resource.
    offset_bits:
        Low-order bits inside one transaction (e.g. 5 for 32-byte
        transactions); ignored by decode, zeroed by encode.
    order:
        Permutation of :data:`FIELDS`, MSB to LSB.
    """

    channel_bits: int = 1
    bankgroup_bits: int = 1
    bank_bits: int = 1
    row_bits: int = 14
    column_bits: int = 3
    offset_bits: int = 5
    order: _t.Tuple[str, ...] = SCHEMES["row-major"]

    def __post_init__(self) -> None:
        for field in FIELDS:
            if self._width(field) < 0:
                raise ValueError(f"{field}_bits must be >= 0")
        if self.offset_bits < 0:
            raise ValueError("offset_bits must be >= 0")
        if sorted(self.order) != sorted(FIELDS):
            raise ValueError(
                f"order must be a permutation of {FIELDS}, got {self.order}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_scheme(cls, scheme: str, **widths: int) -> "AddressMap":
        """Build a map from a named interleaving scheme.

        ``widths`` are passed through as field-width overrides, e.g.
        ``AddressMap.from_scheme("channel-interleaved", channel_bits=2)``.
        """
        try:
            order = SCHEMES[scheme]
        except KeyError:
            raise KeyError(
                f"unknown scheme {scheme!r}; available: {sorted(SCHEMES)}"
            ) from None
        return cls(order=order, **widths)

    # ------------------------------------------------------------------
    def _width(self, field: str) -> int:
        return int(getattr(self, f"{field}_bits"))

    @property
    def mapped_bits(self) -> int:
        """Total mapped width, offset included."""
        return self.offset_bits + sum(self._width(f) for f in FIELDS)

    @property
    def capacity_bytes(self) -> int:
        """Bytes addressable by the map."""
        return 1 << self.mapped_bits

    @property
    def transaction_bytes(self) -> int:
        """Bytes moved per transaction (the offset granule)."""
        return 1 << self.offset_bits

    def counts(self) -> _t.Dict[str, int]:
        """Number of instances of each resource (2**width)."""
        return {f: 1 << self._width(f) for f in FIELDS}

    # ------------------------------------------------------------------
    def decode(self, addr: int) -> Coordinates:
        """Split a byte address into architectural coordinates.

        Addresses beyond :attr:`capacity_bytes` wrap (the high bits are
        ignored), so arbitrary synthetic traces stay valid.
        """
        if addr < 0:
            raise ValueError(f"address must be non-negative, got {addr}")
        bits = int(addr) >> self.offset_bits
        values: _t.Dict[str, int] = {}
        for field in reversed(self.order):  # LSB first
            width = self._width(field)
            values[field] = bits & ((1 << width) - 1)
            bits >>= width
        return Coordinates(**values)

    def decode_fields(
        self, addrs: "np.ndarray"
    ) -> _t.Dict[str, "np.ndarray"]:
        """Vectorized :meth:`decode`: one array per architectural field.

        Applies the same shift/mask arithmetic as :meth:`decode` to a
        whole address array at once (the fast-path replay engine decodes
        million-request traces this way).  Returns ``int64`` arrays keyed
        by field name; high bits beyond :attr:`capacity_bytes` wrap
        exactly as in the scalar decoder.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size and int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        bits = addrs >> self.offset_bits
        values: _t.Dict[str, np.ndarray] = {}
        for field in reversed(self.order):  # LSB first
            width = self._width(field)
            values[field] = bits & ((1 << width) - 1)
            bits = bits >> width
        return values

    def encode_fields(
        self, fields: _t.Mapping[str, "np.ndarray"]
    ) -> "np.ndarray":
        """Vectorized :meth:`encode`: field arrays to byte addresses.

        The exact inverse of :meth:`decode_fields` — applies the same
        MSB-first shift/or arithmetic as the scalar encoder to whole
        coordinate arrays at once (the PIM machine packs million-request
        streams this way).  Missing fields default to zero, matching
        :class:`Coordinates` defaults.

        Raises
        ------
        ValueError
            If any coordinate does not fit its field width.
        """
        arrays = {
            name: np.asarray(values, dtype=np.int64)
            for name, values in fields.items()
        }
        shape = next(iter(arrays.values())).shape if arrays else (0,)
        addr = np.zeros(shape, dtype=np.int64)
        for field in self.order:  # MSB first
            width = self._width(field)
            values = arrays.get(field)
            if values is None:
                addr = addr << width
                continue
            if values.size and not (
                int(values.min()) >= 0 and int(values.max()) < (1 << width)
            ):
                raise ValueError(
                    f"{field} values do not fit in {width} bit(s)"
                )
            addr = (addr << width) | values
        return addr << self.offset_bits

    def encode(self, coords: Coordinates) -> int:
        """Inverse of :meth:`decode` (offset bits zero).

        Raises
        ------
        ValueError
            If any coordinate does not fit its field width.
        """
        addr = 0
        for field in self.order:  # MSB first
            width = self._width(field)
            value = int(getattr(coords, field))
            if not 0 <= value < (1 << width):
                raise ValueError(
                    f"{field}={value} does not fit in {width} bit(s)"
                )
            addr = (addr << width) | value
        return addr << self.offset_bits

    def scalar_encoder(
        self,
    ) -> _t.Callable[[int, int, int, int, int], int]:
        """A fast :meth:`encode` over plain ints, for per-request loops.

        Returns ``encode(channel, bankgroup, bank, row, column) ->
        address`` with every field's shift and limit precomputed, so a
        call builds no :class:`Coordinates` and walks no field order.
        Out-of-range fields raise exactly what :meth:`encode` raises
        (it handles that rare path).
        """
        shifts: _t.Dict[str, int] = {}
        shift = self.offset_bits
        for field in reversed(self.order):  # LSB first
            shifts[field] = shift
            shift += self._width(field)
        s_ch, s_bg, s_ba, s_ro, s_co = (shifts[f] for f in FIELDS)
        n_ch, n_bg, n_ba, n_ro, n_co = (
            1 << self._width(f) for f in FIELDS
        )

        def encode(
            channel: int, bankgroup: int, bank: int, row: int, column: int
        ) -> int:
            if (
                0 <= channel < n_ch
                and 0 <= bankgroup < n_bg
                and 0 <= bank < n_ba
                and 0 <= row < n_ro
                and 0 <= column < n_co
            ):
                return (
                    channel << s_ch
                    | bankgroup << s_bg
                    | bank << s_ba
                    | row << s_ro
                    | column << s_co
                )
            return self.encode(
                Coordinates(channel, bankgroup, bank, row, column)
            )

        return encode

    _LABELS = {
        "channel": "Ch", "bankgroup": "Bg", "bank": "Ba",
        "row": "Ro", "column": "Co",
    }

    def __str__(self) -> str:
        parts = [
            f"{self._LABELS[f]}:{self._width(f)}" for f in self.order
        ]
        return "[" + "][".join(parts) + f"][Off:{self.offset_bits}]"

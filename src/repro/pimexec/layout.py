"""The page layout every PIM kernel stages its data in.

One :class:`Layout` owns where each value sits — lane, unit, slot,
``(row, col)`` — for both kernel families (the built-ins of
:mod:`repro.pimexec.kernels` and the :mod:`repro.nn` library) and for
the layer traces of :mod:`repro.nn.models`, and builds their host-only
twin streams.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from ..memsys import MemSysConfig, Op, PackedTrace
from .machine import LANE_BITS, PimExecMachine

__all__ = ["Layout"]


class Layout:
    """Row-striped page layout of one machine mode over one geometry.

    * **Lanes.** A page holds ``lanes = page_bits // 16`` values, one
      per 16-bit hardware lane.
    * **Units.** ``units_per_channel`` execution units per channel (one
      per bank, or one per even/odd bank pair with ``bank_groups``),
      ``units = n_channels * units_per_channel`` in all, numbered
      channel-major: unit ``u`` is unit ``u % units_per_channel`` of
      channel ``u // units_per_channel`` and keeps its data pages in
      that channel's bank :meth:`data_bank` ``(u)`` (the pair's even
      bank in bank-group mode).
    * **Slots.** Every unit holds its ``s``-th page at slot ``s``, and
      slot ``s`` lives at ``(row, col) = (s // pages_per_row,
      s % pages_per_row)`` in every bank, so all banks of a channel
      hold their slot-``s`` page at the same address — what all-bank
      lockstep execution needs.  A bank holds ``capacity_slots =
      rows_per_bank * pages_per_row`` slots.
    * **Tiles.** A matrix is *row-striped*: tile ``t`` spans
      ``rows_per_tile = units * lanes`` rows, unit ``u`` holds rows
      ``[t*R + u*lanes, t*R + (u+1)*lanes)`` (one row per lane), and
      column ``k`` of tile ``t`` is one page per unit at slot ``base +
      t*K + k``.  Row counts that are not a multiple of
      ``rows_per_tile`` are zero-padded.  A vector is a one-column
      matrix: page ``p`` goes to unit ``p % units`` at slot
      ``p // units``.  In bank-group mode the unit count halves, so the
      same matrix needs twice the tiles — twice the all-bank column
      accesses.
    * **Host twins.** The host-only twin of a kernel moves its
      operands one page per request over the host interface, which
      sees banks, not units: :meth:`host_twin` spreads each slot's
      pages over the first banks of the geometry in global bank order
      (channel-major), whatever the execution mode.
    """

    def __init__(
        self, config: MemSysConfig, bank_groups: bool = False
    ) -> None:
        self.config = config
        self.bank_groups = bool(bank_groups)
        self.ports = 2 if bank_groups else 1
        if config.banks_per_channel % self.ports:
            raise ValueError(
                "bank-group mode needs an even banks_per_channel, got "
                f"{config.banks_per_channel}"
            )
        self.lanes = config.timing.page_bits // LANE_BITS
        self.n_channels = config.n_channels
        self.units_per_channel = config.banks_per_channel // self.ports
        self.units = self.n_channels * self.units_per_channel
        #: Banks the host interface spreads a twin's pages over.
        self.banks = self.n_channels * config.banks_per_channel
        #: Rows one tile spans: one row per lane per unit.
        self.rows_per_tile = self.units * self.lanes
        self.ppr = config.timing.pages_per_row
        self.capacity_slots = config.rows_per_bank * self.ppr

    def data_bank(self, u: int) -> int:
        """Flat bank carrying global unit ``u``'s data pages (port 0)."""
        return (u % self.units_per_channel) * self.ports

    def unit_bank(self, u: int) -> _t.Tuple[int, int]:
        """``(channel, flat bank)`` of global unit ``u``'s data pages."""
        return u // self.units_per_channel, self.data_bank(u)

    def slot_addr(self, s: int) -> _t.Tuple[int, int]:
        return divmod(s, self.ppr)

    def addrs(self, first: int, count: int) -> _t.List[_t.Tuple[int, int]]:
        """``(row, col)`` of the ``count`` slots from ``first``."""
        return [self.slot_addr(s) for s in range(first, first + count)]

    def check_capacity(self, slots: int) -> None:
        if slots > self.capacity_slots:
            raise ValueError(
                f"kernel needs {slots} slots per bank; geometry holds "
                f"{self.capacity_slots}"
            )

    def tiles(self, matrix: np.ndarray) -> np.ndarray:
        """Row-striped pages ``(T, K, units, lanes)`` of ``matrix``.

        Rows are zero-padded to a whole number of tiles; the dtype is
        preserved (pad before casting to keep references bit-exact).
        """
        m, k = matrix.shape
        r = self.rows_per_tile
        t = -(-m // r)
        padded = np.zeros((t * r, k), dtype=matrix.dtype)
        padded[:m] = matrix
        return padded.reshape(
            t, self.units, self.lanes, k
        ).transpose(0, 3, 1, 2)

    def untile(self, pages: np.ndarray, m: int) -> np.ndarray:
        """Inverse of :meth:`tiles`: ``(T, K, units, lanes)`` -> (m, K)."""
        t, k = pages.shape[0], pages.shape[1]
        matrix = pages.transpose(0, 2, 3, 1).reshape(
            t * self.rows_per_tile, k
        )
        return matrix[:m]

    def pages(
        self, machine: PimExecMachine, first: int, count: int
    ) -> np.ndarray:
        """Request-free peek at every unit's pages at ``count`` slots
        from ``first`` -> ``(count, units, lanes)``."""
        return np.array(
            [
                machine.array.load_pages(row, col)
                for row, col in self.addrs(first, count)
            ],
            dtype=machine.np_dtype,
        ).reshape(count, self.units, self.lanes)

    def host_twin(
        self, steps: _t.Iterable[_t.Tuple[Op, int, int]]
    ) -> PackedTrace:
        """A host-only twin stream, built in one vectorized pass.

        Each step ``(op, slot, width)`` is one ``op`` request to each of
        the first ``width`` banks of the geometry, in global bank order,
        at ``slot``.
        """
        codes, slots, widths = (
            np.array(column, dtype=np.int64)
            for column in zip(*((op.code, s, w) for op, s, w in steps))
        )
        starts = np.cumsum(widths) - widths
        bank = np.arange(widths.sum()) - np.repeat(starts, widths)
        channel, flat = np.divmod(bank, self.config.banks_per_channel)
        row, col = np.divmod(np.repeat(slots, widths), self.ppr)
        per_group = self.config.banks_per_group
        addrs = self.config.address_map().encode_fields(
            {
                "channel": channel,
                "bankgroup": flat // per_group,
                "bank": flat % per_group,
                "row": row,
                "column": col,
            }
        )
        return PackedTrace(np.repeat(codes, widths), addrs)

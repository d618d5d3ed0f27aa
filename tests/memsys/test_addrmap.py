"""Tests for the bit-field address map and interleaving schemes."""

import pytest

from repro.memsys import AddressMap, Coordinates, SCHEMES


class TestValidation:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="permutation"):
            AddressMap(order=("channel", "bank", "row", "column", "row"))

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            AddressMap(row_bits=-1)

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(KeyError, match="row-major"):
            AddressMap.from_scheme("nope")

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            AddressMap().decode(-1)

    def test_encode_rejects_overflowing_field(self):
        amap = AddressMap(channel_bits=1)
        with pytest.raises(ValueError, match="channel"):
            amap.encode(Coordinates(channel=2))


class TestGeometry:
    def test_counts_and_capacity(self):
        amap = AddressMap(
            channel_bits=2, bankgroup_bits=1, bank_bits=1,
            row_bits=10, column_bits=3, offset_bits=5,
        )
        assert amap.counts() == {
            "channel": 4, "bankgroup": 2, "bank": 2,
            "row": 1024, "column": 8,
        }
        assert amap.mapped_bits == 22
        assert amap.capacity_bytes == 1 << 22
        assert amap.transaction_bytes == 32

    def test_str_shows_field_layout(self):
        text = str(AddressMap())
        assert text == "[Ch:1][Bg:1][Ba:1][Ro:14][Co:3][Off:5]"
        # bankgroup and bank must be distinguishable in the layout
        assert "Bg:" in text and "Ba:" in text


class TestBijectivity:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_roundtrip_random_sample(self, scheme, rng):
        amap = AddressMap.from_scheme(
            scheme, channel_bits=2, bankgroup_bits=2, bank_bits=2,
            row_bits=8, column_bits=3, offset_bits=5,
        )
        n_mapped = amap.mapped_bits - amap.offset_bits
        samples = rng.integers(0, 1 << n_mapped, size=2048)
        for sample in samples:
            addr = int(sample) << amap.offset_bits
            assert amap.encode(amap.decode(addr)) == addr

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_decode_is_injective_over_small_space(self, scheme):
        amap = AddressMap.from_scheme(
            scheme, channel_bits=1, bankgroup_bits=1, bank_bits=1,
            row_bits=3, column_bits=2, offset_bits=0,
        )
        seen = {
            amap.decode(addr) for addr in range(amap.capacity_bytes)
        }
        assert len(seen) == amap.capacity_bytes

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_scalar_encoder_matches_encode(self, scheme, rng):
        amap = AddressMap.from_scheme(
            scheme, channel_bits=2, bankgroup_bits=1, bank_bits=2,
            row_bits=8, column_bits=3, offset_bits=5,
        )
        encode = amap.scalar_encoder()
        n_mapped = amap.mapped_bits - amap.offset_bits
        for sample in rng.integers(0, 1 << n_mapped, size=512):
            coords = amap.decode(int(sample) << amap.offset_bits)
            assert encode(
                coords.channel, coords.bankgroup, coords.bank,
                coords.row, coords.column,
            ) == amap.encode(coords)

    @pytest.mark.parametrize(
        "fields",
        [(2, 0, 0, 0, 0), (0, 0, 0, -1, 0), (0, 2, 0, 0, 9), (0, 0, 0, 0, 8)],
    )
    def test_scalar_encoder_raises_like_encode(self, fields):
        amap = AddressMap()
        with pytest.raises(ValueError) as expected:
            amap.encode(Coordinates(*fields))
        with pytest.raises(ValueError) as actual:
            amap.scalar_encoder()(*fields)
        assert str(actual.value) == str(expected.value)

    def test_high_bits_wrap(self):
        amap = AddressMap()
        addr = 123 << amap.offset_bits
        assert amap.decode(addr + amap.capacity_bytes) == amap.decode(addr)


class TestInterleaving:
    def test_channel_interleaved_spreads_consecutive_transactions(self):
        amap = AddressMap.from_scheme("channel-interleaved", channel_bits=2)
        step = amap.transaction_bytes
        channels = [amap.decode(i * step).channel for i in range(8)]
        assert channels == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_row_major_keeps_consecutive_transactions_in_one_row(self):
        amap = AddressMap.from_scheme("row-major", column_bits=3)
        step = amap.transaction_bytes
        coords = [amap.decode(i * step) for i in range(8)]
        assert {c.row for c in coords} == {0}
        assert [c.column for c in coords] == list(range(8))

    def test_bank_interleaved_spreads_banks_within_channel(self):
        amap = AddressMap.from_scheme(
            "bank-interleaved", bankgroup_bits=1, bank_bits=1
        )
        step = amap.transaction_bytes
        coords = [amap.decode(i * step) for i in range(4)]
        assert {c.channel for c in coords} == {0}
        assert len({c.flat_bank(2) for c in coords}) == 4

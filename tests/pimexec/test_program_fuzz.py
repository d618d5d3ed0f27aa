"""Fuzz-style malformed-input suite for the program-trace parser.

Mirror of ``tests/memsys/test_trace_fuzz.py`` for the HBM-PIMulator
dialect: any input — truncated, garbled, dialect-mixed, or randomly
mutated — either parses or raises
:class:`~repro.errors.ProgramFormatError` (a ``ValueError``) with the
1-based line number, never an accidental ``IndexError`` /
``UnboundLocalError`` / ``KeyError`` from the parser's internals.

The instruction-level fuzz at the end runs seeded random CRF programs
on the machine and on the tests-only per-unit oracle grid
(``tests/pimexec/unit_oracle.py``).
"""

import random

import numpy as np
import pytest

from repro.errors import ProgramFormatError
from repro.pimexec import (
    PimExecError,
    PimExecMachine,
    parse_command,
    parse_pim_program,
)

from tests.pimexec.test_tier_equivalence import (
    assert_matches_oracle,
    assert_streams_identical,
)
from tests.pimexec.unit_oracle import OracleGrid

#: A small valid program trace to mutate (one of each record form).
VALID = (
    "W MEM 0 2 8\n"
    "W GPR 0\n"
    "W CFR 0 1\n"
    "AB W\n"
    "PIM MAC GRF,8 BANK,0,3,0 SRF,0\n"
    "PIM EXIT\n"
    "R MEM 0 2 8\n"
    "SB R 0x40\n"
)


def _attempt(text):
    """Parse; malformed input must surface as ProgramFormatError only."""
    try:
        parse_pim_program(text)
    except ProgramFormatError as error:
        assert isinstance(error, ValueError)
        assert "line" in str(error)
        return error
    return None


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line",
        [
            "AB",  # AB without W
            "AB R",  # AB with wrong direction
            "W MEM 0 2",  # MEM with wrong arity
            "W MEM 0 2 banana",  # non-numeric field
            "W MEM 0 2 -8",  # negative field
            "W GPR banana",  # bad GPR id
            "SB X 0x40",  # bad SB direction
            "SB R",  # SB missing address
            "PIM FROB GRF,8",  # unknown PIM opcode
            "PIM MAC GRF,8",  # wrong PIM arity
            "PIM MAC GRF,banana BANK,0,3,0 SRF,0",  # bad operand index
            "GLORP 1 2 3",  # unknown record head
            "W MEM 0 2 8 @banana",  # bad timestamp
            "W MEM 0 2 8 @-1.0",  # negative timestamp
            "W MEM 0 2 8 @nan",  # non-finite timestamp
        ],
    )
    def test_bad_line_is_a_typed_error(self, line):
        error = _attempt(line + "\n")
        assert error is not None
        assert "line 1" in str(error)

    def test_decreasing_timestamps_rejected(self):
        error = _attempt("W GPR 0 @10.0\nW GPR 1 @5.0\n")
        assert error is not None
        assert "line 2" in str(error)

    def test_wrong_dialect_memory_trace(self):
        # a plain memory trace fed to the program parser: its R/W
        # lines collide with the MEM/GPR/CFR/SB record forms and must
        # produce a typed error, not a crash
        memory = "R 0x00000100 10.0\nW 0x00000140 20.0\n"
        _attempt(memory)


class TestTruncation:
    def test_every_prefix_parses_or_raises_typed(self):
        for cut in range(len(VALID)):
            _attempt(VALID[:cut])

    def test_truncated_pim_command_variants(self):
        line = "PIM MAC GRF,8 BANK,0,3,0 SRF,0"
        for cut in range(1, len(line)):
            _attempt(line[:cut] + "\n")


class TestRandomMutation:
    @pytest.mark.parametrize("seed", range(20))
    def test_byte_mutations_never_crash(self, seed):
        rng = random.Random(seed)
        text = list(VALID)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(text))
            text[pos] = chr(rng.randrange(32, 127))
        _attempt("".join(text))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_token_soup_never_crashes(self, seed):
        rng = random.Random(2000 + seed)
        tokens = [
            "W", "R", "MEM", "GPR", "CFR", "AB", "SB", "PIM",
            "MAC", "GRF,8", "BANK,0,3,0", "SRF,0", "0", "1", "-2",
            '"0x1"', "@1.0", "@banana", "0x40", "banana",
        ]
        lines = []
        for _ in range(rng.randrange(1, 12)):
            lines.append(
                " ".join(
                    rng.choice(tokens)
                    for _ in range(rng.randrange(0, 6))
                )
            )
        _attempt("\n".join(lines) + "\n")

    @pytest.mark.parametrize("seed", range(10))
    def test_line_shuffles_of_valid_program(self, seed):
        rng = random.Random(seed)
        lines = VALID.strip().split("\n")
        rng.shuffle(lines)
        _attempt("\n".join(lines) + "\n")


class TestCleanInputStaysClean:
    def test_comments_and_blanks_anywhere(self):
        noisy = "# header\n\n" + VALID.replace(
            "\n", "  # tail\n\n"
        )
        program = parse_pim_program(noisy)
        assert len(program) == 8


# ----------------------------------------------------------------------
# instruction-level fuzz: the machine against the per-unit oracle grid
# ----------------------------------------------------------------------
class TestInstructionLevelFuzz:
    """Seeded random CRF programs on the machine and the oracle grid.

    Every generated program either executes bit-identically on the
    machine's :class:`~repro.pimexec.VectorUnitArray` and on the
    tests-only :class:`~tests.pimexec.unit_oracle.OracleGrid` of
    per-unit reference objects — register files and bank pages compared
    raw-byte — or raises the *same* typed error
    (:class:`PimExecError` / :class:`~repro.errors.ProgramFormatError`)
    on both: never silent divergence, never an implementation-specific
    crash.  The machine runs each program twice, through
    ``run_kernel(walk)`` (the lockstep path) and
    ``run_kernel({ch: walk})`` (the generic round-robin loop), which
    must emit the same request stream and sequencer counters.
    """

    ARITH = ("ADD", "MUL", "MAC", "MAD", "MOV", "FILL")

    @staticmethod
    def _random_operand(rng, dst=False):
        spaces = ("GRF", "BANK") if dst else ("GRF", "SRF", "BANK")
        space = rng.choice(spaces)
        if space == "GRF":
            return f"GRF,{rng.randrange(16)}"
        if space == "SRF":
            return f"SRF,{rng.randrange(8)}"
        if rng.random() < 0.5:
            return "BANK"  # implicit: the column walk addresses it
        return f"BANK,{rng.randrange(4)},{rng.randrange(8)}"

    def _random_program(self, rng):
        lines = []
        for _ in range(rng.randrange(1, 5)):
            opcode = rng.choice(self.ARITH)
            arity = 2 if opcode in ("MOV", "FILL") else 3
            operands = [self._random_operand(rng, dst=True)] + [
                self._random_operand(rng) for _ in range(arity - 1)
            ]
            lines.append(f"{opcode} " + " ".join(operands))
        if rng.random() < 0.3 and len(lines) > 1:
            lines.append(f"JUMP 0 {rng.randrange(2, 4)}")
        lines.append("EXIT")
        return lines

    @staticmethod
    def _stage(rng, grid, raw_bits=False):
        """Random bank pages, SRF scalars, and GRF broadcasts.

        ``raw_bits`` draws pages as random binary16 bit patterns
        instead, half of them with the exponent forced to all ones —
        NaNs with distinct payloads and signs, infs, subnormals — and
        stages every SRF and GRF register, so operand order shows in
        the raw bytes.
        """

        def lane_bits():
            bits = rng.randrange(1 << 16)
            return bits | 0x7C00 if rng.random() < 0.5 else bits

        def page(bound):
            if raw_bits:
                bits = [lane_bits() for _ in range(grid.lanes)]
                return np.array(bits, dtype=np.uint16).view(np.float16)
            return np.array(
                [rng.uniform(-bound, bound) for _ in range(grid.lanes)]
            )

        for channel in range(grid.n_channels):
            for unit_index in range(grid.units_per_channel):
                flat = unit_index * grid.ports
                for _ in range(rng.randrange(1, 4)):
                    row, col = rng.randrange(4), rng.randrange(8)
                    grid.write_bank(channel, flat, row, col, page(70000.0))
            if raw_bits:
                for index, value in enumerate(page(0.0)[:8]):
                    grid.broadcast_scalar(channel, index, value)
            else:
                grid.broadcast_scalar(
                    channel, rng.randrange(8), rng.uniform(-10.0, 10.0)
                )
            registers = (
                [(space, i) for space in ("grf_a", "grf_b") for i in range(8)]
                if raw_bits
                else [(rng.choice(("grf_a", "grf_b")), rng.randrange(8))]
            )
            for space, index in registers:
                grid.broadcast_page(channel, space, index, page(5.0))

    def _run(
        self, seed, grid, channels=None, per_channel=False, raw_bits=False
    ):
        """Stage, draw and run one program on ``grid`` (the machine or
        the oracle); returns the grid or the typed error."""
        rng = random.Random(seed)
        try:
            self._stage(rng, grid, raw_bits)
            program = [
                parse_command(line)
                for line in self._random_program(rng)
            ]
            walk = [
                (rng.randrange(4), rng.randrange(8))
                for _ in range(rng.randrange(4, 12))
            ]
            if isinstance(grid, OracleGrid):
                grid.run(program, walk, channels=channels)
                return grid
            grid.load_kernel(program, channels=channels)
            if per_channel:
                targets = channels or range(grid.n_channels)
                walk = {channel: walk for channel in targets}
            grid.run_kernel(walk, channels=channels)
        except (PimExecError, ProgramFormatError) as error:
            return (type(error), str(error))
        return grid

    def _assert_same_outcome(
        self, seed, dtype, channels=None, raw_bits=False
    ):
        lockstep, generic = (
            self._run(
                seed,
                PimExecMachine(dtype=dtype),
                channels,
                per_channel=per_channel,
                raw_bits=raw_bits,
            )
            for per_channel in (False, True)
        )
        oracle = self._run(
            seed,
            OracleGrid.like(PimExecMachine(dtype=dtype)),
            channels,
            raw_bits=raw_bits,
        )
        outcomes = (lockstep, generic, oracle)
        if any(isinstance(outcome, tuple) for outcome in outcomes):
            # a typed error: every run must raise the same one
            assert lockstep == generic == oracle
            return
        assert_matches_oracle(lockstep, oracle)
        assert_matches_oracle(generic, oracle)
        assert_streams_identical(lockstep, generic)
        assert (
            lockstep.sequencer_stats()
            == generic.sequencer_stats()
            == oracle.sequencer_stats()
        )

    @pytest.mark.parametrize("dtype", ("fp64", "fp16"))
    @pytest.mark.parametrize("seed", range(25))
    def test_lockstep_programs_bit_identical(self, seed, dtype):
        """All-channel runs: the machine's lockstep path and its
        round-robin loop against the oracle grid, same seed."""
        self._assert_same_outcome(seed, dtype)

    @pytest.mark.parametrize("seed", range(25))
    def test_raw_fp16_bit_patterns_bit_identical(self, seed):
        """Bank pages of random binary16 bit patterns: NaN payloads and
        signs survive or not by the order of each rounded step, so any
        reordered expression diverges in the raw bytes."""
        self._assert_same_outcome(5000 + seed, "fp16", raw_bits=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_channel_programs_bit_identical(self, seed):
        """Single-channel runs skip the lockstep path and fuzz the
        per-channel execute instead."""
        self._assert_same_outcome(3000 + seed, "fp16", channels=[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_invalid_programs_raise_the_same_typed_error(self, seed):
        """Mutated command text fails with the same PimExecError on
        the machine and on the oracle grid (or, when the mutation
        still parses, runs to the same state)."""
        rng = random.Random(7000 + seed)
        lines = self._random_program(rng)
        pos = rng.randrange(len(lines))
        text = list(lines[pos])
        text[rng.randrange(len(text))] = chr(rng.randrange(33, 127))
        lines[pos] = "".join(text)
        walk = [(rng.randrange(4), rng.randrange(8)) for _ in range(8)]

        def attempt(grid):
            try:
                program = [parse_command(line) for line in lines]
                if isinstance(grid, OracleGrid):
                    grid.run(program, walk)
                else:
                    grid.load_kernel(program)
                    grid.run_kernel(walk)
            except PimExecError as error:
                return (type(error), str(error))
            return grid

        machine = attempt(PimExecMachine())
        oracle = attempt(OracleGrid.like(PimExecMachine()))
        if isinstance(machine, tuple) or isinstance(oracle, tuple):
            assert machine == oracle
        else:
            assert_matches_oracle(machine, oracle)

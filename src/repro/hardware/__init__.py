"""Hardware models: transprecision FPU and PULPino-like virtual platform."""

from . import fpu
from .columnar import (
    ProgramColumns,
    count_memory_columns,
    energy_split_columns,
    instruction_mix_columns,
    lower_instrs,
    simulate_program_timing,
    simulate_timing_columns,
)
from .cpu import Timing, classify, result_latency, simulate_timing
from .energy import DEFAULT_ENERGY_MODEL, EnergyBreakdown, EnergyModel
from .isa import BRANCH_TAKEN_PENALTY, LOAD_USE_LATENCY, Instr, Kind
from .memory import MemoryStats, count_memory
from .platform import (
    RunReport,
    VirtualPlatform,
    assemble_report,
    assemble_report_legacy,
)
from .program import ArrayRef, KernelBuilder, Program, Reg
from .trace import (
    InstructionMix,
    disassemble,
    instruction_mix,
    instruction_mix_legacy,
)

__all__ = [
    "fpu",
    "Instr",
    "Kind",
    "BRANCH_TAKEN_PENALTY",
    "LOAD_USE_LATENCY",
    "Timing",
    "simulate_timing",
    "simulate_timing_columns",
    "simulate_program_timing",
    "result_latency",
    "classify",
    "assemble_report",
    "assemble_report_legacy",
    "ProgramColumns",
    "lower_instrs",
    "count_memory_columns",
    "energy_split_columns",
    "instruction_mix_columns",
    "instruction_mix_legacy",
    "EnergyModel",
    "EnergyBreakdown",
    "DEFAULT_ENERGY_MODEL",
    "MemoryStats",
    "count_memory",
    "RunReport",
    "VirtualPlatform",
    "KernelBuilder",
    "Program",
    "ArrayRef",
    "Reg",
    "disassemble",
    "instruction_mix",
    "InstructionMix",
]

"""Hardware substrate: device specs, memory/link cost models, timing, energy.

This package is the analytic stand-in for the paper's Xeon + V100 + PCIe
testbed; :mod:`repro.hardware.spec` documents the calibration.
"""

from repro.hardware.energy import CPU, GPU, EnergyModel, EnergySlice
from repro.hardware.interconnect import Link
from repro.hardware.memory import RANDOM, SEQUENTIAL, MemoryDevice
from repro.hardware.spec import (
    DEFAULT_HARDWARE,
    P3_2XLARGE,
    P3_16XLARGE,
    AwsInstance,
    ComputeSpec,
    HardwareSpec,
    LinkSpec,
    MemorySpec,
    PowerSpec,
)
from repro.hardware.timing import CostModel, ID_BYTES

__all__ = [
    "CPU",
    "GPU",
    "EnergyModel",
    "EnergySlice",
    "Link",
    "RANDOM",
    "SEQUENTIAL",
    "MemoryDevice",
    "DEFAULT_HARDWARE",
    "P3_2XLARGE",
    "P3_16XLARGE",
    "AwsInstance",
    "ComputeSpec",
    "HardwareSpec",
    "LinkSpec",
    "MemorySpec",
    "PowerSpec",
    "CostModel",
    "ID_BYTES",
]

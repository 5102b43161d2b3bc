"""Systolic processing-array substrate.

This package is the functional model of the reconfigurable circuit of the
paper's platform: a 2-D mesh of fine-grain Processing Elements (PEs) working
systolically on a 3x3 sliding window of an 8-bit grayscale image.

* :mod:`repro.array.pe_library` — the library of 16 presynthesised PE
  functions (the paper reduces the library to 16 elements so a function is
  coded in a 4-bit gene).
* :mod:`repro.array.genotype` — the CGP-style genotype: one function gene
  per PE, one 9-to-1 input-mux gene per array input, one output-select gene.
* :mod:`repro.array.window` — 3x3 sliding-window extraction with edge
  replication (the FIFO line buffers of the hardware).
* :mod:`repro.array.systolic_array` — the vectorised functional simulator of
  the array, including the pipeline latency model and the PE-level fault
  model: each faulty position outputs garbage drawn from its own stream,
  started from an explicit seed.
"""

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.pe_library import (
    N_FUNCTIONS,
    PEFunction,
    apply_function,
    function_name,
    function_table,
)
from repro.array.systolic_array import ArrayGeometry, SystolicArray
from repro.array.window import WINDOW_SIZE, extract_windows

__all__ = [
    "Genotype",
    "GenotypeSpec",
    "N_FUNCTIONS",
    "PEFunction",
    "apply_function",
    "function_name",
    "function_table",
    "ArrayGeometry",
    "SystolicArray",
    "WINDOW_SIZE",
    "extract_windows",
]

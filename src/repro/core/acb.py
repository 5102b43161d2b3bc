"""Array Control Block (ACB).

"Each processing array with its corresponding controller, the structures to
compute and to deal with the variable latency of the arrays, some FIFOs to
align data and the fitness unit are envisaged as a unique module, so that
the EHW architecture can grow by changing the number of those modules
instantiated in the design.  This basic module is referred as Array Control
Block (ACB)." (paper §III.B, Fig. 3)

The ACB model owns:

* the evolvable :class:`~repro.array.systolic_array.SystolicArray` (whose
  per-PE fault state is kept in sync with the FPGA fabric model),
* the **fitness unit**, configurable to compare the array output against a
  reference image, against the array's own input, or against a neighbouring
  array's output (:class:`~repro.core.modes.FitnessSource`),
* the **window FIFO** that rebuilds the 3x3 sliding window between cascade
  stages (functionally: window re-extraction on the stage input),
* the mode/control registers, mirrored into the platform's shared
  :class:`~repro.soc.register_map.RegisterFile` so the software-visible
  interface matches the hardware's self-addressing scheme.

Configuring a candidate writes only the *changed* PE bitstreams through the
shared reconfiguration engine (and the mux genes through registers), and
returns how many reconfigurations that took — the quantity the evolution
timing model charges for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.core.modes import FitnessSource
from repro.fpga.fabric import FpgaFabric, RegionAddress
from repro.fpga.reconfiguration_engine import ReconfigurationEngine
from repro.imaging.metrics import sae
from repro.soc.register_map import AcbRegisters, RegisterFile

__all__ = ["FitnessUnit", "ArrayControlBlock"]


class FitnessUnit:
    """Hardware MAE unit of one ACB.

    Computes the pixel-aggregated absolute error between the array output
    and a selectable source (reference image, stage input or a neighbouring
    array's output) and latches the result for the EA to read back.
    """

    def __init__(self) -> None:
        self.source = FitnessSource.REFERENCE
        self.last_value: Optional[float] = None
        self.n_computations = 0

    def configure(self, source: FitnessSource) -> None:
        """Select what the unit compares the array output against."""
        if not isinstance(source, FitnessSource):
            raise TypeError(f"expected FitnessSource, got {type(source)!r}")
        self.source = source

    def compute(self, output: np.ndarray, comparand: np.ndarray) -> float:
        """Latch and return the aggregated MAE between output and comparand."""
        value = sae(output, comparand)
        self.last_value = value
        self.n_computations += 1
        return value


@dataclass
class AcbStatus:
    """Snapshot of an ACB's control state (mirrors the STATUS register)."""

    bypassed: bool
    faulty_pes: Tuple[Tuple[int, int], ...]
    configured: bool
    fitness_source: FitnessSource


class ArrayControlBlock:
    """One ACB: an evolvable array plus its control and fitness logic.

    Parameters
    ----------
    index:
        Position of this ACB in the vertical stack (also its array index in
        the fabric model and its window in the register file).
    fabric:
        Shared FPGA fabric model.
    engine:
        Shared reconfiguration engine.
    registers:
        Shared register file implementing the self-addressing scheme.
    backend:
        Evaluation backend of the functional array model (a registered
        name such as ``"reference"``/``"numpy"``, an
        :class:`~repro.backends.base.EvaluationBackend` instance, or
        ``None`` for the reference default).  Backends are bit-exact;
        see :mod:`repro.backends`.
    """

    def __init__(
        self,
        index: int,
        fabric: FpgaFabric,
        engine: ReconfigurationEngine,
        registers: RegisterFile,
        backend=None,
    ) -> None:
        if index < 0 or index >= fabric.n_arrays:
            raise ValueError(
                f"ACB index {index} out of range for a fabric with {fabric.n_arrays} arrays"
            )
        self.index = index
        self.fabric = fabric
        self.engine = engine
        self.registers = registers
        self.array = SystolicArray(geometry=fabric.geometry, backend=backend)
        self.fitness_unit = FitnessUnit()
        self.genotype: Optional[Genotype] = None
        self.bypassed = False
        self._reference: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def _write_mux_registers(self, genotype: Genotype) -> None:
        """Mirror the multiplexer genes into the ACB register window."""
        for row, gene in enumerate(genotype.west_mux):
            self.registers.write_register(
                self.index, AcbRegisters.WEST_MUX_BASE, int(gene), lane=row
            )
        for col, gene in enumerate(genotype.north_mux):
            self.registers.write_register(
                self.index, AcbRegisters.NORTH_MUX_BASE, int(gene), lane=col
            )
        self.registers.write_register(
            self.index, AcbRegisters.OUTPUT_SELECT, int(genotype.output_select)
        )

    def configure(self, genotype: Genotype) -> Tuple[int, float]:
        """Place a candidate circuit on this ACB's array.

        Only PEs whose function gene differs from what is currently
        configured on the fabric are rewritten (through the shared engine);
        multiplexer and output-select genes are register writes.

        Returns
        -------
        (n_reconfigurations, engine_busy_time_s)
        """
        genotype = genotype.copy()
        geometry = self.fabric.geometry
        if (genotype.spec.rows, genotype.spec.cols) != (geometry.rows, geometry.cols):
            raise ValueError("genotype geometry does not match the fabric's arrays")

        currently_configured = self.fabric.configured_genes(self.index)
        placements: List[Tuple[RegionAddress, int]] = []
        for row in range(geometry.rows):
            for col in range(geometry.cols):
                wanted = int(genotype.function_genes[row, col])
                if int(currently_configured[row, col]) != wanted:
                    placements.append((RegionAddress(self.index, row, col), wanted))
        elapsed = self.engine.reconfigure_many(placements)
        self._write_mux_registers(genotype)
        self.genotype = genotype
        self.sync_faults()
        return len(placements), elapsed

    def sync_faults(self) -> None:
        """Propagate the fabric's fault state into the functional array model.

        The platform calls this after every operation that may change the
        fabric's fault set (injection, scrubbing, reconfiguration) so the
        functional array model always mirrors the hardware state.
        """
        self.array.clear_all_faults()
        for position in self.fabric.effective_faults(self.index):
            # Seed the garbage generator deterministically from the position
            # so repeated experiments are reproducible.
            seed = hash((self.index, position)) & 0x7FFFFFFF
            self.array.inject_fault(position, seed)

    # ------------------------------------------------------------------ #
    # Control registers / modes
    # ------------------------------------------------------------------ #
    def set_bypass(self, bypassed: bool) -> None:
        """Engage or release the bypass connection around this stage.

        A bypassed stage forwards its input unchanged to the next stage but
        *still receives the input stream*, so its array can be re-evolved
        online (the basis of the imitation-based self-healing strategy).
        """
        self.bypassed = bool(bypassed)
        control = self.registers.read_register(self.index, AcbRegisters.CONTROL)
        control = (control | 0x1) if self.bypassed else (control & ~0x1)
        self.registers.write_register(self.index, AcbRegisters.CONTROL, control)

    def set_fitness_source(self, source: FitnessSource) -> None:
        """Program the fitness unit's comparison source."""
        self.fitness_unit.configure(source)
        self.registers.write_register(
            self.index, AcbRegisters.FITNESS_MODE, list(FitnessSource).index(source)
        )

    def set_reference(self, reference: Optional[np.ndarray]) -> None:
        """Load (or clear) the reference image used by the fitness unit."""
        self._reference = None if reference is None else np.asarray(reference)

    @property
    def reference(self) -> Optional[np.ndarray]:
        """The currently loaded reference image (``None`` when unavailable)."""
        return self._reference

    @property
    def latency_cycles(self) -> int:
        """Array pipeline latency, as exposed by the LATENCY register."""
        return self.array.latency

    def status(self) -> AcbStatus:
        """Snapshot of this ACB's control state."""
        return AcbStatus(
            bypassed=self.bypassed,
            faulty_pes=self.array.faulty_positions,
            configured=self.genotype is not None,
            fitness_source=self.fitness_unit.source,
        )

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #
    def process(self, image: np.ndarray) -> np.ndarray:
        """Filter one image with the configured circuit.

        A bypassed ACB forwards the image unchanged (the stage's
        contribution to the chain is the identity); its array output can
        still be obtained with :meth:`shadow_process` for imitation
        evolution.
        """
        if self.bypassed:
            return np.asarray(image).copy()
        return self.shadow_process(image)

    def shadow_process(self, image: np.ndarray) -> np.ndarray:
        """Run the array on an image regardless of the bypass setting."""
        if self.genotype is None:
            raise RuntimeError(
                f"ACB {self.index} has no configured circuit; call configure() first"
            )
        self.sync_faults()
        return self.array.process(image, self.genotype)

    def evaluate_fitness(
        self,
        input_image: np.ndarray,
        neighbour_output: Optional[np.ndarray] = None,
    ) -> float:
        """Process ``input_image`` and latch the fitness against the configured source.

        Parameters
        ----------
        input_image:
            Image presented at this stage's input.
        neighbour_output:
            Output of the adjacent array, required when the fitness source
            is :attr:`~repro.core.modes.FitnessSource.NEIGHBOUR`.
        """
        output = self.shadow_process(input_image)
        source = self.fitness_unit.source
        if source == FitnessSource.REFERENCE:
            if self._reference is None:
                raise RuntimeError(
                    f"ACB {self.index}: fitness source is REFERENCE but no reference "
                    "image is loaded"
                )
            comparand = self._reference
        elif source == FitnessSource.INPUT:
            comparand = np.asarray(input_image)
        elif source == FitnessSource.NEIGHBOUR:
            if neighbour_output is None:
                raise RuntimeError(
                    f"ACB {self.index}: fitness source is NEIGHBOUR but no neighbour "
                    "output was provided"
                )
            comparand = np.asarray(neighbour_output)
        else:  # pragma: no cover - exhaustive enum
            raise RuntimeError(f"unknown fitness source {source}")
        value = self.fitness_unit.compute(output, comparand)
        self.registers.write_register(
            self.index, AcbRegisters.FITNESS_VALUE, int(min(value, 2**32 - 1))
        )
        self.registers.write_register(
            self.index, AcbRegisters.LATENCY_VALUE, self.latency_cycles
        )
        return value

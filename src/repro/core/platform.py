"""The multi-array Evolvable Hardware platform.

This is the top-level object a user of the library instantiates: a stack of
Array Control Blocks on a shared FPGA fabric with one reconfiguration
engine, an external memory, a register file and the TMR voters — the whole
SoPC of the paper's Fig. 2, with the number of arrays as a constructor
parameter ("scalable arrays with multiple arrays can be directly built up
by assembling the required number of these modules", §III.B).

The platform exposes:

* **configuration** — placing candidate circuits on individual arrays
  through DPR (:meth:`EvolvableHardwarePlatform.configure_array`);
* **processing modes** — cascaded (with optional per-stage bypass),
  parallel (optionally voted) and independent mission-time operation
  (:meth:`process_cascade`, :meth:`process_parallel`,
  :meth:`process_independent`);
* **fault handling** — SEU/LPD injection, scrubbing and calibration
  snapshots used by the self-healing strategies in
  :mod:`repro.core.self_healing`;
* access to the underlying substrates (fabric, engine, memory, registers)
  for experiments that need to poke them directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.array.genotype import Genotype, GenotypeSpec
from repro.array.systolic_array import ArrayGeometry
from repro.array.window import extract_windows, freeze_planes
from repro.core.acb import ArrayControlBlock
from repro.core.modes import ProcessingMode
from repro.core.voter import FitnessVoter, PixelVoter
from repro.fpga.fabric import FpgaFabric, RegionAddress
from repro.fpga.faults import FaultInjector
from repro.fpga.icap import IcapModel
from repro.fpga.reconfiguration_engine import ReconfigurationEngine
from repro.fpga.resources import ResourceModel, ResourceReport
from repro.fpga.scrubbing import ScrubReport, Scrubber
from repro.soc.memory import ExternalMemory, MemoryRegion
from repro.soc.register_map import AcbRegisterMap, RegisterFile
from repro.timing.model import EvolutionTimingModel

__all__ = ["EvolvableHardwarePlatform"]


class EvolvableHardwarePlatform:
    """A scalable multi-array evolvable hardware system.

    Parameters
    ----------
    n_arrays:
        Number of Array Control Blocks (the paper's experiments use 3).
    geometry:
        Per-array geometry (defaults to the paper's 4x4 array of
        2x5-CLB PEs).
    icap:
        ICAP timing model shared by the reconfiguration engine.
    fitness_voter_threshold:
        Similarity threshold of the TMR fitness voter.
    seed:
        Seed for the platform's random number generator (fault targeting,
        initial random candidates drawn through :meth:`random_genotype`).
    backend:
        Evaluation backend of every array's functional model: a name
        registered in :data:`repro.backends.BACKENDS` (``"reference"``,
        ``"numpy"``), an :class:`~repro.backends.base.EvaluationBackend`
        instance, or ``None`` for the reference default.  All backends
        are bit-exact against each other, so the switch only changes the
        simulation's wall-clock time — never its results.
    """

    def __init__(
        self,
        n_arrays: int = 3,
        geometry: ArrayGeometry = ArrayGeometry(),
        icap: IcapModel = IcapModel(),
        fitness_voter_threshold: float = 0.0,
        seed: Optional[int] = None,
        backend=None,
    ) -> None:
        if n_arrays < 1:
            raise ValueError(f"n_arrays must be >= 1, got {n_arrays}")
        self.geometry = geometry
        self.rng = np.random.default_rng(seed)

        # Substrates --------------------------------------------------- #
        # The fabric derives its own SEU-targeting stream from the platform
        # seed (tagged, so it never aliases self.rng's stream).
        self.fabric = FpgaFabric(n_arrays=n_arrays, geometry=geometry, seed=seed)
        self.engine = ReconfigurationEngine(self.fabric, icap=icap)
        self.registers = RegisterFile(AcbRegisterMap(n_acbs=n_arrays))
        self.memory = ExternalMemory()
        self.fault_injector = FaultInjector(self.fabric, engine=self.engine, rng=self.rng)
        self.scrubber = Scrubber(self.fabric, self.engine)
        self.resource_model = ResourceModel(geometry=geometry)

        # ACB stack ----------------------------------------------------- #
        # A backend *name* resolves to one engine instance per array; an
        # explicit instance is shared by every array (safe: cached planes
        # are array-independent — fault draws never enter any cache).
        self.acbs: List[ArrayControlBlock] = [
            ArrayControlBlock(index, self.fabric, self.engine, self.registers,
                              backend=backend)
            for index in range(n_arrays)
        ]

        # Mission-time plumbing ----------------------------------------- #
        self.processing_mode = ProcessingMode.CASCADED
        self.fitness_voter = FitnessVoter(threshold=fitness_voter_threshold)
        self.pixel_voter = PixelVoter()
        self._calibration_fitness: Dict[int, float] = {}
        # Window planes of the last image scored by fault detection, keyed
        # by (dtype, shape, bytes) so an in-place edit of the image re-extracts.
        self._held_key: Optional[Tuple[str, Tuple[int, ...], bytes]] = None
        self._held_planes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def n_arrays(self) -> int:
        """Number of ACBs in the platform."""
        return len(self.acbs)

    @property
    def spec(self) -> GenotypeSpec:
        """Genotype spec matching the platform's array geometry."""
        return self.geometry.spec()

    @property
    def backend_name(self) -> str:
        """Registry name of the arrays' evaluation backend."""
        return self.acbs[0].array.backend_name

    def acb(self, index: int) -> ArrayControlBlock:
        """The ACB at position ``index``."""
        if not 0 <= index < self.n_arrays:
            raise IndexError(f"ACB index {index} out of range [0, {self.n_arrays})")
        return self.acbs[index]

    def timing_model(self) -> EvolutionTimingModel:
        """An evolution-time model calibrated to this platform's engine."""
        return EvolutionTimingModel.from_engine(
            self.engine, array_latency_cycles=self.acbs[0].latency_cycles
        )

    def resource_report(self) -> ResourceReport:
        """Resource utilisation report for the current number of arrays (§VI.A)."""
        return self.resource_model.report(self.n_arrays)

    def random_genotype(self) -> Genotype:
        """Draw a random candidate circuit with the platform's RNG."""
        return Genotype.random(self.spec, self.rng)

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure_array(self, index: int, genotype: Genotype) -> Tuple[int, float]:
        """Place ``genotype`` on array ``index``; returns (PE writes, engine time)."""
        return self.acb(index).configure(genotype)

    def configure_all(self, genotype: Genotype) -> Tuple[int, float]:
        """Place the same circuit on every array (e.g. to enter TMR operation)."""
        total_writes = 0
        total_time = 0.0
        for acb in self.acbs:
            writes, elapsed = acb.configure(genotype)
            total_writes += writes
            total_time += elapsed
        return total_writes, total_time

    def set_bypass(self, index: int, bypassed: bool) -> None:
        """Bypass (or re-insert) stage ``index`` of the cascade."""
        self.acb(index).set_bypass(bypassed)

    def set_processing_mode(self, mode: ProcessingMode) -> None:
        """Select the mission-time processing mode."""
        if not isinstance(mode, ProcessingMode):
            raise TypeError(f"expected ProcessingMode, got {type(mode)!r}")
        self.processing_mode = mode

    # ------------------------------------------------------------------ #
    # Reference / image management
    # ------------------------------------------------------------------ #
    def store_image(self, key: str, image: np.ndarray,
                    region: MemoryRegion = MemoryRegion.FLASH) -> None:
        """Store a training/reference/calibration image in external memory."""
        self.memory.store(region, key, np.asarray(image))

    def load_image(self, key: str, region: MemoryRegion = MemoryRegion.FLASH) -> np.ndarray:
        """Load an image previously stored with :meth:`store_image`."""
        return self.memory.load(region, key)

    def erase_image(self, key: str, region: MemoryRegion = MemoryRegion.FLASH) -> None:
        """Erase a stored image (models freeing the reference to save space)."""
        self.memory.erase(region, key)

    def set_reference(self, index: int, reference: Optional[np.ndarray]) -> None:
        """Load a reference image into the fitness unit of array ``index``."""
        self.acb(index).set_reference(reference)

    # ------------------------------------------------------------------ #
    # Mission-time processing
    # ------------------------------------------------------------------ #
    def process(self, image_or_images) -> Union[np.ndarray, List[np.ndarray]]:
        """Process input(s) according to the selected processing mode.

        * ``CASCADED`` / ``BYPASS`` — a single image flows through the stage
          chain; bypassed stages forward it unchanged.
        * ``PARALLEL`` — a single image is filtered by every array; the
          pixel-voted output is returned.
        * ``INDEPENDENT`` — a sequence of images (one per array) is filtered
          independently and the list of outputs is returned.
        """
        mode = self.processing_mode
        if mode in (ProcessingMode.CASCADED, ProcessingMode.BYPASS):
            return self.process_cascade(image_or_images)
        if mode == ProcessingMode.PARALLEL:
            return self.process_parallel(image_or_images, vote=True)
        if mode == ProcessingMode.INDEPENDENT:
            return self.process_independent(image_or_images)
        raise RuntimeError(f"unhandled processing mode {mode}")  # pragma: no cover

    def process_cascade(self, image: np.ndarray,
                        stages: Optional[Sequence[int]] = None) -> np.ndarray:
        """Filter ``image`` through the cascade of stages.

        Parameters
        ----------
        image:
            Input image of the first stage.
        stages:
            Optional subset (and order) of stage indices; defaults to all
            stages in stack order.
        """
        data = np.asarray(image)
        indices = list(range(self.n_arrays)) if stages is None else list(stages)
        for index in indices:
            data = self.acb(index).process(data)
        return data

    def cascade_stage_outputs(self, image: np.ndarray) -> List[np.ndarray]:
        """Outputs of every cascade stage (used by the per-stage fitness figures)."""
        outputs: List[np.ndarray] = []
        data = np.asarray(image)
        for acb in self.acbs:
            data = acb.process(data)
            outputs.append(data)
        return outputs

    def process_parallel(self, image: np.ndarray, vote: bool = False):
        """Filter ``image`` on every array simultaneously.

        Returns the list of per-array outputs, or the pixel-voted output
        when ``vote`` is true (the TMR arrangement of Fig. 9).
        """
        outputs = [acb.shadow_process(image) for acb in self.acbs]
        if vote:
            return self.pixel_voter.vote(outputs)
        return outputs

    def process_independent(self, images: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Filter one image per array, independently."""
        if len(images) != self.n_arrays:
            raise ValueError(
                f"independent mode needs one image per array "
                f"({self.n_arrays}), got {len(images)}"
            )
        return [acb.shadow_process(image) for acb, image in zip(self.acbs, images)]

    # ------------------------------------------------------------------ #
    # Fault handling / calibration
    # ------------------------------------------------------------------ #
    def find_sensitive_position(
        self,
        array_index: int,
        image: np.ndarray,
        exclude_output_pe: bool = True,
    ) -> Tuple[int, int]:
        """Find a PE position whose failure disturbs the configured circuit.

        Faults in PEs the evolved circuit does not route through are
        functionally benign (the paper's systematic fault analysis observes
        exactly this position dependence), so fault-injection experiments
        that want a *detectable* fault need a sensitive position.  This
        helper tries each PE position in turn with a temporary PE-level
        fault and returns the first one that changes the array's output on
        ``image``.

        Parameters
        ----------
        array_index:
            Array to probe (its circuit must already be configured).
        image:
            Probe input image.
        exclude_output_pe:
            When ``True``, the PE directly driving the array output (last
            column of the selected output row) is tried last: faults there
            are maximally disruptive but cannot be routed around without
            moving the output, which makes them the least interesting
            recovery scenario.

        Returns
        -------
        (row, col)
            A sensitive position.  Falls back to the output-path PE when no
            other position affects the output.
        """
        acb = self.acb(array_index)
        if acb.genotype is None:
            raise RuntimeError("the target array has no configured circuit")
        image = np.asarray(image)
        baseline = acb.shadow_process(image)
        output_pe = (int(acb.genotype.output_select), self.geometry.cols - 1)

        candidates = [
            (row, col)
            for row in range(self.geometry.rows)
            for col in range(self.geometry.cols)
            if (row, col) != output_pe
        ]
        if not exclude_output_pe:
            candidates.insert(0, output_pe)

        for position in candidates:
            acb.array.inject_fault(position, seed=1)
            disturbed = acb.array.process(image, acb.genotype)
            acb.array.clear_fault(position)
            if not np.array_equal(disturbed, baseline):
                acb.sync_faults()
                return position
        acb.sync_faults()
        return output_pe

    def inject_permanent_fault(self, array_index: int, row: int, col: int) -> RegionAddress:
        """Inject an LPD at a PE position (the paper's PE-level fault model)."""
        address = RegionAddress(array_index, row, col)
        self.fault_injector.inject_lpd(address)
        self.acb(array_index).sync_faults()
        return address

    def inject_transient_fault(self, array_index: int, row: int, col: int) -> RegionAddress:
        """Inject an SEU (configuration corruption) at a PE position."""
        address = RegionAddress(array_index, row, col)
        self.fault_injector.inject_seu(address)
        self.acb(array_index).sync_faults()
        return address

    def scrub_array(self, array_index: int) -> ScrubReport:
        """Scrub one array's configuration; repairs SEUs, not LPDs."""
        report = self.scrubber.scrub_array(array_index)
        self.acb(array_index).sync_faults()
        return report

    def scrub_all(self) -> ScrubReport:
        """Scrub the whole reconfigurable fabric."""
        report = self.scrubber.scrub()
        for acb in self.acbs:
            acb.sync_faults()
        return report

    def calibration_planes(self, image: np.ndarray) -> np.ndarray:
        """The ``(9, H, W)`` window planes of a detection image, extracted once.

        Byte-identical images (same dtype, shape and pixels) get the *same*
        planes object back, so each array's backend keeps one memoised
        store for them across monitoring cycles.  The planes view an
        immutable buffer, so that store skips its per-call byte compare.
        The held key is a snapshot of the image's bytes: mutating the
        image in place, or passing a different one, extracts afresh.
        """
        image = np.asarray(image)
        key = (image.dtype.str, image.shape, image.tobytes())
        if key != self._held_key:
            self._held_key, self._held_planes = key, freeze_planes(extract_windows(image))
        return self._held_planes

    def detection_fitness(self, image: np.ndarray,
                          reference_image: np.ndarray) -> Dict[int, float]:
        """Every array's fitness on ``image`` through the held-planes path.

        Values equal ``sae(acb.shadow_process(image), reference_image)``
        per array (see
        :meth:`~repro.core.acb.ArrayControlBlock.detection_fitness`).
        """
        planes = self.calibration_planes(image)
        reference_image = np.asarray(reference_image)
        return {acb.index: acb.detection_fitness(planes, reference_image) for acb in self.acbs}

    def calibrate(self, calibration_image: np.ndarray,
                  reference_image: np.ndarray) -> Dict[int, float]:
        """Record each array's fitness on a calibration image (§V.A step b).

        The stored values are the baseline the self-healing strategy
        compares against at the next calibration to detect faults.
        """
        self._calibration_fitness = self.detection_fitness(calibration_image, reference_image)
        return dict(self._calibration_fitness)

    @property
    def calibration_fitness(self) -> Dict[int, float]:
        """Most recent calibration snapshot (empty before :meth:`calibrate`)."""
        return dict(self._calibration_fitness)

    def check_calibration(self, calibration_image: np.ndarray,
                          reference_image: np.ndarray,
                          tolerance: float = 0.0) -> Dict[int, bool]:
        """Re-evaluate calibration fitness and flag arrays that diverge.

        Returns ``{array_index: changed}`` where ``changed`` is ``True`` when
        the array's fitness differs from the stored baseline by more than
        ``tolerance`` — the §V.A fault-detection step.
        """
        if not self._calibration_fitness:
            raise RuntimeError("no calibration snapshot; call calibrate() first")
        current = self.detection_fitness(calibration_image, reference_image)
        return {
            index: abs(fitness - self._calibration_fitness[index]) > tolerance
            for index, fitness in current.items()
        }

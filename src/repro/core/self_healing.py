"""Self-healing strategies (§V).

Two strategies are proposed in the paper, one per mission-time arrangement:

* :class:`CascadedSelfHealing` — for cascaded operation (§V.A).  Faults are
  detected by periodically re-running a calibration image and comparing the
  per-array fitness against a stored baseline; a detected fault is first
  scrubbed (if the baseline fitness comes back, the fault was a transient
  SEU); a fault that survives scrubbing is permanent, so the damaged stage
  is placed in bypass mode — keeping the stream flowing — and re-evolved,
  either against the stored reference image (when it still exists) or by
  imitation of a healthy neighbouring array.

* :class:`TmrSelfHealing` — for parallel (TMR) operation (§V.B).  The three
  arrays run the same circuit; the hardware fitness voter detects a
  divergence after every filtered image without needing a calibration
  image, the pixel voter keeps the output stream valid meanwhile, and the
  recovery path (scrub → classify → evolution by imitation → optionally
  paste the recovered configuration everywhere) restores full redundancy.

Both strategies log every step they take so experiments (and downstream
users) can audit the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from repro.core.evolution import ImitationEvolution, PlatformEvolutionResult
from repro.core.modes import ProcessingMode
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.voter import VoteResult
from repro.soc.memory import MemoryRegion

__all__ = [
    "FaultClass",
    "HealingEvent",
    "HealingReport",
    "CascadedSelfHealing",
    "TmrSelfHealing",
]


class FaultClass(Enum):
    """Classification of a detected fault."""

    NONE = "none"            #: no divergence detected
    TRANSIENT = "transient"  #: removed by scrubbing (an SEU)
    PERMANENT = "permanent"  #: survives scrubbing (an LPD)


@dataclass(frozen=True)
class HealingEvent:
    """One step taken by a self-healing strategy."""

    step: str
    array_index: Optional[int] = None
    detail: str = ""


@dataclass
class HealingReport:
    """Outcome of one detection / recovery cycle."""

    fault_class: FaultClass = FaultClass.NONE
    faulty_array: Optional[int] = None
    recovered: bool = False
    events: List[HealingEvent] = field(default_factory=list)
    recovery_result: Optional[PlatformEvolutionResult] = None
    fitness_before: Dict[int, float] = field(default_factory=dict)
    fitness_after: Dict[int, float] = field(default_factory=dict)

    def log(self, step: str, array_index: Optional[int] = None, detail: str = "") -> None:
        """Append an event to the report."""
        self.events.append(HealingEvent(step=step, array_index=array_index, detail=detail))


class CascadedSelfHealing:
    """Self-healing for the cascaded operation mode (§V.A).

    Parameters
    ----------
    platform:
        The multi-array platform (already evolved and in cascaded operation).
    calibration_image, calibration_reference:
        The periodic calibration pattern and its expected (reference) output.
    tolerance:
        Allowed fitness deviation before a fault is declared.
    imitation_generations:
        Generation budget of an imitation-based recovery.
    reference_image_key:
        Key of the stored reference image in flash; when the image is still
        present, recovery re-evolves against it, otherwise it falls back to
        imitation (the paper's motivating scenario).
    n_offspring, mutation_rate, rng:
        EA parameters forwarded to the recovery evolution.
    """

    def __init__(
        self,
        platform: EvolvableHardwarePlatform,
        calibration_image: np.ndarray,
        calibration_reference: np.ndarray,
        tolerance: float = 0.0,
        imitation_generations: int = 200,
        imitation_target_fitness: Optional[float] = 100.0,
        reference_image_key: Optional[str] = None,
        n_offspring: int = 9,
        mutation_rate: int = 3,
        rng=None,
    ) -> None:
        self.platform = platform
        self.calibration_image = np.asarray(calibration_image)
        self.calibration_reference = np.asarray(calibration_reference)
        self.tolerance = float(tolerance)
        self.imitation_generations = imitation_generations
        self.imitation_target_fitness = imitation_target_fitness
        self.reference_image_key = reference_image_key
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.rng = rng

    # ------------------------------------------------------------------ #
    def initialize(self) -> Dict[int, float]:
        """Step (b): record the per-array calibration fitness baseline."""
        return self.platform.calibrate(self.calibration_image, self.calibration_reference)

    def _array_fitness(self, array_index: int) -> float:
        planes = self.platform.calibration_planes(self.calibration_image)
        return self.platform.acb(array_index).detection_fitness(
            planes, self.calibration_reference
        )

    def _choose_master(self, faulty_index: int) -> Optional[int]:
        """Closest healthy neighbour in the stack (prefer the upstream one)."""
        candidates = sorted(
            (index for index in range(self.platform.n_arrays) if index != faulty_index),
            key=lambda index: (abs(index - faulty_index), index),
        )
        for index in candidates:
            if not self.platform.fabric.effective_faults(index):
                return index
        return None

    # ------------------------------------------------------------------ #
    def check_and_heal(self, stream_image: Optional[np.ndarray] = None) -> HealingReport:
        """Run one calibration / detection / recovery cycle (steps c–i of §V.A).

        Parameters
        ----------
        stream_image:
            The mission data the cascade keeps processing during recovery;
            it is also the input used for imitation learning.  Defaults to
            the calibration image.
        """
        report = HealingReport()
        baseline = self.platform.calibration_fitness
        if not baseline:
            raise RuntimeError("call initialize() before check_and_heal()")
        stream_image = (
            self.calibration_image if stream_image is None else np.asarray(stream_image)
        )

        # Step (d): re-evaluate fitness with the calibration image.
        report.log("reevaluate_fitness")
        current = self.platform.detection_fitness(
            self.calibration_image, self.calibration_reference
        )
        report.fitness_before = dict(current)

        # Step (e): compare against the baseline.
        diverging = [
            index
            for index, fitness in current.items()
            if abs(fitness - baseline[index]) > self.tolerance
        ]
        if not diverging:
            report.log("no_fault_detected")
            report.fault_class = FaultClass.NONE
            report.fitness_after = dict(current)
            return report

        faulty_index = diverging[0]
        report.faulty_array = faulty_index
        report.log("fault_detected", faulty_index,
                   detail=f"fitness {current[faulty_index]:.0f} vs baseline "
                          f"{baseline[faulty_index]:.0f}")

        # Step (f): scrub the damaged array (rewrite the last configuration).
        scrub = self.platform.scrub_array(faulty_index)
        report.log("scrub", faulty_index,
                   detail=f"repaired {scrub.n_repaired} region(s), "
                          f"fully_repaired={scrub.fully_repaired}, "
                          f"clean={scrub.clean}")

        # Steps (g)/(h): re-evaluate; equality with the baseline means the
        # fault was transient.
        after_scrub = self._array_fitness(faulty_index)
        if abs(after_scrub - baseline[faulty_index]) <= self.tolerance:
            report.fault_class = FaultClass.TRANSIENT
            report.recovered = True
            report.log("transient_fault_removed", faulty_index)
            # Every evaluation restarts the fault streams, so the faulty
            # array's score is the after_scrub value already in hand.
            report.fitness_after = {
                index: after_scrub if index == faulty_index else self._array_fitness(index)
                for index in range(self.platform.n_arrays)
            }
            return report

        # Step (i): the fault is permanent — bypass the array and re-evolve.
        report.fault_class = FaultClass.PERMANENT
        report.log("permanent_fault", faulty_index,
                   detail=f"fitness after scrubbing {after_scrub:.0f}")
        self.platform.set_bypass(faulty_index, True)
        report.log("bypass_engaged", faulty_index)

        reference_available = (
            self.reference_image_key is not None
            and self.platform.memory.contains(MemoryRegion.FLASH, self.reference_image_key)
        )
        if reference_available:
            report.log("reevolution_with_reference", faulty_index)
            recovery = self._reevolve_with_reference(faulty_index, stream_image)
        else:
            master = self._choose_master(faulty_index)
            if master is None:
                report.log("no_healthy_master", faulty_index)
                report.recovered = False
                report.fitness_after = dict(current)
                return report
            report.log("evolution_by_imitation", faulty_index, detail=f"master={master}")
            driver = ImitationEvolution(
                self.platform,
                n_offspring=self.n_offspring,
                mutation_rate=self.mutation_rate,
                rng=self.rng,
            )
            recovery = driver.run(
                apprentice_index=faulty_index,
                master_index=master,
                input_image=stream_image,
                n_generations=self.imitation_generations,
                seed_from_master=True,
                target_fitness=self.imitation_target_fitness,
            )

        report.recovery_result = recovery
        self.platform.set_bypass(faulty_index, False)
        report.log("bypass_released", faulty_index)

        # Refresh the calibration baseline for the recovered array: after a
        # permanent fault the expected fitness may legitimately differ.  The
        # new baseline is also the post-recovery fitness of every array.
        report.fitness_after = self.platform.calibrate(
            self.calibration_image, self.calibration_reference
        )
        recovered_fitness = recovery.best_fitness.get(faulty_index, float("inf"))
        threshold = self.imitation_target_fitness
        report.recovered = threshold is None or recovered_fitness <= threshold * 10
        report.log("recovery_finished", faulty_index,
                   detail=f"recovery fitness {recovered_fitness:.0f}")
        return report

    def _reevolve_with_reference(
        self, faulty_index: int, stream_image: np.ndarray
    ) -> PlatformEvolutionResult:
        """Recovery path when the stored reference image is still available."""
        from repro.core.evolution import IndependentEvolution
        from repro.soc.memory import MemoryRegion

        reference = self.platform.memory.load(MemoryRegion.FLASH, self.reference_image_key)
        driver = IndependentEvolution(
            self.platform,
            n_offspring=self.n_offspring,
            mutation_rate=self.mutation_rate,
            rng=self.rng,
        )
        return driver.run(
            tasks={faulty_index: (stream_image, reference)},
            n_generations=self.imitation_generations,
            seed_genotypes={faulty_index: self.platform.acb(faulty_index).genotype},
            target_fitness=self.imitation_target_fitness,
        )


class TmrSelfHealing:
    """Self-healing for the parallel (TMR) processing mode (§V.B).

    Parameters
    ----------
    platform:
        Platform with (at least) three arrays configured with the same
        circuit and operating in parallel mode.
    pattern_image, pattern_reference:
        The image used for per-array fitness computation and its expected
        output (the "pattern image" of §V.B).
    imitation_generations, imitation_target_fitness:
        Recovery-evolution budget and the near-zero imitation threshold.
    paste_threshold:
        If the imitation fitness stays above this value the recovered
        configuration is pasted onto every array so the voter remains valid
        (§V.B step h).
    """

    def __init__(
        self,
        platform: EvolvableHardwarePlatform,
        pattern_image: np.ndarray,
        pattern_reference: np.ndarray,
        imitation_generations: int = 200,
        imitation_target_fitness: float = 100.0,
        paste_threshold: float = 100.0,
        n_offspring: int = 9,
        mutation_rate: int = 3,
        rng=None,
    ) -> None:
        if platform.n_arrays < 3:
            raise ValueError("TMR self-healing requires at least three arrays")
        self.platform = platform
        self.pattern_image = np.asarray(pattern_image)
        self.pattern_reference = np.asarray(pattern_reference)
        self.imitation_generations = imitation_generations
        self.imitation_target_fitness = imitation_target_fitness
        self.paste_threshold = paste_threshold
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.rng = rng

    # ------------------------------------------------------------------ #
    def setup(self, genotype) -> None:
        """Step (a): configure the evolved circuit on all arrays, parallel mode."""
        self.platform.configure_all(genotype)
        self.platform.set_processing_mode(ProcessingMode.PARALLEL)

    def array_fitnesses(self) -> Dict[int, float]:
        """Per-array fitness on the pattern image (what the fitness voter sees)."""
        return self.platform.detection_fitness(self.pattern_image, self.pattern_reference)

    def vote(self) -> VoteResult:
        """Step (b)/(c): compare per-array fitness values with the fitness voter."""
        values = self.array_fitnesses()
        ordered = [values[index] for index in range(self.platform.n_arrays)]
        return self.platform.fitness_voter.vote(ordered)

    def voted_output(self, image: np.ndarray) -> np.ndarray:
        """Mission output: the pixel-voted result of the three parallel arrays."""
        return self.platform.process_parallel(image, vote=True)

    # ------------------------------------------------------------------ #
    def monitor_and_heal(self, stream_image: Optional[np.ndarray] = None) -> HealingReport:
        """One monitoring cycle: vote, classify and recover if needed (steps b–h)."""
        report = HealingReport()
        stream_image = (
            self.pattern_image if stream_image is None else np.asarray(stream_image)
        )

        values = self.array_fitnesses()
        report.fitness_before = dict(values)
        vote = self.platform.fitness_voter.vote(
            [values[index] for index in range(self.platform.n_arrays)]
        )
        if not vote.fault_detected:
            report.log("no_divergence")
            report.fault_class = FaultClass.NONE
            report.fitness_after = dict(values)
            return report

        faulty_index = int(vote.outlier_index)
        report.faulty_array = faulty_index
        report.log("fitness_divergence", faulty_index,
                   detail=f"values={tuple(round(v, 1) for v in vote.values)}")

        # Step (d): scrub the damaged array.
        scrub = self.platform.scrub_array(faulty_index)
        report.log("scrub", faulty_index,
                   detail=f"repaired {scrub.n_repaired} region(s), "
                          f"fully_repaired={scrub.fully_repaired}, "
                          f"clean={scrub.clean}")

        # Steps (e)/(f): re-evaluate with the pattern image; agreement with
        # the healthy arrays means the fault was transient.
        values_after_scrub = self.array_fitnesses()
        vote_after = self.platform.fitness_voter.vote(
            [values_after_scrub[index] for index in range(self.platform.n_arrays)]
        )
        if not vote_after.fault_detected:
            report.fault_class = FaultClass.TRANSIENT
            report.recovered = True
            report.log("transient_fault_removed", faulty_index)
            report.fitness_after = values_after_scrub
            return report

        # Step (g): permanent fault — recover by evolution by imitation.
        report.fault_class = FaultClass.PERMANENT
        report.log("permanent_fault", faulty_index)
        master_index = self._healthy_master(faulty_index)
        report.log("evolution_by_imitation", faulty_index, detail=f"master={master_index}")
        driver = ImitationEvolution(
            self.platform,
            n_offspring=self.n_offspring,
            mutation_rate=self.mutation_rate,
            rng=self.rng,
        )
        recovery = driver.run(
            apprentice_index=faulty_index,
            master_index=master_index,
            input_image=stream_image,
            n_generations=self.imitation_generations,
            seed_from_master=True,
            target_fitness=self.imitation_target_fitness,
        )
        report.recovery_result = recovery
        recovered_fitness = recovery.best_fitness.get(faulty_index, float("inf"))

        # Step (h): if the imitation did not reach (near) zero, the new
        # configuration is pasted on every array to keep the voter valid.
        pasted = False
        if recovered_fitness > self.paste_threshold:
            report.log("paste_configuration", faulty_index,
                       detail=f"imitation fitness {recovered_fitness:.0f}")
            self.platform.configure_all(recovery.best_genotypes[faulty_index])
            pasted = True
        # Recovery is successful when the apprentice closely imitates the
        # master, or when the common configuration was pasted so the voter
        # stays valid; the output stream stayed correct throughout thanks to
        # the pixel voter either way.
        report.recovered = recovered_fitness <= self.imitation_target_fitness or pasted
        report.fitness_after = self.array_fitnesses()
        report.log("recovery_finished", faulty_index,
                   detail=f"imitation fitness {recovered_fitness:.0f}")
        return report

    def _healthy_master(self, faulty_index: int) -> int:
        for index in range(self.platform.n_arrays):
            if index != faulty_index and not self.platform.fabric.effective_faults(index):
                return index
        # Fall back to any other array (degraded but still the best option).
        return (faulty_index + 1) % self.platform.n_arrays

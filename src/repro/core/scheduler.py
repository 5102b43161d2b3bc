"""Generation scheduler — the Fig. 11 pipeline accounting.

Evolution drivers report, for every generation, how many per-PE
reconfigurations each offspring required and where it was evaluated; the
scheduler converts those event counts into platform time under the paper's
schedule:

* the single shared reconfiguration engine places candidates serially;
* candidates of a batch (one per array) are evaluated in parallel;
* a batch's reconfiguration cannot overlap its own arrays' evaluation, so
  one generation costs ``sum(reconfigurations) * T_PE + n_batches * T_eval``;
* chromosome mutation runs in software concurrently with the previous
  evaluation and is charged only if it exceeds the hardware time it hides
  behind.

The scheduler accumulates the run totals that the Figs. 12–14 benchmark
harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.timing.model import EvolutionTimingModel

__all__ = ["GenerationTiming", "GenerationScheduler"]


@dataclass(frozen=True)
class GenerationTiming:
    """Timing of one generation."""

    generation: int
    n_offspring: int
    n_batches: int
    n_pe_reconfigurations: int
    reconfiguration_s: float
    evaluation_s: float
    software_s: float
    total_s: float


@dataclass
class GenerationScheduler:
    """Accumulates platform time for an evolution run.

    Parameters
    ----------
    timing_model:
        The per-event cost model.
    n_arrays:
        Number of arrays available for parallel evaluation (1 for the
        single-array schedule of Fig. 11-top, 3 for Fig. 11-bottom).
    n_pixels:
        Pixels of the training image (drives evaluation time).
    """

    timing_model: EvolutionTimingModel
    n_arrays: int
    n_pixels: int
    history: List[GenerationTiming] = field(default_factory=list)
    #: Exposed software time by offspring reconfiguration count (see
    #: :meth:`exposed_software_s`), filled on first use of each count.
    _exposed: Dict[int, float] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_arrays < 1:
            raise ValueError("n_arrays must be >= 1")
        if self.n_pixels < 1:
            raise ValueError("n_pixels must be >= 1")

    # ------------------------------------------------------------------ #
    @property
    def total_time_s(self) -> float:
        """Total accumulated platform time."""
        return sum(record.total_s for record in self.history)

    @property
    def total_reconfigurations(self) -> int:
        """Total per-PE reconfigurations accumulated."""
        return sum(record.n_pe_reconfigurations for record in self.history)

    @property
    def n_generations(self) -> int:
        """Number of generations accounted so far."""
        return len(self.history)

    # ------------------------------------------------------------------ #
    def exposed_software_s(self, count: int) -> float:
        """Software time an offspring with ``count`` PE writes adds to its slot.

        Mutation software time is overlapped with the previous candidate's
        hardware activity (its reconfiguration and its share of the batch
        evaluation); only the excess is charged.  The term depends on the
        count alone, so each count's value is computed once per scheduler.
        """
        term = self._exposed.get(count)
        if term is None:
            model = self.timing_model
            mutation = model.microblaze.mutation_time_s(max(1, count))
            slot = model.reconfiguration_time_s(count) + model.evaluation_time_s(
                self.n_pixels
            ) / self.n_arrays
            term = self._exposed[count] = mutation - slot if mutation > slot else 0.0
        return term

    def record_generation(self, reconfigurations_per_offspring: Sequence[int]) -> GenerationTiming:
        """Account one generation given each offspring's reconfiguration count.

        Parameters
        ----------
        reconfigurations_per_offspring:
            Number of per-PE writes needed to place each offspring on its
            array (in evaluation order).

        Returns
        -------
        GenerationTiming
            The timing record, also appended to :attr:`history`.
        """
        counts = [int(c) for c in reconfigurations_per_offspring]
        if not counts:
            raise ValueError("a generation must evaluate at least one offspring")
        if min(counts) < 0:
            raise ValueError("reconfiguration counts must be non-negative")
        model = self.timing_model
        n_offspring = len(counts)
        n_batches = -(-n_offspring // self.n_arrays)

        reconfiguration_s = model.reconfiguration_time_s(sum(counts))
        evaluation_s = n_batches * model.evaluation_time_s(self.n_pixels)
        # Summed in offspring order from 0.0, so the float equals the
        # per-offspring formula's bit for bit (a 0.0 term changes nothing).
        exposed = self._exposed
        software_exposed = 0.0
        for count in counts:
            term = exposed.get(count)
            software_exposed += self.exposed_software_s(count) if term is None else term
        software_s = (
            software_exposed
            + model.microblaze.selection_time_s(n_offspring)
            + model.microblaze.generation_overhead_s()
        )

        record = GenerationTiming(
            generation=len(self.history) + 1,
            n_offspring=n_offspring,
            n_batches=n_batches,
            n_pe_reconfigurations=sum(counts),
            reconfiguration_s=reconfiguration_s,
            evaluation_s=evaluation_s,
            software_s=software_s,
            total_s=reconfiguration_s + evaluation_s + software_s,
        )
        self.history.append(record)
        return record

    def reset(self) -> None:
        """Clear the accumulated history."""
        self.history.clear()

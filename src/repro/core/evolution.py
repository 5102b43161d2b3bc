"""Platform-level evolution drivers.

The paper distinguishes four evolution modes (§IV.B): Independent, Parallel,
Cascaded (with separate or merged fitness, sequential or interleaved
scheduling) and Evolution by Imitation.  Each mode is a driver class here;
all of them share the same building blocks:

* candidates are (1+λ)-style offspring of a per-array parent chromosome,
  produced by the mutation operator of :mod:`repro.ea.mutation`, and the
  next parent is picked by :func:`repro.ea.strategy.select`, the
  acceptance rule the generic scenario-search ES uses too (the paper's
  single-array system, §III.A, is :class:`ParallelEvolution` with
  ``n_arrays=1``);
* the *reconfiguration cost* of placing a candidate on an array is the
  number of PE positions whose function gene differs from what is currently
  configured on that array — exactly what the shared reconfiguration engine
  would have to rewrite;
* every generation is one population step over one gene matrix: the λ
  offspring are drawn together as the rows of a read-only
  :class:`~repro.array.genotype.Population`
  (:func:`~repro.ea.mutation.mutate_population`), their placement on the
  arrays is accounted in one vectorised diff over its function-gene
  columns, and each array scores its share through the fused
  :meth:`ArrayEvalContext.fitness_population` entry point; only an
  accepted offspring becomes a :class:`~repro.array.genotype.Genotype`
  object of its own;
* placement order and parallel evaluation follow the Fig. 11 schedule, and
  the platform time of the run is accounted by a
  :class:`~repro.core.scheduler.GenerationScheduler`;
* evaluation happens on the ACB's own array model, so PE-level faults
  present in the FPGA fabric affect the fitness of every candidate — which
  is what gives the platform its inherent self-healing behaviour.

For efficiency the drivers do not write every candidate into the
configuration-memory model (that would copy megabytes of frame data per
generation for no behavioural gain); they track the *function genes
currently placed* on each array to compute exact reconfiguration counts,
and commit only the finally selected circuits to the fabric through the
ACB's :meth:`~repro.core.acb.ArrayControlBlock.configure`.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.array.genotype import Genotype, Population
from repro.array.window import extract_windows, freeze_planes
from repro.backends.fitness_cache import PersistentFitnessCache
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.scheduler import GenerationScheduler
# ``mutate`` is not called here; it stays importable from this module because
# the scoreboard's span tracer patches it by name.
from repro.ea.mutation import Generation, mutate, mutate_population  # noqa: F401
from repro.ea.pipeline import FitnessPipeline, resolve_persistent_cache
from repro.ea.strategy import select
from repro.imaging.metrics import sae
from repro.timing.model import EvolutionTimingModel

__all__ = [
    "PlatformEvolutionResult",
    "ArrayEvalContext",
    "EvolutionDriver",
    "IndependentEvolution",
    "ParallelEvolution",
    "CascadedEvolution",
    "ImitationEvolution",
]


@dataclass
class PlatformEvolutionResult:
    """Outcome of a platform-level evolution run.

    Attributes
    ----------
    best_genotypes:
        Best circuit found for each participating array.
    best_fitness:
        Fitness of each best circuit.
    fitness_history:
        Per-array parent-fitness trace, one value per generation.
    platform_time_s:
        Estimated platform (hardware) time of the run under the Fig. 11
        schedule — *not* Python wall-clock time.
    n_generations, n_evaluations, n_reconfigurations:
        Run totals.
    """

    best_genotypes: Dict[int, Genotype] = field(default_factory=dict)
    best_fitness: Dict[int, float] = field(default_factory=dict)
    fitness_history: Dict[int, List[float]] = field(default_factory=dict)
    platform_time_s: float = 0.0
    n_generations: int = 0
    n_evaluations: int = 0
    n_reconfigurations: int = 0
    #: Applied fault-scenario events (one serialisable record each), in
    #: application order; empty when the run had no scenario attached.
    scenario_events: List[Dict] = field(default_factory=list)
    #: Fitness-pipeline telemetry summed over the run's evaluation
    #: contexts: cache ``hits``/``misses``, fault-taint ``bypasses``,
    #: persistent-tier ``persistent_hits``/``persistent_misses``, and
    #: ``full_evaluations`` (see :class:`repro.ea.pipeline.FitnessPipeline`).
    #: Not part of the trajectory contract: how candidates are grouped onto
    #: contexts decides the hit/miss split, never a fitness value.
    fitness_cache_stats: Dict[str, int] = field(default_factory=dict)

    def overall_best_fitness(self) -> float:
        """Best fitness across all participating arrays."""
        if not self.best_fitness:
            return math.inf
        return min(self.best_fitness.values())

    def trace(self, array_index: int) -> np.ndarray:
        """Fitness trace of one array as a float array."""
        return np.asarray(self.fitness_history.get(array_index, []), dtype=np.float64)


class ArrayEvalContext:
    """Cached evaluation context for one array and one training image.

    Extracts the window planes of the training image once and tracks the
    function genes currently placed on the array, so candidate evaluation
    and reconfiguration accounting are both cheap.

    Every fitness request delegates to a staged
    :class:`~repro.ea.pipeline.FitnessPipeline` — the in-process cache
    tier and the opt-in persistent tier.  On a faulty array the pipeline
    bypasses every cache so each candidate consumes its per-position
    fault draws, keeping runs byte-identical to uncached
    evaluation; the bypasses are counted, not silent (see
    :attr:`PlatformEvolutionResult.fitness_cache_stats`).
    """

    def __init__(self, platform: EvolvableHardwarePlatform, array_index: int,
                 training_image: np.ndarray, *,
                 fitness_cache: Union[None, str, os.PathLike, PersistentFitnessCache] = None,
                 ) -> None:
        self.platform = platform
        self.array_index = array_index
        self.acb = platform.acb(array_index)
        self.training_image = np.asarray(training_image)
        self.planes = freeze_planes(extract_windows(self.training_image))
        # Function genes currently placed on the array's fabric regions (a
        # region holding no function, -1, reads 255: never a function gene).
        self.placed_functions = platform.fabric.configured_genes(array_index).astype(np.uint8)
        self.pipeline = FitnessPipeline(self.acb.array, persistent=fitness_cache)
        self.acb.sync_faults()

    def retarget(self, training_image: np.ndarray) -> None:
        """Switch the training image (cascaded evolution stages)."""
        self.training_image = np.asarray(training_image)
        self.planes = freeze_planes(extract_windows(self.training_image))
        # Cached fitnesses were computed on the previous planes.
        self.pipeline.invalidate()

    def reconfiguration_count(self, genotype: Genotype) -> int:
        """PE writes needed to place ``genotype`` given what is on the array."""
        return int(np.count_nonzero(genotype.function_genes != self.placed_functions))

    def place(self, genotype: Genotype) -> int:
        """Account the placement of ``genotype`` and return its PE-write count."""
        count = self.reconfiguration_count(genotype)
        self.placed_functions = np.array(genotype.function_genes, dtype=np.uint8)
        return count

    def place_population(
        self, genotypes: Sequence[Genotype], others: Sequence["ArrayEvalContext"] = ()
    ) -> List[int]:
        """Account placing ``genotypes`` round-robin; returns each PE-write count.

        Candidate ``i`` goes on array ``i % n`` of ``(self, *others)``, in
        candidate order.  Each candidate is diffed against its predecessor
        on the same array: the genes already placed there, or the previous
        candidate placed there.  That is one vectorised compare over the
        function-gene columns of the candidates' gene matrix (a
        :class:`~repro.array.genotype.Population` is used as is), identical
        to calling :meth:`place` candidate by candidate on each array.
        """
        if not genotypes:
            return []
        functions = Population.of(genotypes).functions
        n = len(functions)
        arrays = (self, *others)[:n]  # the arrays that receive a candidate
        n_slots = len(others) + 1
        previous = np.concatenate(
            [array.placed_functions.reshape(1, -1) for array in arrays] + [functions[:-n_slots]]
        )
        counts = np.add.reduce(functions != previous, axis=1, dtype=np.intp).tolist()
        shape = self.placed_functions.shape
        for slot, array in enumerate(arrays):
            last = slot + (n - 1 - slot) // n_slots * n_slots
            array.placed_functions = functions[last].reshape(shape)
        return counts

    def output(self, genotype: Genotype) -> np.ndarray:
        """Array output for ``genotype`` on the cached training image."""
        return self.acb.array.process_planes(self.planes, genotype)

    def fitness(self, genotype: Genotype, reference: np.ndarray) -> float:
        """Aggregated MAE of the candidate against ``reference``."""
        return self.pipeline.evaluate(self.planes, genotype, reference)

    def fitness_population(
        self, genotypes: Sequence[Genotype], reference: np.ndarray
    ) -> List[float]:
        """Aggregated MAE per candidate through the staged pipeline.

        The drivers' generation step scores offspring here: fitness values
        come out of the pipeline's backing
        :meth:`~repro.array.systolic_array.SystolicArray.evaluate_population`
        call, short-circuited by the cache tiers where the exact value is
        already known.
        """
        return self.pipeline.evaluate_population(self.planes, genotypes, reference)


def _per_slot(
    population: Population, n_slots: int, fn: Callable[[int, Population], Sequence]
) -> List:
    """Apply ``fn(slot, share)`` to each array slot's rows, in population order.

    Offspring ``i`` goes to slot ``i % n_slots``; ``share`` is the
    sub-population of the slot's candidates, and the per-slot results are
    scattered back into population-order positions.
    """
    if n_slots == 1:
        return list(fn(0, population))
    n = len(population)
    values: List = [None] * n
    for slot in range(min(n_slots, n)):
        values[slot::n_slots] = fn(slot, population.take(range(slot, n, n_slots)))
    return values


class EvolutionDriver:
    """Shared machinery of all platform evolution modes.

    Parameters
    ----------
    platform:
        The multi-array platform to evolve on.
    n_offspring:
        Offspring per generation (the paper's multi-array experiments use 9).
    mutation_rate:
        Mutation rate ``k``: genes changed per offspring, in
        ``[1, platform.spec.n_genes]`` (checked here, before any run touches
        the platform).
    rng:
        Seed or generator for the mutation operator.
    timing_model:
        Evolution-time model; defaults to one calibrated to the platform's
        reconfiguration engine.
    accept_equal:
        Whether equal-fitness offspring replace the parent (CGP neutral drift).
    fitness_cache:
        Opt-in persistent cross-run fitness cache: ``None`` (off, the
        default), a directory path, or a shared
        :class:`~repro.backends.fitness_cache.PersistentFitnessCache`.
        Keys bind the gene bytes to the array geometry and the content
        digests of the training planes and reference image
        (:func:`repro.backends.signature.fitness_key`), so entries are
        value-transparent across runs, workers and backends; fault-tainted
        evaluations never touch the cache.  With the knob off, behaviour
        is byte-identical to v1.8.0.
    scenario:
        Optional fault-scenario timeline: a
        :class:`~repro.scenarios.spec.FaultScenario`, a registered
        scenario name (``"seu-storm"``, ...) or its dict form.  When set,
        the scenario is compiled into a deterministic per-generation
        event schedule from the platform's fabric seed (see
        :func:`repro.scenarios.compile_schedule`), and its events —
        Poisson SEU arrivals, bursts, permanent-damage onsets, periodic
        scrubs — fire at the *start* of each generation, mid-evolution,
        before that generation's offspring are drawn.  Mid-run injection
        is byte-identical across evaluation backends and executors for a
        fixed seed (``tests/scenarios/`` enforces this); every applied
        event is recorded on
        :attr:`PlatformEvolutionResult.scenario_events`.

        Like the paper's hardware, the EA only knows fitnesses it has
        *measured*: when an event changes the fault environment, the
        incumbent parent's stored fitness is not retroactively
        re-evaluated — offspring of the next generation are measured
        under the new environment and compete against the parent's
        last-measured value (so ``target_fitness`` early stops and the
        reported ``best_fitness`` refer to the environment each value
        was measured in).  Detecting that a previously good circuit has
        degraded is deliberately not the EA's job; that is the §V.A
        calibration/monitoring loop, reproduced by the
        ``scenario-sweep`` experiment's lifecycle runner.
    """

    def __init__(
        self,
        platform: EvolvableHardwarePlatform,
        n_offspring: int = 9,
        mutation_rate: int = 3,
        rng: Union[int, np.random.Generator, None] = None,
        timing_model: Optional[EvolutionTimingModel] = None,
        accept_equal: bool = True,
        fitness_cache: Union[None, str, os.PathLike, PersistentFitnessCache] = None,
        scenario=None,
    ) -> None:
        if n_offspring < 1:
            raise ValueError("n_offspring must be >= 1")
        n_genes = platform.spec.n_genes
        if not 1 <= mutation_rate <= n_genes:
            raise ValueError(f"mutation_rate must be in [1, {n_genes}], got {mutation_rate}")
        self.platform = platform
        self.n_offspring = n_offspring
        self.mutation_rate = mutation_rate
        self.accept_equal = accept_equal
        # One persistent-tier handle shared by every context this driver
        # creates, so concurrent lookups share a single in-memory view.
        self.fitness_cache = resolve_persistent_cache(fitness_cache)
        if scenario is not None:
            from repro.scenarios import resolve_scenario

            scenario = resolve_scenario(scenario)
        self.scenario = scenario
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.timing_model = timing_model if timing_model is not None else platform.timing_model()

    # ------------------------------------------------------------------ #
    def _context(self, array_index: int, training_image: np.ndarray) -> ArrayEvalContext:
        """An evaluation context wired to this driver's persistent tier."""
        return ArrayEvalContext(
            self.platform, array_index, training_image, fitness_cache=self.fitness_cache
        )

    def _collect_cache_stats(
        self, result: PlatformEvolutionResult, contexts: Sequence[ArrayEvalContext]
    ) -> None:
        """End of a run: publish the persistent tier, sum pipeline telemetry.

        The run's newly computed fitnesses were staged generation by
        generation; they reach disk here in one append.
        """
        if self.fitness_cache is not None:
            self.fitness_cache.publish()
        totals: Dict[str, int] = {}
        for context in contexts:
            for key, value in context.pipeline.stats().items():
                totals[key] = totals.get(key, 0) + value
        result.fitness_cache_stats = totals

    def _make_scheduler(self, n_arrays: int, n_pixels: int) -> GenerationScheduler:
        return GenerationScheduler(
            timing_model=self.timing_model, n_arrays=n_arrays, n_pixels=n_pixels
        )

    def _begin_scenario(self, horizon: int):
        """Compile the attached scenario (if any) into a bound runner.

        ``horizon`` is the total number of generation steps the run may
        take; it depends only on the run's configuration (never on early
        stops), so the compiled schedule — and therefore every event —
        is a pure function of the configs and the platform seed.
        """
        if self.scenario is None:
            return None
        from repro.scenarios import ScenarioRunner, compile_schedule

        geometry = self.platform.geometry
        schedule = compile_schedule(
            self.scenario,
            n_generations=horizon,
            n_arrays=self.platform.n_arrays,
            rows=geometry.rows,
            cols=geometry.cols,
            seed=self.platform.fabric.seed,
        )
        return ScenarioRunner(self.platform, schedule)

    @staticmethod
    def _advance_scenario(runner, result: PlatformEvolutionResult) -> None:
        """Fire the next generation's scheduled events, if a scenario runs."""
        if runner is not None:
            result.scenario_events.extend(runner.advance())

    def _initial_parent(self, seed_genotype: Optional[Genotype]) -> Genotype:
        if seed_genotype is not None:
            return seed_genotype.copy()
        return Genotype.random(self.platform.spec, self.rng)

    def _generation_offspring(
        self, parent: Genotype, contexts: Sequence[ArrayEvalContext]
    ) -> Generation:
        """Draw the generation's offspring.

        The classic EA mutates every offspring directly from the parent with
        the nominal mutation rate, drawn as one population; offspring ``i``
        is placed on ``contexts[i % len(contexts)]``.
        """
        return mutate_population(parent, self.mutation_rate, self.rng, self.n_offspring)

    @staticmethod
    def _evaluate_population(
        contexts: Sequence[ArrayEvalContext], population: Population, reference: np.ndarray
    ) -> List[float]:
        """Fitness of every offspring, in population order.

        Each array scores its share in one fused pass; candidates keep
        their position, so selection and each array's fault-RNG stream
        follow the population order.
        """
        if all(context.acb.array.n_faults == 0 for context in contexts):
            # Healthy arrays are functionally identical and fault-free
            # evaluation consumes no RNG, so the whole generation can be
            # scored as one population without perturbing any random stream.
            return contexts[0].fitness_population(population, reference)
        return _per_slot(
            population,
            len(contexts),
            lambda slot, share: contexts[slot].fitness_population(share, reference),
        )

    def _generation(
        self,
        contexts: Sequence[ArrayEvalContext],
        parent: Genotype,
        parent_fitness: float,
        scheduler: GenerationScheduler,
        result: PlatformEvolutionResult,
        score: Callable[[Population], List[float]],
    ) -> Tuple[Genotype, float]:
        """One generation step; returns the (possibly replaced) parent.

        Draws the offspring, accounts each array's placements, scores them
        through ``score(population)`` and picks the next parent with the
        shared (1+λ) rule :func:`~repro.ea.strategy.select`.  Only an
        accepted offspring becomes a :class:`Genotype` object of its own.
        """
        population = self._generation_offspring(parent, contexts).population
        offspring_counts = contexts[0].place_population(population, contexts[1:])
        fitnesses = score(population)
        result.n_evaluations += len(fitnesses)
        scheduler.record_generation(offspring_counts)
        chosen = select(fitnesses, parent_fitness, self.accept_equal)
        if chosen is None:
            return parent, parent_fitness
        return population.detached(chosen), fitnesses[chosen]

    def _evolve(
        self,
        contexts: Sequence[ArrayEvalContext],
        parent: Genotype,
        reference: np.ndarray,
        n_generations: int,
        target_fitness: Optional[float],
        scheduler: GenerationScheduler,
        result: PlatformEvolutionResult,
        scenario_runner,
    ) -> Tuple[Genotype, float, List[float]]:
        """Evolve ``parent`` against ``reference`` on ``contexts``.

        Returns the final parent, its fitness and the per-generation
        parent-fitness history.
        """
        parent_fitness = contexts[0].fitness(parent, reference)
        result.n_evaluations += 1
        history: List[float] = []

        def score(population):
            return self._evaluate_population(contexts, population, reference)

        for _ in range(n_generations):
            self._advance_scenario(scenario_runner, result)
            parent, parent_fitness = self._generation(
                contexts, parent, parent_fitness, scheduler, result, score
            )
            history.append(parent_fitness)
            if target_fitness is not None and parent_fitness <= target_fitness:
                break
        return parent, parent_fitness, history


class IndependentEvolution(EvolutionDriver):
    """Independent evolution mode: each array evolves sequentially on its own task.

    "Each array is evolved with its own reference, which allows adjusting
    them to different processing tasks. ... All arrays need to be evolved in
    a sequential manner." (§IV.B)
    """

    def run(
        self,
        tasks: Dict[int, Tuple[np.ndarray, np.ndarray]],
        n_generations: int,
        seed_genotypes: Optional[Dict[int, Genotype]] = None,
        target_fitness: Optional[float] = None,
    ) -> PlatformEvolutionResult:
        """Evolve each array in ``tasks`` one after the other.

        Parameters
        ----------
        tasks:
            ``{array_index: (training_image, reference_image)}``.
        n_generations:
            Generation budget *per array*.
        seed_genotypes:
            Optional starting parent per array.
        target_fitness:
            Optional early-stop threshold applied per array.
        """
        if not tasks:
            raise ValueError("tasks must name at least one array")
        seed_genotypes = seed_genotypes or {}
        result = PlatformEvolutionResult()
        # One platform-global timeline: arrays evolve sequentially, so the
        # scenario advances one step per generation across the whole run.
        scenario_runner = self._begin_scenario(n_generations * len(tasks))

        contexts: List[ArrayEvalContext] = []
        for array_index, (training, reference) in sorted(tasks.items()):
            context = self._context(array_index, training)
            contexts.append(context)
            reference = np.asarray(reference)
            scheduler = self._make_scheduler(n_arrays=1, n_pixels=int(np.asarray(training).size))

            parent, parent_fitness, history = self._evolve(
                [context],
                self._initial_parent(seed_genotypes.get(array_index)),
                reference,
                n_generations,
                target_fitness,
                scheduler,
                result,
                scenario_runner,
            )
            self.platform.configure_array(array_index, parent)
            self.platform.set_reference(array_index, reference)
            result.best_genotypes[array_index] = parent
            result.best_fitness[array_index] = parent_fitness
            result.fitness_history[array_index] = history
            result.platform_time_s += scheduler.total_time_s
            result.n_reconfigurations += scheduler.total_reconfigurations
            result.n_generations = max(result.n_generations, scheduler.n_generations)
        self._collect_cache_stats(result, contexts)
        return result


class ParallelEvolution(EvolutionDriver):
    """Parallel evolution mode: one task, offspring distributed over the arrays.

    "Parallel evolution is based on the distribution of the offspring
    generated during each generation of the evolution phase among the
    different processing arrays, in order to reduce the time required to
    obtain a suitable solution." (§IV.B, Fig. 5)

    The classic variant mutates every offspring from the generation's
    parent with the nominal mutation rate; the paper's new two-level
    strategy is implemented by :class:`repro.core.two_level_ea.TwoLevelMutationEvolution`.
    """

    def __init__(self, *args, n_arrays: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.n_arrays = n_arrays if n_arrays is not None else self.platform.n_arrays
        if not 1 <= self.n_arrays <= self.platform.n_arrays:
            raise ValueError(
                f"n_arrays must be in [1, {self.platform.n_arrays}], got {self.n_arrays}"
            )

    def run(
        self,
        training_image: np.ndarray,
        reference_image: np.ndarray,
        n_generations: int,
        seed_genotype: Optional[Genotype] = None,
        target_fitness: Optional[float] = None,
    ) -> PlatformEvolutionResult:
        """Evolve one circuit using ``n_arrays`` arrays for parallel evaluation."""
        training_image = np.asarray(training_image)
        reference_image = np.asarray(reference_image)
        contexts = [
            self._context(index, training_image) for index in range(self.n_arrays)
        ]
        scheduler = self._make_scheduler(
            n_arrays=self.n_arrays, n_pixels=int(training_image.size)
        )
        result = PlatformEvolutionResult()
        scenario_runner = self._begin_scenario(n_generations)

        parent, parent_fitness, history = self._evolve(
            contexts,
            self._initial_parent(seed_genotype),
            reference_image,
            n_generations,
            target_fitness,
            scheduler,
            result,
            scenario_runner,
        )

        # Commit the winning circuit to every participating array so the
        # platform can enter parallel (TMR) or independent operation with it.
        for context in contexts:
            self.platform.configure_array(context.array_index, parent)
            self.platform.set_reference(context.array_index, reference_image)
            result.best_genotypes[context.array_index] = parent
            result.best_fitness[context.array_index] = parent_fitness
            result.fitness_history[context.array_index] = history
        result.platform_time_s = scheduler.total_time_s
        result.n_reconfigurations = scheduler.total_reconfigurations
        result.n_generations = scheduler.n_generations
        self._collect_cache_stats(result, contexts)
        return result


class CascadedEvolution(EvolutionDriver):
    """Cascaded evolution modes (Fig. 6).

    Parameters
    ----------
    fitness_mode:
        ``SEPARATE`` — each stage has its own fitness unit (all stages use
        the same reference image; stage *i+1* is trained on the output of
        stage *i*).  ``MERGED`` — a single fitness unit at the end of the
        chain judges candidates by the final output.
    schedule:
        ``SEQUENTIAL`` — stage *i+1* evolves after stage *i* finished.
        ``INTERLEAVED`` — all stages advance one generation per round.

    Unless explicit ``seed_genotypes`` are given, stage 0 starts from the
    pass-through (identity) circuit and every later stage starts from the
    better of two natural candidates evaluated on its actual input: the
    pass-through circuit (the stage begins as a no-op, so the chain can only
    improve) and a copy of the previous stage's circuit (repeating a good
    filter often helps, which is exactly the "same filter in every stage"
    baseline of Figs. 16-17).  This keeps short adaptation budgets
    well-behaved — a randomly seeded stage would initially *degrade* the
    stream it is inserted into — while preserving the monotone-improvement
    guarantee.  Passing random seed genotypes restores the paper's
    from-scratch behaviour.
    """

    def __init__(
        self,
        *args,
        fitness_mode: CascadeFitnessMode = CascadeFitnessMode.SEPARATE,
        schedule: CascadeSchedule = CascadeSchedule.SEQUENTIAL,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(fitness_mode, CascadeFitnessMode):
            raise TypeError("fitness_mode must be a CascadeFitnessMode")
        if not isinstance(schedule, CascadeSchedule):
            raise TypeError("schedule must be a CascadeSchedule")
        self.fitness_mode = fitness_mode
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    def _chain_output(
        self,
        contexts: List[ArrayEvalContext],
        parents: List[Genotype],
        stage: int,
        candidate: Genotype,
        stage_input: np.ndarray,
    ) -> np.ndarray:
        """Output of the full chain with ``candidate`` at ``stage``.

        Downstream stages keep their current parents (the merged-fitness
        arrangement: all candidates are judged by the end-of-chain output).
        """
        data = contexts[stage].acb.array.process(stage_input, candidate)
        for downstream in range(stage + 1, len(contexts)):
            data = contexts[downstream].acb.array.process(data, parents[downstream])
        return data

    def _stage_fitness(
        self,
        contexts: List[ArrayEvalContext],
        parents: List[Genotype],
        stage: int,
        candidate: Genotype,
        stage_input: np.ndarray,
        reference: np.ndarray,
    ) -> float:
        if self.fitness_mode == CascadeFitnessMode.SEPARATE:
            output = contexts[stage].acb.array.process(stage_input, candidate)
            return sae(output, reference)
        final_output = self._chain_output(contexts, parents, stage, candidate, stage_input)
        return sae(final_output, reference)

    def _stage_input(
        self,
        contexts: List[ArrayEvalContext],
        parents: List[Genotype],
        stage: int,
        training_image: np.ndarray,
    ) -> np.ndarray:
        """Input image of ``stage``: the training image filtered by the
        current parents of all upstream stages."""
        data = np.asarray(training_image)
        for upstream in range(stage):
            data = contexts[upstream].acb.array.process(data, parents[upstream])
        return data

    # ------------------------------------------------------------------ #
    def run(
        self,
        training_image: np.ndarray,
        reference_image: np.ndarray,
        n_generations: int,
        n_stages: Optional[int] = None,
        seed_genotypes: Optional[Sequence[Genotype]] = None,
        target_fitness: Optional[float] = None,
    ) -> PlatformEvolutionResult:
        """Evolve a collaborative cascade of ``n_stages`` stages.

        ``n_generations`` is the budget per stage (sequential schedule) or
        the number of rounds (interleaved schedule, where each round
        advances every stage by one generation).
        """
        training_image = np.asarray(training_image)
        reference_image = np.asarray(reference_image)
        n_stages = n_stages if n_stages is not None else self.platform.n_arrays
        if not 1 <= n_stages <= self.platform.n_arrays:
            raise ValueError(
                f"n_stages must be in [1, {self.platform.n_arrays}], got {n_stages}"
            )
        contexts = [
            self._context(index, training_image) for index in range(n_stages)
        ]
        scheduler = self._make_scheduler(n_arrays=1, n_pixels=int(training_image.size))
        result = PlatformEvolutionResult()
        # The cascade's timeline spans every stage-generation: one scenario
        # step per evolve_stage_one_generation call, whatever the schedule.
        scenario_runner = self._begin_scenario(n_stages * n_generations)

        parents: List[Genotype] = []
        parent_fitness: List[float] = []
        explicitly_seeded: List[bool] = []
        for stage in range(n_stages):
            if seed_genotypes is not None and stage < len(seed_genotypes):
                parents.append(seed_genotypes[stage].copy())
                explicitly_seeded.append(True)
            else:
                parents.append(Genotype.identity(self.platform.spec))
                explicitly_seeded.append(False)
            parent_fitness.append(math.inf)
        histories: List[List[float]] = [[] for _ in range(n_stages)]

        def evolve_stage_one_generation(stage: int) -> None:
            self._advance_scenario(scenario_runner, result)
            stage_input = self._stage_input(contexts, parents, stage, training_image)
            if not math.isfinite(parent_fitness[stage]):
                parent_fitness[stage] = self._stage_fitness(
                    contexts, parents, stage, parents[stage], stage_input, reference_image
                )
                result.n_evaluations += 1
                if stage > 0 and not explicitly_seeded[stage]:
                    # Also consider repeating the previous stage's circuit as
                    # the starting point; keep whichever candidate is better
                    # on this stage's actual input.
                    repeat = parents[stage - 1].copy()
                    repeat_fitness = self._stage_fitness(
                        contexts, parents, stage, repeat, stage_input, reference_image
                    )
                    result.n_evaluations += 1
                    if repeat_fitness < parent_fitness[stage]:
                        parents[stage] = repeat
                        parent_fitness[stage] = repeat_fitness
            context = contexts[stage]
            if self.fitness_mode == CascadeFitnessMode.SEPARATE:
                # Separate fitness units judge each candidate on its own
                # stage output, so the stage's share goes through the
                # context's fused population entry point.  Retargeting only
                # when the stage input actually changed *in value* keeps the
                # context's planes object stable while upstream parents are
                # frozen (always for stage 0; per sequential-stage run for
                # later stages), so the backend's per-plane-set stores — and
                # the memoisation they carry — survive across generations.
                if context.training_image is not stage_input and not np.array_equal(
                    context.training_image, stage_input
                ):
                    context.retarget(stage_input)

                def score(population):
                    return self._evaluate_population([context], population, reference_image)
            else:
                # A merged fitness unit judges each candidate by the end of
                # the chain, which runs through the downstream stages.
                def score(population):
                    return [
                        self._stage_fitness(
                            contexts, parents, stage, genotype, stage_input, reference_image
                        )
                        for genotype in population
                    ]

            parents[stage], parent_fitness[stage] = self._generation(
                [context], parents[stage], parent_fitness[stage], scheduler, result, score
            )
            histories[stage].append(parent_fitness[stage])

        if self.schedule == CascadeSchedule.SEQUENTIAL:
            for stage in range(n_stages):
                for _ in range(n_generations):
                    evolve_stage_one_generation(stage)
                    if target_fitness is not None and parent_fitness[stage] <= target_fitness:
                        break
        else:  # interleaved: one generation per stage per round
            for _ in range(n_generations):
                for stage in range(n_stages):
                    evolve_stage_one_generation(stage)
                if target_fitness is not None and min(parent_fitness) <= target_fitness:
                    break

        for stage in range(n_stages):
            self.platform.configure_array(stage, parents[stage])
            self.platform.set_reference(stage, reference_image)
            result.best_genotypes[stage] = parents[stage]
            result.best_fitness[stage] = parent_fitness[stage]
            result.fitness_history[stage] = histories[stage]
        result.platform_time_s = scheduler.total_time_s
        result.n_reconfigurations = scheduler.total_reconfigurations
        result.n_generations = scheduler.n_generations
        self._collect_cache_stats(result, contexts)
        return result


class ImitationEvolution(EvolutionDriver):
    """Evolution by Imitation (Fig. 7).

    A (typically faulty) *apprentice* array is bypassed with respect to a
    healthy *master* array; both receive the same input stream, and the
    apprentice is evolved to minimise the MAE between its output and the
    master's.  No reference image is needed, so the technique works when
    the stored references have been erased or damaged — and it is the
    recovery step of both self-healing strategies (§V).
    """

    def run(
        self,
        apprentice_index: int,
        master_index: int,
        input_image: np.ndarray,
        n_generations: int,
        seed_genotype: Optional[Genotype] = None,
        seed_from_master: bool = True,
        target_fitness: Optional[float] = None,
    ) -> PlatformEvolutionResult:
        """Evolve ``apprentice_index`` to imitate ``master_index``.

        Parameters
        ----------
        apprentice_index, master_index:
            The learner and teacher arrays (must differ).
        input_image:
            The live data stream both arrays observe.
        n_generations:
            Generation budget.
        seed_genotype:
            Explicit starting parent; overrides ``seed_from_master``.
        seed_from_master:
            When ``True`` (paper's recommendation, Fig. 19) the apprentice
            starts from a copy of the master's genotype; otherwise from a
            random genotype.
        target_fitness:
            Early-stop imitation-fitness threshold (the paper considers
            ≈100 MAE "enough to say that both evolved systems are almost
            identical").
        """
        if apprentice_index == master_index:
            raise ValueError("apprentice and master must be different arrays")
        input_image = np.asarray(input_image)
        master_acb = self.platform.acb(master_index)
        if master_acb.genotype is None:
            raise RuntimeError("the master array has no configured circuit")
        master_output = master_acb.shadow_process(input_image)

        # The apprentice is bypassed so the cascade keeps streaming while it
        # re-learns (online recovery with an offline-style method).
        self.platform.set_bypass(apprentice_index, True)
        context = self._context(apprentice_index, input_image)
        scheduler = self._make_scheduler(n_arrays=1, n_pixels=int(input_image.size))
        result = PlatformEvolutionResult()
        scenario_runner = self._begin_scenario(n_generations)

        if seed_genotype is not None:
            parent = seed_genotype.copy()
        elif seed_from_master:
            parent = master_acb.genotype.copy()
        else:
            parent = Genotype.random(self.platform.spec, self.rng)
        parent, parent_fitness, history = self._evolve(
            [context],
            parent,
            master_output,
            n_generations,
            target_fitness,
            scheduler,
            result,
            scenario_runner,
        )

        self.platform.configure_array(apprentice_index, parent)
        self.platform.set_bypass(apprentice_index, False)
        result.best_genotypes[apprentice_index] = parent
        result.best_fitness[apprentice_index] = parent_fitness
        result.fitness_history[apprentice_index] = history
        result.platform_time_s = scheduler.total_time_s
        result.n_reconfigurations = scheduler.total_reconfigurations
        result.n_generations = scheduler.n_generations
        self._collect_cache_stats(result, [context])
        return result

"""The one-pass generation step against per-candidate placement and timing.

Each generation the drivers place their offspring with one vectorised
compare over the generation's gene matrix
(:meth:`ArrayEvalContext.place_population`) and time it with the
scheduler's per-count table.  This file replays every generation of
every driver the slow way and requires the same figures:

* placement: offspring ``i`` goes on slot ``i % n_slots``; each is placed
  with :meth:`ArrayEvalContext.place` on a shadow of its slot, which holds
  the genes placed there before the generation, then the previous
  offspring on that slot (for the two-level plan, that is the offspring
  the row was mutated from);
* timing: every :class:`GenerationTiming` field equals the per-offspring
  formula the scheduler documents, summed in offspring order;
* totals: ``n_reconfigurations`` is the sum of the replayed counts.

Runs cover healthy and faulty arrays and a mid-run fault scenario.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.core import evolution as evolution_module
from repro.core.evolution import (
    ArrayEvalContext,
    CascadedEvolution,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
)
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.scheduler import GenerationScheduler, GenerationTiming
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.ea.mutation import PopulationMutator
from repro.imaging.images import make_training_pair

N_GENERATIONS = 8


def make_platform(faults: str, n_arrays: int = 3) -> EvolvableHardwarePlatform:
    platform = EvolvableHardwarePlatform(n_arrays=n_arrays, seed=5, backend="numpy")
    if faults == "faulty":
        platform.inject_permanent_fault(0, 1, 1)
        if n_arrays > 1:
            platform.inject_permanent_fault(1, 2, 0)
    return platform


@pytest.fixture(scope="module")
def pair():
    return make_training_pair("salt_pepper_denoise", size=16, seed=7, noise_level=0.1)


def per_offspring_timing(scheduler: GenerationScheduler, counts, generation: int):
    """The scheduler's documented formula, one offspring at a time."""
    model = scheduler.timing_model
    n_offspring = len(counts)
    n_batches = -(-n_offspring // scheduler.n_arrays)
    reconfiguration_s = model.reconfiguration_time_s(sum(counts))
    evaluation_s = n_batches * model.evaluation_time_s(scheduler.n_pixels)
    software_exposed = 0.0
    for count in counts:
        mutation = model.microblaze.mutation_time_s(max(1, count))
        slot = model.reconfiguration_time_s(count) + model.evaluation_time_s(
            scheduler.n_pixels
        ) / scheduler.n_arrays
        if mutation > slot:
            software_exposed += mutation - slot
    software_s = (
        software_exposed
        + model.microblaze.selection_time_s(n_offspring)
        + model.microblaze.generation_overhead_s()
    )
    return GenerationTiming(
        generation=generation,
        n_offspring=n_offspring,
        n_batches=n_batches,
        n_pe_reconfigurations=sum(counts),
        reconfiguration_s=reconfiguration_s,
        evaluation_s=evaluation_s,
        software_s=software_s,
        total_s=reconfiguration_s + evaluation_s + software_s,
    )


class GenerationRecorder:
    """Records each generation's offspring, placement slots and timing."""

    def __init__(self, monkeypatch) -> None:
        self.generations = []  # the mutator's Generation objects, in order
        self.placements = []  # (slot contexts, their placed genes before the call)
        self.timings = []  # (scheduler, counts, returned GenerationTiming)
        offspring = PopulationMutator.offspring
        place_population = ArrayEvalContext.place_population
        record_generation = GenerationScheduler.record_generation

        def record_offspring(mutator, *args, **kwargs):
            generation = offspring(mutator, *args, **kwargs)
            self.generations.append(generation)
            return generation

        def record_place(context, genotypes, others=()):
            slots = (context, *others)
            before = [slot.placed_functions.copy() for slot in slots]
            self.placements.append((slots, before))
            return place_population(context, genotypes, others)

        def record_timing(scheduler, counts):
            record = record_generation(scheduler, counts)
            self.timings.append((scheduler, list(counts), record))
            return record

        monkeypatch.setattr(PopulationMutator, "offspring", record_offspring)
        monkeypatch.setattr(ArrayEvalContext, "place_population", record_place)
        monkeypatch.setattr(GenerationScheduler, "record_generation", record_timing)

    def replay(self):
        """Check every generation; returns the replayed reconfiguration total."""
        assert len(self.generations) == len(self.placements) == len(self.timings) > 0
        shadows = {}  # id(context) -> shadow holding the genes it should have placed
        total = 0
        for generation, (slots, before), (scheduler, counts, record) in zip(
            self.generations, self.placements, self.timings
        ):
            for context, placed in zip(slots, before):
                shadow = shadows.get(id(context))
                if shadow is not None:
                    # What the previous generation left placed on this array.
                    assert np.array_equal(shadow.placed_functions, placed)
                else:
                    shadow = shadows[id(context)] = object.__new__(ArrayEvalContext)
                    shadow.placed_functions = placed
            expected = [
                ArrayEvalContext.place(shadows[id(slots[index % len(slots)])], result.genotype)
                for index, result in enumerate(generation)
            ]
            assert counts == expected
            replayed = per_offspring_timing(scheduler, expected, record.generation)
            for name in (field.name for field in fields(GenerationTiming)):
                assert getattr(record, name) == getattr(replayed, name), name
            total += sum(expected)
        # What the last generation left placed on every array.
        for slots, _ in self.placements:
            for context in slots:
                placed = shadows[id(context)].placed_functions
                assert np.array_equal(context.placed_functions, placed)
        return total


def _driver(cls, faults, n_arrays=3, **kwargs):
    settings = {"n_offspring": 9, "mutation_rate": 3, "rng": 11, **kwargs}
    return cls(make_platform(faults, n_arrays), **settings)


def parallel(pair, faults, n_arrays=3, cls=ParallelEvolution, **kwargs):
    driver = _driver(cls, faults, n_arrays, **kwargs)
    return driver.run(pair.training, pair.reference, N_GENERATIONS)


def independent(pair, faults):
    tasks = {index: (pair.training, pair.reference) for index in range(2)}
    return _driver(IndependentEvolution, faults).run(tasks, N_GENERATIONS)


def cascaded(pair, faults, fitness_mode, schedule=CascadeSchedule.SEQUENTIAL):
    driver = _driver(CascadedEvolution, faults, fitness_mode=fitness_mode, schedule=schedule)
    return driver.run(pair.training, pair.reference, N_GENERATIONS)


def imitation(pair, faults):
    platform = make_platform(faults)
    platform.configure_array(1, Genotype.random(platform.spec, np.random.default_rng(21)))
    driver = ImitationEvolution(platform, n_offspring=9, mutation_rate=3, rng=11)
    return driver.run(0, 1, pair.training, N_GENERATIONS)


RUNS = {
    "parallel-1": lambda pair, faults: parallel(pair, faults, n_arrays=1),
    "parallel-3": parallel,
    "parallel-3-of-7": lambda pair, faults: parallel(pair, faults, n_offspring=7),
    "parallel-scenario": lambda pair, faults: parallel(pair, faults, scenario="seu-storm"),
    "two-level": lambda pair, faults: parallel(pair, faults, cls=TwoLevelMutationEvolution),
    "two-level-2-of-3": lambda pair, faults: parallel(
        pair, faults, n_arrays=2, cls=TwoLevelMutationEvolution, low_mutation_rate=2
    ),
    "independent": independent,
    "cascaded-separate": lambda pair, faults: cascaded(pair, faults, CascadeFitnessMode.SEPARATE),
    "cascaded-merged": lambda pair, faults: cascaded(pair, faults, CascadeFitnessMode.MERGED),
    "cascaded-interleaved": lambda pair, faults: cascaded(
        pair, faults, CascadeFitnessMode.SEPARATE, CascadeSchedule.INTERLEAVED
    ),
    "imitation": imitation,
}


@pytest.mark.parametrize("faults", ["healthy", "faulty"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_generation_step_matches_per_candidate_replay(monkeypatch, pair, name, faults):
    recorder = GenerationRecorder(monkeypatch)
    result = RUNS[name](pair, faults)
    assert result.n_reconfigurations == recorder.replay()
    if name == "parallel-scenario":
        assert result.scenario_events  # the timeline fired mid-run


def test_parallel_slots_follow_the_array_order(monkeypatch, pair):
    recorder = GenerationRecorder(monkeypatch)
    parallel(pair, "healthy")
    for slots, _ in recorder.placements:
        assert [context.array_index for context in slots] == [0, 1, 2]


@pytest.mark.parametrize("slow_software", [False, True])
@pytest.mark.parametrize("n_arrays", [1, 3])
def test_scheduler_table_equals_the_per_offspring_formula(n_arrays, slow_software):
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=5)
    model = platform.timing_model()
    if slow_software:
        # A MicroBlaze slow enough that mutation outlasts its slot at every count.
        slow = model.microblaze.cycles_per_gene_mutation * 10**5
        microblaze = replace(model.microblaze, cycles_per_gene_mutation=slow)
        model = replace(model, microblaze=microblaze)
    scheduler = GenerationScheduler(model, n_arrays=n_arrays, n_pixels=16 * 16)
    exposed = []
    for count in range(platform.spec.n_pes + 1):
        mutation = model.microblaze.mutation_time_s(max(1, count))
        slot = model.reconfiguration_time_s(count) + model.evaluation_time_s(
            scheduler.n_pixels
        ) / n_arrays
        expected = mutation - slot if mutation > slot else 0.0
        # Bit-identical, not approximately equal.
        assert scheduler.exposed_software_s(count).hex() == expected.hex()
        exposed.append(expected)
    assert all(exposed) if slow_software else not all(exposed)
    rng = np.random.default_rng(n_arrays)
    for generation in range(1, 41):
        counts = rng.integers(0, platform.spec.n_pes + 1, size=9).tolist()
        record = scheduler.record_generation(counts)
        assert record == per_offspring_timing(scheduler, counts, generation)
    assert math.isfinite(scheduler.total_time_s)


def test_placement_predecessor_is_the_slot_not_the_plan_order():
    """Two slots, one compare: row ``i`` is diffed against row ``i - 2``."""
    platform = EvolvableHardwarePlatform(n_arrays=2, seed=5)
    image = np.zeros((8, 8), dtype=np.uint8)
    contexts = [ArrayEvalContext(platform, index, image) for index in range(2)]
    base = Genotype.identity(platform.spec)
    genotypes = []
    for gene in (5, 6, 5, 6):
        genotype = base.copy()
        genotype.function_genes[:, 0] = gene
        genotypes.append(genotype)
    rows = platform.spec.rows
    counts = contexts[0].place_population(genotypes, contexts[1:])
    # The first two rows differ from the configured identity circuit in
    # column 0; the last two equal their slot's predecessor, though not the
    # row before them.
    assert counts == [rows, rows, 0, 0]
    assert np.array_equal(contexts[0].placed_functions, genotypes[2].function_genes)
    assert np.array_equal(contexts[1].placed_functions, genotypes[3].function_genes)


def test_driver_module_keeps_the_traced_names():
    """The span tracer patches these names; the generation step calls them."""
    assert callable(evolution_module.mutate_population)
    assert callable(evolution_module.mutate)
    assert callable(ArrayEvalContext.place_population)
    assert callable(ArrayEvalContext.place)

"""Tests for the (1+λ) evolution strategy."""

import math

import numpy as np
import pytest

from repro.ea.strategy import OnePlusLambdaES, select


N_GENES = 16


def _redraw(genome, rate, rng):
    """Toy operator: redraw ``rate`` distinct genes of an int vector in [0, 4)."""
    child = genome.copy()
    child[rng.choice(len(child), size=rate, replace=False)] = rng.integers(0, 4, size=rate)
    return child


def _nonzero(genomes):
    """Toy population fitness: the number of non-zero genes of each genome."""
    return [float(np.count_nonzero(genome)) for genome in genomes]


def _seed():
    return np.full(N_GENES, 3)


def _es(**kwargs):
    return OnePlusLambdaES(_nonzero, _redraw, **kwargs)


class TestOnePlusLambda:
    def test_monotone_parent_fitness(self):
        result = _es(n_offspring=4, mutation_rate=2, rng=0).run(40, _seed())
        trace = [record.parent_fitness for record in result.history]
        assert np.all(np.diff(trace) <= 0)  # parent never gets worse

    def test_improves_over_the_seed(self):
        result = _es(n_offspring=6, mutation_rate=2, rng=1).run(150, _seed())
        assert result.best_fitness < 8  # the seed has 16 non-zero genes

    def test_target_fitness_early_stop(self):
        result = _es(n_offspring=6, mutation_rate=2, rng=1).run(
            10_000, _seed(), target_fitness=5.0
        )
        assert result.best_fitness <= 5.0
        assert result.n_generations < 10_000

    def test_seed_genotype_used(self):
        seed = np.zeros(N_GENES, dtype=int)
        result = _es(n_offspring=2, mutation_rate=1, rng=0).run(0, seed)
        assert result.best is seed
        assert result.best_fitness == 0.0

    def test_seed_scored_as_a_population_of_one_then_one_call_per_generation(self):
        calls = []

        def evaluate_population(genomes):
            calls.append(len(genomes))
            return _nonzero(genomes)

        OnePlusLambdaES(evaluate_population, _redraw, n_offspring=5, rng=0).run(3, _seed())
        assert calls == [1, 5, 5, 5]

    def test_evaluation_count(self):
        result = _es(n_offspring=5, mutation_rate=1, rng=0).run(10, _seed())
        # 1 parent evaluation + 10 generations x 5 offspring.
        assert result.n_evaluations == 1 + 10 * 5

    def test_history_records(self):
        result = _es(n_offspring=3, mutation_rate=1, rng=0).run(7, _seed())
        assert [r.generation for r in result.history] == list(range(1, 8))
        previous = float(N_GENES)
        for record in result.history:
            assert record.accepted == (record.best_fitness <= previous)
            assert record.parent_fitness == min(record.best_fitness, previous)
            previous = record.parent_fitness
        assert previous == result.best_fitness

    def test_zero_generations(self):
        result = _es(rng=0).run(0, _seed())
        assert result.n_generations == 0
        assert result.n_evaluations == 1
        assert result.best_fitness == float(N_GENES)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            _es(n_offspring=0)
        with pytest.raises(ValueError):
            _es(mutation_rate=0)
        with pytest.raises(ValueError):
            _es().run(-1, _seed())

    def test_run_requires_a_seed_genome(self):
        with pytest.raises(TypeError):
            _es(rng=0).run(5)

    def test_accept_equal_false_keeps_parent(self):
        # With a constant fitness the parent is never replaced when
        # accept_equal is disabled, so the best genome is the seed.
        es = OnePlusLambdaES(
            lambda genomes: [1.0] * len(genomes),
            _redraw,
            n_offspring=3,
            mutation_rate=1,
            rng=0,
            accept_equal=False,
        )
        seed = _seed()
        result = es.run(5, seed)
        assert result.best is seed
        assert not any(record.accepted for record in result.history)

    def test_operator_mutates_the_current_parent_at_the_configured_rate(self):
        # Each generation draws λ children from the parent then in force,
        # at rate k, and the ES never mutates a genome in place.
        calls = []

        def operator(parent, rate, rng):
            calls.append((parent.copy(), rate))
            return _redraw(parent, rate, rng)

        seed = _seed()
        result = OnePlusLambdaES(
            _nonzero, operator, n_offspring=3, mutation_rate=2, rng=4
        ).run(6, seed)
        assert np.array_equal(seed, _seed())
        assert len(calls) == 6 * 3
        assert all(rate == 2 for _, rate in calls)
        # Every child of a generation comes from the same parent, and
        # that parent scores what the previous generation's record says.
        previous = float(N_GENES)
        for generation, record in enumerate(result.history):
            parents = [parent for parent, _ in calls[3 * generation: 3 * generation + 3]]
            assert all(np.array_equal(parent, parents[0]) for parent in parents)
            assert float(np.count_nonzero(parents[0])) == previous
            previous = record.parent_fitness

    def test_same_seed_same_run(self):
        first = _es(n_offspring=4, mutation_rate=3, rng=9).run(25, _seed())
        second = _es(n_offspring=4, mutation_rate=3, rng=9).run(25, _seed())
        assert np.array_equal(first.best, second.best)
        assert first.history == second.history


class TestSelect:
    """The one (1+λ) acceptance rule shared by the ES and every driver."""

    def test_better_offspring_replaces_the_parent(self):
        assert select([4.0, 2.0, 3.0], 5.0, accept_equal=False) == 1

    def test_first_of_tied_best_offspring_is_chosen(self):
        assert select([3.0, 1.0, 2.0, 1.0], 5.0, accept_equal=True) == 1

    def test_worse_offspring_keep_the_parent(self):
        assert select([6.0, 7.0, math.inf], 5.0, accept_equal=True) is None

    def test_equal_offspring_replaces_the_parent_only_with_neutral_drift(self):
        assert select([7.0, 5.0, 5.0], 5.0, accept_equal=True) == 1
        assert select([7.0, 5.0, 5.0], 5.0, accept_equal=False) is None

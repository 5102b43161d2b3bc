"""Tests for the (1+λ) evolution strategy."""

import math

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.ea.strategy import OnePlusLambdaES, select


def _counting_fitness(spec):
    """A cheap synthetic fitness: count of non-identity function genes."""
    from repro.array.pe_library import PEFunction

    def evaluate(genotype):
        return float(np.count_nonzero(
            genotype.function_genes != int(PEFunction.IDENTITY_W)
        ))

    return evaluate


class TestOnePlusLambda:
    def test_monotone_parent_fitness(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=4,
                             mutation_rate=2, rng=0)
        result = es.run(n_generations=40)
        trace = [record.parent_fitness for record in result.history]
        assert np.all(np.diff(trace) <= 0)  # parent never gets worse

    def test_improves_over_random(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=6,
                             mutation_rate=2, rng=1)
        result = es.run(n_generations=150)
        assert result.best_fitness < 8  # random start averages ~15 non-identity genes

    def test_target_fitness_early_stop(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=6,
                             mutation_rate=2, rng=1)
        result = es.run(n_generations=10_000, target_fitness=5.0)
        assert result.best_fitness <= 5.0
        assert result.n_generations < 10_000

    def test_seed_genotype_used(self, spec, rng):
        seed = Genotype.identity(spec)
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=2,
                             mutation_rate=1, rng=0)
        result = es.run(n_generations=0, seed_genotype=seed)
        assert result.best.genotype == seed
        assert result.best_fitness == 0.0

    def test_evaluation_count(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=5,
                             mutation_rate=1, rng=0)
        result = es.run(n_generations=10)
        # 1 parent evaluation + 10 generations x 5 offspring.
        assert result.n_evaluations == 1 + 10 * 5

    def test_history_records(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=3,
                             mutation_rate=1, rng=0)
        result = es.run(n_generations=7)
        assert len(result.history) == 7
        assert result.history[0].generation == 1
        assert all(r.n_reconfigurations >= 0 for r in result.history)

    def test_zero_generations(self, spec):
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec, rng=0)
        result = es.run(n_generations=0)
        assert result.n_generations == 0
        assert math.isfinite(result.best_fitness)

    def test_invalid_parameters(self, spec):
        with pytest.raises(ValueError):
            OnePlusLambdaES(_counting_fitness(spec), spec=spec, n_offspring=0)
        with pytest.raises(ValueError):
            OnePlusLambdaES(_counting_fitness(spec), spec=spec, mutation_rate=0)
        es = OnePlusLambdaES(_counting_fitness(spec), spec=spec)
        with pytest.raises(ValueError):
            es.run(n_generations=-1)

    def test_mutation_rate_above_gene_count_rejected_before_any_work(self, spec):
        """An over-large rate fails at construction, before the initial
        parent is evaluated."""
        calls = []
        with pytest.raises(ValueError, match="mutation_rate"):
            OnePlusLambdaES(
                lambda genotype: calls.append("eval") or 0.0,
                spec=spec,
                mutation_rate=spec.n_genes + 1,
            )
        assert calls == []
        # The top of the range is still accepted, and a custom operator
        # keeps its own meaning of the rate.
        OnePlusLambdaES(_counting_fitness(spec), spec=spec, mutation_rate=spec.n_genes)
        OnePlusLambdaES(
            _counting_fitness(spec),
            spec=spec,
            mutation_rate=spec.n_genes + 1,
            mutation_operator=lambda genotype, rate, rng: None,
        )

    def test_accept_equal_false_keeps_parent(self, spec):
        # With a constant fitness the parent is never replaced when
        # accept_equal is disabled, so the best genotype equals the seed.
        es = OnePlusLambdaES(lambda g: 1.0, spec=spec, n_offspring=3,
                             mutation_rate=1, rng=0, accept_equal=False)
        seed = Genotype.identity(spec)
        result = es.run(n_generations=5, seed_genotype=seed)
        assert result.best.genotype == seed


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

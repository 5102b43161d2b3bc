"""Fitness evaluation against a reference image.

The fitness function of the platform is the pixel-aggregated Mean Absolute
Error computed in hardware by the fitness unit of each ACB; the EA only
reads the resulting scalar.  :class:`FitnessEvaluator` compares one
array's output against a fixed reference image, for the standalone
:class:`~repro.ea.strategy.OnePlusLambdaES`.  The platform drivers keep
their own per-array context
(:class:`~repro.core.evolution.ArrayEvalContext`), whose ``retarget``
feeds a cascaded stage the previous stage's output; Evolution by
Imitation scores against a master array's output in
:class:`~repro.core.evolution.ImitationEvolution`.

The evaluator pre-extracts the sliding-window planes once so that repeated
candidate evaluations do not pay the window-extraction cost again
(profiling showed window extraction dominating a naive per-candidate
implementation; see the hpc-parallel guide's advice to hoist invariant
work out of the hot loop), and routes every evaluation through the staged
:class:`~repro.ea.pipeline.FitnessPipeline`, so the in-process cache tier
— and, when enabled, the persistent tier — apply to the ES as they do to
the platform drivers.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.fitness_cache import PersistentFitnessCache
from repro.ea.pipeline import FitnessPipeline

__all__ = ["FitnessEvaluator"]


class FitnessEvaluator:
    """Evaluate candidates on one array against a reference image.

    Parameters
    ----------
    array:
        The (possibly faulty) systolic array to evaluate on.
    training_image:
        Image fed to the array input during evolution.
    reference_image:
        Image the hardware MAE unit compares the output against.
    fitness_cache:
        Optional persistent cross-run fitness cache: ``None`` (off), a
        directory path, or a shared
        :class:`~repro.backends.fitness_cache.PersistentFitnessCache`.
    """

    def __init__(
        self,
        array: SystolicArray,
        training_image: np.ndarray,
        reference_image: np.ndarray,
        *,
        fitness_cache: Union[None, str, os.PathLike, PersistentFitnessCache] = None,
    ) -> None:
        training_image = np.asarray(training_image)
        reference_image = np.asarray(reference_image)
        if training_image.shape != reference_image.shape:
            raise ValueError(
                "training and reference images must have the same shape, got "
                f"{training_image.shape} vs {reference_image.shape}"
            )
        self.array = array
        self.training_image = training_image
        self.reference_image = reference_image
        self._planes = extract_windows(training_image)
        self.pipeline = FitnessPipeline(array, persistent=fitness_cache)
        self.n_evaluations = 0

    @property
    def image_shape(self) -> tuple:
        """Shape of the images processed by this evaluator."""
        return self.training_image.shape

    @property
    def n_pixels(self) -> int:
        """Pixels per evaluated image (drives the evaluation-time model)."""
        return int(self.training_image.size)

    def output(self, genotype: Genotype) -> np.ndarray:
        """Return the filtered image produced by ``genotype``."""
        return self.array.process_planes(self._planes, genotype)

    def evaluate(self, genotype: Genotype) -> float:
        """Aggregated-MAE fitness of ``genotype`` (lower is better)."""
        self.n_evaluations += 1
        return self.pipeline.evaluate(self._planes, genotype, self.reference_image)

    def evaluate_population(self, genotypes) -> list:
        """Fitness of a candidate population through the staged pipeline.

        Bit-exact against calling :meth:`evaluate` per candidate (same
        values, same fault-stream consumption); see
        :meth:`repro.array.systolic_array.SystolicArray.evaluate_population`
        and :class:`~repro.ea.pipeline.FitnessPipeline`.  Suitable as the
        ``evaluate_population`` hook of
        :class:`~repro.ea.strategy.OnePlusLambdaES`.
        """
        genotypes = list(genotypes)
        self.n_evaluations += len(genotypes)
        return self.pipeline.evaluate_population(
            self._planes, genotypes, self.reference_image
        )

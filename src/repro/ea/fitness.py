"""Fitness evaluation helpers.

The fitness function of the platform is the pixel-aggregated Mean Absolute
Error computed in hardware by the fitness unit of each ACB; the EA only
reads the resulting scalar.  Two evaluators are provided:

* :class:`FitnessEvaluator` — compares the array output against a reference
  image (the ordinary evolution modes).
* :class:`ImitationFitnessEvaluator` — compares the array output against
  the *output of another array* processing the same stream (the paper's
  Evolution by Imitation, §IV.B / Fig. 7), which requires no reference
  image at all.

Both pre-extract the sliding-window planes once so that repeated candidate
evaluations do not pay the window-extraction cost again (profiling showed
window extraction dominating a naive per-candidate implementation; see the
hpc-parallel guide's advice to hoist invariant work out of the hot loop),
and both route every evaluation through the staged
:class:`~repro.ea.pipeline.FitnessPipeline`, so the in-process cache tier
— and, when enabled, the persistent tier — apply uniformly to the ES
and to the platform drivers built on top.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.array.window import extract_windows
from repro.backends.fitness_cache import PersistentFitnessCache
from repro.ea.pipeline import FitnessPipeline

__all__ = ["FitnessEvaluator", "ImitationFitnessEvaluator"]


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

    def retarget(self, training_image: Optional[np.ndarray] = None,
                 reference_image: Optional[np.ndarray] = None) -> None:
        """Change the training and/or reference image in place.

        Used by cascaded evolution, where the training image of stage *i+1*
        is the output of the already-evolved stage *i*.
        """
        if training_image is not None:
            training_image = np.asarray(training_image)
            self.training_image = training_image
            self._planes = extract_windows(training_image)
        if reference_image is not None:
            reference_image = np.asarray(reference_image)
            self.reference_image = reference_image
        if self.training_image.shape != self.reference_image.shape:
            raise ValueError("training and reference images must keep the same shape")
        self.pipeline.invalidate()


class ImitationFitnessEvaluator(FitnessEvaluator):
    """Fitness against the output of a *master* array (Evolution by Imitation).

    The apprentice array is evolved so that the MAE between its output and
    the master's output tends to zero; no reference image is needed, which
    is what makes imitation usable when "the reference image ... might have
    disappeared, damaged, or erased" (paper §IV.B).

    Parameters
    ----------
    apprentice:
        The (typically faulty) array being re-evolved.
    master_array:
        A healthy neighbouring array.
    master_genotype:
        The circuit currently configured on the master.
    input_image:
        The image both arrays are processing (the live data stream).
    """

    def __init__(
        self,
        apprentice: SystolicArray,
        master_array: SystolicArray,
        master_genotype: Genotype,
        input_image: np.ndarray,
    ) -> None:
        master_output = master_array.process(input_image, master_genotype)
        super().__init__(apprentice, training_image=input_image, reference_image=master_output)
        self.master_array = master_array
        self.master_genotype = master_genotype

    def refresh_master(self, input_image: Optional[np.ndarray] = None,
                       master_genotype: Optional[Genotype] = None) -> None:
        """Recompute the master's output (new frame and/or new master circuit)."""
        if master_genotype is not None:
            self.master_genotype = master_genotype
        if input_image is not None:
            self.training_image = np.asarray(input_image)
            self._planes = extract_windows(self.training_image)
        self.reference_image = self.master_array.process(
            self.training_image, self.master_genotype
        )
        self.pipeline.invalidate()

"""The :class:`EvolutionSession` façade — one entry point for every consumer.

A session binds a platform (described declaratively or passed in as an
existing object) to an evolution strategy selected by name, and exposes a
single ``evolve(task) -> RunArtifact`` call that bundles results, timing
model, resource report and config provenance into one serialisable
artifact::

    from repro.api import EvolutionSession, EvolutionConfig, PlatformConfig, TaskSpec

    session = EvolutionSession(
        PlatformConfig(n_arrays=3, seed=1),
        EvolutionConfig(strategy="parallel", n_generations=500, seed=1),
    )
    artifact = session.evolve(TaskSpec(task="salt_pepper_denoise", image_side=64))
    print(artifact.results["overall_best_fitness"])
    artifact.save("run.json")

Sessions are deterministic: the same configs produce byte-identical
results to driving the legacy :mod:`repro.core.evolution` classes by
hand with the same seeds.  Every driver runs one generation step — the
whole offspring population is drawn, placed and scored together — and
the golden trajectories in ``tests/core/test_golden_trajectories.py``
pin its results, per-position fault-RNG streams included, on every
backend.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.api.artifact import RunArtifact
from repro.api.config import EvolutionConfig, PlatformConfig, SelfHealingConfig, TaskSpec
from repro.api.registry import DRIVERS
from repro.core.evolution import PlatformEvolutionResult
from repro.core.platform import EvolvableHardwarePlatform
from repro.imaging.images import ImagePair

__all__ = ["EvolutionSession"]

TaskLike = Union[TaskSpec, ImagePair, Tuple[np.ndarray, np.ndarray]]


class EvolutionSession:
    """Declarative façade over the platform and its evolution drivers.

    Parameters
    ----------
    platform:
        A :class:`~repro.api.config.PlatformConfig` (built lazily on first
        use) or an existing
        :class:`~repro.core.platform.EvolvableHardwarePlatform` to operate
        on.  Defaults to the paper's three-array platform.
    evolution:
        The default :class:`~repro.api.config.EvolutionConfig` used by
        :meth:`evolve` (a per-call override is accepted).

    Examples
    --------
    A complete (tiny) run; results are deterministic in the seeds and
    independent of the evaluation backend:

    >>> from repro.api import EvolutionConfig, EvolutionSession, PlatformConfig, TaskSpec
    >>> session = EvolutionSession(
    ...     PlatformConfig(n_arrays=2, seed=1, backend="numpy"),
    ...     EvolutionConfig(strategy="parallel", n_generations=3, seed=1),
    ... )
    >>> artifact = session.evolve(TaskSpec(task="identity", image_side=8, seed=1))
    >>> artifact.kind
    'evolution-run'
    >>> artifact.results["overall_best_fitness"] < float("inf")
    True
    >>> artifact.config["platform"]["backend"]
    'numpy'
    """

    def __init__(
        self,
        platform: Union[PlatformConfig, EvolvableHardwarePlatform, None] = None,
        evolution: Optional[EvolutionConfig] = None,
    ) -> None:
        if platform is None:
            platform = PlatformConfig()
        if isinstance(platform, EvolvableHardwarePlatform):
            self.platform_config: Optional[PlatformConfig] = None
            self._platform: Optional[EvolvableHardwarePlatform] = platform
        elif isinstance(platform, PlatformConfig):
            self.platform_config = platform
            self._platform = None
        else:
            raise TypeError(
                "platform must be a PlatformConfig or an EvolvableHardwarePlatform, "
                f"got {type(platform)!r}"
            )
        self.evolution = evolution if evolution is not None else EvolutionConfig()
        if not isinstance(self.evolution, EvolutionConfig):
            raise TypeError(f"evolution must be an EvolutionConfig, got {type(evolution)!r}")

    # ------------------------------------------------------------------ #
    @property
    def platform(self) -> EvolvableHardwarePlatform:
        """The underlying platform (built from the config on first access)."""
        if self._platform is None:
            self._platform = self.platform_config.build()
        return self._platform

    def resolve_task(self, task: TaskLike) -> ImagePair:
        """Normalise any accepted task form into an :class:`ImagePair`."""
        if isinstance(task, TaskSpec):
            return task.build()
        if isinstance(task, ImagePair):
            return task
        if isinstance(task, tuple) and len(task) == 2:
            training = np.asarray(task[0])
            reference = np.asarray(task[1])
            return ImagePair(training=training, reference=reference, name="inline")
        raise TypeError(
            "task must be a TaskSpec, an ImagePair or a (training, reference) "
            f"tuple, got {type(task)!r}"
        )

    # ------------------------------------------------------------------ #
    def evolve(
        self,
        task: TaskLike,
        evolution: Optional[EvolutionConfig] = None,
        **runtime: Any,
    ) -> RunArtifact:
        """Run the configured evolution strategy on ``task``.

        Parameters
        ----------
        task:
            A declarative :class:`TaskSpec`, a prebuilt
            :class:`~repro.imaging.images.ImagePair`, or a raw
            ``(training, reference)`` tuple.
        evolution:
            Optional per-call override of the session's evolution config.
        **runtime:
            Strategy-specific, non-serialisable inputs forwarded to the
            driver (``seed_genotype``/``seed_genotypes``, ``tasks``,
            ``apprentice``/``master``, ``seed_from_master``, ...).

        Returns
        -------
        RunArtifact
            Serialisable bundle of results, timing, resources and config
            provenance; the in-memory
            :class:`~repro.core.evolution.PlatformEvolutionResult` is
            attached as ``artifact.raw``.
        """
        config = evolution if evolution is not None else self.evolution
        entry = DRIVERS.get(config.strategy)
        strategy = entry() if isinstance(entry, type) else entry
        accepted = getattr(strategy, "runtime_keys", None)
        if accepted is not None:
            unknown = set(runtime) - set(accepted)
            if unknown:
                raise TypeError(
                    f"strategy {config.strategy!r} does not accept runtime "
                    f"option(s): {', '.join(sorted(unknown))}; accepted: "
                    f"{', '.join(sorted(accepted)) or '(none)'}"
                )
        accepted_options = getattr(strategy, "option_keys", None)
        if accepted_options is not None:
            unknown = set(config.options) - set(accepted_options)
            if unknown:
                raise ValueError(
                    f"strategy {config.strategy!r} does not accept config "
                    f"option(s): {', '.join(sorted(unknown))}; accepted: "
                    f"{', '.join(sorted(accepted_options)) or '(none)'}"
                )
        pair = self.resolve_task(task)

        platform = self.platform
        driver = strategy.build(platform, config)
        result = strategy.run(driver, pair, config, **runtime)
        return self._wrap(result, config, task, pair)

    def heal(
        self,
        healing: SelfHealingConfig,
        calibration_image: np.ndarray,
        calibration_reference: np.ndarray,
    ):
        """Build the configured self-healing strategy bound to this platform."""
        return healing.build(self.platform, calibration_image, calibration_reference)

    # ------------------------------------------------------------------ #
    def _wrap(
        self,
        result: PlatformEvolutionResult,
        config: EvolutionConfig,
        task: TaskLike,
        pair: ImagePair,
    ) -> RunArtifact:
        platform = self.platform
        timing_model = platform.timing_model()
        report = platform.resource_report()
        artifact = RunArtifact(
            kind="evolution-run",
            config={
                "platform": (
                    self.platform_config.to_dict()
                    if self.platform_config is not None
                    else {"n_arrays": platform.n_arrays, "external": True}
                ),
                "evolution": config.to_dict(),
                "task": task.to_dict() if isinstance(task, TaskSpec) else {"name": pair.name},
            },
            results={
                "best_fitness": {
                    str(index): value for index, value in sorted(result.best_fitness.items())
                },
                "overall_best_fitness": result.overall_best_fitness(),
                "fitness_history": {
                    str(index): list(history)
                    for index, history in sorted(result.fitness_history.items())
                },
                "best_genotypes": {
                    str(index): genotype.to_flat().tolist()
                    for index, genotype in sorted(result.best_genotypes.items())
                },
                "n_generations": result.n_generations,
                "n_evaluations": result.n_evaluations,
                "n_reconfigurations": result.n_reconfigurations,
                **(
                    {
                        "scenario": {
                            "spec": (
                                config.scenario
                                if isinstance(config.scenario, str)
                                else dict(config.scenario)
                            ),
                            "n_events": len(result.scenario_events),
                            "events": list(result.scenario_events),
                        }
                    }
                    if config.scenario is not None
                    else {}
                ),
            },
            timing={
                "platform_time_s": result.platform_time_s,
                "pe_reconfiguration_time_s": timing_model.pe_reconfiguration_time_s,
                "pixel_clock_hz": timing_model.pixel_clock_hz,
                "array_latency_cycles": timing_model.array_latency_cycles,
            },
            resources={
                "n_arrays": report.n_arrays,
                "total_slices": report.total_slices,
                "total_ffs": report.total_ffs,
                "total_luts": report.total_luts,
                "array_clbs": report.array_clbs,
                "pe_reconfiguration_time_us": report.pe_reconfiguration_time_us,
                "slice_utilisation": report.slice_utilisation,
            },
            raw=result,
        )
        return artifact

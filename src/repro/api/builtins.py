"""Built-in registry entries: the paper's strategies, registered by name.

This module wires the four §IV.B evolution drivers (plus the §VI.B
two-level EA), the two §V self-healing strategies and the synthetic
imaging tasks into :mod:`repro.api.registry`, giving every consumer —
the :class:`~repro.api.session.EvolutionSession` façade, the CLI, config
files — one string-keyed way to select them.  Third-party workloads
register themselves the same way with ``@register(...)``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.api.config import EvolutionConfig, SelfHealingConfig, TaskSpec
from repro.api.registry import register
from repro.core.evolution import (
    CascadedEvolution,
    EvolutionDriver,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
    PlatformEvolutionResult,
)
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.self_healing import CascadedSelfHealing, TmrSelfHealing
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.imaging.images import ImagePair, make_training_pair

__all__ = ["EvolutionStrategy"]


# --------------------------------------------------------------------------- #
# Evolution drivers
# --------------------------------------------------------------------------- #
class EvolutionStrategy:
    """Adapter between a declarative :class:`EvolutionConfig` and a driver class.

    Registered driver entries subclass this: :meth:`build` instantiates the
    legacy driver from the config, and :meth:`run` maps the uniform
    ``evolve(task)`` call onto the driver's native ``run`` signature.
    ``runtime`` carries non-serialisable per-call inputs (seed genotypes,
    apprentice/master indices) that do not belong in a config;
    ``runtime_keys`` names the keys a strategy consumes, so the session can
    reject typos and options left over from a different strategy instead of
    silently ignoring them.
    """

    factory = EvolutionDriver
    #: Runtime keyword arguments this strategy consumes in :meth:`run`.
    runtime_keys: frozenset = frozenset()
    #: ``EvolutionConfig.options`` keys this strategy consumes.
    option_keys: frozenset = frozenset()

    def _ea_kwargs(self, config: EvolutionConfig) -> Dict[str, Any]:
        return dict(
            n_offspring=config.n_offspring,
            mutation_rate=config.mutation_rate,
            rng=config.seed,
            accept_equal=config.accept_equal,
            fitness_cache=config.fitness_cache,
            scenario=config.scenario,
        )

    def build(self, platform, config: EvolutionConfig) -> EvolutionDriver:
        return self.factory(platform, **self._ea_kwargs(config))

    def run(
        self,
        driver: EvolutionDriver,
        task: ImagePair,
        config: EvolutionConfig,
        **runtime: Any,
    ) -> PlatformEvolutionResult:
        raise NotImplementedError


@register("driver", "parallel")
class ParallelStrategy(EvolutionStrategy):
    """Parallel evolution (§IV.B, Fig. 5): one task, offspring spread over arrays."""

    factory = ParallelEvolution
    runtime_keys = frozenset({"seed_genotype"})
    option_keys = frozenset({"n_arrays"})

    def build(self, platform, config: EvolutionConfig) -> EvolutionDriver:
        kwargs = self._ea_kwargs(config)
        if "n_arrays" in config.options:
            kwargs["n_arrays"] = int(config.options["n_arrays"])
        return self.factory(platform, **kwargs)

    def run(self, driver, task, config, **runtime):
        return driver.run(
            task.training,
            task.reference,
            n_generations=config.n_generations,
            seed_genotype=runtime.get("seed_genotype"),
            target_fitness=config.target_fitness,
        )


@register("driver", "two_level")
class TwoLevelStrategy(ParallelStrategy):
    """The paper's new two-level-mutation EA (§VI.B, Figs. 14-15)."""

    factory = TwoLevelMutationEvolution
    option_keys = frozenset({"n_arrays", "low_mutation_rate"})

    def build(self, platform, config: EvolutionConfig) -> EvolutionDriver:
        kwargs = self._ea_kwargs(config)
        if "n_arrays" in config.options:
            kwargs["n_arrays"] = int(config.options["n_arrays"])
        if "low_mutation_rate" in config.options:
            kwargs["low_mutation_rate"] = int(config.options["low_mutation_rate"])
        return self.factory(platform, **kwargs)


@register("driver", "independent")
class IndependentStrategy(EvolutionStrategy):
    """Independent evolution (§IV.B): each array evolves its own task sequentially.

    ``runtime["tasks"]`` may supply ``{array_index: (training, reference)}``;
    without it, every array is evolved on the session task.
    """

    factory = IndependentEvolution
    runtime_keys = frozenset({"tasks", "seed_genotypes"})

    def run(self, driver, task, config, **runtime):
        tasks = runtime.get("tasks")
        if tasks is None:
            tasks = {
                index: (task.training, task.reference)
                for index in range(driver.platform.n_arrays)
            }
        return driver.run(
            tasks=tasks,
            n_generations=config.n_generations,
            seed_genotypes=runtime.get("seed_genotypes"),
            target_fitness=config.target_fitness,
        )


@register("driver", "cascaded")
class CascadedStrategy(EvolutionStrategy):
    """Cascaded evolution (§IV.B, Fig. 6).

    Options: ``fitness_mode`` (``separate``/``merged``), ``schedule``
    (``sequential``/``interleaved``) and ``n_stages``.
    """

    factory = CascadedEvolution
    runtime_keys = frozenset({"seed_genotypes"})
    option_keys = frozenset({"fitness_mode", "schedule", "n_stages"})

    def build(self, platform, config: EvolutionConfig) -> EvolutionDriver:
        kwargs = self._ea_kwargs(config)
        if "fitness_mode" in config.options:
            kwargs["fitness_mode"] = CascadeFitnessMode(config.options["fitness_mode"])
        if "schedule" in config.options:
            kwargs["schedule"] = CascadeSchedule(config.options["schedule"])
        return self.factory(platform, **kwargs)

    def run(self, driver, task, config, **runtime):
        n_stages = config.options.get("n_stages")
        return driver.run(
            task.training,
            task.reference,
            n_generations=config.n_generations,
            n_stages=None if n_stages is None else int(n_stages),
            seed_genotypes=runtime.get("seed_genotypes"),
            target_fitness=config.target_fitness,
        )


@register("driver", "imitation")
class ImitationStrategy(EvolutionStrategy):
    """Evolution by imitation (§IV.B, Fig. 7).

    Requires ``apprentice`` and ``master`` array indices (in
    ``config.options`` or as runtime keywords); the session task's training
    image is the live input stream both arrays observe.
    """

    factory = ImitationEvolution
    runtime_keys = frozenset(
        {"apprentice", "master", "input_image", "seed_genotype", "seed_from_master"}
    )
    option_keys = frozenset({"apprentice", "master", "seed_from_master"})

    def run(self, driver, task, config, **runtime):
        def pick(key: str) -> Optional[int]:
            value = runtime.get(key, config.options.get(key))
            return None if value is None else int(value)

        apprentice = pick("apprentice")
        master = pick("master")
        if apprentice is None or master is None:
            raise ValueError(
                "imitation evolution needs 'apprentice' and 'master' array "
                "indices (pass them in EvolutionConfig.options or as "
                "session.evolve keywords)"
            )
        return driver.run(
            apprentice_index=apprentice,
            master_index=master,
            input_image=runtime.get("input_image", task.training),
            n_generations=config.n_generations,
            seed_genotype=runtime.get("seed_genotype"),
            seed_from_master=bool(
                runtime.get("seed_from_master", config.options.get("seed_from_master", True))
            ),
            target_fitness=config.target_fitness,
        )


# --------------------------------------------------------------------------- #
# Self-healing strategies
# --------------------------------------------------------------------------- #
@register("self_healing", "cascaded")
def build_cascaded_self_healing(
    platform, config: SelfHealingConfig, calibration_image, calibration_reference
) -> CascadedSelfHealing:
    """Cascaded-mode self-healing (§V.A): calibration, scrub, bypass, re-evolve."""
    return CascadedSelfHealing(
        platform,
        calibration_image=calibration_image,
        calibration_reference=calibration_reference,
        tolerance=config.tolerance,
        imitation_generations=config.imitation_generations,
        imitation_target_fitness=config.imitation_target_fitness,
        reference_image_key=config.reference_image_key,
        n_offspring=config.n_offspring,
        mutation_rate=config.mutation_rate,
        rng=config.seed,
    )


@register("self_healing", "tmr")
def build_tmr_self_healing(
    platform, config: SelfHealingConfig, calibration_image, calibration_reference
) -> TmrSelfHealing:
    """TMR-mode self-healing (§V.B): vote, scrub, classify, imitate."""
    return TmrSelfHealing(
        platform,
        pattern_image=calibration_image,
        pattern_reference=calibration_reference,
        imitation_generations=config.imitation_generations,
        imitation_target_fitness=(
            100.0
            if config.imitation_target_fitness is None
            else config.imitation_target_fitness
        ),
        paste_threshold=config.paste_threshold,
        n_offspring=config.n_offspring,
        mutation_rate=config.mutation_rate,
        rng=config.seed,
    )


# --------------------------------------------------------------------------- #
# Imaging tasks
# --------------------------------------------------------------------------- #
def _make_task_builder(name: str):
    def build_task(spec: TaskSpec) -> ImagePair:
        return make_training_pair(
            name,
            size=spec.image_side,
            seed=spec.seed,
            noise_level=spec.noise_level,
            image_kind=spec.image_kind,
        )

    build_task.__name__ = f"build_{name}_task"
    build_task.__doc__ = f"Build the {name!r} training pair from a TaskSpec."
    return build_task


for _task_name in (
    "salt_pepper_denoise",
    "gaussian_denoise",
    "edge_detect",
    "smoothing",
    "identity",
):
    register("task", _task_name, _make_task_builder(_task_name))

"""Strategy registry: lookup, decorator registration, error reporting."""

import pytest

import repro.api  # noqa: F401  (ensures built-ins are registered)
from repro.api.registry import (
    DRIVERS,
    EXPERIMENTS,
    SELF_HEALERS,
    TASKS,
    Registry,
    UnknownStrategyError,
    get_registry,
    register,
)


class TestBuiltinEntries:
    def test_four_paper_drivers_plus_two_level(self):
        assert {"parallel", "independent", "cascaded", "imitation", "two_level"} \
            <= set(DRIVERS.names())

    def test_self_healing_strategies(self):
        assert {"cascaded", "tmr"} <= set(SELF_HEALERS.names())

    def test_imaging_tasks(self):
        assert {"salt_pepper_denoise", "gaussian_denoise", "edge_detect",
                "smoothing", "identity"} <= set(TASKS.names())

    def test_experiments_cover_the_cli(self):
        import repro.experiments  # noqa: F401  (registers the specs)

        assert {"resources", "speedup", "new-ea", "cascade-quality",
                "cascade-demo", "imitation", "tmr-recovery", "fault-sweep"} \
            <= set(EXPERIMENTS.names())


class TestLookup:
    def test_get_returns_registered_object(self):
        entry = DRIVERS.get("parallel")
        assert entry is not None

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            DRIVERS.get("definitely-not-a-driver")
        message = str(excinfo.value)
        assert "definitely-not-a-driver" in message
        assert "parallel" in message  # available names are listed

    def test_empty_registry_says_none_registered(self):
        with pytest.raises(UnknownStrategyError, match=r"available: \(none registered\)"):
            Registry("test thing").get("anything")

    def test_subclass_error_attribute_narrows_the_lookup_error(self):
        class UnknownThingError(UnknownStrategyError):
            pass

        class ThingRegistry(Registry):
            error = UnknownThingError

        registry = ThingRegistry("thing")
        registry.register("known", 1)
        with pytest.raises(UnknownThingError) as excinfo:
            registry.get("unknown")
        assert (excinfo.value.kind, excinfo.value.name) == ("thing", "unknown")
        assert excinfo.value.available == ["known"]
        with pytest.raises(UnknownStrategyError) as plain:
            Registry("thing").get("unknown")
        assert type(plain.value) is UnknownStrategyError

    def test_unknown_registry_kind(self):
        with pytest.raises(UnknownStrategyError):
            get_registry("nonsense")

    def test_contains_and_len(self):
        assert "parallel" in DRIVERS
        assert "nope" not in DRIVERS
        assert len(DRIVERS) >= 5


class TestRegistration:
    def test_decorator_registration(self):
        registry = Registry("test thing")

        @registry.register("mine")
        def build():
            return 42

        assert registry.get("mine") is build
        assert registry.names() == ["mine"]

    def test_direct_registration(self):
        registry = Registry("test thing")
        registry.register("a", 1)
        assert registry.get("a") == 1

    def test_duplicate_name_rejected(self):
        registry = Registry("test thing")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, replace=True)
        assert registry.get("a") == 2

    def test_bad_name_rejected(self):
        registry = Registry("test thing")
        with pytest.raises(ValueError):
            registry.register("", 1)
        with pytest.raises(ValueError):
            registry.register(None, 1)

    def test_global_register_helper_and_unregister(self):
        token = object()
        register("task", "pytest-temporary-task", token)
        try:
            assert TASKS.get("pytest-temporary-task") is token
        finally:
            TASKS.unregister("pytest-temporary-task")
        assert "pytest-temporary-task" not in TASKS


class TestPluginTask:
    def test_registered_task_usable_from_taskspec(self):
        from repro.api.config import TaskSpec
        from repro.imaging.images import ImagePair, make_test_image

        @register("task", "pytest-flat-task")
        def build_flat(spec):
            image = make_test_image(size=spec.image_side, seed=spec.seed)
            return ImagePair(training=image, reference=image.copy(), name="flat")

        try:
            pair = TaskSpec(task="pytest-flat-task", image_side=16, seed=4).build()
            assert pair.name == "flat"
            assert pair.training.shape == (16, 16)
        finally:
            TASKS.unregister("pytest-flat-task")

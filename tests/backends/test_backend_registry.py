"""Backend registry behaviour and backend selection plumbing."""

import numpy as np
import pytest

from repro.api.config import PlatformConfig
from repro.api.registry import Registry, UnknownStrategyError
from repro.array.systolic_array import SystolicArray
from repro.backends import (
    BACKENDS,
    EvaluationBackend,
    NumpyBackend,
    ReferenceBackend,
    UnknownBackendError,
    register_backend,
    resolve_backend,
)
from repro.core.platform import EvolvableHardwarePlatform


class TestRegistry:
    def test_builtins_registered(self):
        assert "reference" in BACKENDS
        assert "numpy" in BACKENDS
        assert "compiled" in BACKENDS
        assert set(BACKENDS.names()) >= {"reference", "numpy", "compiled"}

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(UnknownBackendError, match="reference"):
            BACKENDS.get("no-such-engine")
        error = None
        try:
            BACKENDS.get("no-such-engine")
        except UnknownBackendError as exc:
            error = exc
        assert error.name == "no-such-engine"
        assert "numpy" in error.available

    def test_backend_registry_is_a_strategy_registry(self):
        assert isinstance(BACKENDS, Registry)
        assert BACKENDS.kind == "evaluation backend"

    def test_unknown_backend_is_an_unknown_strategy_error(self):
        assert issubclass(UnknownBackendError, UnknownStrategyError)
        with pytest.raises(UnknownStrategyError) as excinfo:
            BACKENDS.get("no-such-engine")
        assert type(excinfo.value) is UnknownBackendError
        assert excinfo.value.kind == "evaluation backend"
        assert str(excinfo.value).startswith(
            "unknown evaluation backend 'no-such-engine'; available: "
        )
        assert excinfo.value.available == sorted(BACKENDS.names())

    def test_empty_backend_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("", ReferenceBackend)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", ReferenceBackend)

    def test_register_replace_and_unregister(self):
        class Custom(ReferenceBackend):
            name = "custom-test"

        try:
            register_backend("custom-test", Custom)
            assert "custom-test" in BACKENDS
            register_backend("custom-test", Custom, replace=True)
        finally:
            BACKENDS.unregister("custom-test")
        assert "custom-test" not in BACKENDS

    def test_register_as_decorator(self):
        try:

            @register_backend("decorated-test")
            class Decorated(ReferenceBackend):
                name = "decorated-test"

            assert BACKENDS.get("decorated-test") is Decorated
        finally:
            BACKENDS.unregister("decorated-test")


class TestResolve:
    def test_none_is_reference(self):
        assert resolve_backend(None).name == "reference"

    def test_by_name(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert isinstance(resolve_backend("reference"), ReferenceBackend)
        # "compiled" names the numpy engine so stored configs still load.
        assert isinstance(resolve_backend("compiled"), NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_class_is_instantiated(self):
        assert isinstance(resolve_backend(NumpyBackend), NumpyBackend)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            resolve_backend(42)
        with pytest.raises(UnknownBackendError):
            resolve_backend("bogus")


class TestWiring:
    def test_array_backend_selection(self):
        array = SystolicArray(backend="numpy")
        assert array.backend_name == "numpy"
        assert isinstance(array.backend, EvaluationBackend)
        array.set_backend("reference")
        assert array.backend_name == "reference"

    def test_array_default_is_reference(self):
        assert SystolicArray().backend_name == "reference"

    def test_platform_propagates_backend(self):
        platform = EvolvableHardwarePlatform(n_arrays=2, backend="numpy")
        assert platform.backend_name == "numpy"
        for acb in platform.acbs:
            assert acb.array.backend_name == "numpy"

    def test_platform_shares_explicit_instance(self):
        backend = NumpyBackend()
        platform = EvolvableHardwarePlatform(n_arrays=2, backend=backend)
        assert platform.acbs[0].array.backend is backend
        assert platform.acbs[1].array.backend is backend

    def test_platform_name_gives_per_array_instances(self):
        platform = EvolvableHardwarePlatform(n_arrays=2, backend="numpy")
        assert platform.acbs[0].array.backend is not platform.acbs[1].array.backend

    def test_platform_config_roundtrip_and_build(self):
        config = PlatformConfig(n_arrays=2, backend="numpy")
        assert PlatformConfig.from_dict(config.to_dict()) == config
        assert config.build().backend_name == "numpy"

    def test_stored_compiled_config_loads_and_builds_numpy(self):
        stored = PlatformConfig(n_arrays=2).to_dict()
        stored["backend"] = "compiled"
        config = PlatformConfig.from_dict(stored)
        assert config.backend == "compiled"
        assert config.to_dict() == stored
        platform = config.build()
        assert all(isinstance(acb.array.backend, NumpyBackend) for acb in platform.acbs)

    def test_platform_config_rejects_unknown_backend(self):
        with pytest.raises(UnknownBackendError, match="available"):
            PlatformConfig(backend="bogus")

    def test_platform_config_default_reference(self):
        assert PlatformConfig().backend == "reference"
        assert PlatformConfig().build().backend_name == "reference"


class TestNumpyCache:
    def test_clear_cache(self):
        backend = NumpyBackend()
        array = SystolicArray(backend=backend)
        from repro.array.genotype import Genotype
        from repro.array.window import extract_windows

        image = np.arange(144, dtype=np.uint8).reshape(12, 12)
        planes = extract_windows(image)
        array.process_planes(planes, Genotype.random(rng=1))
        assert len(backend._stores) == 1
        backend.clear_cache()
        assert len(backend._stores) == 0

    def test_bad_budgets_rejected(self):
        with pytest.raises(ValueError):
            NumpyBackend(max_cache_bytes=0)
        with pytest.raises(ValueError):
            NumpyBackend(max_stores=0)


class TestExtensionPoint:
    def test_process_planes_alone_gives_bit_exact_population_fitness(self):
        """A backend implementing only ``process_planes`` scores populations
        through the base default, bit-exact on a faulty array."""
        from repro.array.genotype import Genotype
        from repro.array.window import extract_windows
        from repro.imaging.metrics import sae

        class PlanesOnly(EvaluationBackend):
            name = "planes-only"

            def process_planes(self, array, planes, genotype):
                return ReferenceBackend().process_planes(array, planes, genotype)

        assert "evaluate_population" not in vars(PlanesOnly)
        rng = np.random.default_rng(41)
        planes = extract_windows(rng.integers(0, 256, size=(14, 14), dtype=np.uint8))
        target = rng.integers(0, 256, size=(14, 14), dtype=np.uint8)
        genotypes = [Genotype.random(rng=rng) for _ in range(7)]

        def build(backend):
            array = SystolicArray(backend=backend)
            array.inject_fault((1, 0), seed=5)
            array.inject_fault((3, 2), seed=6)
            return array

        plugin, oracle, numpy_array = build(PlanesOnly()), build("reference"), build("numpy")
        for _ in range(2):  # a second round checks the streams stayed aligned
            fits = plugin.evaluate_population(planes, genotypes, target)
            expected = [sae(oracle.process_planes(planes, g), target) for g in genotypes]
            assert fits.dtype == np.float64
            assert fits.tolist() == expected
            assert np.array_equal(fits, numpy_array.evaluate_population(planes, genotypes, target))

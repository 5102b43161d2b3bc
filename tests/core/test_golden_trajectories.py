"""Golden evolution trajectories, pinned as SHA-256 digests.

Every evolution mode is run for fixed seeds — healthy and with permanent
faults — and the observable outcome of the run is reduced to one digest:
best fitness, per-generation fitness history, best genotypes,
reconfiguration count, modelled platform time and applied scenario
events.  The digests were recorded on the ``reference`` backend; every
case must reproduce the same digest on every evaluation backend, so a
change to the generation step, the mutation stream, placement
accounting, fault-draw order or a backend kernel that alters any
trajectory fails here.
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from repro.array.genotype import Genotype
from repro.array.systolic_array import SystolicArray
from repro.core.evolution import (
    CascadedEvolution,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
)
from repro.core.modes import CascadeFitnessMode, CascadeSchedule
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.ea.fitness import FitnessEvaluator
from repro.ea.strategy import OnePlusLambdaES
from repro.imaging.images import make_training_pair

BACKENDS = ("reference", "numpy", "compiled")
N_GENERATIONS = 15
RNG = 11


def make_platform(backend: str, faults: str) -> EvolvableHardwarePlatform:
    platform = EvolvableHardwarePlatform(n_arrays=3, seed=5, backend=backend)
    if faults == "faulty":
        platform.inject_permanent_fault(0, 1, 1)
        platform.inject_permanent_fault(1, 2, 0)
    return platform


def pair():
    return make_training_pair("salt_pepper_denoise", size=24, seed=7, noise_level=0.1)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of the trajectory-defining fields of a platform run."""
    return digest(
        {
            "best_fitness": {str(k): v for k, v in result.best_fitness.items()},
            "fitness_history": {str(k): v for k, v in result.fitness_history.items()},
            "best_genotypes": {
                str(k): g.to_flat().tolist() for k, g in result.best_genotypes.items()
            },
            "n_reconfigurations": result.n_reconfigurations,
            "platform_time_s": result.platform_time_s,
            "scenario_events": result.scenario_events,
        }
    )


def _driver(cls, backend, faults, **kwargs):
    return cls(
        make_platform(backend, faults), n_offspring=9, mutation_rate=3, rng=RNG, **kwargs
    )


def parallel(backend, faults, cls=ParallelEvolution, **kwargs):
    data = pair()
    driver = _driver(cls, backend, faults, **kwargs)
    return result_digest(driver.run(data.training, data.reference, N_GENERATIONS))


def independent(backend, faults):
    data = pair()
    tasks = {index: (data.training, data.reference) for index in range(3)}
    driver = _driver(IndependentEvolution, backend, faults)
    return result_digest(driver.run(tasks, N_GENERATIONS))


def cascaded(backend, faults, fitness_mode, schedule):
    data = pair()
    driver = _driver(
        CascadedEvolution, backend, faults, fitness_mode=fitness_mode, schedule=schedule
    )
    return result_digest(driver.run(data.training, data.reference, N_GENERATIONS))


def imitation(backend, faults):
    data = pair()
    platform = make_platform(backend, faults)
    platform.configure_array(1, Genotype.random(platform.spec, np.random.default_rng(21)))
    driver = ImitationEvolution(platform, n_offspring=9, mutation_rate=3, rng=RNG)
    return result_digest(driver.run(0, 1, data.training, N_GENERATIONS))


def one_plus_lambda(backend):
    """A (1+lambda) ES run on a faulty single array."""
    data = pair()
    array = SystolicArray(backend=backend)
    array.inject_fault((1, 1), seed=77)
    evaluator = FitnessEvaluator(array, data.training, data.reference)
    es = OnePlusLambdaES(evaluator.evaluate, n_offspring=9, mutation_rate=3, rng=RNG)
    result = es.run(n_generations=N_GENERATIONS)
    return digest(
        {
            "best_fitness": result.best.fitness,
            "best_genotype": result.best.genotype.to_flat().tolist(),
            "history": [
                [r.best_fitness, r.parent_fitness, r.n_reconfigurations, r.accepted]
                for r in result.history
            ],
            "n_evaluations": result.n_evaluations,
            "n_reconfigurations": result.n_reconfigurations,
        }
    )


def _cases():
    cases = {}
    for faults in ("healthy", "faulty"):
        cases[f"parallel-{faults}"] = partial(parallel, faults=faults)
        cases[f"two-level-{faults}"] = partial(
            parallel, faults=faults, cls=TwoLevelMutationEvolution
        )
        cases[f"independent-{faults}"] = partial(independent, faults=faults)
        for mode in CascadeFitnessMode:
            for schedule in CascadeSchedule:
                cases[f"cascaded-{mode.value}-{schedule.value}-{faults}"] = partial(
                    cascaded, faults=faults, fitness_mode=mode, schedule=schedule
                )
        cases[f"imitation-{faults}"] = partial(imitation, faults=faults)
    cases["parallel-mixed-burst"] = partial(parallel, faults="healthy", scenario="mixed-burst")
    cases["one-plus-lambda-es"] = one_plus_lambda
    return cases


CASES = _cases()

#: Case name -> SHA-256 digest of its trajectory, recorded on ``reference``.
GOLDEN = dict(
    line.split()
    for line in """
cascaded-merged-interleaved-faulty 4ee2e32dca6173d4ed214941436a34bc2379b19251079e824c0c3e4bb81b1e50
cascaded-merged-interleaved-healthy 2f31c4ae588d6a0e5e59c3d67bedf8bdf3386b993e85ce4319a7188a60f4bdf3
cascaded-merged-sequential-faulty 092dcc34c3dfd3df7882c00d078ccc7d84ffbdb9d2995a685dbe0ce26fde84bb
cascaded-merged-sequential-healthy 092dcc34c3dfd3df7882c00d078ccc7d84ffbdb9d2995a685dbe0ce26fde84bb
cascaded-separate-interleaved-faulty 4ee2e32dca6173d4ed214941436a34bc2379b19251079e824c0c3e4bb81b1e50
cascaded-separate-interleaved-healthy 2f31c4ae588d6a0e5e59c3d67bedf8bdf3386b993e85ce4319a7188a60f4bdf3
cascaded-separate-sequential-faulty 092dcc34c3dfd3df7882c00d078ccc7d84ffbdb9d2995a685dbe0ce26fde84bb
cascaded-separate-sequential-healthy 092dcc34c3dfd3df7882c00d078ccc7d84ffbdb9d2995a685dbe0ce26fde84bb
imitation-faulty 0301c5a1c52a0f7ae124dcce7bfa85883ba65b349234851e662d81927173dcdb
imitation-healthy fd447d250976cb04ff6f5c68d79eb26d57627b30478dfe266afc034314882168
independent-faulty 3a4d8d0bb48abb61615919e1e4cbe3a43bd2945b2f996ce26ae617781b66cd74
independent-healthy 3d9fdd154b969777e4b7062ca052d2e253ad2befcfa3b021ee298dac7018e61d
one-plus-lambda-es e940348464e49ad3aa2b027dd2e5a353897c80538c30c8ed615031258c622175
parallel-faulty f792197487046932ba8612849e276bcbe38b462d704c2a5d040a35ed74bf8a35
parallel-healthy f792197487046932ba8612849e276bcbe38b462d704c2a5d040a35ed74bf8a35
parallel-mixed-burst 2f1116597fefef78a39145df81623f4b99c39c39a4a1b318db84fdc8fe40b951
two-level-faulty c5826626907d21fd9b066cf74bca49eca4e7ab9f113ef577b189e2ee7d31998d
two-level-healthy 17e82dd4773de0f1041db47d4a7f2f572348da8feb66ea0c4e1daadfd059fe01
""".strip().splitlines()
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trajectory(case, backend):
    assert CASES[case](backend) == GOLDEN[case]

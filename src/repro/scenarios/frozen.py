"""Frozen red-team worst cases — GENERATED by ``tools/freeze_scenario.py``.

Do not edit by hand: re-run the freeze tool to add or refresh entries.
Each entry was discovered by the adversarial scenario search
(:mod:`repro.scenarios.search`), survived its Pareto archive, and is
promoted here as a permanent regression workload: it registers in
:data:`~repro.scenarios.SCENARIOS` and joins
:data:`repro.scenarios.BUILTIN_SCENARIOS`, and
``tests/scenarios/test_frozen_worstcases.py`` gates the healer's
recovery metrics on it.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.scenarios.spec import FaultScenario, register_scenario

__all__ = ["FROZEN_SCENARIOS", "FROZEN_PROVENANCE"]

#: Names of the frozen red-team scenarios, in freeze order.
FROZEN_SCENARIOS: Tuple[str, ...] = ('redteam-burst-cascade', 'redteam-scrub-starve')

#: Freeze-time provenance per frozen scenario: the discovering search's
#: config, the archive entry's content signatures and the mission
#: metrics measured at freeze time (the regression baselines).
FROZEN_PROVENANCE: Dict[str, Dict[str, Any]] = {'redteam-burst-cascade': {'archive_signature': 'ab25d03c484e1617672992a13e1890e521ebb0e0538fe93e60b60a29228d8e56',
                           'discovered_signature': '501490ddea308061df63efb84231524484d48eba67a1843b57535aacb528a7d9',
                           'metrics': {'baseline_worst_fitness': 7272.0,
                                       'degradation': 12567.0,
                                       'final_worst_fitness': 19839.0,
                                       'n_events': 6,
                                       'n_recovered': 1,
                                       'n_unrecovered': 0,
                                       'steps_degraded': 1},
                           'scenario': {'lpd_onsets': [[1, 1]],
                                        'lpd_rate': 0.018918,
                                        'name': 'redteam-burst-cascade',
                                        'scrub_period': 4,
                                        'seed': None,
                                        'seu_bursts': [[7, 5]],
                                        'seu_rate': 0.0},
                           'scenario_signature': '7d50f61158140e741a4635090f9c61a4fa5b370ea6f6780fc8f754942056e427',
                           'schedule_signature': '89a6f17b6f48fb921b6a5e65ce8b64af6d0c7e7f808b8b00ecf51857778fec5f',
                           'search_config': {'backend': 'reference',
                                             'bounds': {'event_budget': 10.0,
                                                        'horizon': 8,
                                                        'max_burst_count': 6,
                                                        'max_bursts': 3,
                                                        'max_lpd_rate': 0.3,
                                                        'max_onset_count': 2,
                                                        'max_onsets': 2,
                                                        'max_scrub_period': 8,
                                                        'max_seu_rate': 1.5},
                                             'candidate_name': 'redteam-candidate',
                                             'crossover_rate': 0.25,
                                             'evolution_generations': 6,
                                             'healing_generations': 5,
                                             'image_side': 16,
                                             'mission_mutation_rate': 3,
                                             'mission_offspring': 9,
                                             'mutation_moves': 1,
                                             'n_arrays': 3,
                                             'n_generations': 12,
                                             'n_offspring': 8,
                                             'name': 'red-team',
                                             'noise_level': 0.1,
                                             'objective': 'time-to-repair',
                                             'seed': 2013},
                           'search_generation': 10,
                           'strictly_worst': True},
 'redteam-scrub-starve': {'archive_signature': 'a4bcb7d41459840ab2fa1fab50d2c0204022239646cb11024339d4735487b978',
                          'discovered_signature': 'f38e924274f96b01e3c2ab9cf9c28848389d182859a8e6bdb7bc462d13c487d0',
                          'metrics': {'baseline_worst_fitness': 7272.0,
                                      'degradation': 11792.0,
                                      'final_worst_fitness': 19064.0,
                                      'n_events': 3,
                                      'n_recovered': 0,
                                      'n_unrecovered': 1,
                                      'steps_degraded': 1},
                          'scenario': {'lpd_onsets': [],
                                       'lpd_rate': 0.058612,
                                       'name': 'redteam-scrub-starve',
                                       'scrub_period': 4,
                                       'seed': None,
                                       'seu_bursts': [[1, 1]],
                                       'seu_rate': 0.25},
                          'scenario_signature': 'a5ef01d66bf39d98090287f41457be6f177e4821315f6d24873ae2e101d53bd3',
                          'schedule_signature': '256f449f3703e3493b9080945f05db7126e588175d9a65a1c3b4dfced26d54ce',
                          'search_config': {'backend': 'reference',
                                            'bounds': {'event_budget': 10.0,
                                                       'horizon': 8,
                                                       'max_burst_count': 6,
                                                       'max_bursts': 3,
                                                       'max_lpd_rate': 0.3,
                                                       'max_onset_count': 2,
                                                       'max_onsets': 2,
                                                       'max_scrub_period': 8,
                                                       'max_seu_rate': 1.5},
                                            'candidate_name': 'redteam-candidate',
                                            'crossover_rate': 0.25,
                                            'evolution_generations': 6,
                                            'healing_generations': 5,
                                            'image_side': 16,
                                            'mission_mutation_rate': 3,
                                            'mission_offspring': 9,
                                            'mutation_moves': 1,
                                            'n_arrays': 3,
                                            'n_generations': 12,
                                            'n_offspring': 8,
                                            'name': 'red-team',
                                            'noise_level': 0.1,
                                            'objective': 'degradation',
                                            'seed': 2013},
                          'search_generation': 1,
                          'strictly_worst': True}}

for _name in FROZEN_SCENARIOS:
    register_scenario(_name, FaultScenario.from_dict(FROZEN_PROVENANCE[_name]["scenario"]))

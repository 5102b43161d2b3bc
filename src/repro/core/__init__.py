"""The paper's primary contribution: the multi-array evolvable HW platform.

Layered on top of the substrates (:mod:`repro.array`, :mod:`repro.fpga`,
:mod:`repro.soc`, :mod:`repro.imaging`, :mod:`repro.timing`), this package
provides:

* :class:`~repro.core.platform.EvolvableHardwarePlatform` — the scalable
  stack of Array Control Blocks with its processing modes;
* :class:`~repro.core.acb.ArrayControlBlock` — one array plus its control,
  FIFO-alignment and hardware fitness logic;
* the evolution drivers of §IV.B (:mod:`repro.core.evolution`) and the new
  two-level-mutation EA of §VI.B (:mod:`repro.core.two_level_ea`);
* the TMR voters (:mod:`repro.core.voter`) and the self-healing strategies
  of §V (:mod:`repro.core.self_healing`);
* the Fig. 11 generation scheduler (:mod:`repro.core.scheduler`).
"""

from repro.core.acb import ArrayControlBlock, FitnessUnit
from repro.core.evolution import (
    ArrayEvalContext,
    CascadedEvolution,
    EvolutionDriver,
    ImitationEvolution,
    IndependentEvolution,
    ParallelEvolution,
    PlatformEvolutionResult,
)
from repro.core.modes import (
    CascadeFitnessMode,
    CascadeSchedule,
    CascadeStyle,
    EvolutionMode,
    FitnessSource,
    ProcessingMode,
)
from repro.core.platform import EvolvableHardwarePlatform
from repro.core.scheduler import GenerationScheduler, GenerationTiming
from repro.core.self_healing import (
    CascadedSelfHealing,
    FaultClass,
    HealingEvent,
    HealingReport,
    TmrSelfHealing,
)
from repro.core.two_level_ea import TwoLevelMutationEvolution
from repro.core.voter import FitnessVoter, PixelVoter, VoteResult

__all__ = [
    "ArrayControlBlock",
    "ArrayEvalContext",
    "FitnessUnit",
    "CascadedEvolution",
    "EvolutionDriver",
    "ImitationEvolution",
    "IndependentEvolution",
    "ParallelEvolution",
    "PlatformEvolutionResult",
    "CascadeFitnessMode",
    "CascadeSchedule",
    "CascadeStyle",
    "EvolutionMode",
    "FitnessSource",
    "ProcessingMode",
    "EvolvableHardwarePlatform",
    "GenerationScheduler",
    "GenerationTiming",
    "CascadedSelfHealing",
    "FaultClass",
    "HealingEvent",
    "HealingReport",
    "TmrSelfHealing",
    "TwoLevelMutationEvolution",
    "FitnessVoter",
    "PixelVoter",
    "VoteResult",
]

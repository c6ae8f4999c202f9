"""The benchmark's workloads: fixed scientific questions (config + seed).

Each workload is a closed loop: one campaign at a time, from one
process. The benchmark's ``--seed`` flows only into ``config.seed``,
which generates the kernel data and the trial RNG. The golden-artifact
cache is off and every pipeline starts from reset, so golden-run cost
shows in every run.

A campaign's cost depends on its seed: the kernel data decide how long
diverged trials run, and on the arch question that moves ``campaign_s``
by as much as 30% between seeds. So one ``--seed`` stands for a family of
:data:`QUESTIONS_PER_SEED` questions, and a run reports the median over
campaigns of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed a change is developed against, and the held-out seed a
#: claimed gain must also hold on (choosing-metrics section 6.3).
DEFAULT_SEED = 2005
HELD_OUT_SEED = 4242
QUESTIONS_PER_SEED = 3


def question_seeds(seed: int) -> list[int]:
    """The config seeds of the questions a benchmark ``seed`` stands for.

    Families of different seeds are disjoint, so runs at different seeds
    measure independent questions.
    """
    return [QUESTIONS_PER_SEED * seed + index
            for index in range(QUESTIONS_PER_SEED)]


@dataclass(frozen=True)
class Workload:
    name: str
    level: str
    options: dict
    adaptive: bool = False
    service: bool = False

    def config(self, seed: int):
        """The campaign config of this workload at ``seed``."""
        if self.level == "uarch":
            from repro.faults.uarch_campaign import UarchCampaignConfig

            return UarchCampaignConfig(seed=seed, **self.options)
        from repro.faults.arch_campaign import ArchCampaignConfig

        return ArchCampaignConfig(seed=seed, **self.options)

    def planner(self):
        if not self.adaptive:
            return None
        from repro.planner import PlannerConfig

        return PlannerConfig()

    def planned_trials(self, config) -> int | None:
        """Trials a uniform campaign must journal (None when adaptive:
        the planner's journaled totals are the plan)."""
        if self.adaptive:
            return None
        return config.trials_per_workload * len(config.workloads)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="uarch-fig4",
            level="uarch",
            options={"trials_per_workload": 6, "injection_points": 6},
        ),
        Workload(
            name="service-arch-adaptive",
            level="arch",
            options={"trials_per_workload": 900},
            adaptive=True,
            service=True,
        ),
    )
}

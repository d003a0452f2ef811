"""The benchmark's three campaign workloads.

Each workload is a closed loop with one client: the campaigns of one
repetition run one after another through
:func:`repro.experiments.run_experiment` on the sequential executor
(``jobs=1``), each trial starting after the previous one finished.  The
benchmark seed selects one of :data:`PIN_SLOTS` input slots; the program
receives only the campaign seed and the trial count derived from it.

Module constants of the experiments (BER grid, duty cycles, sniff and
hold periods, piconet counts) are read through their public names, so
the trial counts stay right if a grid changes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

#: Seeds map onto this many input slots; ``pins.json`` holds the expected
#: result digest of every (workload, slot).
PIN_SLOTS = 16

#: fig08 trials per BER point (both the inquiry and the page sweep).
FORMATION_TRIALS = 4
#: Seeds each of fig10, fig11 and fig12 runs at in one repetition.
POWER_SEEDS = 2
#: ext_interference trials per piconet count.
DENSE_TRIALS = 1

#: Engine every workload selects; its output is identical to the object
#: kernel's, which the pinned digests (made on the object kernel) check.
ENGINE = "soa"


@dataclass(frozen=True)
class Campaign:
    """One ``run_experiment`` call of a repetition."""

    experiment: str
    kwargs: dict


@dataclass(frozen=True)
class Workload:
    """A named set of campaigns plus what it is known to stress."""

    name: str
    why: str
    campaigns: Callable[[int], list[Campaign]]
    trials: Callable[[], int]
    journal: bool
    reference: Callable[[list], list[str]]


# -- formation ----------------------------------------------------------

def _formation_campaigns(slot: int) -> list[Campaign]:
    return [Campaign("fig08", {"trials": FORMATION_TRIALS, "seed": slot,
                               "jobs": 1})]


def _formation_trials() -> int:
    from repro.experiments.common import PAPER_BER_GRID

    return 2 * len(PAPER_BER_GRID) * FORMATION_TRIALS


def _formation_reference(results: list) -> list[str]:
    (fig08,) = results
    rows = {row[0]: row for row in fig08.rows}
    inquiry_floor = sum(row[1] for row in fig08.rows) / len(fig08.rows)
    return [
        f"page failure at BER 1/30: {rows['1/30'][2]:.1f} % (paper ~100 %)",
        f"inquiry failure floor, mean over the grid: {inquiry_floor:.1f} % "
        "(paper ~50 %)",
    ]


# -- power_modes --------------------------------------------------------

def _power_campaigns(slot: int) -> list[Campaign]:
    # fig11/fig12 offset their point seeds by up to +106, so slots 1000
    # apart never share a seed
    base = 1000 * slot
    return [Campaign(experiment, {"seed": base + index, "jobs": 1})
            for index in range(POWER_SEEDS)
            for experiment in ("fig10", "fig11", "fig12")]


def _power_trials() -> int:
    from repro.experiments import (
        fig10_master_rf_activity as fig10,
        fig11_sniff_rf_activity as fig11,
        fig12_hold_rf_activity as fig12,
    )

    # fig11 and fig12 measure one active baseline besides their sweep
    per_seed = (len(fig10.DUTIES) + 1 + len(fig11.T_SNIFFS)
                + 1 + len(fig12.T_HOLDS))
    return POWER_SEEDS * per_seed


def _power_reference(results: list) -> list[str]:
    fig11 = results[1]
    fig12 = results[2]
    sniff = next(row for row in fig11.rows if row[0] == 100)
    saving = (1 - sniff[1] / sniff[2]) * 100
    crossover = next((row[0] for row in fig12.rows if row[3] == "yes"), None)
    return [
        f"sniff saving at Tsniff=100 (first seed): {saving:.1f} % "
        "(paper ~30 %)",
        f"hold crossover (first seed): Thold = {crossover} slots "
        "(paper ~120)",
    ]


# -- dense --------------------------------------------------------------

def _dense_campaigns(slot: int) -> list[Campaign]:
    return [Campaign("ext_interference", {"trials": DENSE_TRIALS,
                                          "seed": slot, "jobs": 1})]


def _dense_trials() -> int:
    from repro.experiments.ext_interference import PICONET_COUNTS

    return len(PICONET_COUNTS) * DENSE_TRIALS


def _dense_reference(results: list) -> list[str]:
    from repro.experiments.ext_interference import analytic_per

    (table,) = results
    row = next(row for row in table.rows if row[0] == 20)
    return [f"PER at n=20: {row[4]:.2f} % (analytic_per(20) "
            f"{analytic_per(20) * 100:.1f} %)"]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "formation",
            "Fig. 8 inquiry/page trials over the BER grid, journalled: "
            "link bring-up, phy, baseband hopping and stage draws, stats "
            "journal",
            _formation_campaigns, _formation_trials, True,
            _formation_reference),
        Workload(
            "power_modes",
            "Figs. 10-12 duty cycle, sniff and hold: long connection "
            "windows on the object kernel, link handlers, lm, power probe",
            _power_campaigns, _power_trials, False, _power_reference),
        Workload(
            "dense",
            "ext_interference, 1-20 saturated piconets: steady state in "
            "the sim.soa micro-kernel, link data path",
            _dense_campaigns, _dense_trials, False, _dense_reference),
    )
}


def prepare_environment(engine: str = ENGINE) -> None:
    """Clear every ``REPRO_*`` knob (trials, jobs, chaos, fabric, ...) so
    the campaign kwargs alone decide the work, then select ``engine``."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ENGINE"] = engine


def run_campaigns(workload: Workload, slot: int, scratch: str,
                  on_campaign: Callable | None = None) -> list:
    """Run one repetition of ``workload`` and return its result tables.

    A journalled workload writes to a fresh journal directory under
    ``scratch``, removed afterwards.  ``on_campaign(campaign, call)``
    may wrap each ``run_experiment`` call (the tracer's root span).
    """
    from repro.experiments import run_experiment

    journal = None
    if workload.journal:
        journal = tempfile.mkdtemp(prefix="journal-", dir=scratch)
        os.environ["REPRO_RESUME_DIR"] = journal
    try:
        results = []
        for campaign in workload.campaigns(slot):
            def call(campaign=campaign):
                return run_experiment(campaign.experiment, **campaign.kwargs)
            results.append(call() if on_campaign is None
                           else on_campaign(campaign, call))
        return results
    finally:
        if journal is not None:
            del os.environ["REPRO_RESUME_DIR"]
            shutil.rmtree(journal, ignore_errors=True)


def digest(results: list) -> str:
    """A stable digest of a repetition's result tables (id, headers and
    rows; the timing-free part of every table)."""
    text = repr([[result.experiment_id, result.headers, result.rows]
                 for result in results])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


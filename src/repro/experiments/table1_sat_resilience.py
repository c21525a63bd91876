"""Table I — SAT-attack resilience (``ndip`` and runtime).

Protocol, mirroring the paper's own:

* lock every suite circuit with ``κf = 1, α = 0.6, S = 10`` and
  ``κs ∈ {1, 2, 3}``;
* run the real sequential SAT attack (at ``b* = κs``, as the paper
  assumes via Fun-SAT's depth prediction) on the cells small enough to
  finish within the budget;
* extrapolate the remaining cells from Eq. (10) with a constant
  runtime-per-DIP ratio — exactly the paper's blue-entry methodology
  (they finished 4 of 30 cells under a two-day timeout; pure Python at
  reduced scale finishes a comparable subset).

``ndip`` itself is solver-independent, so measured cells must equal
``2^{κs·|I|}`` exactly.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import format_spec, matrix_cells
from repro.bench.suite import TABLE1_CIRCUITS, suite_names
from repro.campaign import Campaign
from repro.core import ndip_trilock
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    engineering,
)
from repro.errors import ExtrapolationError
from repro.metrics import extrapolated_resilience
from repro.metrics.resilience import ResilienceMeasurement

#: Paper Table I (κs -> circuit -> (ndip, seconds)); blue extrapolated
#: entries included — used by EXPERIMENTS.md for shape comparison.
PAPER_TABLE1 = {
    1: {"s9234": (524288, 3.9e6), "s15850": (8192, 105283),
        "s35932": (3.4e10, 2.6e11), "s38417": (2.7e8, 2.0e9),
        "s38584": (2048, 27394.0), "b12": (32, 55.44),
        "b14": (4.3e9, 3.2e10), "b15": (6.9e10, 5.1e11),
        "b18": (1.4e11, 1.0e12), "b20": (4.3e9, 3.2e10)},
    2: {"s9234": (2.7e11, 2.1e12), "s15850": (6.7e7, 5.0e8),
        "s35932": (1.2e21, 8.8e21), "s38417": (7.2e16, 5.4e17),
        "s38584": (4.2e6, 3.1e7), "b12": (1024, 1934.18),
        "b14": (1.8e19, 1.4e20), "b15": (4.7e21, 3.5e22),
        "b18": (1.9e22, 1.4e23), "b20": (1.8e19, 1.4e20)},
    3: {"s9234": (1.4e17, 1.1e18), "s15850": (5.5e11, 4.1e12),
        "s35932": (4.1e31, 3.0e32), "s38417": (1.9e25, 1.4e26),
        "s38584": (8.6e9, 6.4e10), "b12": (32768, 244449.28),
        "b14": (7.9e28, 5.9e29), "b15": (3.2e32, 2.4e33),
        "b18": (2.6e33, 1.9e34), "b20": (7.9e28, 5.9e29)},
}

#: Cells attacked for real, by effort level. The paper finished b12
#: (κs=1..3) and s38584 (κs=1); 'quick' runs the smallest, 'full' adds
#: the next tractable ones.
MEASURED_CELLS = {
    "quick": [("b12", 1)],
    "standard": [("b12", 1), ("b12", 2)],
    "full": [("b12", 1), ("b12", 2), ("s38584", 1)],
}


def measured_pairs(effort, kappa_s_values=(1, 2, 3)):
    """The (circuit, kappa_s) pairs attacked for real at this effort."""
    return [(name, kappa_s) for name, kappa_s in MEASURED_CELLS[effort]
            if kappa_s in kappa_s_values]


def cells(scale=DEFAULT_SCALE, effort="quick", kappa_s_values=(1, 2, 3),
          seed=0, time_budget_per_cell=None, dip_batch=1):
    """One matrix cell per attacked (circuit, kappa_s) of the effort
    level.

    The grid is built from :func:`repro.api.matrix_cells` (one generic
    ``circuit x scheme x attack`` cell per entry) instead of a
    hand-written cell list, so Table I cells share cache entries with
    any equivalent ``repro-lock matrix`` run (at the default
    ``dip_batch``, the plain ``seq-sat`` cell of the same circuit and
    scheme)."""
    attack = format_spec("seq-sat", {"dip_batch": dip_batch})
    specs = []
    for name, kappa_s in measured_pairs(effort, kappa_s_values):
        scheme = (f"trilock?kappa_s={kappa_s}&kappa_f=1&alpha=0.6"
                  f"&s_pairs=10")
        (spec,) = matrix_cells([name], [scheme], [attack], scale=scale,
                               seed=seed,
                               time_budget=time_budget_per_cell)
        specs.append(replace(spec, experiment="table1",
                             label=f"table1/{name}/ks={kappa_s}"))
    return specs


def run(scale=DEFAULT_SCALE, effort="quick", kappa_s_values=(1, 2, 3),
        seed=0, time_budget_per_cell=None, campaign=None, dip_batch=1):
    campaign = campaign if campaign is not None else Campaign()
    specs = cells(scale=scale, effort=effort, kappa_s_values=kappa_s_values,
                  seed=seed, time_budget_per_cell=time_budget_per_cell,
                  dip_batch=dip_batch)
    results = campaign.run(specs)
    # A failed or timed-out attack cell degrades to extrapolation (the
    # paper's own protocol for unfinished cells) instead of aborting.
    measured, failed = [], []
    pairs = measured_pairs(effort, kappa_s_values)
    for (name, kappa_s), result in zip(pairs, results, strict=True):
        if not result.ok:
            failed.append(result.spec.describe())
            continue
        value = result.value
        metrics = value["metrics"]
        measured.append(ResilienceMeasurement(
            circuit=name, kappa_s=kappa_s,
            width=TABLE1_CIRCUITS[name][0],
            ndip=metrics["n_dips"], seconds=value["seconds"],
            measured=bool(value["success"]),
            attack_succeeded=bool(value["success"]),
            key_correct=bool(metrics["key_ok"])))
    return assemble(measured, scale=scale, effort=effort,
                    kappa_s_values=kappa_s_values, failed_cells=failed)


def assemble(measured, scale=DEFAULT_SCALE, effort="quick",
             kappa_s_values=(1, 2, 3), failed_cells=()):
    rows = []
    measured_keys = {(m.circuit, m.kappa_s) for m in measured}
    finished = [m for m in measured if m.measured]

    unextrapolatable = 0
    for name in suite_names():
        width = TABLE1_CIRCUITS[name][0]
        for kappa_s in kappa_s_values:
            expected = ndip_trilock(kappa_s, width)
            if (name, kappa_s) in measured_keys:
                cell = next(m for m in measured
                            if (m.circuit, m.kappa_s) == (name, kappa_s))
            else:
                try:
                    cell = extrapolated_resilience(name, kappa_s, width,
                                                   finished)
                except ExtrapolationError:
                    # No measured run to fit a time/DIP rate from:
                    # ndip is still exact (solver-independent), but the
                    # runtime column is explicitly unextrapolatable
                    # rather than a silent NaN.
                    unextrapolatable += 1
                    cell = None
            paper_ndip, paper_seconds = PAPER_TABLE1[kappa_s][name]
            rows.append({
                "circuit": name,
                "|I|": width,
                "kappa_s": kappa_s,
                "ndip": engineering(expected if cell is None else cell.ndip),
                "ndip==2^(ks|I|)": cell is None or cell.ndip == expected,
                "T(s)": "unextrapolatable" if cell is None
                        else engineering(cell.seconds),
                "measured": False if cell is None else cell.measured,
                "key_ok": cell.key_correct
                          if cell is not None and cell.measured else "",
                "paper_ndip": engineering(paper_ndip),
                "paper_T(s)": engineering(paper_seconds),
            })

    over_year = sum(1 for row in rows
                    if _seconds_of(row["T(s)"]) > 365 * 24 * 3600)
    notes = [
        f"measured cells: {sorted(measured_keys)} at scale={scale}; all "
        "others extrapolated from Eq. (10) with the worst observed "
        "time/DIP ratio (the paper's own protocol)",
        f"{100 * over_year / len(rows):.1f}% of cells extrapolate beyond "
        "one year of attack time (paper reports 76.6%)",
        "ndip values are solver-independent and match the paper exactly; "
        "absolute runtimes differ (pure-Python CDCL at reduced scale)",
    ]
    if failed_cells:
        notes.append(
            f"cells failed or timed out and fell back to extrapolation: "
            f"{sorted(failed_cells)}")
    if unextrapolatable:
        notes.append(
            f"{unextrapolatable} cells are unextrapolatable (no measured "
            "run finished to fit a time/DIP rate from)")
    return ExperimentResult(
        experiment="table1",
        title="SAT-attack resilience of TriLock",
        parameters={"kappa_f": 1, "alpha": 0.6, "S": 10, "scale": scale,
                    "effort": effort},
        rows=rows,
        notes=notes,
    )


def _seconds_of(text):
    try:
        return float(text)
    except ValueError:
        return 0.0

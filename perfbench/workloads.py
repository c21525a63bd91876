"""The benchmark's three workloads: cell specs and output checks.

Each workload is a list of campaign cells built through the public spec
path (``repro.api.matrix_cells`` and the experiment ``cells()``
functions), each paired with a check of its value against the paper's
closed forms.  The seed given to :func:`cells` is the lock seed of every
cell (the key, the key-dependent logic and the re-encoded pairs, hence
the DIP walk and the FC samples).  Circuits are fixed inputs: the synthetic
generator's own seed changes a cell's work by up to 3x (1.9-6.4 s for
the ``bmc-verify`` cell over generator seeds 0-5), which no run-to-run
bound could absorb.
"""

from __future__ import annotations

from repro.api import matrix_cells
from repro.experiments import fig7_fc, table2_removal

#: Fixed circuit specs; ``width`` is the primary-input count |I|.
B12 = "suite:b12?scale=0.08&seed=0"
B12_WIDTH = 5
SYNTH_SMALL = "synth?gates=120&ffs=8&pis=4&pos=3&seed=0"
SYNTH_SMALL_WIDTH = 4
SYNTH_LARGE = "synth?gates=3000&ffs=24&pis=6&pos=4&seed=0"
SYNTH_LARGE_WIDTH = 6
S38584 = "suite:s38584?scale=1.0&seed=0"
S38584_WIDTH = 11

#: The paper's tolerance on |FC_sim - Eq. 15| (Fig. 7).
FC_TOLERANCE = 0.05


def _sat_check(kappa_s, width):
    expected = 2 ** (kappa_s * width)

    def check(value):
        metrics = value["metrics"]
        problems = []
        if value["success"] is not True:
            problems.append("attack did not succeed")
        if metrics["key_ok"] is not True:
            problems.append("recovered key is wrong")
        if metrics["n_dips"] != expected:
            problems.append(f"n_dips {metrics['n_dips']} != 2^(ks*|I|) "
                            f"= {expected}")
        return problems
    return check


def _census_check(s_pairs):
    def check(value):
        census = value["metrics"]
        if s_pairs == 0 and census["M"] != 0:
            return [f"S=0 census has M={census['M']}, expected 0"]
        if s_pairs >= 10 and (census["E"], census["M"]) != (0, 1):
            return [f"S={s_pairs} census has E={census['E']} "
                    f"M={census['M']}, expected E=0 M=1"]
        return []
    return check


def _fc_check(alpha, kappa_f, width):
    eq15 = alpha * (1.0 - 2.0 ** -(kappa_f * width))

    def check(value):
        gap = abs(value["FC_sim"] - eq15)
        if gap > FC_TOLERANCE:
            return [f"|FC_sim - Eq.15| = {gap:.3f} > {FC_TOLERANCE}"]
        return []
    return check


def cells(workload, seed):
    """``[(CellSpec, check)]`` of one pass of ``workload``; ``check``
    maps a cell value to a list of problems (empty when correct)."""
    if workload == "dip-loop":
        return [
            (spec, _sat_check(kappa_s, width))
            for circuit, scheme, kappa_s, width in (
                (B12, "trilock?kappa_s=1&kappa_f=1&alpha=0.6&s_pairs=10",
                 1, B12_WIDTH),
                (SYNTH_SMALL, "trilock?kappa_s=2", 2, SYNTH_SMALL_WIDTH))
            for spec in matrix_cells([circuit], [scheme], ["seq-sat"],
                                     seed=seed)
        ]
    if workload == "bmc-verify":
        return [(spec, _sat_check(1, SYNTH_LARGE_WIDTH))
                for spec in matrix_cells(
                    [SYNTH_LARGE], ["trilock?kappa_s=1&kappa_f=1&alpha=0.6"],
                    ["seq-sat?dip_batch=16"], seed=seed)]
    if workload == "sat-free-sweep":
        s_values = (0, 10, 30)
        census = table2_removal.cells(scale=1.0, names=[S38584],
                                      s_values=s_values, seed=seed)
        kappa_fs, alphas = (1, 2, 3), (0.3, 0.9)
        fc = fig7_fc.cells(scale=1.0, names=[S38584], alphas=alphas,
                           kappa_fs=kappa_fs, seed=seed)
        return ([(spec, _census_check(s_pairs))
                 for spec, s_pairs in zip(census, s_values, strict=True)]
                + [(spec, _fc_check(alpha, kappa_f, S38584_WIDTH))
                   for spec, (kappa_f, alpha) in zip(
                       fc, [(kf, a) for kf in kappa_fs for a in alphas],
                       strict=True)])
    raise ValueError(f"unknown workload {workload!r}")

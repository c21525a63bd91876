"""SAT-attack resilience measurement (the ``ndip``/runtime columns of
Table I), including the paper's extrapolation protocol for configurations
too large to attack within budget."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.attacks.seq_sat import attack_locked_circuit
from repro.core.analytic import ndip_trilock
from repro.errors import ExtrapolationError


@dataclass
class ResilienceMeasurement:
    """One Table I cell."""

    circuit: str
    kappa_s: int
    width: int
    ndip: int
    seconds: float
    measured: bool            # False -> extrapolated like the paper
    attack_succeeded: bool
    key_correct: bool

    def as_row(self):
        return {
            "circuit": self.circuit,
            "kappa_s": self.kappa_s,
            "ndip": self.ndip,
            "seconds": self.seconds,
            "measured": self.measured,
        }


def measure_resilience(locked, max_dips=None, time_budget=None,
                       dip_batch=1):
    """Attack a locked circuit at ``b* = κs`` and record the cost.

    ``dip_batch`` is the number of DIPs pinned per miter round; the
    default, 1, is the classic attack.
    """
    start = time.perf_counter()
    result = attack_locked_circuit(
        locked, max_dips=max_dips, time_budget=time_budget,
        dip_batch=dip_batch)
    elapsed = time.perf_counter() - start
    key_correct = bool(
        result.success and result.key is not None
        and result.key.as_int == locked.key.as_int
    )
    return ResilienceMeasurement(
        circuit=locked.original.name,
        kappa_s=locked.config.kappa_s,
        width=len(locked.original.inputs),
        ndip=result.n_dips,
        seconds=elapsed,
        measured=result.success,
        attack_succeeded=result.success,
        key_correct=key_correct,
    )


def extrapolated_resilience(circuit, kappa_s, width, finished):
    """Predict a cell from finished runs (constant time/DIP, Table I).

    ``finished`` is a list of :class:`ResilienceMeasurement` with
    ``measured=True``.  Raises :class:`ExtrapolationError` when no run
    yields a usable time/DIP rate — previously this silently produced
    ``seconds=nan``, which flowed into rendered Table I cells unmarked.
    """
    ndip = ndip_trilock(kappa_s, width)
    rates = [m.seconds / m.ndip for m in finished if m.measured and m.ndip]
    if not rates:
        raise ExtrapolationError(
            f"cannot extrapolate {circuit}/ks={kappa_s}: no measured "
            f"run with ndip > 0 among {len(finished)} finished cells")
    per_dip = max(rates)
    return ResilienceMeasurement(
        circuit=circuit,
        kappa_s=kappa_s,
        width=width,
        ndip=ndip,
        seconds=ndip * per_dip,
        measured=False,
        attack_succeeded=False,
        key_correct=False,
    )

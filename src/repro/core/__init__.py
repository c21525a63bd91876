"""TriLock core: error-function theory and the gate-level locking flow."""

from repro.core.baselines import (
    lock_harpoon_like,
    lock_naive,
    lock_sink_cluster,
)
from repro.core.analytic import (
    expected_runtime_extrapolation,
    fc_max_trilock,
    fc_naive_approx,
    fc_naive_exact,
    fc_trilock,
    fc_trilock_exact,
    n_errors_es,
    ndip_naive,
    ndip_trilock,
)
from repro.core.config import TriLockConfig, naive_config
from repro.core.error_function import ErrorSpec, e_n, threshold_for
from repro.core.error_tables import (
    ErrorTable,
    measured_error_table,
    naive_error_table,
    spec_error_table,
)
from repro.core.keys import KeySequence, random_key, random_suffix_constant
from repro.core.locker import LockedCircuit, lock
from repro.core.rcg import RegisterGraph, build_rcg
from repro.core.reencode import apply_state_reencoding, insert_encoder_decoder

__all__ = [
    "ErrorSpec",
    "ErrorTable",
    "KeySequence",
    "LockedCircuit",
    "RegisterGraph",
    "TriLockConfig",
    "apply_state_reencoding",
    "build_rcg",
    "e_n",
    "expected_runtime_extrapolation",
    "fc_max_trilock",
    "fc_naive_approx",
    "fc_naive_exact",
    "fc_trilock",
    "fc_trilock_exact",
    "insert_encoder_decoder",
    "lock",
    "lock_harpoon_like",
    "lock_naive",
    "lock_sink_cluster",
    "measured_error_table",
    "n_errors_es",
    "naive_config",
    "naive_error_table",
    "ndip_naive",
    "ndip_trilock",
    "random_key",
    "random_suffix_constant",
    "spec_error_table",
    "threshold_for",
]

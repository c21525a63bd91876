"""CNF machinery: formula container, Tseitin encoding, bounded variable
elimination, DIMACS I/O."""

from repro.cnf.dimacs import dump_dimacs, dumps_dimacs, load_dimacs, loads_dimacs
from repro.cnf.elimination import FreshClauses, eliminate
from repro.cnf.formula import Cnf
from repro.cnf.tseitin import (
    CircuitCnf,
    encode,
    encode_cone,
    encode_fresh,
    encode_gate,
    miter_different_outputs,
)

__all__ = [
    "Cnf",
    "CircuitCnf",
    "FreshClauses",
    "dump_dimacs",
    "dumps_dimacs",
    "eliminate",
    "encode",
    "encode_cone",
    "encode_fresh",
    "encode_gate",
    "load_dimacs",
    "loads_dimacs",
    "miter_different_outputs",
]

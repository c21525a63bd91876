"""CNF machinery: formula container, Tseitin encoding, DIMACS I/O."""

from repro.cnf.dimacs import dump_dimacs, dumps_dimacs, load_dimacs, loads_dimacs
from repro.cnf.formula import Cnf
from repro.cnf.tseitin import (
    CircuitCnf,
    encode,
    encode_cone,
    encode_gate,
    miter_different_outputs,
)

__all__ = [
    "Cnf",
    "CircuitCnf",
    "dump_dimacs",
    "dumps_dimacs",
    "encode",
    "encode_cone",
    "encode_gate",
    "load_dimacs",
    "loads_dimacs",
    "miter_different_outputs",
]

"""Structural localization of Keccak cores in blind gate-level netlists,
plus additive insertion of a power side-channel trojan at the recovered
hash input register, backed by a reference accelerator generator and a
cycle-accurate simulator.

Importing the package loads none of its modules: import each name from
the module that holds it (the README's Library section lists them), so
that a command compiles only the code it runs.
"""

__version__ = "0.1.0"

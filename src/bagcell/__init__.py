"""Deterministic simulator of an autonomous bag-cutting and unpacking cell.

The package models a robot cell that feeds bagged container stacks from an
inclined tote into eight enclosures, cuts and removes the bags, and delivers
the unpacked stacks through a pusher-and-door mechanism. Everything runs as a
discrete-event simulation driven by a single seeded RNG, so a given seed and
config always produce byte-identical traces and reports.
"""

from bagcell.config import CellConfig, ConfigInvalid

__all__ = ["CellConfig", "ConfigInvalid"]
__version__ = "0.1.0"

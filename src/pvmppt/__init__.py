"""PV array simulation, partial-shading detection, and ramp-scan global MPPT."""

__version__ = "0.1.0"

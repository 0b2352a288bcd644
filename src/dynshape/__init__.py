"""Surrogate modeling of time-series simulator outputs via curve registration.

Workflow: sample a space-filling design (``doe``), run the simulator (or the
synthetic stand-ins in ``synth``), register the output curves to a common
shape (``registration``), model the per-curve deformation parameters with
kriging (``gp``) and predict full curves at new inputs (``emulator``).
"""

__version__ = "0.1.0"

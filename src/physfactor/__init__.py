"""Constrained matrix-factorization attention for physiological sensing,
with a toy dual-branch 3D-CNN, the standard rPPG/respiration metric
suite and deterministic synthetic generators.

The package root imports nothing: import each submodule by name
(physfactor.metrics, physfactor.network, ...), so that loading one
loads only what it needs."""

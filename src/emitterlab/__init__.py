"""Simulation and fitting toolkit for strongly driven optical emitters.

Subpackages
-----------
qdyn
    Dense Lindblad master-equation engine (2- and 3-level).
tls
    Driven two-level-system models: Rabi dynamics, lineshapes, power
    calibration.
photostats
    Photon-statistics observables: g2, detector response, FFT analysis,
    emission spectra.
lambda_system
    Three-level lambda system: probe scans and Autler-Townes splitting.
ramsey
    Two-pulse Ramsey interferometry and visibility envelopes.
fitkit
    Levenberg-Marquardt engine and the experiment-specific fit models.
synth
    Deterministic synthetic photon-count data.
experiments
    Experiment registry: config schema and file-free compute per experiment.
cli
    Configuration-driven experiment runner with CSV/SVG output.
"""

__version__ = "0.1.0"

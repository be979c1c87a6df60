"""aodkit: design and virtual characterization of an AOD-based
individual-addressing optical system for trapped-ion chains.

Submodules
----------
beam_optics
    Astigmatic Gaussian beams, ABCD elements, 1-D scalar diffraction.
prism_designer
    Anamorphic prism-pair expansion, solving and tolerancing.
aod_model
    Deflection, steering, diffraction efficiency, switching dynamics.
addressing_analyzer
    Crosstalk, aperture clipping, misalignment metrics.
virtual_lab
    Simulated Rabi experiments with shot noise and fit routines.
bloch
    Reference two-level integrator for validating the closed forms.
cli
    ``aodkit`` command-line interface.

``import aodkit`` loads none of these, so it costs neither numpy nor
their compilation; import each by name (``from aodkit import
beam_optics``).
"""

__version__ = "0.1.0"

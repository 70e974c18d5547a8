"""Spectral simulator and verification toolkit for boundary-actuated linear
water waves in the rectangular tank (0, pi) x (-1, 0).

Subsystems:

- :mod:`wavetank.spectral`: dispersion data and spectral-gap certificates
- :mod:`wavetank.boundary`: explicit harmonic-extension and trace operators
- :mod:`wavetank.profiles`: wavemaker profiles and stabilizability criteria;
  every integral of a profile against a modal kernel goes through
  ``WavemakerProfile.integrals``
- :mod:`wavetank.simulate`: structure-preserving open/closed loop integration
- :mod:`wavetank.stability`: decay fits, envelope checks, rate-vs-truncation study
- :mod:`wavetank.cli`: command-line experiment runner

The names imported below are each listed in their module's ``__all__``.
"""

from .boundary import (
    FieldGrid,
    dirichlet_field,
    harmonicity_residual,
    hilbert_bound_ratio,
    neumann_field,
    neumann_to_neumann,
    neumann_wall_residual,
    reconstruct_field,
    side_projection,
    wall_trace,
)
from .profiles import (
    CouplingVector,
    WavemakerProfile,
    coupling_vector,
    sc_check,
    strategic_check,
    ussd_margin,
)
from .simulate import (
    InputSignal,
    ModalState,
    Segment,
    SimConfig,
    TimeSeries,
    domain_norm,
    simulate_closed,
    simulate_open,
    x_norm,
)
from .spectral import (
    GapViolationError,
    WavePackageResult,
    eigenvalue,
    frequency,
    gap_products,
    separation_certificate,
    wave_package,
)
from .stability import (
    DecayFit,
    EnvelopeReport,
    decay_fit,
    envelope_check,
    rate_vs_n_study,
    smooth_initial_state,
    spectral_abscissa,
)

__version__ = "0.1.0"

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

``import wavetank`` loads neither numpy nor any subsystem. The first access
to an exported name, or to a subsystem as an attribute, imports the module
that defines it (PEP 562), so a caller compiles only what it touches. The
names are not copied into this namespace: ``wavetank.eigenvalue`` is looked
up in :mod:`wavetank.spectral` on every access. Each exported name is listed
in its module's ``__all__``.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_OWNERS = {
    "FieldGrid": "boundary",
    "dirichlet_field": "boundary",
    "harmonicity_residual": "boundary",
    "hilbert_bound_ratio": "boundary",
    "neumann_field": "boundary",
    "neumann_to_neumann": "boundary",
    "neumann_wall_residual": "boundary",
    "reconstruct_field": "boundary",
    "side_projection": "boundary",
    "wall_trace": "boundary",
    "CouplingVector": "profiles",
    "WavemakerProfile": "profiles",
    "coupling_vector": "profiles",
    "sc_check": "profiles",
    "strategic_check": "profiles",
    "ussd_margin": "profiles",
    "InputSignal": "simulate",
    "ModalState": "simulate",
    "Segment": "simulate",
    "SimConfig": "simulate",
    "TimeSeries": "simulate",
    "domain_norm": "simulate",
    "simulate_closed": "simulate",
    "simulate_open": "simulate",
    "x_norm": "simulate",
    "GapViolationError": "spectral",
    "WavePackageResult": "spectral",
    "eigenvalue": "spectral",
    "frequency": "spectral",
    "gap_products": "spectral",
    "separation_certificate": "spectral",
    "wave_package": "spectral",
    "DecayFit": "stability",
    "EnvelopeReport": "stability",
    "decay_fit": "stability",
    "envelope_check": "stability",
    "rate_vs_n_study": "stability",
    "smooth_initial_state": "stability",
    "spectral_abscissa": "stability",
}
_SUBSYSTEMS = frozenset(("boundary", "profiles", "simulate", "spectral", "stability"))

__all__ = list(_OWNERS)


def __getattr__(name):
    owner = _OWNERS.get(name)
    if owner is not None:
        return getattr(import_module(f".{owner}", __name__), name)
    if name in _SUBSYSTEMS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return list(__all__)

"""Single-photon Mach-Zehnder interference of polarization channels that share
a time-bin environment: delay-tagged Kraus composition, the complex fringe
contrast (its modulus is the visibility, its argument the fringe phase), a
brute-force dilation oracle, process-tomography blindness, and count-level
fringe statistics. Tables are returned as columns."""

from .arms import (
    ArmElement,
    ArmSpec,
    ArmTable,
    Crystal,
    RawUnitary,
    Waveplate,
    arm_channel_apply,
    arm_table,
    compose_arms,
    element_table,
)
from .core import (
    half_waveplate,
    maximally_mixed,
    rotated_basis,
    validate_density_matrix,
)
from .experiments import (
    FitResult,
    blindness_demo,
    closed_form_contrast,
    default_beta_grid,
    fit_fringe,
    poisson_fringe,
    qkd_visibility,
    standard_arms,
    sweep,
)
from .interferometer import oracle_contrasts, output_probability, shared_env_contrasts
from .tomography import qpt

__version__ = "0.1.0"

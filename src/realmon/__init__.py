"""Reality and irreality of quantum observables under weak non-revealed monitoring.

Core layers: dense complex linear algebra with one LAPACK-backed Hermitian
eigensolver (``linalg``), validated states and entropies (``states``),
projective observables (``observables``), the monitoring channel, which
dephases at intensity 1, with a superoperator oracle (``channels``),
reality-variation measures and the closed-form Bloch-vector oracle for
every qubit sweep path, noise included (``reality``),
ancilla-dilation circuits with noise (``circuits``, ``noise``),
single-qubit tomography (``tomography``),
and the front end: sweep configuration (``config``), the sweep engine
(``sweeps``), case verification (``verify``), circuit certification
(``certify``), report writing (``output``) and the command line (``cli``).
States and observables hold one member or a stack of N; the eigensolver,
entropies, channels, reality measures and case labels evaluate one
configuration or a stack of them through the same code.
"""

__version__ = "0.1.0"

from .linalg import hermitian_eig, partial_trace, tensor_product
from .states import (
    DensityOperator,
    PureState,
    density_from_pure,
    stack_states,
    von_neumann_entropy,
)
from .observables import (
    ProjectiveObservable,
    commutes,
    is_mutually_unbiased,
    observable_from_axis,
    pauli_observable,
    stack_observables,
)
from .channels import (
    MonitoringChannel,
    Superoperator,
    dephase,
    monitor,
    to_superoperator,
)
from .reality import (
    CaseLabel,
    RealityReport,
    classify_case,
    delta_reality_monitored,
    delta_reality_other,
    irreality,
    qubit_spectra,
    reality_report,
)
from .circuits import (
    Circuit,
    Gate,
    build_monitor_circuit,
    epsilon_of_strength,
    extract_channel,
    run_circuit_density,
)
from .noise import apply_readout_noise, confusion_from_flip, sample_shots
from .tomography import estimate_pauli, reconstruct_state
from .config import SweepConfig, make_config
from .sweeps import SweepRecord, run_sweep
from .verify import verify_cases
from .certify import certify_circuits

__all__ = [name for name in dir() if not name.startswith("_")]

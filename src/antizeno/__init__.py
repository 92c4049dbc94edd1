"""Measurement-enhanced quantum transport in disordered multisite systems.

Simulates energy transfer and entanglement generation in disordered
tight-binding models under repeated non-selective measurements or dephasing,
including the Zeno/anti-Zeno crossover and the measurement-dephasing
correspondence: dephasing at rate 2 gamma has the Zeno hop rate of periodic
measurement at tau = 2/(2 gamma).
"""

__version__ = "0.1.0"

from .errors import OutOfRegimeError
from .model import (
    DisorderSpec,
    EffectiveHamiltonian,
    LatticeModel,
    build_chain,
    build_graph,
    effective_hamiltonian,
)
from .dynamics import (
    DensityMatrix,
    Propagator,
    evolve,
    perturbative_average,
    populations,
    propagator,
    pure_site_state,
    time_averaged_population,
)
from .measurement import (
    MeasuredTrajectory,
    MeasurementChannel,
    TransitionMatrix,
    apply_channel,
    binomial_population,
    crossover_time,
    recursive_step,
    repeated_measurement_trajectory,
    transition_matrix,
)
from .transfer import (
    EfficiencyResult,
    TauScan,
    asymptotic_deficit_no_measurement,
    asymptotic_efficiency_max,
    efficiency_measured,
    efficiency_no_measurement,
    optimal_tau,
    tau_scan,
)
from .open_system import (
    DephasingSpec,
    EnsembleResult,
    efficiency_dephasing,
    integrate_master,
    quantum_jump_ensemble,
)
from .entanglement import (
    ConcurrenceSeries,
    TwoQubitState,
    analytic_concurrence,
    concurrence,
    measured_concurrence,
    reduce_to_pair,
    simulate_concurrence,
)

"""Link-level simulator for sensor-assisted UAV beam tracking.

Modules: geometry (frames and direction cosines), mobility (Gauss-Markov
flight), sensors (GPS and navigation-unit models on a block schedule),
channel (rank-one link and pilot measurements), beamforming (precoder,
candidate grids, phase quantization), gpr (Gaussian-process surrogate),
tracking (refinement schemes and baselines), metrics (gain and spectral
efficiency), campaign/config (deterministic Monte Carlo harness) and cli
(`uavtrack simulate`, which writes a campaign's trace, summary and figure
tables).
"""

__version__ = "0.1.0"

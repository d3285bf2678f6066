"""Line-of-sight link between the ground planar array and the UAV line array.

Half-wavelength element spacing is assumed, so steering phases are pi times
the direction cosine. The rank-one channel collapses, after precoding at
the UAV, to an effective vector channel mu * alignment * a_g(u, v) seen by
the ground array; pilot measurements return magnitudes of the combined
output under fresh receiver noise per beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SpatialAngles

__all__ = [
    "ArrayConfig",
    "LinkBudget",
    "steering_ula",
    "steering_upa",
    "effective_channel",
    "measure_beams",
    "BeamSounder",
]


@dataclass(frozen=True)
class ArrayConfig:
    """Element counts: nx-by-ny ground planar array, nu-element UAV array."""

    nx: int = 8
    ny: int = 8
    nu: int = 8

    def __post_init__(self):
        if min(self.nx, self.ny, self.nu) < 1:
            raise ValueError("array sizes must be positive")

    @property
    def n_ground(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class LinkBudget:
    """Noise level of unit-energy pilots, set by SNR = 1 / sigma_n^2."""

    snr_db: float = 20.0

    def __post_init__(self):
        try:
            sigma_n2 = self.sigma_n2
        except (OverflowError, ZeroDivisionError):  # 10 ** (snr_db / 10) out of range
            sigma_n2 = 0.0
        if not 0.0 < sigma_n2 < math.inf:
            raise ValueError(
                f"snr_db = {self.snr_db} puts the noise variance 1 / 10^(snr_db / 10) "
                "out of floating-point range"
            )

    @property
    def sigma_n2(self) -> float:
        # not 10 ** (-snr_db / 10): at 25 and -3 dB it differs in the last bit
        return 1.0 / 10.0 ** (self.snr_db / 10.0)


def steering_ula(u, n: int) -> np.ndarray:
    """Line-array response [exp(-j pi k u)] for k = 0 .. n-1.

    u may be an array; the elements run along a new last axis.
    """
    return np.exp(np.multiply.outer((-1j * np.pi) * u, np.arange(n)))


def steering_upa(u, v, nx: int, ny: int) -> np.ndarray:
    """Planar-array response, the Kronecker product of the two axis responses.

    Flat index m * ny + n carries the phase -pi * (m * u + n * v). u and v
    broadcast against each other; the nx * ny elements run along a new
    last axis.
    """
    a = steering_ula(u, nx)[..., :, None] * steering_ula(v, ny)[..., None, :]
    return a.reshape(a.shape[:-2] + (nx * ny,))


def effective_channel(
    angles: SpatialAngles, precoder_vector: np.ndarray, mu: complex, cfg: ArrayConfig
) -> np.ndarray:
    """Collapse the rank-one link through a given UAV precoding vector.

    Returns the ground-side vector mu * alignment * a_g(u, v), shape
    (nx * ny,). alignment is the inner product of the UAV array response
    at the true departure cosine with the precoder; its magnitude reaches
    sqrt(nu) when the precoder is steered exactly.

    Parameters
    ----------
    angles : SpatialAngles
        True (u, v) at the ground array and true departure cosine u_a.
    precoder_vector : np.ndarray, shape (nu,)
        Unit-norm UAV weights.
    mu : complex
        Block fading coefficient, unit modulus in the nominal scenario.
    """
    if angles.u_a is None:
        raise ValueError("true departure cosine u_a is required")
    if precoder_vector.shape != (cfg.nu,):
        raise ValueError(f"precoder length {precoder_vector.shape} does not match nu={cfg.nu}")
    alignment = complex(steering_ula(angles.u_a, cfg.nu) @ precoder_vector)
    return mu * alignment * steering_upa(angles.u, angles.v, cfg.nx, cfg.ny)


def measure_beams(
    heff: np.ndarray,
    weights: np.ndarray,
    budget: LinkBudget,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received pilot magnitudes |w_i^H h s + w_i^H n_i| for each beam row.

    Beams are sounded sequentially, so each row sees a fresh noise
    realization: the combined noise w^H n is drawn directly as a complex
    Gaussian with variance sigma_n^2, its exact distribution for isotropic
    receiver noise and a unit-norm w.

    Parameters
    ----------
    weights : np.ndarray, shape (n_beams, n_ground) or (n_ground,)
        One combining vector per row, unit norm each, as steer_weights
        builds them; the noise is not scaled by ||w||.

    Returns
    -------
    np.ndarray, shape (n_beams,)
    """
    w = np.atleast_2d(weights)
    return _with_noise(w.conj() @ heff, budget, rng)


def _with_noise(signal: np.ndarray, budget: LinkBudget, rng: np.random.Generator) -> np.ndarray:
    """|signal + noise| per beam, one complex Gaussian of variance sigma_n^2
    each, drawn as one (n_beams, 2) block of standard normals."""
    z = rng.standard_normal((len(signal), 2))
    noise = math.sqrt(budget.sigma_n2 / 2.0) * (z[:, 0] + 1j * z[:, 1])
    return np.abs(signal + noise)


class BeamSounder:
    """Plain (unquantized) steered beams against one effective channel,
    sounded from the planar array's two axis responses.

    With H = heff.reshape(nx, ny), the beam steer_weights(u, v) builds
    gives

        w(u, v)^H h = sum_m sum_n exp(j pi (m u + n v)) H[m, n] / sqrt(nx ny)
                    = conj(a_x(u))^T H conj(a_y(v)) / sqrt(nx ny),

    two axis sums of nx and ny terms instead of one of nx * ny (Van Trees,
    Optimum Array Processing, 2002, sec. 4.1). The scaled channel and the
    axis phase ramps are formed once per link. Sounding draws the noise
    as measure_beams does, the same normals in the same order from the
    same generator, so point and grid return what measure_beams returns
    for the same beams up to roundoff and leave the generator where it
    leaves it. Phase-quantized beams do not factor and go through
    measure_beams.
    """

    def __init__(self, heff: np.ndarray, cfg: ArrayConfig, budget: LinkBudget, rng: np.random.Generator):
        self._h = heff.reshape(cfg.nx, cfg.ny) / math.sqrt(cfg.n_ground)
        self._ramp_x = (1j * math.pi) * np.arange(cfg.nx)
        self._ramp_y = (1j * math.pi) * np.arange(cfg.ny)
        self._budget, self._rng = budget, rng
        self._noise_sd = math.sqrt(budget.sigma_n2 / 2.0)

    def _response(self, u: float, v: float) -> complex:
        """Noiseless w^H h of the beam at (u, v)."""
        return complex(np.exp(self._ramp_x * u) @ (self._h @ np.exp(self._ramp_y * v)))

    def point(self, u: float, v: float) -> float:
        """One pilot magnitude at (u, v), on Python scalars."""
        signal = self._response(u, v)
        z0, z1 = self._rng.standard_normal(2).tolist()
        return abs(signal + complex(self._noise_sd * z0, self._noise_sd * z1))

    def grid(self, u_values, v_values) -> np.ndarray:
        """Pilot magnitudes over the grid u_values x v_values, flat index
        i * len(v_values) + j for (u_values[i], v_values[j])."""
        ax = np.exp(np.multiply.outer(u_values, self._ramp_x))
        ay = np.exp(np.multiply.outer(v_values, self._ramp_y))
        signal = (ax @ self._h @ ay.T).ravel()
        return _with_noise(signal, self._budget, self._rng)

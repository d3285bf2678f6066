"""Line-of-sight link between the ground planar array and the UAV line array.

Half-wavelength element spacing is assumed, so steering phases are pi times
the direction cosine. The rank-one channel collapses, after precoding at
the UAV, to an effective vector channel mu * alignment * a_g(u, v) seen by
the ground array; pilot measurements return magnitudes of the combined
output under fresh receiver noise per beam.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SpatialAngles

__all__ = [
    "ArrayConfig",
    "LinkBudget",
    "EffectiveChannel",
    "steering_ula",
    "steering_upa",
    "effective_channel",
    "measure_beams",
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
    """Pilot energy and noise level, tied through SNR = es / sigma_n^2."""

    es: float = 1.0
    snr_db: float = 20.0

    def __post_init__(self):
        if self.es <= 0.0:
            raise ValueError(f"es (pilot energy) must be positive, got {self.es}")

    @property
    def sigma_n2(self) -> float:
        return self.es / 10.0 ** (self.snr_db / 10.0)


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


@dataclass(frozen=True)
class EffectiveChannel:
    """Ground-side channel after UAV precoding: mu * alignment * a_g(u, v).

    alignment is the complex inner product of the UAV array response at the
    true departure cosine with the precoder; its magnitude reaches
    sqrt(nu) when the precoder is steered exactly.
    """

    vector: np.ndarray
    alignment: complex


def effective_channel(
    angles: SpatialAngles, precoder_vector: np.ndarray, mu: complex, cfg: ArrayConfig
) -> EffectiveChannel:
    """Collapse the rank-one link through a given UAV precoding vector.

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
    vector = mu * alignment * steering_upa(angles.u, angles.v, cfg.nx, cfg.ny)
    return EffectiveChannel(vector=vector, alignment=alignment)


def measure_beams(
    heff: EffectiveChannel,
    weights: np.ndarray,
    budget: LinkBudget,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received pilot magnitudes |w_i^H h s + w_i^H n_i| for each beam row.

    Beams are sounded sequentially, so each row sees a fresh noise
    realization: the combined noise w^H n is drawn directly as a complex
    Gaussian with variance sigma_n^2 * ||w||^2, which is its exact
    distribution for isotropic receiver noise.

    Parameters
    ----------
    weights : np.ndarray, shape (n_beams, n_ground) or (n_ground,)
        One combining vector per row, unit norm each.

    Returns
    -------
    np.ndarray, shape (n_beams,)
    """
    w = np.atleast_2d(weights)
    s = np.sqrt(budget.es)
    signal = w.conj() @ heff.vector * s
    sig_n = np.sqrt(budget.sigma_n2 / 2.0)
    norms = np.linalg.norm(w, axis=1)
    z = rng.standard_normal((w.shape[0], 2))
    noise = sig_n * norms * (z[:, 0] + 1j * z[:, 1])
    return np.abs(signal + noise)

"""mmWave propagation: path loss, shadowing, fast fading.

We follow the 3GPP TR 38.901 urban-micro (UMi street canyon) model shape at
28 GHz: a log-distance path loss with distinct LoS/NLoS exponents plus
log-normal shadowing, and Rician/Rayleigh-like fast fading on top.  The
absolute constants are tuned so that the resulting link capacities land in
the ranges the paper measures on Verizon's deployment (peaks near 2 Gbps
close to a panel, dropping toward zero at the cell edge or under blockage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
DEFAULT_FREQUENCY_GHZ = 28.0


def fspl_db(distance_m: float, frequency_ghz: float = DEFAULT_FREQUENCY_GHZ) -> float:
    """Free-space path loss in dB (the 1 m reference term of 38.901)."""
    distance_m = max(distance_m, 1.0)
    f_hz = frequency_ghz * 1e9
    return 20.0 * math.log10(4.0 * math.pi * distance_m * f_hz / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with LoS/NLoS exponents and shadowing.

    ``PL(d) = FSPL(1m) + 10 * n * log10(d) + X_sigma`` where the exponent
    ``n`` and shadowing sigma depend on LoS state (38.901 UMi: n ~ 2.1 LoS,
    ~3.2 NLoS; sigma ~ 4 dB LoS, ~7.8 dB NLoS).
    """

    frequency_ghz: float = DEFAULT_FREQUENCY_GHZ
    los_exponent: float = 2.5
    nlos_exponent: float = 3.2
    los_shadow_sigma_db: float = 4.0
    nlos_shadow_sigma_db: float = 7.8

    def mean_loss_db(self, distance_m: float, los: bool) -> float:
        """Median path loss (no shadowing) at a distance."""
        distance_m = max(distance_m, 1.0)
        n = self.los_exponent if los else self.nlos_exponent
        return fspl_db(1.0, self.frequency_ghz) + 10.0 * n * math.log10(distance_m)

    def shadow_sigma_db(self, los: bool) -> float:
        return self.los_shadow_sigma_db if los else self.nlos_shadow_sigma_db

    def sample_loss_db(
        self, distance_m: float, los: bool, rng: np.random.Generator
    ) -> float:
        """Path loss with log-normal shadowing drawn from ``rng``."""
        return self.mean_loss_db(distance_m, los) + rng.normal(
            0.0, self.shadow_sigma_db(los)
        )


@dataclass
class ShadowingProcess:
    """Spatially/temporally correlated shadowing (Gudmundson model).

    Successive per-second samples are correlated with
    ``rho = exp(-v * dt / d_corr)`` where ``v`` is UE speed and ``d_corr``
    the shadowing decorrelation distance (~10 m outdoors).  This is what
    makes throughput traces *trajectories* rather than white noise, and is
    the structure that history-based models (Seq2Seq, harmonic mean) can
    exploit.

    ``size=P`` runs P processes on a vector state (``None``: one, on a
    float), drawing from ``rng`` as P scalar processes stepped in order.
    """

    sigma_db: float = 4.0
    decorrelation_distance_m: float = 10.0
    size: int | None = None
    _state_db: float | np.ndarray = 0.0

    def reset(self, rng: np.random.Generator) -> None:
        self._state_db = rng.normal(0.0, self.sigma_db, size=self.size)

    def step(self, speed_mps: float, dt_s: float, rng: np.random.Generator):
        """Advance one time step and return the current shadowing in dB."""
        moved = max(speed_mps, 0.05) * dt_s
        rho = math.exp(-moved / self.decorrelation_distance_m)
        sigma = self.sigma_db * math.sqrt(1.0 - rho * rho)
        innovation = rng.normal(0.0, sigma, size=self.size)
        self._state_db = rho * self._state_db + innovation
        return self._state_db


class SpatialShadowingField:
    """A static spatial shadowing field per panel (Gaussian random field).

    Shadow fading is caused by the static environment, so at a fixed
    position it is *reproducible across measurement runs* -- this is what
    makes throughput maps meaningful (consistently good and consistently
    bad patches, Fig. 6).  We synthesize a smooth zero-mean field with a
    target standard deviation and correlation length using random Fourier
    features: ``f(x) = sigma * sqrt(2/K) * sum_i cos(k_i . x + phi_i)``
    with wavevectors drawn for the chosen correlation length.  The field
    is deterministic given its seed (panel id + environment seed).
    """

    def __init__(
        self,
        sigma_db: float = 3.5,
        correlation_length_m: float = 15.0,
        n_components: int = 48,
        seed: int = 0,
    ):
        if sigma_db < 0 or correlation_length_m <= 0:
            raise ValueError("invalid field parameters")
        rng = np.random.default_rng(seed)
        self.sigma_db = sigma_db
        self.correlation_length_m = correlation_length_m
        # Wavevector magnitudes ~ Rayleigh around 1/L gives an approximately
        # Gaussian correlation function with length ~L.
        k_mag = rng.rayleigh(1.0 / correlation_length_m, size=n_components)
        k_dir = rng.uniform(0.0, 2 * np.pi, size=n_components)
        self._kx = k_mag * np.cos(k_dir)
        self._ky = k_mag * np.sin(k_dir)
        self._phase = rng.uniform(0.0, 2 * np.pi, size=n_components)
        self._amp = sigma_db * np.sqrt(2.0 / n_components)

    @classmethod
    def stack(cls, fields: list["SpatialShadowingField"]
              ) -> "SpatialShadowingField":
        """The fields as the rows of one, for :meth:`values_db`."""
        out = cls.__new__(cls)
        for name in vars(fields[0]):
            setattr(out, name, np.stack([vars(f)[name] for f in fields]))
        return out

    def values_db(self, x_m: float, y_m: float) -> np.ndarray:
        """Each row's shadowing in dB at a position (row i of a stack is
        field i's :meth:`value_db`, to the bit)."""
        arg = self._kx * x_m + self._ky * y_m + self._phase
        return self._amp * np.cos(arg).sum(axis=-1)

    def value_db(self, x_m: float, y_m: float) -> float:
        """Shadowing in dB at a position (deterministic)."""
        return float(self.values_db(x_m, y_m))


def fast_fading_db(los: bool, rng: np.random.Generator, k_factor_db: float = 9.0) -> float:
    """Small-scale fading gain in dB.

    Rician fading under LoS (strong direct component, K ~ 9 dB) and
    Rayleigh fading under NLoS.  Returned as a dB gain relative to the mean
    channel power (so it averages to ~0 dB).
    """
    if los:
        k = 10.0 ** (k_factor_db / 10.0)
        los_comp = math.sqrt(k / (k + 1.0))
        scatter = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re = los_comp + rng.normal(0.0, scatter)
        im = rng.normal(0.0, scatter)
    else:
        re = rng.normal(0.0, math.sqrt(0.5))
        im = rng.normal(0.0, math.sqrt(0.5))
    power = re * re + im * im
    return 10.0 * math.log10(max(power, 1e-6))

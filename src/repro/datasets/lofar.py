"""Synthetic LOFAR Transients dataset.

The paper's running example is a sample of the LOFAR Transients Key Science
project: 1,452,824 flux measurements of 35,692 radio sources, three columns
(source identifier, observation frequency, observed intensity), observations
taken at four frequency bands, and per-source behaviour following the
power law ``I = p * nu**alpha`` with heavy interference noise.  The real
sample is proprietary, so this generator reproduces its *statistical
structure*:

* each source gets a ground-truth spectral index ``alpha`` (centred on the
  thermal-emission value of about -0.7 that the paper reports for its
  example source) and proportionality constant ``p``;
* observations are spread over the four frequency bands
  {0.12, 0.15, 0.16, 0.18} GHz with small within-band jitter, matching
  Figure 1's band structure;
* multiplicative log-normal noise models interference;
* a configurable fraction of sources is *anomalous* — flat spectra,
  spectral turn-overs, or pure noise — because §4.2 argues that exactly
  those sources are found through poor model fit.

The generator also returns the ground truth (per-source parameters and
anomaly labels) so experiments can score recovered parameters and anomaly
detection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType

__all__ = [
    "LofarConfig",
    "LofarDataset",
    "SourceTruth",
    "generate",
    "paper_scale_config",
    "scaled_config",
    "PAPER_NUM_SOURCES",
    "PAPER_NUM_MEASUREMENTS",
    "DEFAULT_FREQUENCY_BANDS",
]

#: Scale reported in §2 of the paper.
PAPER_NUM_SOURCES = 35_692
PAPER_NUM_MEASUREMENTS = 1_452_824

#: The four frequency bands (GHz) the paper says the telescope observes at.
DEFAULT_FREQUENCY_BANDS = (0.12, 0.15, 0.16, 0.18)

#: Anomaly kinds injected by the generator.
ANOMALY_NONE = "none"
ANOMALY_FLAT = "flat"
ANOMALY_TURNOVER = "turnover"
ANOMALY_NOISE = "noise"


@dataclass(frozen=True)
class LofarConfig:
    """Configuration of the synthetic LOFAR generator."""

    num_sources: int = 1000
    observations_per_source: int = 41  # paper: about 40.7 on average
    frequency_bands: tuple[float, ...] = DEFAULT_FREQUENCY_BANDS
    frequency_jitter: float = 0.0  # within-band spread, GHz (0 keeps ν enumerable, as in §4.2)
    alpha_mean: float = -0.75
    alpha_std: float = 0.15
    log_p_mean: float = -2.5  # p is log-normal around exp(-2.5) ~ 0.08
    log_p_std: float = 0.8
    noise_std: float = 0.04  # multiplicative log-normal interference noise
    anomaly_fraction: float = 0.02
    missing_fraction: float = 0.001  # NULL intensities (dropped packets)
    seed: int = 20150104  # CIDR'15 conference start date


@dataclass(frozen=True)
class SourceTruth:
    """Ground-truth generating parameters for one source."""

    source_id: int
    p: float
    alpha: float
    anomaly: str

    @property
    def is_anomalous(self) -> bool:
        return self.anomaly != ANOMALY_NONE


@dataclass
class LofarDataset:
    """The generated measurements plus ground truth."""

    config: LofarConfig
    source_ids: np.ndarray
    frequencies: np.ndarray
    intensities: np.ndarray
    truths: dict[int, SourceTruth] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return len(self.source_ids)

    @property
    def num_sources(self) -> int:
        return len(self.truths)

    def schema(self) -> Schema:
        return Schema(
            [
                ColumnDef("source", DataType.INT64),
                ColumnDef("frequency", DataType.FLOAT64),
                ColumnDef("intensity", DataType.FLOAT64),
            ]
        )

    def to_table(self, name: str = "measurements") -> Table:
        """Materialise the measurements as a relational table."""
        return Table.from_numpy(
            name,
            self.schema(),
            {
                "source": self.source_ids,
                "frequency": self.frequencies,
                "intensity": self.intensities,
            },
        )

    def anomalous_sources(self) -> set[int]:
        return {sid for sid, truth in self.truths.items() if truth.is_anomalous}

    def truth_for(self, source_id: int) -> SourceTruth:
        return self.truths[source_id]

    def byte_size(self) -> int:
        """Nominal raw size of the measurement table."""
        return self.to_table().byte_size()


def paper_scale_config(**overrides) -> LofarConfig:
    """A configuration matching the paper's dataset scale (1.45M rows)."""
    params = dict(
        num_sources=PAPER_NUM_SOURCES,
        observations_per_source=int(round(PAPER_NUM_MEASUREMENTS / PAPER_NUM_SOURCES)),
    )
    params.update(overrides)
    return LofarConfig(**params)


def scaled_config(scale: float | None = None, **overrides) -> LofarConfig:
    """A configuration scaled down from paper size by ``scale`` (0 < scale <= 1).

    When ``scale`` is None it is read from the ``REPRO_SCALE`` environment
    variable (default 0.02), which is how the benchmark suite stays fast on
    laptops while remaining runnable at full paper scale.
    """
    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "0.02"))
    scale = min(max(scale, 1e-4), 1.0)
    params = dict(
        num_sources=max(int(PAPER_NUM_SOURCES * scale), 10),
        observations_per_source=int(round(PAPER_NUM_MEASUREMENTS / PAPER_NUM_SOURCES)),
    )
    params.update(overrides)
    return LofarConfig(**params)


def generate(
    num_sources: int | None = None,
    observations_per_source: int | None = None,
    seed: int | None = None,
    config: LofarConfig | None = None,
    **overrides,
) -> LofarDataset:
    """Generate a synthetic LOFAR dataset.

    Either pass a full :class:`LofarConfig` via ``config`` or override the
    common knobs directly (``num_sources``, ``observations_per_source``,
    ``seed``, plus any other config field as a keyword).
    """
    if config is None:
        params = dict(overrides)
        if num_sources is not None:
            params["num_sources"] = num_sources
        if observations_per_source is not None:
            params["observations_per_source"] = observations_per_source
        if seed is not None:
            params["seed"] = seed
        config = LofarConfig(**params)

    rng = np.random.default_rng(config.seed)

    # Per-source ground truth.
    alphas = rng.normal(config.alpha_mean, config.alpha_std, config.num_sources)
    ps = np.exp(rng.normal(config.log_p_mean, config.log_p_std, config.num_sources))
    anomaly_kinds = _assign_anomalies(rng, config)

    truths: dict[int, SourceTruth] = {}
    all_sources: list[np.ndarray] = []
    all_frequencies: list[np.ndarray] = []
    all_intensities: list[np.ndarray] = []

    bands = np.asarray(config.frequency_bands, dtype=np.float64)
    for source_id in range(1, config.num_sources + 1):
        index = source_id - 1
        kind = anomaly_kinds[index]
        p, alpha = float(ps[index]), float(alphas[index])
        truths[source_id] = SourceTruth(source_id=source_id, p=p, alpha=alpha, anomaly=kind)

        n_obs = config.observations_per_source
        band_choice = rng.integers(0, len(bands), n_obs)
        frequencies = bands[band_choice].copy()
        if config.frequency_jitter > 0:
            frequencies = frequencies + rng.normal(0.0, config.frequency_jitter, n_obs)
            frequencies = np.clip(frequencies, 0.05, 0.30)

        intensities = _intensity_for(kind, p, alpha, frequencies, rng, config)

        all_sources.append(np.full(n_obs, source_id, dtype=np.int64))
        all_frequencies.append(frequencies)
        all_intensities.append(intensities)

    source_ids = np.concatenate(all_sources)
    frequencies = np.concatenate(all_frequencies)
    intensities = np.concatenate(all_intensities)

    # Inject a small fraction of NULL (NaN) intensities: dropped packets.
    if config.missing_fraction > 0:
        missing = rng.random(len(intensities)) < config.missing_fraction
        intensities = intensities.copy()
        intensities[missing] = np.nan

    return LofarDataset(
        config=config,
        source_ids=source_ids,
        frequencies=frequencies,
        intensities=intensities,
        truths=truths,
    )


def _assign_anomalies(rng: np.random.Generator, config: LofarConfig) -> list[str]:
    kinds = [ANOMALY_NONE] * config.num_sources
    num_anomalous = int(round(config.anomaly_fraction * config.num_sources))
    if num_anomalous == 0:
        return kinds
    anomalous_indices = rng.choice(config.num_sources, size=num_anomalous, replace=False)
    choices = (ANOMALY_FLAT, ANOMALY_TURNOVER, ANOMALY_NOISE)
    for index in anomalous_indices:
        kinds[int(index)] = choices[int(rng.integers(0, len(choices)))]
    return kinds


def _intensity_for(
    kind: str,
    p: float,
    alpha: float,
    frequencies: np.ndarray,
    rng: np.random.Generator,
    config: LofarConfig,
) -> np.ndarray:
    noise = np.exp(rng.normal(0.0, config.noise_std, len(frequencies)))
    if kind == ANOMALY_NONE:
        return p * frequencies**alpha * noise
    if kind == ANOMALY_FLAT:
        # Intensity unrelated to frequency: a constant with ordinary noise.
        level = p * float(np.mean(np.asarray(config.frequency_bands))) ** alpha
        return np.full(len(frequencies), level) * noise
    if kind == ANOMALY_TURNOVER:
        # Spectral turn-over: power law with a quadratic term in log-space.
        log_nu = np.log(frequencies)
        curvature = rng.uniform(8.0, 15.0)
        log_intensity = np.log(p) + alpha * log_nu - curvature * (log_nu - np.log(0.15)) ** 2
        return np.exp(log_intensity) * noise
    # ANOMALY_NOISE: intensity is pure interference, unrelated to the model.
    level = p * float(np.mean(np.asarray(config.frequency_bands))) ** alpha
    return np.abs(rng.normal(level, level * 0.8, len(frequencies))) + 1e-6

"""Grid evaluation over tau and physical parameters, plus figure presets.

Cells are pure functions of (params, tau, mode, metrics). Each curve is
evaluated by one ``compute_curve`` call over the tau grid; the numeric
columns are computed on stacks whose every matrix is handled independently,
so results are deterministic and any single cell can be recomputed in
isolation bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import __about__
from .dynamics import validate_mode
from .exceptions import UnknownPresetError
from .metrics import DEFAULT_METRICS, MetricsSample, compute_curve
from .model import BatteryParams, build_degenerate_hamiltonian, gibbs_state_numeric
from .tolerances import Tolerances, resolve

__all__ = [
    "Curve",
    "CurveSummary",
    "PRESET_NAMES",
    "SweepConfig",
    "SweepResult",
    "figure_preset",
    "run_sweep",
]

VARIABLE_PARAMS = ("xi1", "xi2", "xic", "temperature")


@dataclass(frozen=True)
class SweepConfig:
    base: BatteryParams
    varied: tuple[tuple[str, tuple[float, ...]], ...] = ()
    tau_start: float = 0.0
    tau_stop: float = 2.0 * np.pi
    tau_count: int = 401
    metrics: tuple[str, ...] = DEFAULT_METRICS
    mode: str = "corrected"

    def __post_init__(self):
        validate_mode(self.mode, allow_oracle_only=True)
        if self.tau_count < 1:
            raise ValueError("tau_count must be at least 1")
        if self.tau_count > 1 and not self.tau_stop > self.tau_start:
            raise ValueError("tau_stop must exceed tau_start for multi-point grids")
        for name, values in self.varied:
            if name not in VARIABLE_PARAMS:
                raise ValueError(
                    f"cannot vary {name!r}; choose from {VARIABLE_PARAMS}"
                )
            if not values:
                raise ValueError(f"empty value list for varied parameter {name!r}")

    def tau_grid(self) -> np.ndarray:
        if self.tau_count == 1:
            return np.array([self.tau_start])
        return np.linspace(self.tau_start, self.tau_stop, self.tau_count)


@dataclass(frozen=True)
class CurveSummary:
    max_ergotropy: float | None
    tau_at_max: float | None
    max_power: float | None
    capacity: float | None


@dataclass(frozen=True)
class Curve:
    label: str
    params: BatteryParams
    samples: tuple[MetricsSample, ...]
    summary: CurveSummary


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    curves: tuple[Curve, ...]
    provenance: dict


def _format_value(v: float) -> str:
    return repr(float(v))


def _curve_cases(cfg: SweepConfig):
    if not cfg.varied:
        yield "base", cfg.base
        return
    names = [name for name, _ in cfg.varied]
    for combo in itertools.product(*(values for _, values in cfg.varied)):
        label = ",".join(
            f"{n}={_format_value(v)}" for n, v in zip(names, combo)
        )
        params = dataclasses.replace(cfg.base, **dict(zip(names, combo)))
        yield label, params


def _series(samples, field):
    return [getattr(s, field) for s in samples]


def _argmax_first(values) -> int | None:
    best = None
    best_i = None
    for i, v in enumerate(values):
        if v is None:
            continue
        if best is None or v > best:
            best = v
            best_i = i
    return best_i


def summarize_curve(
    params: BatteryParams,
    samples: tuple[MetricsSample, ...],
    taus: np.ndarray,
    mode: str,
    tol: Tolerances | None = None,
) -> CurveSummary:
    """Per-curve summary recomputable from the stored series.

    The ergotropy/power series used is the closed-form one except in
    oracle-only mode, where the numeric columns take over; ties in the
    argmax go to the earliest tau.
    """
    e_field = "ergotropy_numeric" if mode == "oracle-only" else "ergotropy_closed"
    p_field = "power_fd" if mode == "oracle-only" else "power_closed"
    energies = _series(samples, e_field)
    powers = _series(samples, p_field)
    i = _argmax_first(energies)
    max_e = energies[i] if i is not None else None
    tau_at = float(taus[i]) if i is not None else None
    j = _argmax_first(powers)
    max_p = powers[j] if j is not None else None
    if mode == "oracle-only":
        h = build_degenerate_hamiltonian(params)
        rho = gibbs_state_numeric(h, params.temperature, resolve(tol))
        capacity = params.xic - float(np.trace(h @ rho).real)
    else:
        caps = [s.capacity_closed for s in samples if s.capacity_closed is not None]
        capacity = caps[0] if caps else None
    return CurveSummary(
        max_ergotropy=max_e, tau_at_max=tau_at, max_power=max_p, capacity=capacity
    )


def run_sweep(cfg: SweepConfig, tol: Tolerances | None = None) -> SweepResult:
    """Evaluate every (curve, tau) cell of the configured grid."""
    tol = resolve(tol)
    taus = cfg.tau_grid()
    curves = []
    for label, params in _curve_cases(cfg):
        samples = compute_curve(params, taus, cfg.mode, cfg.metrics, tol)
        summary = summarize_curve(params, samples, taus, cfg.mode, tol)
        curves.append(Curve(label=label, params=params, samples=samples, summary=summary))
    provenance = {
        "package": __about__.NAME,
        "version": __about__.VERSION,
        "mode": cfg.mode,
        "metrics": list(cfg.metrics),
        "tolerances": dataclasses.asdict(tol),
    }
    return SweepResult(config=cfg, curves=tuple(curves), provenance=provenance)


# Figure presets: parameter grids of the reproduced figure panels. Each
# varies one knob over {0.1, 0.5, 1, 2} with the others fixed. Presets
# default to verbatim mode because their purpose is reproducing the original
# figure data, which follows the published (verbatim) closed forms; pass
# mode="corrected" for the oracle-consistent counterpart.
_GRID = (0.1, 0.5, 1.0, 2.0)
_PRESETS = {
    "fig1": dict(fixed=dict(xi1=1.5, xic=0.05, temperature=0.5), vary="xi2"),
    "fig2": dict(fixed=dict(xi2=1.5, xic=0.5, temperature=0.1), vary="xi1"),
    "fig3": dict(fixed=dict(xi1=1.5, xi2=1.5, temperature=0.1), vary="xic"),
    "fig4": dict(fixed=dict(xi1=1.5, xi2=0.5, temperature=0.1), vary="xic"),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


def figure_preset(
    name: str,
    mode: str = "verbatim",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
) -> SweepConfig:
    """Sweep configuration reproducing one figure's data panels."""
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    fields = dict(preset["fixed"])
    fields[preset["vary"]] = _GRID[0]
    base = BatteryParams(**fields)
    return SweepConfig(
        base=base,
        varied=((preset["vary"], _GRID),),
        tau_start=0.0,
        tau_stop=2.0 * np.pi,
        tau_count=401,
        metrics=metrics,
        mode=mode,
    )

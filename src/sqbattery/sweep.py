"""Grid evaluation over tau and physical parameters, plus figure presets.

Cells are pure functions of (params, tau, mode, metrics). A sweep's curves
are drawn from one ``compute_curves`` call over the sweep's one ``TauGrid``;
the numeric columns are computed on stacks whose every matrix is handled
independently, so results are deterministic and any single cell can be
recomputed in isolation bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import __about__
from .dynamics import TauGrid, validate_mode
from .exceptions import UnknownPresetError
from .metrics import DEFAULT_METRICS, CurveColumns, compute_curves, main_fields
from .model import BatteryParams
from .tolerances import Tolerances, resolve

__all__ = [
    "Curve",
    "CurveSummary",
    "PRESET_NAMES",
    "SweepConfig",
    "SweepResult",
    "figure_preset",
    "run_sweep",
    "stream_sweep",
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
        if not math.isfinite(self.tau_start):
            raise ValueError("tau_start must be finite")
        if not math.isfinite(self.tau_stop):
            raise ValueError("tau_stop must be finite")
        try:
            count = operator.index(self.tau_count)
        except TypeError:  # a float or a string
            count = None
        if count is None or isinstance(self.tau_count, bool):
            raise ValueError(f"tau_count must be an integer, got {self.tau_count!r}")
        if count < 1:
            raise ValueError("tau_count must be at least 1")
        if self.tau_count > 1 and not self.tau_stop > self.tau_start:
            raise ValueError("tau_stop must exceed tau_start for multi-point grids")
        names = [name for name, _ in self.varied]
        for name, values in self.varied:
            if name not in VARIABLE_PARAMS:
                raise ValueError(
                    f"cannot vary {name!r}; choose from {VARIABLE_PARAMS}"
                )
            if not values:
                raise ValueError(f"empty value list for varied parameter {name!r}")
            # a curve takes one value per name: only a repeat's last would count
            if names.count(name) > 1:
                raise ValueError(f"parameter {name!r} is varied more than once")
            for value in values:  # else a bad value fails after earlier curves are written
                dataclasses.replace(self.base, **{name: value})

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
    samples: CurveColumns
    summary: CurveSummary


@dataclass(frozen=True)
class SweepResult:
    """A sweep's config, curves and provenance.

    :func:`run_sweep` gives a tuple of curves. The writers of
    :mod:`sqbattery.output` read ``curves`` once, in order, so the iterator
    of :func:`stream_sweep` is written block by block, as it is evaluated.
    """

    config: SweepConfig
    curves: Iterable[Curve]
    provenance: dict


def _curve_cases(cfg: SweepConfig):
    if not cfg.varied:
        yield "base", cfg.base
        return
    names = [name for name, _ in cfg.varied]
    for combo in itertools.product(*(values for _, values in cfg.varied)):
        label = ",".join(f"{n}={float(v)!r}" for n, v in zip(names, combo))
        params = dataclasses.replace(cfg.base, **dict(zip(names, combo)))
        yield label, params


def _argmax_first(values: np.ndarray | None) -> int | None:
    """Index of the largest value as Python's ``max`` finds it (the first of
    ties; a leading NaN wins, later NaNs are passed over); None for none."""
    if values is None or not len(values):
        return None
    i = int(np.argmax(values))  # the first NaN, if any: a leading one wins
    return int(np.nanargmax(values)) if i and math.isnan(values[i]) else i


# cells within TIE_EPS * |m| of the maximum m tie with it, or in oracle-only
# mode within TIE_EPS * max(|m|, S), S the energy scale of H: rounding spreads
# equal peaks by a few ulps of m in the closed forms and by a few eps * S in
# the oracle, whose energies are O(S) before the passive energy is taken off
TIE_EPS = 64 * sys.float_info.epsilon


def _energy_scale(p: BatteryParams) -> float:
    """The scale of the entries of H: the largest of xi1, xi2, |xic|, |xic1| and |xic2|."""
    return max(p.xi1, p.xi2, abs(p.xic), abs(p.xic1), abs(p.xic2))


def _first_peak(values: np.ndarray, i: int, scale: float) -> int:
    """The first index whose value ties with the maximum ``values[i]`` (see
    :data:`TIE_EPS`); ``i`` itself if the maximum is not finite."""
    m = float(values[i])
    if not math.isfinite(m):
        return i
    return int(np.argmax(values >= m - TIE_EPS * max(abs(m), scale)))


def summarize_curve(curve: CurveColumns, mode: str, params: BatteryParams) -> CurveSummary:
    """Per-curve summary, recomputable from the stored columns and the
    curve's ``params``.

    The ergotropy/power columns used are the closed-form ones except in
    oracle-only mode, where the numeric columns and the reconciled capacity
    take over. ``max_ergotropy`` and ``max_power`` are the largest values as
    :func:`_argmax_first` finds them; ``tau_at_max`` is the first tau whose
    ergotropy ties with that maximum, to within :data:`TIE_EPS` of it (in
    oracle-only mode, of the larger of it and the :func:`_energy_scale` of
    ``params``), so equal peaks a period apart give the first one.
    """
    fields = main_fields(mode)
    energies = curve.columns.get(fields["ergotropy"])
    powers = curve.columns.get(fields["power"])
    i, j = _argmax_first(energies), _argmax_first(powers)
    scale = _energy_scale(params) if mode == "oracle-only" else 0.0
    return CurveSummary(
        max_ergotropy=None if i is None else float(energies[i]),
        tau_at_max=None if i is None else float(curve.taus[_first_peak(energies, i, scale)]),
        max_power=None if j is None else float(powers[j]),
        capacity=curve.columns.get(fields["capacity"]) if len(curve) else None,
    )


def stream_sweep(cfg: SweepConfig, tol: Tolerances | None = None) -> SweepResult:
    """The result of :func:`run_sweep` with ``curves`` an iterator that draws
    the curves from one :func:`compute_curves` call over the sweep's one tau
    grid, which evaluates them a block at a time as they are drawn, so only
    one block's columns need be alive at a time.

    The grid and the first block are built and evaluated on call, so a
    request that fails at once, such as one whose first block raises,
    fails before anything is drawn.
    """
    tol = resolve(tol)
    grid = TauGrid(cfg.tau_grid())
    cases, drawn = itertools.tee(_curve_cases(cfg))  # holds the cases of one block at most
    columns = compute_curves((p for _, p in drawn), grid, cfg.mode, cfg.metrics, tol)
    curves = (Curve(label=label, params=params, samples=samples,
                    summary=summarize_curve(samples, cfg.mode, params))
              for (label, params), samples in zip(cases, columns))
    first = next(curves)
    provenance = {
        "package": __about__.NAME,
        "version": __about__.VERSION,
        "mode": cfg.mode,
        "metrics": list(cfg.metrics),
        "tolerances": dataclasses.asdict(tol),
    }
    return SweepResult(config=cfg, curves=itertools.chain((first,), curves),
                       provenance=provenance)


def run_sweep(cfg: SweepConfig, tol: Tolerances | None = None) -> SweepResult:
    """Evaluate every (curve, tau) cell of the configured grid."""
    result = stream_sweep(cfg, tol)
    return dataclasses.replace(result, curves=tuple(result.curves))


# Figure presets: parameter grids of the reproduced figure panels. Each
# varies one knob over {0.1, 0.5, 1, 2} with the others fixed, on the default
# tau grid; its base, BatteryParams(xi1, xi2, xic, temperature), holds the
# knob's first value.
_GRID = (0.1, 0.5, 1.0, 2.0)
_PRESETS = {
    "fig1": SweepConfig(BatteryParams(1.5, 0.1, 0.05, 0.5), (("xi2", _GRID),)),
    "fig2": SweepConfig(BatteryParams(0.1, 1.5, 0.5, 0.1), (("xi1", _GRID),)),
    "fig3": SweepConfig(BatteryParams(1.5, 1.5, 0.1, 0.1), (("xic", _GRID),)),
    "fig4": SweepConfig(BatteryParams(1.5, 0.5, 0.1, 0.1), (("xic", _GRID),)),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


def figure_preset(
    name: str,
    mode: str = "verbatim",
    metrics: tuple[str, ...] = DEFAULT_METRICS,
) -> SweepConfig:
    """Sweep configuration reproducing one figure's data panels, in ``mode``
    with ``metrics``.

    Presets default to verbatim mode because their purpose is reproducing
    the original figure data, which follows the published (verbatim) closed
    forms; pass ``mode="corrected"`` for the oracle-consistent counterpart.
    """
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return dataclasses.replace(preset, mode=mode, metrics=metrics)

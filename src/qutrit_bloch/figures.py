"""Bundled example runs: one config per published figure panel.

The ``a`` panels are resonant (delta = 0) and the ``b`` panels off-resonant;
figs 1-3 are time-series runs and figs 4-6 phase-portrait runs over the same
couplings. All use equal initial populations and t in [0, 100] at dt = 0.01.
"""

from __future__ import annotations

from importlib import resources

from .config import RunConfig, parse_run_config
from .dynamics import SimParams

__all__ = ["FIGURE_NAMES", "figure_config_text", "load_figure", "parameter_sets"]

FIGURE_NAMES = (
    "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
    "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b",
)


def figure_config_text(name: str) -> str:
    """Return the raw config document for a bundled figure name."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; expected one of {', '.join(FIGURE_NAMES)}")
    return resources.files(__package__).joinpath(f"configs/{name}.cfg").read_text()


def load_figure(name: str) -> RunConfig:
    """Parse a bundled figure config into a validated RunConfig."""
    return parse_run_config(figure_config_text(name))


def parameter_sets() -> dict[str, SimParams]:
    """Distinct (configuration, detuning) simulation parameters of the figures.

    Keys look like ``lambda@0.2``; duplicates between the time-series and
    phase-portrait panels are collapsed.
    """
    out: dict[str, SimParams] = {}
    for name in FIGURE_NAMES:
        p = load_figure(name).params
        out.setdefault(f"{p.config.value}@{p.delta:g}", p)
    return out

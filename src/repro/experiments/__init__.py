"""Experiment drivers reproducing the paper's evaluation (Tables 3-13) plus
ablations; see DESIGN.md for the experiment index.

``runner`` is not imported here: ``python -m repro.experiments.runner``
imports this package first, and runpy warns when the module it is about to
run is already in ``sys.modules``.  ``from repro.experiments import runner``
imports it on demand.
"""

from repro.experiments import (  # noqa: F401  (re-exported submodules)
    ablation,
    common,
    parallel,
    random_graphs,
    random_monitors,
    real_networks,
    truncated,
)

__all__ = [
    "ablation",
    "common",
    "parallel",
    "random_graphs",
    "random_monitors",
    "real_networks",
    "runner",
    "truncated",
]

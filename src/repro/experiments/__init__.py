"""One module per paper figure plus the in-text statistics.

Each module exposes ``run(...) -> ExperimentResult`` containing the
regenerated series and paper-vs-measured shape checks; ``runner.run_all``
executes the full suite.
"""

from . import (
    anycast_quality,
    enduser_latency,
    fig1_qps,
    fig2_skew,
    fig3_per_resolver,
    fig4_stability,
    fig8_failover,
    fig9_decision_tree,
    fig10_nxdomain,
    fig11_speedup,
    fig12_restime,
    taxonomy,
    text_stats,
)


def __getattr__(name: str):
    # run_all loads lazily (PEP 562): importing .runner here would put
    # it in sys.modules before `python -m repro.experiments.runner`
    # executes it, which runpy warns about.
    if name == "run_all":
        from .runner import run_all
        return run_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "anycast_quality", "enduser_latency", "fig1_qps", "fig2_skew", "fig3_per_resolver", "fig4_stability",
    "fig8_failover", "fig9_decision_tree", "fig10_nxdomain",
    "fig11_speedup", "fig12_restime", "run_all", "taxonomy",
    "text_stats",
]

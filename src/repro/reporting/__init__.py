"""Reporting: paper-style tables, experiment runners, comparisons.

Exports load on first use: :mod:`repro.reporting.paper_tables` renders
Tables I-VI from plain counts without importing the pipeline, and
:mod:`repro.reporting.experiments` (which does import it) is loaded
only by callers that hand it pipeline objects.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Comparison": ".comparison",
    "ExperimentOutput": ".paper_tables",
    "PAPER": ".comparison",
    "compare": ".comparison",
    "comparison_rows": ".comparison",
    "experiment_fig5": ".experiments",
    "experiment_fig7": ".experiments",
    "experiment_table1": ".experiments",
    "experiment_table2": ".experiments",
    "experiment_table3": ".experiments",
    "experiment_table4": ".experiments",
    "experiment_table5": ".experiments",
    "experiment_table6": ".experiments",
    "format_series": ".tables",
    "format_table": ".tables",
    "render_markdown_report": ".markdown",
    "sweep_summary": ".experiments",
    "tables_from_envelope": ".paper_tables",
    "write_markdown_report": ".markdown",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted(_EXPORTS)

"""Figure and table builders: the series the paper's evaluation reports.

Each ``figN_*`` function in :mod:`repro.analysis.figures` regenerates the
data behind one figure of the paper; :mod:`repro.analysis.tables` covers the
quantitative tables; :mod:`repro.analysis.report` renders everything as the
ASCII rows the benchmark harness prints.
"""

from repro.analysis.cache import RunCache
from repro.analysis.scale import BenchScale, bench_scale

__all__ = [
    "RunCache",
    "BenchScale",
    "bench_scale",
]

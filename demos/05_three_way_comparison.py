"""
Three-way comparison reports
============================

Every scenario can run under three collector configurations -- gc-on (pause
at the trigger), gc-off (never collect), and blade (coordinate) -- over the
identical seed and workload.  The report writer emits a tab-separated
summary table plus one CDF file per configuration for external plotting.
"""

import pathlib
import tempfile

from gcsim import default_config, emit_report
from gcsim.metrics import render_summary_table
from gcsim.scenarios import run_compare

# Replicated key-value cluster, shortened to 90 s for a quick demo.
cfg = default_config("raft", duration_s=90, background_alloc_bytes_per_s=16 * 1024 * 1024)
runs = run_compare(cfg)
summaries = [r.summary() for r in runs]
print(render_summary_table(summaries))

with tempfile.TemporaryDirectory(prefix="gcsim_demo_") as out_dir:
    paths = emit_report(summaries, out_dir, prefix="raft90")
    print("report files (removed when the demo ends):")
    for p in paths:
        print(f"  {p}")
    cdf = pathlib.Path(paths[2]).read_text().splitlines()

print("\nfirst rows of the blade CDF (latency_ms, cumulative fraction):")
for line in cdf[:6]:
    print(f"  {line}")

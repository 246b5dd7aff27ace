"""Fault-tolerant campaign layer: checkpointed, resumable parameter sweeps.

A *campaign* is a declarative parameter grid (axes × replication counts
× a deterministic seed ladder) expanded into
:class:`~repro.runner.spec.RunSpec`\\ s and executed through the
existing :class:`~repro.runner.executor.Runner` — with the orchestration
state made crash-safe end to end:

* a **write-ahead journal** (checksummed append-only JSONL, fsync'd
  commits) plus **shard-level result checkpoints** (atomic, checksummed,
  one durable JSON file per cell), so a ``kill -9`` mid-sweep resumes
  from the last committed shard and the merged output is byte-identical
  to an uninterrupted run;
* **per-cell retry budgets** with bounded exponential backoff and
  seeded jitter, classified by failure mode (timeout / crash /
  deterministic error / invariant violation / checkpoint IO);
* a **streaming reducer** folding shards through mergeable
  :class:`~repro.telemetry.streaming.QuantileSketch` aggregates, so
  campaign memory stays flat in the replication count.

``tests/chaos_harness.py`` injects worker kills, parent SIGKILL/SIGINT,
shard corruption and simulated disk pressure against this layer and
asserts resume-to-identical-results.

Typical use::

    from repro.campaign import CampaignEngine, CampaignSpec

    spec = CampaignSpec.make(
        name="scheme-sweep",
        fn="repro.campaign.cells:simulate_cell",
        grid={"scheme": ["fifo", "airtime"], "stations": ["three"]},
        replications=8,
    )
    outcome = CampaignEngine(spec, "campaigns/scheme-sweep").run()

or from the CLI::

    python -m repro.experiments.cli campaign run spec.json --dir DIR
    python -m repro.experiments.cli campaign resume --dir DIR
    python -m repro.experiments.cli campaign status --dir DIR

Statistical layer (PR 9): specs may set a ``precision`` target — the
engine then schedules replication *rounds* and retires grid points
whose targeted metrics' relative confidence-interval half-widths are
tight enough (``repro.campaign.stats``); ``merged.json`` carries every
group's estimates and intervals in its per-group ``ci`` sections.
"""

from repro.campaign.engine import (
    CampaignEngine,
    CampaignOutcome,
    CampaignStatus,
    CellStatus,
    SpecMismatch,
    campaign_status,
    format_status,
)
from repro.campaign.journal import Journal, read_journal
from repro.campaign.reducer import CampaignReducer, flatten_metrics
from repro.campaign.retry import DEFAULT_BUDGETS, RetryPolicy, classify_failure
from repro.campaign.shards import (
    ShardCorrupt,
    read_shard,
    scan_shards,
    shard_path,
    write_shard,
)
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.campaign.stats import (
    Interval,
    QuantileInterval,
    StopDecision,
    evaluate_group,
    jain_interval,
    mean_interval,
    quantile_rank_interval,
    sketch_mean_interval,
)

__all__ = [
    "CampaignEngine",
    "CampaignOutcome",
    "CampaignReducer",
    "CampaignSpec",
    "CampaignStatus",
    "CellSpec",
    "CellStatus",
    "DEFAULT_BUDGETS",
    "Interval",
    "Journal",
    "QuantileInterval",
    "RetryPolicy",
    "ShardCorrupt",
    "SpecMismatch",
    "StopDecision",
    "campaign_status",
    "classify_failure",
    "evaluate_group",
    "flatten_metrics",
    "format_status",
    "jain_interval",
    "mean_interval",
    "quantile_rank_interval",
    "read_journal",
    "read_shard",
    "scan_shards",
    "shard_path",
    "sketch_mean_interval",
    "write_shard",
]

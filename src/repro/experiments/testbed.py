"""The paper's testbed: one AP, its stations and the wired server.

:class:`Testbed` is the one-cell entry to
:class:`~repro.topology.campus.CampusTestbed` — the moral equivalent of
the five-PC testbed (Section 4) or the 30-client third-party testbed
(Section 4.1.5), described by a list of PHY rates instead of a
:class:`~repro.topology.spec.Topology`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.phy.rates import PhyRate
from repro.topology.campus import CampusTestbed, TestbedOptions
from repro.topology.spec import BssSpec, Topology

if TYPE_CHECKING:  # pragma: no cover - the runner stays off the import path
    from repro.runner import RunSpec

__all__ = ["Testbed", "TestbedOptions", "scheme_specs"]


class Testbed(CampusTestbed):
    """One cell on channel 0; station ``i`` transmits at ``rates[i]``."""

    def __init__(self, rates: Sequence[PhyRate], options: TestbedOptions) -> None:
        # The cell's MCS indices are placeholders: ``rates`` pins every
        # station, including rates that are not an MCS index.
        cell = BssSpec(bss_id=0, mcs_indices=(0,) * len(rates))
        super().__init__(
            Topology(bsses=(cell,)), options, rates=dict(enumerate(rates))
        )


# Starts with "Test" but is library code, not a test case.
Testbed.__test__ = False


def scheme_specs(experiment: str, label: str, schemes, telemetry=None,
                 **kwargs) -> List[RunSpec]:
    """One ``repro.experiments.<experiment>:run_scheme`` spec per scheme
    (the runner's unit of parallelism), labelled ``<label>/<scheme>``.

    ``telemetry`` is resolved per run (output paths gain the run label)
    and, like every keyword, travels in the spec kwargs and so in the
    cache digest: a traced run never collides with an untraced one."""
    # Lazy import: building a testbed never loads the runner.
    from repro.runner import RunSpec

    out = []
    for scheme in schemes:
        name = f"{label}/{scheme.value}"
        if telemetry is not None:
            kwargs["telemetry"] = telemetry.for_run(name)
        out.append(RunSpec.make(f"repro.experiments.{experiment}:run_scheme",
                                label=name, scheme=scheme, **kwargs))
    return out

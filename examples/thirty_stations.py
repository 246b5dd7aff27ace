#!/usr/bin/env python3
"""Scaling to 30 stations — the third-party validation (Section 4.1.5).

One station is pinned to the 1 Mbps legacy rate on a busy 2.4 GHz
channel with 28 fast clients running TCP downloads (plus one ping-only
client).  Without airtime fairness the 1 Mbps station grabs most of the
air; with it, all 29 contending stations get an equal 1/29 share and
total throughput multiplies.

Run:  python examples/thirty_stations.py
"""

from repro.experiments import scaling
from repro.experiments.registry import BY_ID
from repro.mac.ap import Scheme


def main() -> None:
    print("30-station TCP download test (Figures 9-10, §4.1.5)")
    results = BY_ID["fig09"].run(duration_s=15.0, warmup_s=5.0)
    print()
    print(scaling.format_table(results))

    by_scheme = {r.scheme: r for r in results}
    base = by_scheme[Scheme.FQ_CODEL]
    fair = by_scheme[Scheme.AIRTIME]
    print()
    print(f"slow (1 Mbps) station airtime: {base.slow_share:.1%} under "
          f"FQ-CoDel -> {fair.slow_share:.1%} under the airtime scheduler "
          f"(fair share is 1/29 = {1 / 29:.1%})")
    print(f"total throughput: {base.total_mbps:.1f} -> {fair.total_mbps:.1f} "
          f"Mbps ({fair.total_mbps / base.total_mbps:.1f}x)")


if __name__ == "__main__":
    main()

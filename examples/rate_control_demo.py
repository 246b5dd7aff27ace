#!/usr/bin/env python3
"""Rate control on a degraded channel (extension demo).

The paper's testbed pins station rates; this extension scenario gives a
station a channel that can only sustain MCS3 (28.9 Mbps) and lets the
AP's Minstrel-style controller discover that from transmission reports.
It compares three policies:

* pinned at MCS15 (what the link negotiated) — most transmissions fail;
* pinned at MCS3 (oracle) — the best fixed choice;
* learned (Minstrel) — converges near the oracle without being told.

It also shows the §3.1.1 coupling: the CoDel tuner follows the *learned*
rate estimate, so a station degrading below 12 Mbps automatically gets
the relaxed 50 ms/300 ms CoDel parameters.

Run:  python examples/rate_control_demo.py
"""

from repro.core.codel import CODEL_SLOW_STATION
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.mac.ap import APConfig, Scheme
from repro.phy.channel import StationChannel
from repro.phy.rates import mcs
from repro.traffic.udp import UdpDownloadFlow


def run(pinned_mcs=None, rate_control=False, max_reliable=3):
    channels = {0: StationChannel(max_reliable_mcs=max_reliable,
                                  step_error=0.5)}
    rate = mcs(pinned_mcs) if pinned_mcs is not None else mcs(15)
    testbed = Testbed(
        [rate],
        TestbedOptions(
            scheme=Scheme.AIRTIME,
            seed=3,
            ap_config=APConfig(rate_control=rate_control),
            station_channels=channels,
        ),
    )
    flow = UdpDownloadFlow(testbed.sim, testbed.server, testbed.stations[0],
                           rate_bps=40e6).start()
    # Goodput over the measured window only: Minstrel's learning in the
    # warm-up does not count.
    testbed.run(duration_s=8.0, warmup_s=2.0)
    goodput = flow.sink.window_throughput_bps() / 1e6
    learned = None
    controller = testbed.ap._rate_controllers.get(0)
    if controller is not None:
        learned = controller.best_rate().name
    return goodput, learned, testbed


def main() -> None:
    print("Rate control on a channel that only sustains MCS3 (28.9 Mbps)\n")
    goodput, _, _ = run(pinned_mcs=15)
    print(f"  pinned MCS15 (negotiated):   {goodput:6.1f} Mbps goodput")
    goodput, _, _ = run(pinned_mcs=3)
    print(f"  pinned MCS3  (oracle):       {goodput:6.1f} Mbps goodput")
    goodput, learned, _ = run(rate_control=True)
    print(f"  Minstrel (learned -> {learned}): {goodput:6.1f} Mbps goodput")

    # The CoDel coupling: degrade the channel to MCS0 (7.2 Mbps < the
    # 12 Mbps threshold) and watch the tuner switch parameters.
    _, learned, testbed = run(rate_control=True, max_reliable=0)
    params = testbed.ap.codel_tuner.params_for(0)
    relaxed = params is CODEL_SLOW_STATION
    print(f"\nchannel degraded to MCS0: controller learned {learned}; "
          f"CoDel switched to relaxed 50ms/300ms parameters: {relaxed}")


if __name__ == "__main__":
    main()

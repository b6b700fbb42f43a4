// BURST timing knobs.

#ifndef BLADERUNNER_SRC_BURST_CONFIG_H_
#define BLADERUNNER_SRC_BURST_CONFIG_H_

#include "src/sim/time.h"

namespace bladerunner {

struct BurstConfig {
  // Device reconnect backoff after a dropped connection: capped exponential
  // backoff with full jitter. The first attempt draws uniformly from
  // [min, max]; each consecutive failure doubles the window's upper edge up
  // to reconnect_backoff_cap, and a successful connect resets the exponent.
  // This is what keeps a fleet-wide disconnect from retrying at a fixed
  // aggregate rate forever when the POPs stay unreachable.
  SimTime reconnect_backoff_min = Millis(400);
  SimTime reconnect_backoff_max = Seconds(3);
  SimTime reconnect_backoff_cap = Seconds(48);

  // How quickly a surviving side detects an abrupt peer failure
  // (heartbeat timeout; §4 footnote 11).
  SimTime failure_detection_delay = Millis(600);

  // How long a BRASS host keeps the state of a detached stream so a
  // reconnect can resume seamlessly (§4 axiom 2, last paragraph).
  SimTime server_stream_keep_timeout = Seconds(30);

  // Mobile radio promotion: a device whose radio has gone idle pays a
  // wake-up delay before its next uplink send. This is what makes the
  // paper's device-observed subscription latency (~490ms NA/EU, ~970ms
  // worldwide) so much larger than the backend path alone.
  double radio_promotion_ms = 330.0;
  double radio_promotion_sigma = 0.45;
  SimTime radio_idle_threshold = Seconds(8);

  // ---- edge placement (docs/BURST.md "Placement") ----
  // Master enable for POP-side in-transit processing. Off by default: every
  // POP is a dumb forwarder and the deployment is byte-identical to the
  // pre-placement codebase, regardless of per-app BrassPlacement values.
  bool pop_placement_enabled = false;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_CONFIG_H_

// BRASS host configuration.

#ifndef BLADERUNNER_SRC_BRASS_CONFIG_H_
#define BLADERUNNER_SRC_BRASS_CONFIG_H_

#include <cstddef>

#include "src/brass/app_descriptor.h"
#include "src/burst/durable_log.h"
#include "src/sim/time.h"

namespace bladerunner {

// The host's shared fetch pipeline between BRASS instances and the WAS
// (docs/BRASS_FETCH.md): coalesces concurrent fetches of the same event
// version into one WAS call, caches versioned payloads, and batches the
// per-viewer privacy checks of a host's streams into that one call.
// The coalescing window and the viewer cap of one batched RPC are constants
// of src/brass/fetch_pipeline.cpp.
struct FetchPipelineConfig {
  bool enabled = true;

  // LRU payload-cache entries per host.
  size_t cache_capacity = 512;
};

// Overload-control knobs (docs/OVERLOAD.md). Defaults are inert: no
// pacing, so existing configs behave exactly as before.
struct BrassOverloadConfig {
  // Minimum gap between consecutive data pushes on one stream (0: unpaced
  // fast path). When pacing is on, deliveries that arrive faster than the
  // gap queue per stream, conflate, and shed.
  SimTime min_push_gap = 0;

  // Default bound on queued deliveries per stream while pacing; an app's
  // BrassAppDescriptor::max_pending_per_stream overrides when non-zero.
  // When the queue is full the oldest pending delivery is shed.
  size_t max_pending_per_stream = 8;

  // Degrade-to-poll trigger: within one shed window a stream must shed at
  // least `degrade_min_sheds` deliveries AND at least `degrade_shed_fraction`
  // of its delivery attempts before BRASS signals degrade_to_poll.
  int degrade_min_sheds = 8;
  double degrade_shed_fraction = 0.5;
  SimTime shed_window = Seconds(2);

  // While degraded, the host re-evaluates every interval; a window whose
  // offered load fits under the push pacing flips the stream back.
  SimTime recover_check_interval = Seconds(2);
};

struct BrassConfig {
  // Event-loop processing time charged when a Pylon event is dispatched to
  // an application instance (the JS-VM callback cost).
  double event_dispatch_ms = 1.4;

  // Processing time charged for a new stream subscribe at the host.
  double subscribe_dispatch_ms = 2.0;

  // Timeout for WAS calls issued by BRASS applications.
  SimTime was_call_timeout = Seconds(5);

  // Cap of BRASS instances (VMs) per host: "the number of BRASSes per host
  // is limited to two per core" (§3.2); our hosts model 18 cores.
  int max_apps_per_host = 36;

  // Shared WAS fetch pipeline (coalescing + versioned payload cache).
  FetchPipelineConfig fetch;

  // Delivery pacing/conflation, degrade-to-poll.
  BrassOverloadConfig overload;

  // Durable reliable-delivery tier: per-topic log bounds, replay pacing,
  // resume-token persistence cadence. Only apps whose descriptor sets
  // `durable` touch any of it.
  DurableLogConfig durable_log;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_CONFIG_H_

// Per-application QoS/routing descriptor.
//
// Each BRASS application declares its delivery policy once, at registration
// time, instead of scattering per-app knobs across the router (SetAppPolicy
// string lookups) and the host. The descriptor is a leaf type — it depends
// only on the standard library — so the POP can read placement and pacing
// without pulling in the BRASS host headers.

#ifndef BLADERUNNER_SRC_BRASS_APP_DESCRIPTOR_H_
#define BLADERUNNER_SRC_BRASS_APP_DESCRIPTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace bladerunner {

// How the router places new streams for an app across BRASS hosts.
enum class BrassRoutingPolicy {
  kByLoad,   // least-loaded alive host (ties broken round-robin)
  kByTopic,  // hash of (app, subscription) so one topic lands on one host
};

// Where an app's per-event processing stages run (docs/BURST.md
// "Placement"). Fetch and per-viewer privacy always stay regional; only the
// convergent, viewer-independent stages (coarse filter, newest-version-wins
// conflation) may migrate to the POP. The numeric values ride in the stream
// header's placement stamp, so they are part of the wire contract.
enum class BrassPlacement {
  // Everything runs at the regional BRASS host (the default; byte-identical
  // to the pre-placement codebase).
  kRegional = 0,
  // The POP applies the app's viewer-independent coarse filter to event
  // envelopes, then conflates newest-version-wins and paces each stream,
  // resolving payloads through the POP-local versioned payload cache; the
  // regional host still applies the viewer-dependent filters and privacy.
  // (Value 1 is unused: the stamp carries these values on the wire, so the
  // others keep theirs.)
  kPopFilterConflate = 2,
  // Ablation seam: no filtering or rate limiting anywhere on the server
  // path — every event is fetched and pushed and the *device* decides
  // (the firehose the paper's design avoids, §2). Replaces the retired
  // ad-hoc LVC filter-location bool.
  kDeviceFirehose = 3,
};

inline const char* ToString(BrassPlacement p) {
  switch (p) {
    case BrassPlacement::kRegional:
      return "regional";
    case BrassPlacement::kPopFilterConflate:
      return "pop_filter_conflate";
    case BrassPlacement::kDeviceFirehose:
      return "device_firehose";
  }
  return "regional";
}

// Declarative description of the viewer-independent coarse filter a POP may
// run on an app's event envelopes: drop any event whose `quality_field`
// metadata value is below `min_quality`. Empty field name = no coarse
// filter (everything passes on to payload resolution).
struct PopFilterSpec {
  std::string quality_field;
  double min_quality = 0.0;
};

struct BrassAppDescriptor {
  std::string name;
  BrassRoutingPolicy routing = BrassRoutingPolicy::kByLoad;
  // Whether queued deliveries on one stream may be coalesced newest-version
  // wins when they carry the same conflation key. Apps opt individual
  // deliveries in by passing a non-empty DeliverOptions::conflation_key.
  bool conflatable = false;
  // Bound on queued (paced) deliveries per stream; 0 inherits the host-wide
  // BrassOverloadConfig::max_pending_per_stream default.
  size_t max_pending_per_stream = 0;
  // Whether sustained shedding on a stream may degrade it to the polling
  // baseline. Only meaningful for apps with a poll fallback (LVC).
  bool degrade_to_poll = false;
  // Opt into the durable reliable-delivery tier (src/burst/durable_log.h):
  // every event the app appends via BrassRuntime::AppendDurable gets a dense
  // per-topic sequence, deliveries carry it, the stream's resume token
  // tracks the device's acked offset, and a reconnect replays exactly the
  // missed suffix. Durable deliveries bypass the conflation queue — a
  // conflated-away sequence could never be replayed consistently.
  bool durable = false;
  // Where this app's per-event stages run (see BrassPlacement above). POPs
  // honor kPopFilterConflate only when the deployment enables
  // edge placement (BurstConfig::pop_placement_enabled) and the app is not
  // durable — durable sequences cannot be conflated or filtered in transit.
  BrassPlacement placement = BrassPlacement::kRegional;
  // The viewer-independent coarse filter a placement-capable POP applies.
  PopFilterSpec pop_filter;
  // Pacing gap between POP-side pushes per stream under
  // kPopFilterConflate, in simulated microseconds (kept as a plain integer
  // so this header stays a stdlib-only leaf). 0 = no pacing: resolve and
  // push every surviving envelope immediately.
  int64_t pop_push_gap_us = 0;
};

// Registration-time validation (docs/BURST.md "Descriptor validation").
// Rejects flag combinations that are mutually contradictory: each of these
// used to be accepted and then silently ignored by whichever layer hit the
// contradiction first, so a misconfigured app looked healthy while one of
// its declared policies never fired.
//
//   durable + degrade_to_poll — durable deliveries bypass the conflating
//     delivery queue entirely, so the shed-rate trigger behind
//     degrade-to-poll can never fire; and a durable stream that *did*
//     degrade would trade its gap-free replayable sequence for lossy
//     polling.
//   durable + conflatable — conflation coalesces versions newest-wins; a
//     durable sequence must deliver every appended entry exactly once.
//
// Returns false and describes the contradiction in *error (which may be
// null when the caller only needs the verdict).
inline bool ValidateBrassAppDescriptor(const BrassAppDescriptor& descriptor,
                                       std::string* error) {
  auto reject = [&descriptor, error](const char* why) {
    if (error != nullptr) {
      *error = "app '" + descriptor.name + "': " + why;
    }
    return false;
  };
  if (descriptor.durable && descriptor.degrade_to_poll) {
    return reject(
        "durable=true contradicts degrade_to_poll=true — durable deliveries "
        "bypass the conflation queue, so the shed-based degrade trigger can "
        "never fire, and a degraded durable stream would lose its gap-free "
        "replay guarantee");
  }
  if (descriptor.durable && descriptor.conflatable) {
    return reject(
        "durable=true contradicts conflatable=true — conflation coalesces "
        "queued versions away, but a durable sequence must deliver every "
        "appended entry exactly once");
  }
  return true;
}

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_APP_DESCRIPTOR_H_

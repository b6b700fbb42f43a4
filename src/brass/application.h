// The BRASS application model.
//
// Each Bladerunner application has its own BRASS implementation (§3.2); in
// production these are a few hundred lines of JS running in a V8 VM, here
// they are BrassApplication subclasses running on the host's simulated
// event loop. An instance is spawned per (host, application) on demand —
// the "serverless" property: the first stream for an application arriving
// at a host spools up the instance.

#ifndef BLADERUNNER_SRC_BRASS_APPLICATION_H_
#define BLADERUNNER_SRC_BRASS_APPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/brass/app_descriptor.h"
#include "src/burst/frames.h"
#include "src/burst/server.h"
#include "src/graphql/value.h"
#include "src/pylon/event.h"
#include "src/sim/simulator.h"
#include "src/tao/types.h"

namespace bladerunner {

class BrassRuntime;

// Per-stream state the host keeps on behalf of applications.
struct BrassStream {
  // Push interface: set when the host installs the stream and re-pointed
  // when it resumes; never null. The host erases a BrassStream as its
  // stream closes.
  ServerStream* stream = nullptr;
  StreamKey key;
  UserId viewer = 0;
  std::vector<Topic> topics;  // Pylon topics this stream is fed from
  Value context;              // resolution context (e.g. friend list)
  SimTime started_at = 0;
  // The device-facing POP stamped the header: it runs this app's
  // viewer-independent stages (coarse filter, conflation, payload cache) in
  // transit. The host then sends small event envelopes instead of fetched
  // payloads. Re-read on every (re)subscribe — a resubscribe through an
  // incapable POP clears the stamp and the stream falls back to regional.
  bool pop_placed = false;

  bool attached() const { return stream->attached(); }
};

class BrassApplication {
 public:
  explicit BrassApplication(BrassRuntime& runtime) : runtime_(runtime) {}
  virtual ~BrassApplication() = default;

  // A new stream for this application was established on this host (after
  // topic resolution and Pylon subscription). The application typically
  // initializes per-stream state and may Rewrite the header.
  virtual void OnStreamStarted(BrassStream& stream) = 0;

  // The stream re-attached after a failure with host-side state intact.
  virtual void OnStreamResumed(BrassStream& stream) { (void)stream; }

  // The stream is gone; drop per-stream state.
  virtual void OnStreamClosed(const StreamKey& key) { (void)key; }

  // A Pylon update event arrived for `topic`; `streams` are the streams of
  // this application on this host subscribed to the topic. This is where
  // per-user filtering / ranking / rate limiting happens.
  //
  // `streams` is sorted by StreamKey, without duplicates (the host keeps
  // each topic's subscribers in a std::set), so an application may
  // binary-search it. Every stream examined counts as one decision
  // (BrassRuntime::CountDecision); an application that rejects a group of
  // streams by one rule counts them with one call whose `n` is the group's
  // size, without visiting each stream.
  virtual void OnEvent(const Topic& topic, const UpdateEvent& event,
                       const std::vector<BrassStream*>& streams) = 0;

  // The device acknowledged deltas up to `seq` (reliable-delivery apps).
  virtual void OnAck(BrassStream& stream, uint64_t seq) {
    (void)stream;
    (void)seq;
  }

 protected:
  BrassRuntime& runtime() { return runtime_; }

 private:
  BrassRuntime& runtime_;
};

// Factory: spawns one application instance on one host's runtime.
using BrassAppFactory =
    std::function<std::unique_ptr<BrassApplication>(BrassRuntime& runtime)>;

// One registered application: its QoS/routing descriptor plus the factory.
// Apps declare policy once here; host, router, and Pylon read it from the
// descriptor instead of per-app string-keyed knobs.
struct BrassAppRegistration {
  BrassAppDescriptor descriptor;
  BrassAppFactory factory;
};

// The applications available to every host, keyed by app name.
using BrassAppRegistry = std::map<std::string, BrassAppRegistration>;

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_APPLICATION_H_

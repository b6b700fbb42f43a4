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

#include <cassert>
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

// An application's own per-stream state: an app derives its state type from
// this and hangs one on BrassStream::app_state. It lives exactly as long as
// the host's entry for the stream; a destructor may cancel the state's
// timers, which then never outlive their stream.
struct BrassStreamState {
  virtual ~BrassStreamState() = default;
};

// The host's entry for one stream: the one record of the stream on this
// host, shared by the host and the stream's application.
struct BrassStream {
  // Push interface: set once, when the host installs the stream (a resume
  // re-attaches the same ServerStream); never null while the stream is
  // open. The host erases a BrassStream as its stream closes.
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
  // The application's state for this stream, made in OnStreamStarted (null
  // for apps that keep none); see BrassApplication for its lifetime.
  std::unique_ptr<BrassStreamState> app_state;

  bool attached() const { return stream->attached(); }
};

// The app contract for per-stream state: the host owns every stream, and an
// app keeps what it needs per stream in the stream's own entry.
//  - OnStreamStarted makes the state (stream.app_state); StateOf reads it.
//  - The host destroys it with the entry: right after OnStreamClosed, or,
//    in a drain or crash, with every entry at once and no OnStreamClosed.
//  - An asynchronous callback (a fetch completion, a timer) holds the
//    stream's key, not a pointer, and finds the stream again with
//    BrassRuntime::FindStream; nullptr means the stream has closed.
class BrassApplication {
 public:
  explicit BrassApplication(BrassRuntime& runtime) : runtime_(runtime) {}
  virtual ~BrassApplication() = default;

  // A new stream for this application was established on this host (after
  // topic resolution and Pylon subscription). The application makes its
  // per-stream state here and may Rewrite the header.
  virtual void OnStreamStarted(BrassStream& stream) { (void)stream; }

  // The stream re-attached after a failure with host-side state intact.
  virtual void OnStreamResumed(BrassStream& stream) { (void)stream; }

  // The stream is closing (cancelled, terminated, or garbage-collected).
  // The entry and its app_state are still there and are destroyed when
  // this returns; the transport stream is already gone, so `stream.stream`
  // must not be used.
  virtual void OnStreamClosed(BrassStream& stream) { (void)stream; }

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

  // The state this application made for `stream`, as its own type.
  template <typename State>
  static State& StateOf(BrassStream& stream) {
    assert(dynamic_cast<State*>(stream.app_state.get()) != nullptr);
    return static_cast<State&>(*stream.app_state);
  }

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

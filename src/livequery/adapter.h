// Declarative-app adapter: one generic BrassApplication that serves any
// live-query view. The engine publishes net-change ops ("insert", "update",
// "remove", "count", "invalidate") as ordinary Pylon events; the adapter
// forwards them to subscribed streams, fetching privacy-checked payloads
// through the host's shared fetch pipeline for content-bearing ops. A new
// declarative app is just a LiveQueryAppSpec (see src/apps/comment_feed.h)
// instead of a bespoke BrassApplication.

#ifndef BLADERUNNER_SRC_LIVEQUERY_ADAPTER_H_
#define BLADERUNNER_SRC_LIVEQUERY_ADAPTER_H_

#include <string>

#include "src/brass/application.h"
#include "src/brass/runtime.h"

namespace bladerunner {

struct LiveQueryAppSpec {
  std::string name;  // BRASS app name (registry key)
  bool conflatable = true;
  // Content-bearing ops ("insert"/"update") fetch the row payload through
  // the WAS fetch handler registered under `name`; metadata-only apps
  // (counters) deliver the op metadata directly.
  bool fetch_payload = true;
};

class LiveQueryAdapterApp : public BrassApplication {
 public:
  LiveQueryAdapterApp(BrassRuntime& runtime, LiveQueryAppSpec spec);

  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(LiveQueryAppSpec spec);
  static BrassAppDescriptor Descriptor(const LiveQueryAppSpec& spec);

 private:
  // Delivers on `stream`, or, when it is null (closed) or detached, ends the
  // op's span as "stream_gone".
  void Deliver(BrassStream* stream, Value payload, const DeliverOptions& options);

  LiveQueryAppSpec spec_;
  Counter* invalid_view_seq_ = nullptr;  // lazy handle (docs/PERF.md)
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_LIVEQUERY_ADAPTER_H_

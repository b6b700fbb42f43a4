// Ticker: a broadcast channel with guaranteed delivery (live scores, system
// announcements, auction bids). The reference workload for the durable
// reliable-delivery tier: every published event is appended to the
// channel's durable log (src/burst/durable_log.h), deliveries carry the
// log's dense sequence, and a reconnecting device replays exactly the
// missed suffix — each sequence reaches each subscriber exactly once.

#ifndef BLADERUNNER_SRC_APPS_TICKER_H_
#define BLADERUNNER_SRC_APPS_TICKER_H_

#include "src/brass/application.h"
#include "src/brass/runtime.h"

namespace bladerunner {

struct TickerConfig {
  // Durable delivery on (the point of the app). Off = plain best-effort
  // broadcast; the reconnect-storm bench uses this as the loss baseline.
  bool durable = true;
};

class TickerApp : public BrassApplication {
 public:
  TickerApp(BrassRuntime& runtime, TickerConfig config);

  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(TickerConfig config = {});
  // QoS: never conflatable (durable sequences must not be
  // coalesced away), no poll fallback.
  static BrassAppDescriptor Descriptor(TickerConfig config = {});

 private:
  TickerConfig config_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_TICKER_H_

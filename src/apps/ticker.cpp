#include "src/apps/ticker.h"

namespace bladerunner {

TickerApp::TickerApp(BrassRuntime& runtime, TickerConfig config)
    : BrassApplication(runtime), config_(config) {}

BrassAppFactory TickerApp::Factory(TickerConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<TickerApp>(runtime, config);
  };
}

BrassAppDescriptor TickerApp::Descriptor(TickerConfig config) {
  BrassAppDescriptor descriptor;
  descriptor.name = "Ticker";
  descriptor.conflatable = false;
  descriptor.durable = config.durable;
  return descriptor;
}

void TickerApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                        const std::vector<BrassStream*>& streams) {
  // Broadcast payloads are the event metadata itself — no per-viewer WAS
  // fetch; every subscriber of the channel sees the same bytes.
  Value payload = event.metadata;
  payload.Set("__type", "Tick");
  payload.Set("channel", topic);

  DeliverOptions deliver;
  deliver.event_created_at = event.created_at;
  if (config_.durable) {
    // The log assigns the channel's dense sequence (idempotent across the
    // hosts this event fans out to); deliveries ride it so the transport
    // can dedup replays.
    deliver.seq = runtime().AppendDurable(topic, event, payload);
  }
  for (BrassStream* stream : streams) {
    runtime().CountDecision(true);
    TraceContext span = runtime().StartSpan(event.trace, "brass.process");
    deliver.parent = span;
    runtime().DeliverData(*stream, payload, deliver);
    runtime().EndSpan(span);
  }
}

}  // namespace bladerunner

#include "src/apps/typing.h"

namespace bladerunner {

TypingIndicatorApp::TypingIndicatorApp(BrassRuntime& runtime, TypingConfig config)
    : BrassApplication(runtime), config_(config) {}

BrassAppFactory TypingIndicatorApp::Factory(TypingConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<TypingIndicatorApp>(runtime, config);
  };
}

BrassAppDescriptor TypingIndicatorApp::Descriptor() {
  BrassAppDescriptor descriptor;
  descriptor.name = "TI";
  // Only the latest typing state per (thread, typist) matters; shedding is
  // harmless, so the queue bound is tight and there is no poll fallback.
  descriptor.conflatable = true;
  descriptor.max_pending_per_stream = 4;
  return descriptor;
}

namespace {

// Typing events carry no TAO write, so conflation orders them by event
// creation time within the (thread, typist) key.
DeliverOptions TypingDeliverOptions(const UpdateEvent& event, TraceContext span) {
  DeliverOptions deliver;
  deliver.event_created_at = event.created_at;
  deliver.parent = span;
  deliver.conflation_key = "typing:" + std::to_string(event.metadata.Get("thread").AsInt(0)) +
                           ":" + std::to_string(event.metadata.Get("user").AsInt(0));
  deliver.version = static_cast<uint64_t>(event.created_at);
  return deliver;
}

}  // namespace

void TypingIndicatorApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                                 const std::vector<BrassStream*>& streams) {
  (void)topic;
  for (BrassStream* stream : streams) {
    runtime().CountDecision(true);
    // "brass.process": event receipt -> push handed to BURST. Table 3's
    // "BRASS receives update -> sent to devices" span for non-buffering
    // apps comes from this span's duration.
    TraceContext span = runtime().StartSpan(event.trace, "brass.process");
    if (config_.backend_check) {
      StreamKey key = stream->key;
      DeliverOptions deliver = TypingDeliverOptions(event, span);
      runtime().FetchPayload(
          event.metadata, FetchOptions{.viewer = stream->viewer, .parent = span},
          [this, key, deliver, span](bool allowed, Value payload) {
            if (!allowed) {
              runtime().AnnotateSpan(span, "outcome", Value("privacy_filtered"));
              runtime().EndSpan(span);
              return;
            }
            // Device-specific transformation happens after the backend
            // check, on the app's event loop.
            LatencyModel transform{config_.transform_ms, 0.3, config_.transform_ms / 4.0};
            runtime().ScheduleTimer(
                transform.Sample(runtime().rng()),
                [this, key, deliver, span, payload = std::move(payload)]() mutable {
                  BrassStream* open = runtime().FindStream(key);
                  if (open == nullptr) {
                    runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
                    runtime().EndSpan(span);
                    return;
                  }
                  payload.Set("__type", "TypingIndicator");
                  runtime().DeliverData(*open, std::move(payload), deliver);
                  runtime().EndSpan(span);
                });
          });
    } else {
      Value payload = event.metadata;
      payload.Set("__type", "TypingIndicator");
      runtime().DeliverData(*stream, std::move(payload), TypingDeliverOptions(event, span));
      runtime().EndSpan(span);
    }
  }
}

}  // namespace bladerunner

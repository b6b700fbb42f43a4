// GCC 12 reports spurious -Wmaybe-uninitialized on std::variant-backed
// Value moves during vector growth under -O2 (a known false positive in
// GCC's uninit analysis for variants); suppress it for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "src/livequery/adapter.h"

namespace bladerunner {

LiveQueryAdapterApp::LiveQueryAdapterApp(BrassRuntime& runtime, LiveQueryAppSpec spec)
    : BrassApplication(runtime), spec_(std::move(spec)) {}

BrassAppFactory LiveQueryAdapterApp::Factory(LiveQueryAppSpec spec) {
  return [spec](BrassRuntime& runtime) {
    return std::make_unique<LiveQueryAdapterApp>(runtime, spec);
  };
}

BrassAppDescriptor LiveQueryAdapterApp::Descriptor(const LiveQueryAppSpec& spec) {
  BrassAppDescriptor descriptor;
  descriptor.name = spec.name;
  descriptor.conflatable = spec.conflatable;
  return descriptor;
}

void LiveQueryAdapterApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                                  const std::vector<BrassStream*>& streams) {
  const std::string& op = event.metadata.Get("op").AsString();
  bool content = spec_.fetch_payload && (op == "insert" || op == "update");
  if (!content && !event.metadata.Get("viewSeq").is_int()) {
    // Metadata-only ops order by viewSeq in the conflation queue; a
    // missing/malformed one would become version 0 and lose to any queued
    // op — dropping the op on the floor disguised as a conflation win.
    // Drop it loudly instead.
    if (invalid_view_seq_ == nullptr) {
      invalid_view_seq_ = &runtime().metrics().GetCounter("livequery.invalid_view_seq");
    }
    invalid_view_seq_->Increment();
    runtime().CountDecision(false, static_cast<int64_t>(streams.size()));
    return;
  }
  for (BrassStream* stream : streams) {
    // The engine already suppressed no-net-change deltas; every op that
    // reaches the adapter is deliverable.
    runtime().CountDecision(true);
    TraceContext span = runtime().StartSpan(event.trace, "brass.process");
    DeliverOptions deliver;
    deliver.event_created_at = event.created_at;
    deliver.parent = span;
    if (content) {
      // Row payloads conflate per row, newest object version wins — two
      // queued updates of one comment collapse to the newest.
      deliver.conflation_key = "row:" + std::to_string(event.metadata.Get("id").AsInt(0));
      deliver.version = static_cast<uint64_t>(event.metadata.Get("version").AsInt(0));
      StreamKey key = stream->key;
      runtime().FetchPayload(
          event.metadata, FetchOptions{.viewer = stream->viewer, .parent = span},
          [this, key, deliver, span, op, metadata = event.metadata](bool allowed, Value payload) {
            if (!allowed) {
              runtime().AnnotateSpan(span, "outcome", Value("privacy_filtered"));
              runtime().EndSpan(span);
              return;
            }
            payload.Set("op", op);
            payload.Set("index", metadata.Get("index"));
            payload.Set("viewSeq", metadata.Get("viewSeq"));
            Deliver(runtime().FindStream(key), std::move(payload), deliver);
          });
    } else {
      // Metadata-only op ("remove", "count", "invalidate", or a content op
      // of a metadata-only app): the op metadata is the payload. Counter
      // and invalidate ops conflate per view (newest view sequence wins);
      // removes conflate per row so duplicates collapse.
      if (op == "remove") {
        deliver.conflation_key = "rm:" + std::to_string(event.metadata.Get("id").AsInt(0));
      } else {
        deliver.conflation_key = "view:" + topic;
      }
      deliver.version = static_cast<uint64_t>(event.metadata.Get("viewSeq").AsInt(0));
      Value payload = event.metadata;
      payload.Set("__type", "LiveQueryOp");
      payload.Set("topic", topic);
      Deliver(stream, std::move(payload), deliver);
    }
  }
}

void LiveQueryAdapterApp::Deliver(BrassStream* stream, Value payload,
                                  const DeliverOptions& options) {
  if (stream == nullptr || !stream->attached()) {
    runtime().AnnotateSpan(options.parent, "outcome", Value("stream_gone"));
    runtime().EndSpan(options.parent);
    return;
  }
  runtime().DeliverData(*stream, std::move(payload), options);
  runtime().EndSpan(options.parent);
}

}  // namespace bladerunner

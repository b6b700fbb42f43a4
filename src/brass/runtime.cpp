#include "src/brass/runtime.h"

#include "src/brass/host.h"

namespace bladerunner {

BrassRuntime::BrassRuntime(BrassHost* host, std::string app_name)
    : host_(host), app_name_(std::move(app_name)) {}

BrassRuntime::~BrassRuntime() { *alive_ = false; }

int64_t BrassRuntime::host_id() const { return host_->host_id(); }

RegionId BrassRuntime::region() const { return host_->region(); }

SimContext BrassRuntime::ctx() const { return host_->ctx(); }

Rng& BrassRuntime::rng() { return host_->sim()->rng(); }

MetricsRegistry& BrassRuntime::metrics() { return *host_->metrics(); }

SimTime BrassRuntime::Now() { return host_->sim()->Now(); }

BrassStream* BrassRuntime::FindStream(const StreamKey& key) {
  return host_->FindStream(app_name_, key);
}

TimerId BrassRuntime::ScheduleTimer(SimTime delay, std::function<void()> fn) {
  return host_->ctx().Schedule(delay, GuardAlive(std::move(fn)));
}

void BrassRuntime::FetchPayload(const Value& metadata, const FetchOptions& options,
                                std::function<void(bool, Value)> callback) {
  host_->FetchPayload(app_name_, metadata, options, GuardAlive(std::move(callback)));
}

void BrassRuntime::WasQuery(const std::string& query, const FetchOptions& options,
                            std::function<void(bool, Value)> callback) {
  host_->WasQuery(query, options, GuardAlive(std::move(callback)));
}

uint64_t BrassRuntime::AppendDurable(const Topic& channel, const UpdateEvent& event,
                                     Value payload) {
  return host_->AppendDurable(channel, event.event_id, std::move(payload), event.created_at);
}

void BrassRuntime::CountDecision(bool delivered, int64_t n) {
  host_->CountDecisions(app_name_, delivered, n);
}

void BrassRuntime::DeliverData(BrassStream& stream, Value payload,
                               const DeliverOptions& options) {
  host_->DeliverData(app_name_, stream, std::move(payload), options);
}

void BrassRuntime::PushEnvelope(const std::vector<BrassStream*>& streams, Value envelope,
                                const DeliverOptions& options) {
  host_->PushEnvelope(app_name_, streams, std::move(envelope), options);
}

TraceContext BrassRuntime::StartSpan(const TraceContext& parent, const std::string& name) {
  TraceContext span = host_->trace()->StartSpan(parent, name, "brass", host_->region(), Now());
  host_->trace()->Annotate(span, "app", Value(app_name_));
  return span;
}

void BrassRuntime::EndSpan(const TraceContext& ctx) { host_->trace()->EndSpan(ctx, Now()); }

void BrassRuntime::AnnotateSpan(const TraceContext& ctx, const std::string& key, Value v) {
  host_->trace()->Annotate(ctx, key, std::move(v));
}

void BrassRuntime::MarkSpanError(const TraceContext& ctx, const std::string& message) {
  host_->trace()->MarkError(ctx, message, Now());
}

}  // namespace bladerunner

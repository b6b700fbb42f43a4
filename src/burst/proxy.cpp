#include "src/burst/proxy.h"

#include <cassert>
#include <map>
#include <vector>

namespace bladerunner {

ReverseProxy::ReverseProxy(Simulator* sim, ProxyId proxy_id, RegionId region,
                           BurstServerDirectory* directory, MetricsRegistry* metrics,
                           TraceCollector* trace)
    : BurstRelay(sim, region, trace,
                 Hop{.span = "burst.proxy",
                     .id_key = "proxy",
                     .id = static_cast<int64_t>(proxy_id.value),
                     .detached = "pop connection lost",
                     .degraded = "brass host lost",
                     .no_route = "no BRASS host available",
                     .unreachable = "BRASS host unreachable",
                     .failures = &metrics->GetCounter("burst.proxy_failures"),
                     .down_losses = &metrics->GetCounter("burst.proxy_pop_disconnects"),
                     .up_losses = &metrics->GetCounter("burst.proxy_host_disconnects"),
                     .repairs = &metrics->GetCounter("burst.proxy_induced_reconnects")}),
      directory_(directory) {
  assert(directory_ != nullptr);
}

std::optional<int64_t> ReverseProxy::Route(const Value& header) {
  // Sticky routing first (§3.5): a BRASS-rewritten header names the host
  // that previously serviced the stream; honor it while the host lives.
  StreamHeaderView view(header);
  int64_t sticky = view.brass_host();
  if (sticky != 0 && directory_->IsHostAlive(sticky)) {
    return sticky;
  }
  int64_t picked = directory_->PickHost(view);
  if (picked == 0) {
    return std::nullopt;
  }
  return picked;
}

std::shared_ptr<ConnectionEnd> ReverseProxy::ConnectUpstream(int64_t host_id) {
  return directory_->ConnectToHost(this, host_id);
}

void ReverseProxy::HandleDownstreamFrame(const MessagePtr& message) {
  if (auto fetch = std::dynamic_pointer_cast<PopFetchFrame>(message)) {
    // Routed like an Ack: along the representative stream's host leg. The
    // BRASS host answers with a PopFillFrame over the same connection.
    ForwardUp(fetch->key, fetch);
  }
}

void ReverseProxy::HandleUpstreamFrame(const MessagePtr& message) {
  if (auto response = std::dynamic_pointer_cast<ResponseFrame>(message)) {
    ForwardResponse(response);
  } else if (auto envelope = std::dynamic_pointer_cast<EnvelopeFrame>(message)) {
    ForwardEnvelope(envelope);
  } else if (auto fill = std::dynamic_pointer_cast<PopFillFrame>(message)) {
    // Forward down along the POP connection of the stream the fetch went
    // up through; the POP fans the payload out to its waiting streams.
    auto it = streams_.find(fill->key);
    if (it != streams_.end()) {
      SendDown(it->second.down, fill);
    }
  }
}

void ReverseProxy::ForwardEnvelope(const std::shared_ptr<EnvelopeFrame>& frame) {
  // Split the frame by POP connection: each POP gets one frame listing its
  // own streams. A stream the proxy no longer knows is dropped, like a
  // response for an unknown stream.
  std::map<uint64_t, std::vector<StreamKey>> by_pop;
  for (const StreamKey& key : frame->streams) {
    auto it = streams_.find(key);
    if (it != streams_.end()) {
      by_pop[it->second.down].push_back(key);
    }
  }
  for (auto& [conn, keys] : by_pop) {
    if (keys.size() == frame->streams.size()) {
      SendDown(conn, frame);  // every stream sits on this POP
      continue;
    }
    auto part = std::make_shared<EnvelopeFrame>(*frame);
    part->streams = std::move(keys);
    SendDown(conn, part);
  }
}

}  // namespace bladerunner

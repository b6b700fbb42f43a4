#include "src/core/cluster.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/apps/comment_feed.h"
#include "src/apps/presence_counter.h"
#include "src/livequery/schema.h"
#include "src/was/resolvers.h"

namespace bladerunner {

namespace {

// Approximates the composition of two one-way latency models (device ->
// POP -> datacenter) as a single lognormal.
LatencyModel Compose(const LatencyModel& a, const LatencyModel& b) {
  LatencyModel out;
  out.median_ms = a.median_ms + b.median_ms;
  out.sigma = std::max(a.sigma, b.sigma);
  out.min_ms = a.min_ms + b.min_ms;
  return out;
}

// Derives the trace-id seed from the cluster seed when not set explicitly,
// so identical cluster seeds yield byte-identical trace exports.
TraceConfig ResolveTraceConfig(TraceConfig trace, uint64_t cluster_seed) {
  if (trace.seed == 0) {
    trace.seed = TraceMix64(cluster_seed ^ 0x7472616365ULL);  // "trace"
  }
  return trace;
}

// The kernel's LP layout: LP 0 plus one LP per device group.
SimParallelOptions KernelOptions(const ClusterParallelConfig& parallel) {
  SimParallelOptions options;
  options.threads = parallel.threads;
  options.num_lps = static_cast<uint32_t>(std::max(0, parallel.device_lp_groups)) + 1;
  options.lookahead = parallel.lookahead;
  options.reverse_lp_order = parallel.reverse_lp_order;
  return options;
}

}  // namespace

BladerunnerCluster::BladerunnerCluster(ClusterConfig config, Topology topology)
    : config_(std::move(config)),
      topology_(std::move(topology)),
      sim_(config_.seed, KernelOptions(config_.parallel)),
      trace_(ResolveTraceConfig(config_.trace, config_.seed), sim_.num_lps()) {
  app_registry_ = BuildStandardAppRegistry(config_.apps);
  if (config_.livequery.enabled) {
    // Declarative live-query apps join the registry before any host, router
    // or POP reads it.
    app_registry_["LiveFeed"] =
        BrassAppRegistration{CommentFeedDescriptor(), CommentFeedFactory()};
    app_registry_["LiveCount"] =
        BrassAppRegistration{PresenceCounterDescriptor(), PresenceCounterFactory()};
  }
  // Per-cluster routing overrides land in the app descriptors; the router
  // reads policy from the registry it shares with every host.
  for (const auto& [app, policy] : config_.routing_policies) {
    auto it = app_registry_.find(app);
    if (it != app_registry_.end()) {
      it->second.descriptor.routing = policy;
    }
  }
  // Contradictory descriptors are rejected here, before any host or POP
  // consumes the registry — not silently ignored deep in the delivery path.
  for (const auto& [name, registration] : app_registry_) {
    std::string descriptor_error;
    if (!ValidateBrassAppDescriptor(registration.descriptor, &descriptor_error)) {
      std::fprintf(stderr, "brass app registration rejected: %s\n", descriptor_error.c_str());
      std::abort();
    }
  }

  tao_ = std::make_unique<TaoStore>(&sim_, &topology_, config_.tao, &metrics_);
  if (config_.enable_pylon) {
    pylon_ = std::make_unique<PylonCluster>(&sim_, &topology_, config_.pylon, &metrics_, &trace_);
  }
  for (RegionId r = 0; r < topology_.num_regions(); ++r) {
    auto was = std::make_unique<WebAppServer>(&sim_, r, tao_.get(), pylon_.get(), config_.was,
                                              &metrics_, &trace_);
    InstallSocialSchema(*was);
    wases_.push_back(std::move(was));
  }
  if (config_.livequery.enabled) {
    // The engine folds deltas against its home region's replica and
    // publishes through that region's WAS; every region's WAS gets the
    // subscription/fetch schema so any viewer can register a view.
    WebAppServer* home = wases_[static_cast<size_t>(config_.livequery.home_region)].get();
    livequery_ = std::make_unique<LiveQueryEngine>(&sim_, tao_.get(), home, config_.livequery,
                                                   &metrics_, &trace_);
    for (auto& was : wases_) {
      InstallLiveQuerySchema(*was, livequery_.get());
    }
  }

  router_ = std::make_unique<BrassRouter>(&sim_, &topology_, &app_registry_, config_.burst);
  // One durable-log directory shared by every host: the log is the
  // sequencer for durable apps, and it must survive any single host's
  // failure the way the real replicated log service would.
  durable_logs_ = std::make_shared<DurableLogDirectory>(config_.brass.durable_log);
  int64_t next_host_id = 1;
  for (RegionId r = 0; r < topology_.num_regions(); ++r) {
    for (int i = 0; i < config_.brass_hosts_per_region; ++i) {
      auto host = std::make_unique<BrassHost>(&sim_, next_host_id++, r,
                                              wases_[static_cast<size_t>(r)].get(), pylon_.get(),
                                              &app_registry_, config_.brass, config_.burst,
                                              &metrics_, &trace_);
      host->SetDurableLogDirectory(durable_logs_);
      router_->RegisterHost(host.get());
      hosts_.push_back(std::move(host));
    }
  }

  uint64_t next_proxy_id = 1;
  for (RegionId r = 0; r < topology_.num_regions(); ++r) {
    for (int i = 0; i < config_.proxies_per_region; ++i) {
      proxies_.push_back(std::make_unique<ReverseProxy>(&sim_, ProxyId(next_proxy_id++), r,
                                                        router_.get(), &metrics_, &trace_));
    }
  }

  uint64_t next_pop_id = 1;
  Pop::ProxyConnector connector = MakeProxyConnector();
  // POPs resolve app placement policy from the same registry the hosts and
  // router share; without the lookup a POP is a pure forwarder.
  Pop::DescriptorLookup descriptors =
      [this](const std::string& app) -> const BrassAppDescriptor* {
    auto it = app_registry_.find(app);
    return it == app_registry_.end() ? nullptr : &it->second.descriptor;
  };
  for (RegionId r = 0; r < topology_.num_regions(); ++r) {
    for (int i = 0; i < config_.pops_per_region; ++i) {
      auto pop = std::make_unique<Pop>(&sim_, PopId(next_pop_id++), r, connector, config_.burst,
                                       &metrics_, &trace_);
      pop->SetDescriptorLookup(descriptors);
      pops_.push_back(std::move(pop));
    }
  }
}

BladerunnerCluster::~BladerunnerCluster() = default;

Pop::ProxyConnector BladerunnerCluster::MakeProxyConnector() {
  return [this](Pop* pop, RegionId target_region) -> std::shared_ptr<ConnectionEnd> {
    // Prefer an alive proxy in the target region; fall back to any region.
    ReverseProxy* chosen = nullptr;
    for (auto& proxy : proxies_) {
      if (!proxy->alive()) {
        continue;
      }
      if (proxy->region() == target_region) {
        chosen = proxy.get();
        break;
      }
      if (chosen == nullptr) {
        chosen = proxy.get();
      }
    }
    if (chosen == nullptr) {
      return nullptr;
    }
    LatencyModel link = Compose(LatencyModel::PopToDatacenter(),
                                topology_.LinkModel(pop->region(), chosen->region()));
    auto [pop_end, proxy_end] =
        CreateConnection(&sim_, link, config_.burst.failure_detection_delay);
    chosen->AttachPopConnection(std::move(proxy_end));
    return pop_end;
  };
}

LpId BladerunnerCluster::DeviceLp(int64_t device_id) const {
  int groups = config_.parallel.device_lp_groups;
  if (groups <= 0) {
    return kGlobalLp;
  }
  // Device ids are dense, so a plain modulo balances the groups exactly and
  // keeps the assignment independent of thread count.
  uint64_t g = static_cast<uint64_t>(device_id) % static_cast<uint64_t>(groups);
  return LpId(1 + static_cast<uint32_t>(g));
}

// POP selection + attachment; must run in the global LP (POP alive-state and
// attach lists are global-LP state). The returned device-side end is bound
// to `device_lp` before the POP side can send anything over it.
std::shared_ptr<ConnectionEnd> BladerunnerCluster::EstablishDeviceConnection(
    RegionId device_region, DeviceProfile profile, LpId device_lp) {
  Pop* chosen = nullptr;
  for (auto& pop : pops_) {
    if (!pop->alive()) {
      continue;
    }
    if (pop->region() == device_region) {
      chosen = pop.get();
      break;
    }
    if (chosen == nullptr) {
      chosen = pop.get();
    }
  }
  if (chosen == nullptr) {
    return nullptr;
  }
  auto [device_end, pop_end] =
      CreateConnection(&sim_, topology_.LastMileModel(profile),
                       config_.burst.failure_detection_delay);
  device_end->BindLp(device_lp);
  chosen->AttachDeviceConnection(std::move(pop_end));
  return device_end;
}

BurstClient::Connector BladerunnerCluster::DeviceConnector(RegionId device_region,
                                                           DeviceProfile profile) {
  return [this, device_region, profile](int64_t device_id, BurstClient::ConnectDone done) {
    // Hop into the global LP (where POP state lives) to pick a POP and
    // attach its side, then hop back into the device's LP with the
    // device-side end. Each hop pays the kernel lookahead — the
    // connection-establishment round trip a real handshake pays anyway.
    LpId device_lp = DeviceLp(device_id);
    sim_.Schedule(kGlobalLp, sim_.lookahead(),
                  [this, device_region, profile, device_lp, done = std::move(done)]() {
                    std::shared_ptr<ConnectionEnd> end =
                        EstablishDeviceConnection(device_region, profile, device_lp);
                    sim_.Schedule(device_lp, sim_.lookahead(),
                                  [end = std::move(end), done = std::move(done)]() { done(end); });
                  });
  };
}

std::unique_ptr<RpcChannel> BladerunnerCluster::DeviceWasChannel(SimContext device,
                                                                 RegionId device_region,
                                                                 DeviceProfile profile) {
  LatencyModel link =
      Compose(topology_.LastMileModel(profile), LatencyModel::PopToDatacenter());
  return std::make_unique<RpcChannel>(device, wases_[static_cast<size_t>(device_region)]->rpc(),
                                      link);
}

std::unique_ptr<RpcChannel> BladerunnerCluster::BackendWasChannel(RegionId region) {
  return std::make_unique<RpcChannel>(&sim_, wases_[static_cast<size_t>(region)]->rpc(),
                                      LatencyModel::IntraRegion());
}

}  // namespace bladerunner

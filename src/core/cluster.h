// BladerunnerCluster: constructs and owns the entire simulated deployment —
// regions, TAO, WASes, Pylon, BRASS hosts + router, reverse proxies, POPs —
// and hands out device connections. This is the library's main entry point;
// see examples/quickstart.cpp.

#ifndef BLADERUNNER_SRC_CORE_CLUSTER_H_
#define BLADERUNNER_SRC_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/registry.h"
#include "src/brass/host.h"
#include "src/brass/router.h"
#include "src/livequery/engine.h"
#include "src/burst/client.h"
#include "src/burst/pop.h"
#include "src/burst/proxy.h"
#include "src/net/topology.h"
#include "src/pylon/cluster.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/tao/store.h"
#include "src/trace/collector.h"
#include "src/was/server.h"

namespace bladerunner {

// Kernel LP layout (docs/PERF.md "LP-partitioned execution"). With
// `device_lp_groups` == 0 the whole cluster is one LP, the global LP, and
// `threads` is unused. With groups > 0 the device fleet is hashed into that
// many device-group LPs while every backend component (TAO, Pylon, WASes,
// BRASS, proxies, POPs) stays in the global LP; only last-mile links —
// whose latency floor is >= `lookahead` — cross LP boundaries, which is
// what makes conservative rounds safe.
struct ClusterParallelConfig {
  int threads = 1;           // worker threads for the round executor
  int device_lp_groups = 0;  // 0 = one LP for the whole cluster
  SimTime lookahead = Millis(5);  // <= last-mile latency floor
  bool reverse_lp_order = false;  // determinism audit (SimParallelOptions)
};

struct ClusterConfig {
  uint64_t seed = 42;
  int pops_per_region = 2;
  int proxies_per_region = 2;
  int brass_hosts_per_region = 3;
  ClusterParallelConfig parallel;

  TaoConfig tao;
  PylonConfig pylon;
  WasConfig was;
  BrassConfig brass;
  BurstConfig burst;
  AppsConfig apps;
  // Database-level live queries (src/livequery). Disabled by default; a
  // cluster with no registered live queries is bit-identical to one built
  // before the subsystem existed.
  LiveQueryConfig livequery;
  // Distributed tracing (src/trace). trace.seed == 0 derives the id seed
  // from the cluster seed, so same-seed runs export identical traces.
  TraceConfig trace;
  // Per-application routing policy overrides (default: by load; the paper
  // routes low-fanout apps by topic, §3.2).
  std::map<std::string, BrassRoutingPolicy> routing_policies;
};

class BladerunnerCluster {
 public:
  explicit BladerunnerCluster(ClusterConfig config, Topology topology = Topology::ThreeRegions());
  ~BladerunnerCluster();

  BladerunnerCluster(const BladerunnerCluster&) = delete;
  BladerunnerCluster& operator=(const BladerunnerCluster&) = delete;

  Simulator& sim() { return sim_; }
  MetricsRegistry& metrics() { return metrics_; }
  TraceCollector& trace() { return trace_; }
  const Topology& topology() const { return topology_; }
  const ClusterConfig& config() const { return config_; }
  const BrassAppRegistry& app_registry() const { return app_registry_; }

  TaoStore& tao() { return *tao_; }
  PylonCluster* pylon() { return pylon_.get(); }
  BrassRouter& router() { return *router_; }
  // Null unless config.livequery.enabled.
  LiveQueryEngine* livequery() { return livequery_.get(); }

  WebAppServer& was(RegionId region) { return *wases_[static_cast<size_t>(region)]; }
  size_t NumPops() const { return pops_.size(); }
  Pop& pop(size_t i) { return *pops_[i]; }
  size_t NumProxies() const { return proxies_.size(); }
  ReverseProxy& proxy(size_t i) { return *proxies_[i]; }
  size_t NumBrassHosts() const { return hosts_.size(); }
  BrassHost& brass_host(size_t i) { return *hosts_[i]; }
  // Cluster-wide durable-log directory (shared by all hosts; survives
  // FailHost) — benches read it for zero-loss audits.
  DurableLogDirectory& durable_logs() { return *durable_logs_; }

  // The LP a device (keyed by its device id / user id) lives in: one of the
  // device-group LPs when partitioned, the global LP otherwise.
  LpId DeviceLp(int64_t device_id) const;

  // A connector for BurstClient: picks an alive POP in the device's region
  // (falling back to any region) and hands back the device-side end. The
  // selection hops into the global LP (where POP state lives) and the reply
  // hops back into the device's LP — the connection-establishment round
  // trip, one lookahead each way.
  BurstClient::Connector DeviceConnector(RegionId device_region, DeviceProfile profile);

  // An RPC channel from a device to its nearest WAS (for polls/mutations).
  // Latency compounds last-mile + POP-to-DC. Replies run in `device`'s LP.
  std::unique_ptr<RpcChannel> DeviceWasChannel(SimContext device, RegionId device_region,
                                               DeviceProfile profile);

  // Backend-side channel to a WAS (e.g. for server-side polling agents).
  std::unique_ptr<RpcChannel> BackendWasChannel(RegionId region);

 private:
  Pop::ProxyConnector MakeProxyConnector();
  std::shared_ptr<ConnectionEnd> EstablishDeviceConnection(RegionId device_region,
                                                           DeviceProfile profile, LpId device_lp);

  ClusterConfig config_;
  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  BrassAppRegistry app_registry_;

  std::unique_ptr<TaoStore> tao_;
  std::unique_ptr<PylonCluster> pylon_;
  std::vector<std::unique_ptr<WebAppServer>> wases_;  // one per region
  std::unique_ptr<LiveQueryEngine> livequery_;
  std::unique_ptr<BrassRouter> router_;
  std::shared_ptr<DurableLogDirectory> durable_logs_;
  std::vector<std::unique_ptr<BrassHost>> hosts_;
  std::vector<std::unique_ptr<ReverseProxy>> proxies_;
  std::vector<std::unique_ptr<Pop>> pops_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_CORE_CLUSTER_H_

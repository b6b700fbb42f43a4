// Routing of streams to BRASS hosts, used by the reverse proxies.
//
// "Proxies determine which BRASS host to route device subscription requests
// to. This routing is based on load, topic, or a combination of both,
// depending on application configurations." (§3.2) Per-app policy comes
// from the registered BrassAppDescriptor.

#ifndef BLADERUNNER_SRC_BRASS_ROUTER_H_
#define BLADERUNNER_SRC_BRASS_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/brass/config.h"
#include "src/brass/host.h"
#include "src/burst/proxy.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace bladerunner {

class BrassRouter : public BurstServerDirectory {
 public:
  // `registry` supplies each app's routing policy and QoS descriptor; an
  // app it does not list routes by load.
  BrassRouter(Simulator* sim, const Topology* topology, const BrassAppRegistry* registry,
              BurstConfig burst_config);

  // Hosts are owned by the cluster; the router only routes.
  void RegisterHost(BrassHost* host);

  BrassHost* FindHost(int64_t host_id) const;
  const std::vector<BrassHost*>& hosts() const { return hosts_; }

  // BurstServerDirectory:
  int64_t PickHost(const StreamHeaderView& header) override;
  bool IsHostAlive(int64_t host_id) const override;
  std::shared_ptr<ConnectionEnd> ConnectToHost(ReverseProxy* proxy, int64_t host_id) override;

 private:
  SimContext ctx_;
  const Topology* topology_;
  const BrassAppRegistry* registry_;
  BurstConfig burst_config_;
  std::vector<BrassHost*> hosts_;
  std::map<int64_t, BrassHost*> by_id_;
  size_t round_robin_ = 0;  // tie-break rotation for load-based picks
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BRASS_ROUTER_H_

// Tests for the core integration layer: cluster construction, device
// connectors, region preferences, device-agent behaviors not covered by
// the end-to-end suites.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/trace/analysis.h"
#include "src/was/messages.h"
#include "src/was/resolvers.h"

namespace bladerunner {
namespace {

TEST(ClusterTest, BuildsConfiguredTopology) {
  ClusterConfig config;
  config.pops_per_region = 3;
  config.proxies_per_region = 2;
  config.brass_hosts_per_region = 4;
  BladerunnerCluster cluster(config);
  int regions = cluster.topology().num_regions();
  EXPECT_EQ(cluster.NumPops(), static_cast<size_t>(3 * regions));
  EXPECT_EQ(cluster.NumProxies(), static_cast<size_t>(2 * regions));
  EXPECT_EQ(cluster.NumBrassHosts(), static_cast<size_t>(4 * regions));
  ASSERT_NE(cluster.pylon(), nullptr);
  EXPECT_GT(cluster.pylon()->NumServers(), 0u);
}

TEST(ClusterTest, DeviceConnectorPrefersDeviceRegion) {
  ClusterConfig config;
  config.seed = 5;
  BladerunnerCluster cluster(config);
  for (RegionId r = 0; r < cluster.topology().num_regions(); ++r) {
    auto connector = cluster.DeviceConnector(r, DeviceProfile::kWifi);
    std::shared_ptr<ConnectionEnd> end;
    connector(1000 + r, [&end](std::shared_ptr<ConnectionEnd> e) { end = std::move(e); });
    cluster.sim().RunFor(2 * cluster.sim().lookahead());  // to the POP's LP and back
    ASSERT_NE(end, nullptr);
    // Find the POP holding the other side; it must be in region r.
    bool found = false;
    for (size_t i = 0; i < cluster.NumPops(); ++i) {
      if (cluster.pop(i).DeviceConnectionCount() > 0 && cluster.pop(i).region() == r) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "region " << r;
  }
}

TEST(ClusterTest, DeviceConnectorFallsBackWhenRegionPopsDead) {
  ClusterConfig config;
  config.seed = 6;
  BladerunnerCluster cluster(config);
  // Kill every POP in region 0.
  for (size_t i = 0; i < cluster.NumPops(); ++i) {
    if (cluster.pop(i).region() == 0) {
      cluster.pop(i).FailPop();
    }
  }
  auto connector = cluster.DeviceConnector(0, DeviceProfile::kWifi);
  std::shared_ptr<ConnectionEnd> end;
  connector(42, [&end](std::shared_ptr<ConnectionEnd> e) { end = std::move(e); });
  cluster.sim().RunFor(2 * cluster.sim().lookahead());  // to the POP's LP and back
  ASSERT_NE(end, nullptr);  // connected through another region's POP
}

TEST(ClusterTest, RoutingPoliciesPropagateToRouter) {
  ClusterConfig config;
  config.routing_policies["TI"] = BrassRoutingPolicy::kByTopic;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  // Indirect check: two streams with the same TI subscription text go to
  // the same host even when loads differ.
  UserId a = CreateUser(cluster.tao(), "a", "en");
  UserId b = CreateUser(cluster.tao(), "b", "en");
  UserId c = CreateUser(cluster.tao(), "c", "en");
  ObjectId thread = CreateThread(cluster.tao(), {a, b, c});
  cluster.sim().RunFor(Seconds(1));
  DeviceAgent da(&cluster, a, 0, DeviceProfile::kWifi);
  DeviceAgent db(&cluster, b, 0, DeviceProfile::kWifi);
  da.SubscribeTyping(thread);
  db.SubscribeTyping(thread);
  cluster.sim().RunFor(Seconds(3));
  int hosts_with_streams = 0;
  for (size_t i = 0; i < cluster.NumBrassHosts(); ++i) {
    if (cluster.brass_host(i).StreamCount() > 0) {
      ++hosts_with_streams;
    }
  }
  EXPECT_EQ(hosts_with_streams, 1);
}

// RPC replies run in the channel owner's LP, wherever the call is issued
// from: a device's WAS channel answers in the device's LP, a backend channel
// in the global LP.
TEST(ClusterTest, RpcRepliesRunInTheOwnersLp) {
  ClusterConfig config;
  config.seed = 8;
  config.parallel.device_lp_groups = 4;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  UserId user = CreateUser(cluster.tao(), "u", "en");
  UserId other = CreateUser(cluster.tao(), "o", "en");
  cluster.sim().RunFor(Seconds(1));
  DeviceAgent device(&cluster, user, 0, DeviceProfile::kWifi);
  const uint32_t device_lp = cluster.DeviceLp(user).value;
  ASSERT_NE(device_lp, kGlobalLp.value);

  const std::string query = "{ user(id: " + std::to_string(other) + ") { name } }";
  std::vector<uint32_t> device_reply_lps;
  auto on_device_reply = [&device_reply_lps](bool ok, Value) {
    EXPECT_TRUE(ok);
    device_reply_lps.push_back(CurrentExecutionLp().value);
  };
  device.Query(query, on_device_reply);  // from setup, outside any event
  device.ctx().Schedule(Millis(1), [&]() { device.Query(query, on_device_reply); });

  std::unique_ptr<RpcChannel> backend = cluster.BackendWasChannel(0);
  auto request = std::make_shared<WasQueryRequest>();
  request->query = query;
  request->viewer = user;
  std::vector<uint32_t> backend_reply_lps;
  backend->Call("was.query", request, [&backend_reply_lps](RpcStatus status, MessagePtr) {
    EXPECT_EQ(status, RpcStatus::kOk);
    backend_reply_lps.push_back(CurrentExecutionLp().value);
  });

  cluster.sim().RunFor(Seconds(5));
  EXPECT_EQ(device_reply_lps, (std::vector<uint32_t>{device_lp, device_lp}));
  EXPECT_EQ(backend_reply_lps, (std::vector<uint32_t>{kGlobalLp.value}));
}

class DeviceAgentTest : public ::testing::Test {
 protected:
  DeviceAgentTest() {
    ClusterConfig config;
    config.seed = 8;
    cluster_ = std::make_unique<BladerunnerCluster>(config, Topology::OneRegion());
    user_ = CreateUser(cluster_->tao(), "u", "en");
    other_ = CreateUser(cluster_->tao(), "o", "en");
    MakeFriends(cluster_->tao(), user_, other_);
    video_ = CreateVideo(cluster_->tao(), user_, "v");
    cluster_->sim().RunFor(Seconds(1));
  }
  std::unique_ptr<BladerunnerCluster> cluster_;
  UserId user_ = 0;
  UserId other_ = 0;
  ObjectId video_ = 0;
};

TEST_F(DeviceAgentTest, QueryRoundTrips) {
  DeviceAgent device(cluster_.get(), user_, 0, DeviceProfile::kWifi);
  bool done = false;
  device.Query("{ user(id: " + std::to_string(other_) + ") { name } }",
               [&done](bool ok, Value data) {
                 EXPECT_TRUE(ok);
                 EXPECT_EQ(data.Get("user").Get("name").AsString(), "o");
                 done = true;
               });
  cluster_->sim().RunFor(Seconds(5));
  EXPECT_TRUE(done);
}

TEST_F(DeviceAgentTest, HeartbeatMarksUserActive) {
  DeviceAgent device(cluster_.get(), user_, 0, DeviceProfile::kWifi);
  DeviceAgent watcher(cluster_.get(), other_, 0, DeviceProfile::kWifi);
  device.StartHeartbeat(Seconds(30));
  cluster_->sim().RunFor(Seconds(5));
  bool done = false;
  watcher.Query("{ activeFriends { id } }", [&done, this](bool ok, Value data) {
    EXPECT_TRUE(ok);
    ASSERT_EQ(data.Get("activeFriends").Size(), 1u);
    EXPECT_EQ(data.Get("activeFriends").AsList()[0].Get("id").AsInt(), user_);
    done = true;
  });
  cluster_->sim().RunFor(Seconds(5));
  EXPECT_TRUE(done);
  device.StopHeartbeat();
}

TEST_F(DeviceAgentTest, ConnectivityChurnDropsAndRecovers) {
  DeviceAgent device(cluster_.get(), user_, 0, DeviceProfile::kMobile2g);  // lowest MTBF
  device.SubscribeLvc(video_);
  device.StartConnectivityChurn();
  cluster_->sim().RunFor(Minutes(45));  // several MTBF periods
  device.StopConnectivityChurn();
  cluster_->sim().RunFor(Seconds(30));
  EXPECT_GT(cluster_->metrics().GetCounter("burst.device_connection_drops").value(), 0);
  EXPECT_TRUE(device.burst().connected());
  EXPECT_EQ(device.burst().ActiveStreamCount(), 1u);
}

TEST_F(DeviceAgentTest, ProfilesScaleRadioPromotion) {
  // 2G devices pay far more for waking the radio than wifi devices; the
  // device-observed setup latency — the "brass.subscribe" span's end
  // relative to its subscribe trace's root — reflects it.
  SpanQuery query;
  query.name = "brass.subscribe";
  DeviceAgent wifi(cluster_.get(), user_, 0, DeviceProfile::kWifi);
  wifi.SubscribeLvc(video_);
  cluster_->sim().RunFor(Seconds(10));
  double wifi_setup = SpanEndSinceRootHistogram(cluster_->trace(), query).Mean();
  cluster_->trace().Clear();
  DeviceAgent slow(cluster_.get(), other_, 0, DeviceProfile::kMobile2g);
  slow.SubscribeLvc(video_);
  cluster_->sim().RunFor(Seconds(20));
  double slow_setup = SpanEndSinceRootHistogram(cluster_->trace(), query).Mean();
  EXPECT_GT(slow_setup, wifi_setup * 2.0);
}

}  // namespace
}  // namespace bladerunner

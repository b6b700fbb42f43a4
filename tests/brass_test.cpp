// Tests for the BRASS layer: serverless app spawning, the per-host Pylon
// subscription manager (dedup, unsubscribe-on-last-stream), routing
// policies, host drain/crash/revive, and Pylon quorum-loss signalling.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/apps/registry.h"
#include "src/brass/app_descriptor.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/pylon/topic.h"
#include "src/was/resolvers.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

class BrassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.seed = 77;
    config.brass_hosts_per_region = 2;
    cluster_ = std::make_unique<BladerunnerCluster>(config);
    SocialGraphConfig graph_config;
    graph_config.num_users = 30;
    graph_config.num_videos = 3;
    graph_config.num_threads = 5;
    graph_ = GenerateSocialGraph(cluster_->tao(), cluster_->sim().rng(), graph_config);
    cluster_->sim().RunFor(Seconds(2));
  }

  size_t TotalStreams() {
    size_t n = 0;
    for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
      n += cluster_->brass_host(i).StreamCount();
    }
    return n;
  }

  std::unique_ptr<BladerunnerCluster> cluster_;
  SocialGraph graph_;
};

TEST_F(BrassTest, ServerlessSpawnOnFirstStream) {
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    EXPECT_EQ(cluster_->brass_host(i).AppInstanceCount(), 0u);
  }
  DeviceAgent viewer(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  viewer.SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(3));
  EXPECT_EQ(cluster_->metrics().GetCounter("brass.app_spawns").value(), 1);
  size_t instances = 0;
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    instances += cluster_->brass_host(i).AppInstanceCount();
  }
  EXPECT_EQ(instances, 1u);
}

TEST_F(BrassTest, SecondStreamReusesInstance) {
  DeviceAgent a(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  a.SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(3));
  // Same device opens a second LVC stream: the serving host (same via
  // load/region) must not spawn another instance of the same app.
  a.SubscribeLvc(graph_.videos[1]);
  cluster_->sim().RunFor(Seconds(3));
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    EXPECT_LE(cluster_->brass_host(i).AppInstanceCount(), 1u);
  }
}

TEST_F(BrassTest, SubscriptionManagerDedupsPylonSubscriptions) {
  // Two devices in the same region watch the same video; if they land on
  // the same host, only one Pylon subscription for the topic may exist.
  ClusterConfig config;
  config.seed = 78;
  config.brass_hosts_per_region = 1;  // force both onto one host
  config.was.lvc_subscribe_friend_topics = false;  // count only the main topic
  BladerunnerCluster cluster(config, Topology::OneRegion());
  SocialGraphConfig gc;
  gc.num_users = 10;
  gc.num_videos = 1;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), gc);
  cluster.sim().RunFor(Seconds(2));

  DeviceAgent a(&cluster, graph.users[0], 0, DeviceProfile::kWifi);
  DeviceAgent b(&cluster, graph.users[1], 0, DeviceProfile::kWifi);
  a.SubscribeLvc(graph.videos[0]);
  b.SubscribeLvc(graph.videos[0]);
  cluster.sim().RunFor(Seconds(3));

  EXPECT_EQ(cluster.brass_host(0).StreamCount(), 2u);
  EXPECT_EQ(cluster.brass_host(0).PylonSubscriptionCount(), 1u);
  EXPECT_EQ(cluster.metrics().GetCounter("brass.pylon_subscribes").value(), 1);
}

TEST_F(BrassTest, LastStreamLeavingUnsubscribesTopic) {
  ClusterConfig config;
  config.seed = 79;
  config.brass_hosts_per_region = 1;
  config.was.lvc_subscribe_friend_topics = false;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  SocialGraphConfig gc;
  gc.num_users = 10;
  gc.num_videos = 1;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), gc);
  cluster.sim().RunFor(Seconds(2));

  DeviceAgent a(&cluster, graph.users[0], 0, DeviceProfile::kWifi);
  uint64_t sid = a.SubscribeLvc(graph.videos[0]);
  cluster.sim().RunFor(Seconds(3));
  EXPECT_EQ(cluster.brass_host(0).PylonSubscriptionCount(), 1u);

  a.CancelStream(sid);
  cluster.sim().RunFor(Seconds(3));
  EXPECT_EQ(cluster.brass_host(0).PylonSubscriptionCount(), 0u);
  EXPECT_EQ(cluster.metrics().GetCounter("brass.pylon_unsubscribes").value(), 1);
}

TEST_F(BrassTest, TopicRoutingPolicyKeepsTopicOnOneHost) {
  ClusterConfig config;
  config.seed = 80;
  config.brass_hosts_per_region = 4;
  config.was.lvc_subscribe_friend_topics = false;
  config.routing_policies["LVC"] = BrassRoutingPolicy::kByTopic;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  SocialGraphConfig gc;
  gc.num_users = 20;
  gc.num_videos = 1;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), gc);
  cluster.sim().RunFor(Seconds(2));

  std::vector<std::unique_ptr<DeviceAgent>> devices;
  for (int i = 0; i < 8; ++i) {
    devices.push_back(std::make_unique<DeviceAgent>(&cluster, graph.users[static_cast<size_t>(i)],
                                                    0, DeviceProfile::kWifi));
    devices.back()->SubscribeLvc(graph.videos[0]);
  }
  cluster.sim().RunFor(Seconds(3));

  // All 8 streams of the same subscription land on one host (curtailing
  // Pylon subscriptions, §3.2); total Pylon subscriptions for the topic: 1.
  int hosts_with_streams = 0;
  for (size_t i = 0; i < cluster.NumBrassHosts(); ++i) {
    if (cluster.brass_host(i).StreamCount() > 0) {
      ++hosts_with_streams;
      EXPECT_EQ(cluster.brass_host(i).StreamCount(), 8u);
    }
  }
  EXPECT_EQ(hosts_with_streams, 1);
  EXPECT_EQ(cluster.metrics().GetCounter("brass.pylon_subscribes").value(), 1);
}

TEST_F(BrassTest, LoadRoutingSpreadsStreams) {
  std::vector<std::unique_ptr<DeviceAgent>> devices;
  for (int i = 0; i < 12; ++i) {
    devices.push_back(std::make_unique<DeviceAgent>(cluster_.get(),
                                                    graph_.users[static_cast<size_t>(i)], 0,
                                                    DeviceProfile::kWifi));
    devices.back()->SubscribeLvc(graph_.videos[0]);
  }
  cluster_->sim().RunFor(Seconds(3));
  // Region 0 has 2 hosts; 12 streams must be spread across both.
  size_t with_streams = 0;
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    if (cluster_->brass_host(i).region() == 0 && cluster_->brass_host(i).StreamCount() > 0) {
      ++with_streams;
      EXPECT_GE(cluster_->brass_host(i).StreamCount(), 4u);
    }
  }
  EXPECT_EQ(with_streams, 2u);
}

TEST_F(BrassTest, UnknownAppTerminatesStream) {
  DeviceAgent a(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  a.SubscribeRaw("NoSuchApp", "subscription { liveVideoComments(videoId: 1) { id } }");
  cluster_->sim().RunFor(Seconds(3));
  EXPECT_EQ(TotalStreams(), 0u);
  EXPECT_GE(cluster_->metrics().GetCounter("device.streams_terminated").value(), 1);
}

TEST_F(BrassTest, BadSubscriptionTerminatesStream) {
  DeviceAgent a(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  a.SubscribeRaw("LVC", "subscription { noSuchRootField { id } }");
  cluster_->sim().RunFor(Seconds(3));
  EXPECT_EQ(TotalStreams(), 0u);
}

TEST_F(BrassTest, PylonQuorumLossTerminatesAffectedStreams) {
  // Kill enough KV nodes that no subscribe can reach quorum.
  for (size_t i = 0; i < cluster_->pylon()->NumKvNodes(); ++i) {
    cluster_->pylon()->KvNodeAt(i)->SetAvailable(false);
  }
  DeviceAgent a(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  a.SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(8));
  // §4: the BRASS detects the quorum loss and reliably informs the client.
  EXPECT_GE(cluster_->metrics().GetCounter("brass.pylon_subscribe_failures").value(), 1);
  EXPECT_GE(cluster_->metrics().GetCounter("device.streams_terminated").value(), 1);
  EXPECT_EQ(TotalStreams(), 0u);
}

TEST_F(BrassTest, HostReviveAcceptsNewStreams) {
  DeviceAgent a(cluster_.get(), graph_.users[0], 0, DeviceProfile::kWifi);
  a.SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(3));

  // Crash every host in every region, then revive them.
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    cluster_->brass_host(i).FailHost();
  }
  cluster_->sim().RunFor(Seconds(3));
  for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
    cluster_->brass_host(i).Revive();
  }
  DeviceAgent b(cluster_.get(), graph_.users[1], 0, DeviceProfile::kWifi);
  b.SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(5));
  EXPECT_GE(TotalStreams(), 1u);
}

TEST_F(BrassTest, EventsForUnsubscribedTopicsAreCounted) {
  // A publish arriving for a topic the host no longer holds is dropped and
  // counted (possible after unsubscribe races a publish).
  ClusterConfig config;
  config.seed = 81;
  config.brass_hosts_per_region = 1;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  SocialGraphConfig gc;
  gc.num_users = 10;
  gc.num_videos = 1;
  SocialGraph graph = GenerateSocialGraph(cluster.tao(), cluster.sim().rng(), gc);
  cluster.sim().RunFor(Seconds(2));

  DeviceAgent a(&cluster, graph.users[0], 0, DeviceProfile::kWifi);
  uint64_t sid = a.SubscribeLvc(graph.videos[0]);
  cluster.sim().RunFor(Seconds(3));
  DeviceAgent poster(&cluster, graph.users[1], 0, DeviceProfile::kWifi);
  // Cancel and immediately post: the publish may overtake the unsubscribe.
  a.CancelStream(sid);
  poster.PostComment(graph.videos[0], "late", "en");
  cluster.sim().RunFor(Seconds(15));
  // Either the unsubscribe won (event never delivered to the host) or the
  // event was dropped at the host; in no case does a payload reach a.
  EXPECT_EQ(a.payloads_received(), 0u);
}

// An update event is grouped by app when it reaches the host and handed to
// the app one dispatch delay later (BrassConfig::event_dispatch_ms). A
// stream that closes inside that window must not reach the app's OnEvent;
// the streams that stay must.
TEST_F(BrassTest, StreamClosedBeforeDispatchDoesNotReachTheApp) {
  ClusterConfig config;
  config.seed = 82;
  config.brass_hosts_per_region = 1;
  config.was.lvc_subscribe_friend_topics = false;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  UserId author = CreateUser(cluster.tao(), "author", "en");
  ObjectId video = CreateVideo(cluster.tao(), author, "v");
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (int i = 0; i < 3; ++i) {
    UserId user = CreateUser(cluster.tao(), "viewer" + std::to_string(i), "en");
    viewers.push_back(std::make_unique<DeviceAgent>(&cluster, user, 0, DeviceProfile::kWifi));
    viewers.back()->SubscribeLvc(video);
  }
  cluster.sim().RunFor(Seconds(3));
  BrassHost& host = cluster.brass_host(0);
  ASSERT_EQ(host.StreamCount(), 3u);

  // A comment below LVC's quality floor: every stream that reaches OnEvent
  // makes exactly one (negative) decision.
  auto decisions = [&cluster]() {
    return cluster.metrics().GetCounter("brass.decisions").value();
  };
  auto received = [&cluster]() {
    return cluster.metrics().GetCounter("brass.events_received").value();
  };
  auto publish = [&]() {
    PublishSpec spec;
    spec.topic = LvcTopic(video);
    spec.metadata.Set("id", static_cast<int64_t>(1));
    spec.metadata.Set("author", author);
    spec.metadata.Set("quality", 0.0);
    cluster.was(0).PublishNow(spec, cluster.sim().Now());
  };

  // Control: with no stream change, all three streams decide.
  int64_t before = decisions();
  publish();
  cluster.sim().RunFor(Seconds(1));
  EXPECT_EQ(decisions() - before, 3);

  // Step until the host receives the next event, then close one stream
  // before its dispatch runs (the dispatch delay is at least 0.28 ms).
  before = decisions();
  const int64_t received_before = received();
  publish();
  for (int step = 0; step < 100000 && received() == received_before; ++step) {
    cluster.sim().RunFor(Micros(100));
  }
  ASSERT_EQ(received(), received_before + 1);
  ASSERT_EQ(decisions(), before) << "the event was dispatched before the close";
  std::vector<StreamRecord> open = host.OpenStreamRecords();
  ASSERT_EQ(open.size(), 3u);
  ServerStream* closing = host.burst()->FindStream(open.front().key);
  ASSERT_NE(closing, nullptr);
  closing->Terminate(TerminateReason::kComplete, "closed inside the dispatch window");
  ASSERT_EQ(host.StreamCount(), 2u);

  cluster.sim().RunFor(Seconds(1));
  EXPECT_EQ(decisions() - before, 2);
}

// ---- registration-time descriptor validation (docs/BURST.md) ----

TEST(AppDescriptorTest, RejectsDurableDegradeToPollContradiction) {
  // The motivating misconfiguration: durable deliveries bypass the
  // conflating delivery queue, so the shed-based degrade trigger can never
  // fire — this used to register fine and the degrade policy silently never
  // engaged.
  BrassAppDescriptor descriptor;
  descriptor.name = "BadTicker";
  descriptor.durable = true;
  descriptor.degrade_to_poll = true;
  std::string error;
  EXPECT_FALSE(ValidateBrassAppDescriptor(descriptor, &error));
  EXPECT_NE(error.find("app 'BadTicker'"), std::string::npos) << error;
  EXPECT_NE(error.find("degrade_to_poll"), std::string::npos) << error;
  // A null error pointer is allowed when the caller only wants the verdict.
  EXPECT_FALSE(ValidateBrassAppDescriptor(descriptor, nullptr));
}

TEST(AppDescriptorTest, RejectsDurableConflatableContradiction) {
  BrassAppDescriptor descriptor;
  descriptor.name = "BadFeed";
  descriptor.durable = true;
  descriptor.conflatable = true;
  std::string error;
  EXPECT_FALSE(ValidateBrassAppDescriptor(descriptor, &error));
  EXPECT_NE(error.find("conflatable"), std::string::npos) << error;
}

TEST(AppDescriptorTest, StockRegistryDescriptorsAllValidate) {
  // Every descriptor the standard registry ships — including the durable
  // ticker variant — must pass the registration gate the cluster enforces.
  for (bool durable_ticker : {false, true}) {
    AppsConfig apps;
    apps.ticker.durable = durable_ticker;
    for (const auto& [name, registration] : BuildStandardAppRegistry(apps)) {
      std::string error;
      EXPECT_TRUE(ValidateBrassAppDescriptor(registration.descriptor, &error))
          << name << ": " << error;
    }
  }
}

}  // namespace
}  // namespace bladerunner

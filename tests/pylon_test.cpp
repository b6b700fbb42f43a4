// Unit tests for Pylon: topics, rendezvous hashing, subscriber KV quorum
// semantics, publish fanout, replica inconsistency patching, quorum loss.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/net/rpc.h"
#include "src/pylon/cluster.h"
#include "src/pylon/messages.h"
#include "src/pylon/rendezvous.h"
#include "src/pylon/topic.h"
#include "src/sim/simulator.h"
#include "src/trace/analysis.h"

namespace bladerunner {
namespace {

// ---- topics ----

TEST(TopicTest, JoinAndSplit) {
  EXPECT_EQ(JoinTopic({"LVC", "123"}), "/LVC/123");
  auto parts = SplitTopic("/TI/55/7");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "TI");
  EXPECT_EQ(parts[2], "7");
  EXPECT_TRUE(SplitTopic("///").empty());
}

TEST(TopicTest, Builders) {
  EXPECT_EQ(LvcTopic(9), "/LVC/9");
  EXPECT_EQ(LvcUserTopic(9, 4), "/LVC/9/4");
  EXPECT_EQ(TypingTopic(5, 6), "/TI/5/6");
  EXPECT_EQ(ActiveStatusTopic(2), "/AS/2");
  EXPECT_EQ(StoriesTopic(3), "/Stories/3");
  EXPECT_EQ(MailboxTopic(8), "/Mailbox/8");
}

TEST(TopicTest, HashIsStableAndSpreads) {
  EXPECT_EQ(TopicHash("/LVC/1"), TopicHash("/LVC/1"));
  EXPECT_NE(TopicHash("/LVC/1"), TopicHash("/LVC/2"));
  // Shards spread: 1000 topics over 64 shards should hit most shards.
  std::set<uint32_t> shards;
  for (int i = 0; i < 1000; ++i) {
    shards.insert(TopicShard(LvcTopic(i), 64));
  }
  EXPECT_GT(shards.size(), 55u);
}

// ---- rendezvous hashing ----

TEST(RendezvousTest, Deterministic) {
  std::vector<uint64_t> nodes = {1, 2, 3, 4, 5};
  EXPECT_EQ(RendezvousTopK("/a/b", nodes, 3), RendezvousTopK("/a/b", nodes, 3));
}

TEST(RendezvousTest, KClampedToPoolSize) {
  std::vector<uint64_t> nodes = {1, 2};
  EXPECT_EQ(RendezvousTopK("/t", nodes, 5).size(), 2u);
}

TEST(RendezvousTest, MinimalDisruptionOnNodeRemoval) {
  std::vector<uint64_t> nodes = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> without_8 = {1, 2, 3, 4, 5, 6, 7};
  int moved = 0;
  const int kTopics = 500;
  for (int i = 0; i < kTopics; ++i) {
    Topic t = "/topic/" + std::to_string(i);
    uint64_t before = RendezvousTopK(t, nodes, 1).front();
    uint64_t after = RendezvousTopK(t, without_8, 1).front();
    if (before != 8) {
      // Keys not mapped to the removed node must not move at all.
      EXPECT_EQ(before, after);
    } else {
      ++moved;
    }
  }
  // Roughly 1/8 of keys lived on node 8.
  EXPECT_NEAR(static_cast<double>(moved) / kTopics, 1.0 / 8.0, 0.05);
}

TEST(RendezvousTest, BalancedPlacement) {
  std::vector<uint64_t> nodes = {1, 2, 3, 4};
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    counts[RendezvousTopK("/t/" + std::to_string(i), nodes, 1).front()] += 1;
  }
  for (uint64_t n = 1; n <= 4; ++n) {
    EXPECT_NEAR(counts[n], 1000, 200);
  }
}

// ---- Pylon cluster ----

class PylonTest : public ::testing::Test {
 protected:
  PylonTest() : topology_(Topology::ThreeRegions()), sim_(11) {
    PylonConfig config;
    config.servers_per_region = 2;
    config.kv_nodes_per_region = 2;
    cluster_ = std::make_unique<PylonCluster>(&sim_, &topology_, config, &metrics_, &trace_);
    // A fake BRASS host that records deliveries.
    host_rpc_.RegisterMethod("brass.event",
                             [this](MessagePtr request, RpcServer::Respond respond) {
                               auto delivery = std::static_pointer_cast<BrassEventDelivery>(request);
                               received_.push_back(delivery->event->topic);
                               received_at_.push_back(sim_.Now());
                               respond(std::make_shared<PylonAck>());
                             });
    cluster_->RegisterSubscriberHost(kHostId, 0, &host_rpc_);
  }

  // Issues a subscribe through the topic's home server and runs to ack.
  bool Subscribe(const Topic& topic, int64_t host_id, bool subscribe = true) {
    PylonServer* server = cluster_->RouteServer(topic);
    RpcChannel channel(&sim_, server->rpc(), LatencyModel::IntraRegion());
    auto request = std::make_shared<PylonSubscribeRequest>();
    request->topic = topic;
    request->host_id = host_id;
    request->subscribe = subscribe;
    bool ok = false;
    bool done = false;
    channel.Call("pylon.subscribe", request, [&](RpcStatus status, MessagePtr response) {
      done = true;
      ok = status == RpcStatus::kOk && std::static_pointer_cast<PylonAck>(response)->ok;
    });
    sim_.RunFor(Seconds(3));
    EXPECT_TRUE(done);
    return ok;
  }

  void Publish(const Topic& topic) {
    PylonServer* server = cluster_->RouteServer(topic);
    RpcChannel channel(&sim_, server->rpc(), LatencyModel::IntraRegion());
    auto event = std::make_shared<UpdateEvent>();
    event->topic = topic;
    event->event_id = next_event_id_++;
    event->created_at = sim_.Now();
    auto request = std::make_shared<PylonPublishRequest>();
    request->event = std::move(event);
    channel.Call("pylon.publish", request, [](RpcStatus, MessagePtr) {});
  }

  static constexpr int64_t kHostId = 501;
  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  std::unique_ptr<PylonCluster> cluster_;
  RpcServer host_rpc_;
  std::vector<Topic> received_;
  std::vector<SimTime> received_at_;
  uint64_t next_event_id_ = 1;
};

TEST_F(PylonTest, SubscribeThenPublishDelivers) {
  ASSERT_TRUE(Subscribe("/LVC/1", kHostId));
  Publish("/LVC/1");
  sim_.RunFor(Seconds(2));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0], "/LVC/1");
}

TEST_F(PylonTest, PublishWithoutSubscribersDeliversNothing) {
  Publish("/LVC/2");
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(received_.empty());
}

TEST_F(PylonTest, UnsubscribeStopsDelivery) {
  ASSERT_TRUE(Subscribe("/LVC/3", kHostId));
  ASSERT_TRUE(Subscribe("/LVC/3", kHostId, /*subscribe=*/false));
  Publish("/LVC/3");
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(received_.empty());
}

TEST_F(PylonTest, MultipleSubscribersAllReceive) {
  RpcServer host2;
  int host2_received = 0;
  host2.RegisterMethod("brass.event", [&](MessagePtr, RpcServer::Respond respond) {
    ++host2_received;
    respond(std::make_shared<PylonAck>());
  });
  cluster_->RegisterSubscriberHost(502, 1, &host2);
  ASSERT_TRUE(Subscribe("/LVC/4", kHostId));
  ASSERT_TRUE(Subscribe("/LVC/4", 502));
  Publish("/LVC/4");
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(received_.size(), 1u);
  EXPECT_EQ(host2_received, 1);
}

TEST_F(PylonTest, ReplicasPlacedInDistinctRegions) {
  std::vector<KvNode*> replicas = cluster_->ReplicasFor("/LVC/5", 0);
  ASSERT_EQ(replicas.size(), 3u);
  std::set<RegionId> regions;
  for (KvNode* node : replicas) {
    regions.insert(node->region());
  }
  EXPECT_EQ(regions.size(), 3u);  // one local + two distinct remote (§3.1)
  EXPECT_EQ(replicas[0]->region(), 0);  // first replica is local
}

TEST_F(PylonTest, SubscriptionSurvivesOneReplicaDown) {
  // CP with quorum 2 of 3: one dead replica must not block subscribes.
  std::vector<KvNode*> replicas = cluster_->ReplicasFor("/LVC/6", 0);
  replicas[2]->SetAvailable(false);
  EXPECT_TRUE(Subscribe("/LVC/6", kHostId));
  Publish("/LVC/6");
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(PylonTest, QuorumLossFailsSubscriptionClosed) {
  std::vector<KvNode*> replicas = cluster_->ReplicasFor("/LVC/7", 0);
  replicas[1]->SetAvailable(false);
  replicas[2]->SetAvailable(false);
  EXPECT_FALSE(Subscribe("/LVC/7", kHostId));
  EXPECT_GE(metrics_.GetCounter("pylon.quorum_failures").value(), 1);
}

TEST_F(PylonTest, InconsistentReplicaGetsPatchedOnPublish) {
  // Create divergence the way production does: one replica flaps (transient
  // network outage, not a membership change) while the subscribe lands, so
  // it misses the kAdd the other two replicas acked.
  std::vector<KvNode*> replicas =
      cluster_->ReplicasFor("/LVC/8", cluster_->RouteServer("/LVC/8")->region());
  KvNode* damaged = replicas[2];
  damaged->SetAvailable(false);
  ASSERT_TRUE(Subscribe("/LVC/8", kHostId));  // quorum 2 of 3 still holds
  damaged->SetAvailable(true);
  EXPECT_EQ(damaged->Find("/LVC/8"), nullptr);

  // Publishing detects divergence among replica views and repairs it.
  Publish("/LVC/8");
  sim_.RunFor(Seconds(3));
  EXPECT_GE(metrics_.GetCounter("pylon.kv_inconsistencies").value(), 1);
  ASSERT_NE(damaged->Find("/LVC/8"), nullptr);
  EXPECT_EQ(damaged->Find("/LVC/8")->count(kHostId), 1u);
  // Delivery still happened (first-responder forwarding).
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(PylonTest, DeadHostSkippedDuringFanout) {
  ASSERT_TRUE(Subscribe("/LVC/9", kHostId));
  cluster_->UnregisterSubscriberHost(kHostId);
  Publish("/LVC/9");
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(metrics_.GetCounter("pylon.fanout_dead_hosts").value(), 1);
}

TEST_F(PylonTest, HostUnregisteringMidFanoutIsSafe) {
  // Regression: the fanout pipeline holds each send for ~50ms; a host that
  // unregisters (drain/crash) in that window used to leave the scheduled
  // send with a dangling channel pointer. The delivery must simply be lost.
  ASSERT_TRUE(Subscribe("/LVC/12", kHostId));
  Publish("/LVC/12");
  // Unregister after the publish is in flight but before the pipeline
  // delay elapses.
  sim_.RunFor(Millis(10));
  cluster_->UnregisterSubscriberHost(kHostId);
  sim_.RunFor(Seconds(3));
  EXPECT_TRUE(received_.empty());  // lost, not crashed (§4: best effort)
}

TEST_F(PylonTest, TopicRoutingIsStable) {
  PylonServer* a = cluster_->RouteServer("/LVC/10");
  PylonServer* b = cluster_->RouteServer("/LVC/10");
  EXPECT_EQ(a, b);
}

TEST_F(PylonTest, SubscribeReplicationLatencyIsRecorded) {
  ASSERT_TRUE(Subscribe("/LVC/11", kHostId));
  SpanQuery query;
  query.name = "pylon.subscribe";
  Histogram h = SpanDurationHistogram(trace_, query);
  EXPECT_GE(h.count(), 1u);
  // Quorum requires one remote region: tens of milliseconds, not seconds.
  EXPECT_GT(h.Mean(), static_cast<double>(Millis(5)));
  EXPECT_LT(h.Mean(), static_cast<double>(Millis(500)));
}

// ---- KV crash / recovery ----

TEST_F(PylonTest, SubscribeWithNoReachableReplicasFailsClosed) {
  for (size_t i = 0; i < cluster_->NumKvNodes(); ++i) {
    cluster_->KvNodeAt(i)->Fail();
  }
  // Regression: with an empty replica set the subscribe path used to issue
  // zero KV calls and never respond — the RPC hung until its timeout.
  // Subscribe() asserts the ack actually arrives.
  EXPECT_FALSE(Subscribe("/LVC/20", kHostId));
  EXPECT_GE(metrics_.GetCounter("pylon.quorum_failures").value(), 1);
}

TEST_F(PylonTest, CrashWithStateLossRestoredByAntiEntropy) {
  ASSERT_TRUE(Subscribe("/LVC/21", kHostId));
  std::vector<KvNode*> replicas =
      cluster_->ReplicasFor("/LVC/21", cluster_->RouteServer("/LVC/21")->region());
  KvNode* crashed = replicas[0];
  ASSERT_NE(crashed->Find("/LVC/21"), nullptr);
  crashed->Fail();
  EXPECT_EQ(crashed->lifecycle(), KvNodeState::kFailed);
  EXPECT_FALSE(crashed->InQuorumPool());
  crashed->Recover(/*lose_state=*/true);
  sim_.RunFor(Seconds(3));
  EXPECT_EQ(crashed->lifecycle(), KvNodeState::kLive);
  EXPECT_GE(metrics_.GetCounter("pylon.kv_anti_entropy_runs").value(), 1);
  // The wiped table was refilled from peer replicas before rejoining.
  ASSERT_NE(crashed->Find("/LVC/21"), nullptr);
  EXPECT_EQ(crashed->Find("/LVC/21")->count(kHostId), 1u);
  Publish("/LVC/21");
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(PylonTest, ReplicaPlacementHealsAroundCrashAndRestores) {
  const Topic topic = "/LVC/22";
  RegionId home = cluster_->RouteServer(topic)->region();
  std::vector<KvNode*> before = cluster_->ReplicasFor(topic, home);
  ASSERT_EQ(before.size(), 3u);
  before[0]->Fail();
  std::vector<KvNode*> during = cluster_->ReplicasFor(topic, home);
  ASSERT_EQ(during.size(), 3u);  // re-ranked onto survivors: set heals
  for (KvNode* node : during) {
    EXPECT_NE(node, before[0]);
    EXPECT_TRUE(node->InQuorumPool());
  }
  before[0]->Recover(/*lose_state=*/false);
  sim_.RunFor(Seconds(3));  // anti-entropy pass completes
  EXPECT_EQ(before[0]->lifecycle(), KvNodeState::kLive);
  EXPECT_EQ(cluster_->ReplicasFor(topic, home), before);  // placement restored
}

TEST_F(PylonTest, UnsubscribeWhileReplicaDownIsNotResurrectedByRecovery) {
  const Topic topic = "/LVC/23";
  ASSERT_TRUE(Subscribe(topic, kHostId));
  RegionId home = cluster_->RouteServer(topic)->region();
  std::vector<KvNode*> replicas = cluster_->ReplicasFor(topic, home);
  KvNode* crashed = replicas[0];
  ASSERT_NE(crashed->Find(topic), nullptr);
  crashed->Fail();
  // The unsubscribe lands on the healed replica set while the node is down;
  // the peers record tombstones for it.
  ASSERT_TRUE(Subscribe(topic, kHostId, /*subscribe=*/false));
  crashed->Recover(/*lose_state=*/false);  // stale table still lists the host
  sim_.RunFor(Seconds(3));
  EXPECT_EQ(crashed->lifecycle(), KvNodeState::kLive);
  // Remove-wins: the peers' tombstones beat the stale membership, so the
  // recovered node does not resurrect the unsubscribed host.
  const std::set<int64_t>* subs = crashed->Find(topic);
  EXPECT_TRUE(subs == nullptr || subs->count(kHostId) == 0);
  Publish(topic);
  sim_.RunFor(Seconds(2));
  EXPECT_TRUE(received_.empty());
}

TEST_F(PylonTest, StalePatchDoesNotClobberConcurrentAdd) {
  const Topic topic = "/LVC/24";
  std::vector<KvNode*> replicas =
      cluster_->ReplicasFor(topic, cluster_->RouteServer(topic)->region());
  KvNode* damaged = replicas[2];
  damaged->SetAvailable(false);
  ASSERT_TRUE(Subscribe(topic, kHostId));  // damaged misses the add
  damaged->SetAvailable(true);

  // A publish computes its repair patch from the divergent views...
  Publish(topic);
  // ...and while the patch is in flight, another quorum-acked add lands on
  // the previously-damaged replica (100ms: after its kGet was answered,
  // before the patch arrives over the cross-region link).
  sim_.RunFor(Millis(100));
  RpcChannel direct(&sim_, damaged->rpc(), LatencyModel::IntraRegion());
  auto add = std::make_shared<KvOpRequest>();
  add->op = KvOpRequest::Op::kAdd;
  add->topic = topic;
  add->subscriber = 502;
  direct.Call("kv.op", add, [](RpcStatus, MessagePtr) {});
  sim_.RunFor(Seconds(3));

  // Regression: the patch used to *replace* the subscriber set, erasing the
  // concurrent add. Now it is version-guarded: the add bumped the version,
  // so the stale patch is rejected and the add survives.
  const std::set<int64_t>* subs = damaged->Find(topic);
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(subs->count(502), 1u);
  EXPECT_GE(metrics_.GetCounter("pylon.kv_patch_conflicts").value(), 1);

  // A later publish repairs the original subscriber additively.
  Publish(topic);
  sim_.RunFor(Seconds(3));
  subs = damaged->Find(topic);
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(subs->count(kHostId), 1u);
  EXPECT_EQ(subs->count(502), 1u);
}

// ---- quorum-wait ablation fanout semantics ----

namespace {

// A topic whose home server is in region 0, so the replica in region 2 (the
// slowest link from home) is a deterministic straggler.
Topic HomeRegionZeroTopic(PylonCluster* cluster) {
  for (int i = 0;; ++i) {
    Topic topic = "/LVC/" + std::to_string(100 + i);
    if (cluster->RouteServer(topic)->region() == 0) {
      return topic;
    }
  }
}

// Plants a subscriber directly on one KV node (bypassing the quorum write),
// creating a divergent replica view.
void DirectAdd(Simulator* sim, KvNode* node, const Topic& topic, int64_t host) {
  RpcChannel direct(sim, node->rpc(), LatencyModel::IntraRegion());
  auto add = std::make_shared<KvOpRequest>();
  add->op = KvOpRequest::Op::kAdd;
  add->topic = topic;
  add->subscriber = host;
  direct.Call("kv.op", add, [](RpcStatus, MessagePtr) {});
  sim->RunFor(Seconds(1));
}

}  // namespace

TEST(PylonQuorumWaitTest, StragglerViewIsNotForwardedAfterQuorum) {
  Simulator sim(7);
  Topology topology = Topology::ThreeRegions();
  MetricsRegistry metrics;
  PylonConfig config;
  config.servers_per_region = 2;
  config.kv_nodes_per_region = 2;
  config.forward_on_first_response = false;  // quorum-wait ablation
  TraceCollector trace(TraceConfig{.enabled = false});
  PylonCluster cluster(&sim, &topology, config, &metrics, &trace);

  int a_received = 0;
  int c_received = 0;
  RpcServer host_a;
  host_a.RegisterMethod("brass.event", [&](MessagePtr, RpcServer::Respond respond) {
    ++a_received;
    respond(std::make_shared<PylonAck>());
  });
  RpcServer host_c;
  host_c.RegisterMethod("brass.event", [&](MessagePtr, RpcServer::Respond respond) {
    ++c_received;
    respond(std::make_shared<PylonAck>());
  });
  cluster.RegisterSubscriberHost(601, 0, &host_a);
  cluster.RegisterSubscriberHost(603, 0, &host_c);

  Topic topic = HomeRegionZeroTopic(&cluster);
  PylonServer* server = cluster.RouteServer(topic);
  RpcChannel channel(&sim, server->rpc(), LatencyModel::IntraRegion());
  auto request = std::make_shared<PylonSubscribeRequest>();
  request->topic = topic;
  request->host_id = 601;
  channel.Call("pylon.subscribe", request, [](RpcStatus, MessagePtr) {});
  sim.RunFor(Seconds(2));

  // Host C exists only in the straggler replica's view (region 2, the
  // slowest link from the home region): its kGet answer arrives after the
  // quorum of the local and region-1 views has already been forwarded.
  std::vector<KvNode*> replicas = cluster.ReplicasFor(topic, 0);
  ASSERT_EQ(replicas.size(), 3u);
  ASSERT_EQ(replicas[2]->region(), 2);
  DirectAdd(&sim, replicas[2], topic, 603);

  auto event = std::make_shared<UpdateEvent>();
  event->topic = topic;
  event->event_id = 1;
  event->created_at = sim.Now();
  auto publish = std::make_shared<PylonPublishRequest>();
  publish->event = std::move(event);
  channel.Call("pylon.publish", publish, [](RpcStatus, MessagePtr) {});
  sim.RunFor(Seconds(3));

  EXPECT_EQ(a_received, 1);
  // Regression: the quorum-wait branch used to re-run the forward loop on
  // every straggler response, leaking forward-on-first semantics into the
  // ablation. The straggler's extra subscriber only feeds the patch check.
  EXPECT_EQ(c_received, 0);
}

TEST(PylonFanoutTest, SerializationIndexCarriesAcrossReplicaViews) {
  Simulator sim(9);
  Topology topology = Topology::ThreeRegions();
  MetricsRegistry metrics;
  PylonConfig config;
  config.servers_per_region = 2;
  config.kv_nodes_per_region = 2;
  // Make the per-subscriber serialization premium dominate every other
  // latency in the fanout: 200ms per already-forwarded subscriber.
  config.per_subscriber_send_us = 200000.0;
  TraceCollector trace(TraceConfig{.enabled = false});
  PylonCluster cluster(&sim, &topology, config, &metrics, &trace);

  SimTime a_time = 0;
  SimTime c_time = 0;
  RpcServer host_a;
  host_a.RegisterMethod("brass.event", [&](MessagePtr, RpcServer::Respond respond) {
    a_time = sim.Now();
    respond(std::make_shared<PylonAck>());
  });
  RpcServer host_c;
  host_c.RegisterMethod("brass.event", [&](MessagePtr, RpcServer::Respond respond) {
    c_time = sim.Now();
    respond(std::make_shared<PylonAck>());
  });
  cluster.RegisterSubscriberHost(701, 0, &host_a);
  cluster.RegisterSubscriberHost(702, 0, &host_c);

  Topic topic = HomeRegionZeroTopic(&cluster);
  PylonServer* server = cluster.RouteServer(topic);
  RpcChannel channel(&sim, server->rpc(), LatencyModel::IntraRegion());
  auto request = std::make_shared<PylonSubscribeRequest>();
  request->topic = topic;
  request->host_id = 701;
  channel.Call("pylon.subscribe", request, [](RpcStatus, MessagePtr) {});
  sim.RunFor(Seconds(2));

  // Host C is known only to the remote replicas, so it is forwarded by a
  // *second* forward_new batch once their views arrive.
  std::vector<KvNode*> replicas = cluster.ReplicasFor(topic, 0);
  ASSERT_EQ(replicas.size(), 3u);
  DirectAdd(&sim, replicas[1], topic, 702);
  DirectAdd(&sim, replicas[2], topic, 702);

  auto event = std::make_shared<UpdateEvent>();
  event->topic = topic;
  event->event_id = 1;
  event->created_at = sim.Now();
  auto publish = std::make_shared<PylonPublishRequest>();
  publish->event = std::move(event);
  channel.Call("pylon.publish", publish, [](RpcStatus, MessagePtr) {});
  sim.RunFor(Seconds(5));

  ASSERT_GT(a_time, 0);
  ASSERT_GT(c_time, 0);
  // Regression: the serialization index used to reset to zero for each
  // replica's batch, so C (the publish's second overall send) paid no
  // premium. Carried across batches, C pays the full one-subscriber
  // premium on top of the remote view's arrival.
  EXPECT_GE(c_time - a_time, Millis(180));
}

}  // namespace
}  // namespace bladerunner

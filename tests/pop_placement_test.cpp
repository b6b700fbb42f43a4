// Edge placement (docs/BURST.md "Placement"): the POP-side payload cache's
// versioned invalidation semantics, and the end-to-end placement dataflow —
// one envelope frame per (host, POP, event), coarse filter + conflation +
// cache at the POP, fetch and privacy regional — including what one
// comment costs on the backbone, blocks on the POP path, fetches whose
// stream leaves, and the mid-stream fallback to fully regional processing
// when the capable POP fails.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/burst/pop_cache.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/was/resolvers.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

Value Payload(const std::string& text) {
  Value v;
  v.Set("text", text);
  return v;
}

// ---- PopPayloadCache: the fetch_pipeline stale-read rule at the edge ----

TEST(PopPayloadCacheTest, StaleFillIsRejectedAndNeverCached) {
  PopPayloadCache cache(4);
  // An envelope for version 2 crossed before the version-1 fill landed.
  cache.ObserveVersion("LVC", 7, 2);
  EXPECT_FALSE(cache.Put("LVC", 7, 1, Payload("old"), {{100, true}}));
  // The waiters were still served (a stale follower read is a valid read),
  // but no later stream can be handed the superseded payload.
  EXPECT_EQ(cache.Get("LVC", 7, 1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stale_rejects(), 1u);
}

TEST(PopPayloadCacheTest, VersionBumpInvalidatesCachedOlderEntry) {
  PopPayloadCache cache(4);
  ASSERT_TRUE(cache.Put("LVC", 7, 1, Payload("v1"), {{100, true}}));
  ASSERT_NE(cache.Get("LVC", 7, 1), nullptr);
  // The next event envelope for the object carries version 2: the v1 entry
  // must drop immediately, not linger until LRU pressure.
  EXPECT_EQ(cache.ObserveVersion("LVC", 7, 2), 1u);
  EXPECT_EQ(cache.Get("LVC", 7, 1), nullptr);
  EXPECT_EQ(cache.version_invalidations(), 1u);
  // The newer version caches normally afterwards.
  EXPECT_TRUE(cache.Put("LVC", 7, 2, Payload("v2"), {{100, true}}));
  ASSERT_NE(cache.Get("LVC", 7, 2), nullptr);
}

TEST(PopPayloadCacheTest, PutBelowWatermarkFromLaterFillIsRejected) {
  PopPayloadCache cache(4);
  ASSERT_TRUE(cache.Put("LVC", 7, 3, Payload("v3"), {{100, true}}));
  // A straggler fill for an older version arrives after the newer one.
  EXPECT_FALSE(cache.Put("LVC", 7, 2, Payload("v2"), {{100, true}}));
  EXPECT_EQ(cache.Get("LVC", 7, 2), nullptr);
  ASSERT_NE(cache.Get("LVC", 7, 3), nullptr);
}

TEST(PopPayloadCacheTest, BoundedByLruEviction) {
  PopPayloadCache cache(2);
  ASSERT_TRUE(cache.Put("LVC", 1, 1, Payload("a"), {}));
  ASSERT_TRUE(cache.Put("LVC", 2, 1, Payload("b"), {}));
  // Touch object 1 so object 2 is the LRU victim.
  ASSERT_NE(cache.Get("LVC", 1, 1), nullptr);
  ASSERT_TRUE(cache.Put("LVC", 3, 1, Payload("c"), {}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.lru_evictions(), 1u);
  EXPECT_EQ(cache.Get("LVC", 2, 1), nullptr);
  EXPECT_NE(cache.Get("LVC", 1, 1), nullptr);
  EXPECT_NE(cache.Get("LVC", 3, 1), nullptr);
}

// A later fill of a cached version, asked for viewers the first fill did
// not cover, adds their decisions to the entry and keeps the earlier ones.
TEST(PopPayloadCacheTest, AddDecisionsMergesForLaterViewers) {
  PopPayloadCache cache(4);
  ASSERT_TRUE(cache.Put("LVC", 7, 1, Payload("v1"), {{100, true}}));
  ASSERT_TRUE(cache.Put("LVC", 7, 1, Payload("v1"), {{101, false}}));
  EXPECT_EQ(cache.size(), 1u);
  const PopPayloadCache::Entry* entry = cache.Get("LVC", 7, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->decisions.at(100));
  EXPECT_FALSE(entry->decisions.at(101));
}

TEST(PopPayloadCacheTest, ZeroCapacityDisablesCaching) {
  PopPayloadCache cache(0);
  EXPECT_FALSE(cache.Put("LVC", 7, 1, Payload("v1"), {{100, true}}));
  EXPECT_EQ(cache.size(), 0u);
}

// ---- end-to-end placement through the full stack ----

class PopPlacementTest : public ::testing::Test {
 protected:
  void Build(BrassPlacement placement, bool placement_enabled, double min_quality = 0.0,
             size_t num_users = 30) {
    ClusterConfig config;
    config.seed = 4242;
    config.burst.pop_placement_enabled = placement_enabled;
    config.apps.lvc.placement = placement;
    // Deterministic delivery: no quality / friend / language gate, and a
    // short pacing gap so a single RunFor covers several push slots.
    config.apps.lvc.min_quality = min_quality;
    config.apps.lvc.non_friend_quality = 0.0;
    config.apps.lvc.filter_language = false;
    config.apps.lvc.push_interval = Seconds(1);
    config.brass_hosts_per_region = hosts_per_region_;
    cluster_ = std::make_unique<BladerunnerCluster>(config);
    SocialGraphConfig graph_config;
    graph_config.num_users = num_users;
    graph_config.num_videos = 1;
    graph_config.block_probability = block_probability_;
    graph_ = GenerateSocialGraph(cluster_->tao(), cluster_->sim().rng(), graph_config);
    cluster_->sim().RunFor(Seconds(2));
  }

  std::unique_ptr<DeviceAgent> MakeDevice(size_t user_index) {
    return std::make_unique<DeviceAgent>(cluster_.get(), graph_.users[user_index], 0,
                                         DeviceProfile::kWifi);
  }

  int64_t Counter(const std::string& name) {
    return cluster_->metrics().GetCounter(name).value();
  }

  // Posts one comment on the test video and runs until it has settled.
  ObjectId PostAndSettle(DeviceAgent& poster, SimTime settle = Seconds(15)) {
    ObjectId comment = 0;
    poster.Mutate("mutation { postComment(video: " + std::to_string(graph_.videos[0]) +
                      ", text: \"hi\", language: \"en\") { id } }",
                  [&comment](bool ok, Value data) {
                    if (ok) {
                      comment = data.Get("postComment").Get("id").AsInt(0);
                    }
                  });
    cluster_->sim().RunFor(settle);
    return comment;
  }

  // Runs until the first PopFetch has left a POP (at most 10 s).
  void RunUntilFirstFetch() {
    const SimTime deadline = cluster_->sim().Now() + Seconds(10);
    while (Counter("burst.pop_fetches") == 0 && cluster_->sim().Now() < deadline) {
      cluster_->sim().RunFor(Millis(1));
    }
  }

  // Set before Build().
  int hosts_per_region_ = 3;
  double block_probability_ = 0.02;

  std::unique_ptr<BladerunnerCluster> cluster_;
  SocialGraph graph_;
};

TEST_F(PopPlacementTest, PopPlacedStreamDeliversThroughTheEdge) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  poster->PostComment(video, "hello", "en");
  cluster_->sim().RunFor(Seconds(15));

  // The host sent envelopes, never payloads; the POP resolved and pushed.
  EXPECT_GE(Counter("brass.envelopes"), 1);
  EXPECT_GE(Counter("burst.pop_envelopes"), 1);
  EXPECT_GE(Counter("burst.pop_deliveries"), 1);
  EXPECT_GE(Counter("burst.pop_fetches"), 1);
  EXPECT_GE(Counter("brass.pop_fetch_serves"), 1);
  EXPECT_EQ(Counter("brass.deliveries"), 0);
  EXPECT_GE(viewer->payloads_received(), 1u);
}

TEST_F(PopPlacementTest, PlacementKnobsOffKeepsEverythingRegional) {
  Build(BrassPlacement::kRegional, /*placement_enabled=*/false);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  poster->PostComment(video, "hello", "en");
  cluster_->sim().RunFor(Seconds(15));

  EXPECT_GE(viewer->payloads_received(), 1u);
  EXPECT_GE(Counter("brass.deliveries"), 1);
  EXPECT_EQ(Counter("brass.envelopes"), 0);
  EXPECT_EQ(Counter("burst.pop_envelopes"), 0);
  EXPECT_EQ(Counter("burst.pop_deliveries"), 0);
}

// The app asks for POP placement but the deployment has not enabled POPs:
// the POP clears the header stamp at Subscribe and the host runs regional.
TEST_F(PopPlacementTest, AppPolicyWithoutCapablePopsFallsBackRegional) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/false);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  poster->PostComment(video, "hello", "en");
  cluster_->sim().RunFor(Seconds(15));

  EXPECT_GE(viewer->payloads_received(), 1u);
  EXPECT_GE(Counter("brass.deliveries"), 1);
  EXPECT_EQ(Counter("brass.envelopes"), 0);
}

TEST_F(PopPlacementTest, CoarseFilterDropsLowQualityAtThePop) {
  // min_quality above the whole quality range: every comment survives the
  // regional residual (it is viewer-independent-clean) but dies at the POP.
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true,
        /*min_quality=*/2.0);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  for (int i = 0; i < 5; ++i) {
    poster->PostComment(video, "spam", "en");
    cluster_->sim().RunFor(Seconds(1));
  }
  cluster_->sim().RunFor(Seconds(15));

  EXPECT_GE(Counter("burst.pop_filtered"), 1);
  EXPECT_EQ(Counter("burst.pop_deliveries"), 0);
  EXPECT_EQ(viewer->payloads_received(), 0u);
  // The filtered events never triggered a regional payload fetch.
  EXPECT_EQ(Counter("burst.pop_fetches"), 0);
}

TEST_F(PopPlacementTest, EditStormConflatesAtThePopNewestVersionWins) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  ObjectId comment = 0;
  poster->Mutate("mutation { postComment(video: " + std::to_string(video) +
                     ", text: \"hot\", language: \"en\") { id } }",
                 [&comment](bool ok, Value data) {
                   if (ok) {
                     comment = data.Get("postComment").Get("id").AsInt(0);
                   }
                 });
  cluster_->sim().RunFor(Seconds(10));
  ASSERT_NE(comment, 0);

  // Burst of edits inside one pacing gap: the POP's per-stream queue must
  // conflate them down (newest version supersedes) instead of queueing all.
  for (int i = 0; i < 10; ++i) {
    poster->EditComment(comment, "edit " + std::to_string(i));
    cluster_->sim().RunFor(Millis(100));
  }
  cluster_->sim().RunFor(Seconds(20));

  EXPECT_GE(Counter("burst.pop_conflated"), 1);
  // Pacing held: far fewer pushes than events.
  EXPECT_LT(Counter("burst.pop_deliveries"), Counter("burst.pop_envelopes"));
  EXPECT_GE(viewer->payloads_received(), 2u);  // original + a conflated edit
}

// A flash crowd on one POP and one host, larger than the host's privacy
// batch (kMaxBatchViewers = 64): the comment crosses the backbone as one
// envelope frame, and the POP's single fetch is answered by one fill
// holding a decision for every viewer; every allowed viewer gets the
// payload exactly once.
TEST_F(PopPlacementTest, CrowdBeyondPrivacyBatchIsAnsweredByOneFill) {
  constexpr size_t kCrowd = 80;
  hosts_per_region_ = 1;
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true, /*min_quality=*/0.0,
        /*num_users=*/kCrowd + 1);
  auto poster = MakeDevice(kCrowd);
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (size_t i = 0; i < kCrowd; ++i) {
    viewers.push_back(MakeDevice(i));
    viewers.back()->SubscribeLvc(graph_.videos[0]);
  }
  cluster_->sim().RunFor(Seconds(5));

  ObjectId comment = PostAndSettle(*poster);
  ASSERT_NE(comment, 0);

  // One envelope frame down, one fetch up, one fill down, and the host
  // needed privacy top-ups past its 64-viewer batch to build it.
  EXPECT_EQ(Counter("brass.envelopes"), static_cast<int64_t>(kCrowd));
  EXPECT_EQ(Counter("brass.envelope_frames"), 1);
  EXPECT_EQ(Counter("burst.pop_fetches"), 1);
  EXPECT_EQ(Counter("brass.pop_fetch_serves"), 1);
  EXPECT_GE(Counter("brass.fetch.privacy_rpcs"), 1);
  const PopPayloadCache::Entry* entry = cluster_->pop(0).payload_cache().Peek("LVC", comment, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->decisions.size(), kCrowd);

  int64_t allowed = 0;
  for (size_t i = 0; i < kCrowd; ++i) {
    auto decision = entry->decisions.find(graph_.users[i]);
    ASSERT_NE(decision, entry->decisions.end()) << "viewer " << i;
    EXPECT_EQ(viewers[i]->payloads_received(), decision->second ? 1u : 0u) << "viewer " << i;
    allowed += decision->second ? 1 : 0;
  }
  EXPECT_GT(allowed, 64);
  EXPECT_EQ(Counter("burst.pop_deliveries"), allowed);
  EXPECT_EQ(Counter("burst.pop_privacy_drops"), static_cast<int64_t>(kCrowd) - allowed);
}

// Viewers of one POP spread over several hosts: each host sends its own
// envelope frame, and the POP fetches no more often than frames arrive,
// asking for each viewer's decision once.
TEST_F(PopPlacementTest, CrowdOverHostsAsksForEachViewerOnce) {
  constexpr size_t kCrowd = 24;
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true, /*min_quality=*/0.0,
        /*num_users=*/kCrowd + 1);
  auto poster = MakeDevice(kCrowd);
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (size_t i = 0; i < kCrowd; ++i) {
    viewers.push_back(MakeDevice(i));
    viewers.back()->SubscribeLvc(graph_.videos[0]);
  }
  cluster_->sim().RunFor(Seconds(5));

  ObjectId comment = PostAndSettle(*poster);
  ASSERT_NE(comment, 0);

  const int64_t frames = Counter("brass.envelope_frames");
  EXPECT_GE(frames, 2);  // the crowd really is spread over hosts
  EXPECT_GE(Counter("burst.pop_fetches"), 1);
  EXPECT_LE(Counter("burst.pop_fetches"), frames);
  // Every regional fetch request came from the POP: one per viewer.
  EXPECT_EQ(Counter("brass.fetch.requests"), static_cast<int64_t>(kCrowd));
  const PopPayloadCache::Entry* entry = cluster_->pop(0).payload_cache().Peek("LVC", comment, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->decisions.size(), kCrowd);
  for (size_t i = 0; i < kCrowd; ++i) {
    EXPECT_EQ(viewers[i]->payloads_received(), entry->decisions.at(graph_.users[i]) ? 1u : 0u)
        << "viewer " << i;
  }
}

// The POP path enforces blocks in both directions: the envelope carries
// the author, so the WAS denies a viewer who blocked the author and a
// viewer the author blocked, while an unblocked viewer on the same POP
// still gets the comment.
TEST_F(PopPlacementTest, BlockedViewersGetNoPopDelivery) {
  hosts_per_region_ = 1;
  block_probability_ = 0.0;
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  const UserId author = graph_.users[0];
  BlockUser(cluster_->tao(), graph_.users[1], author);  // viewer blocked the author
  BlockUser(cluster_->tao(), author, graph_.users[2]);  // the author blocked the viewer
  auto poster = MakeDevice(0);
  auto blocker = MakeDevice(1);
  auto blocked = MakeDevice(2);
  auto unblocked = MakeDevice(3);
  for (DeviceAgent* viewer : {blocker.get(), blocked.get(), unblocked.get()}) {
    viewer->SubscribeLvc(graph_.videos[0]);
  }
  cluster_->sim().RunFor(Seconds(3));

  ASSERT_NE(PostAndSettle(*poster), 0);

  EXPECT_EQ(blocker->payloads_received(), 0u);
  EXPECT_EQ(blocked->payloads_received(), 0u);
  EXPECT_EQ(unblocked->payloads_received(), 1u);
  EXPECT_EQ(Counter("burst.pop_privacy_drops"), 2);
  EXPECT_EQ(Counter("burst.pop_deliveries"), 1);
  EXPECT_EQ(Counter("brass.deliveries"), 0);
}

// Regression: a fetch whose stream leaves the POP before its fill returns
// must not strand the other waiters. The POP re-sends it through a
// waiting stream, whichever of the two viewers cancels.
TEST_F(PopPlacementTest, FetchIsResentWhenItsStreamLeaves) {
  for (size_t cancelled = 0; cancelled < 2; ++cancelled) {
    SCOPED_TRACE("cancelled viewer " + std::to_string(cancelled));
    Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
    auto poster = MakeDevice(2);
    std::vector<std::unique_ptr<DeviceAgent>> viewers;
    std::vector<uint64_t> sids;
    for (size_t i = 0; i < 2; ++i) {
      viewers.push_back(MakeDevice(i));
      sids.push_back(viewers.back()->SubscribeLvc(graph_.videos[0]));
    }
    cluster_->sim().RunFor(Seconds(3));

    poster->PostComment(graph_.videos[0], "hi", "en");
    RunUntilFirstFetch();
    ASSERT_EQ(Counter("burst.pop_fetches"), 1);
    viewers[cancelled]->CancelStream(sids[cancelled]);
    cluster_->sim().RunFor(Seconds(30));

    const size_t survivor = 1 - cancelled;
    EXPECT_EQ(viewers[survivor]->payloads_received(), 1u);
    EXPECT_EQ(viewers[cancelled]->payloads_received(), 0u);
    EXPECT_EQ(Counter("burst.pop_deliveries"), 1);
  }
}

// Regression: a fetch lost with its path — the stream's host or the POP's
// uplink proxy fails while the fetch is in the air — is re-sent once the
// path is repaired, so the waiting viewer still gets the comment.
TEST_F(PopPlacementTest, FetchIsResentWhenItsPathIsLost) {
  for (bool lose_host : {true, false}) {
    SCOPED_TRACE(lose_host ? "host lost" : "proxy lost");
    hosts_per_region_ = 2;
    Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
    auto viewer = MakeDevice(0);
    auto poster = MakeDevice(1);
    viewer->SubscribeLvc(graph_.videos[0]);
    cluster_->sim().RunFor(Seconds(3));

    poster->PostComment(graph_.videos[0], "hi", "en");
    RunUntilFirstFetch();
    ASSERT_EQ(Counter("burst.pop_fetches"), 1);
    // The viewer's stream is the only one: its host and its proxy are the
    // ones holding a stream.
    if (lose_host) {
      for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
        if (cluster_->brass_host(i).StreamCount() > 0) {
          cluster_->brass_host(i).FailHost();
          break;
        }
      }
    } else {
      for (size_t i = 0; i < cluster_->NumProxies(); ++i) {
        if (cluster_->proxy(i).StreamCount() > 0) {
          cluster_->proxy(i).FailProxy();
          break;
        }
      }
    }
    cluster_->sim().RunFor(Seconds(30));

    EXPECT_EQ(viewer->payloads_received(), 1u);
    EXPECT_EQ(Counter("burst.pop_deliveries"), 1);
    EXPECT_EQ(Counter("burst.pop_fetches"), 2);
  }
}

// A listed stream whose device path is gone (detached at the host) counts
// one dropped push, and nothing crosses the backbone for it.
TEST_F(PopPlacementTest, DetachedListedStreamCountsADroppedPush) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  viewer->SubscribeLvc(graph_.videos[0]);
  cluster_->sim().RunFor(Seconds(3));
  viewer->burst().SetAutoReconnect(false);
  viewer->burst().SimulateConnectionDrop();
  cluster_->sim().RunFor(Seconds(1));

  ASSERT_NE(PostAndSettle(*poster, Seconds(3)), 0);

  EXPECT_EQ(Counter("brass.envelopes"), 1);
  EXPECT_EQ(Counter("burst.server_pushes_dropped"), 1);
  EXPECT_EQ(Counter("brass.envelope_frames"), 0);
  EXPECT_EQ(Counter("burst.pop_envelopes"), 0);
}

// The per-kind backbone counters split the POP's backbone bytes: each
// placement frame kind moves bytes on a placed flood, and together they are
// part of (never more than) the whole.
TEST_F(PopPlacementTest, PerKindBackboneBytesArePartOfTheBackbone) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  std::vector<std::unique_ptr<DeviceAgent>> viewers;
  for (size_t i = 0; i < 6; ++i) {
    viewers.push_back(MakeDevice(i));
    viewers.back()->SubscribeLvc(graph_.videos[0]);
  }
  auto poster = MakeDevice(6);
  cluster_->sim().RunFor(Seconds(3));
  for (int i = 0; i < 5; ++i) {
    poster->PostComment(graph_.videos[0], "flood " + std::to_string(i), "en");
    cluster_->sim().RunFor(Millis(300));
  }
  cluster_->sim().RunFor(Seconds(15));

  const int64_t envelope = Counter("burst.pop_envelope_bytes");
  const int64_t fetch = Counter("burst.pop_fetch_bytes");
  const int64_t fill = Counter("burst.pop_fill_bytes");
  EXPECT_GT(envelope, 0);
  EXPECT_GT(fetch, 0);
  EXPECT_GT(fill, 0);
  EXPECT_LE(envelope + fetch + fill,
            Counter("burst.pop_backbone_bytes_up") + Counter("burst.pop_backbone_bytes_down"));
}

TEST_F(PopPlacementTest, PopFailureMidStreamFallsBackToRegional) {
  Build(BrassPlacement::kPopFilterConflate, /*placement_enabled=*/true);
  // Region 0 has two POPs; devices attach to the first alive one. Make the
  // second one placement-incapable so the failover exercises the fallback.
  ASSERT_GE(cluster_->NumPops(), 2u);
  cluster_->pop(1).set_placement_enabled(false);

  auto viewer = MakeDevice(0);
  auto poster = MakeDevice(1);
  ObjectId video = graph_.videos[0];
  viewer->SubscribeLvc(video);
  cluster_->sim().RunFor(Seconds(3));

  poster->PostComment(video, "before failover", "en");
  cluster_->sim().RunFor(Seconds(15));
  ASSERT_GE(Counter("burst.pop_deliveries"), 1);
  ASSERT_EQ(Counter("brass.deliveries"), 0);
  uint64_t delivered_before = viewer->payloads_received();
  int64_t pop_deliveries_before = Counter("burst.pop_deliveries");

  // The capable POP dies mid-stream. The device reconnects through the
  // incapable one, which clears the placement stamp on the resubscribe, so
  // the host resumes fully regional processing for the same stream.
  cluster_->pop(0).FailPop();
  cluster_->sim().RunFor(Seconds(10));

  poster->PostComment(video, "after failover", "en");
  cluster_->sim().RunFor(Seconds(15));

  EXPECT_GT(viewer->payloads_received(), delivered_before);
  EXPECT_GE(Counter("brass.deliveries"), 1);  // regional path took over
  EXPECT_EQ(Counter("burst.pop_deliveries"), pop_deliveries_before);
}

}  // namespace
}  // namespace bladerunner

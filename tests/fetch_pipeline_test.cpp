// Tests for the per-host shared fetch pipeline (src/brass/fetch_pipeline):
// singleflight coalescing, the versioned payload cache and its
// version-observation invalidation, batched per-viewer privacy checks, the
// bypass path, and the stale-version regression — a lagging follower WAS
// must never get an old payload cached (and served) as current. The
// batched FetchForViewers entry is checked against one Fetch per viewer.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/brass/fetch_pipeline.h"
#include "src/net/rpc.h"
#include "src/pylon/cluster.h"
#include "src/tao/store.h"
#include "src/was/messages.h"
#include "src/was/resolvers.h"
#include "src/was/server.h"

namespace bladerunner {
namespace {

// WAS + pipeline both live in region 1; test objects are written through a
// region-0 leader shard, so region 1 reads them region-relatively (with
// genuine replication lag right after a write).
constexpr RegionId kHostRegion = 1;
constexpr RegionId kLeaderRegion = 0;

struct FetchResult {
  bool done = false;
  bool allowed = false;
  Value payload;
};

// A TAO + Pylon + WAS + pipeline world. Two worlds built the same way
// simulate identically, which the FetchForViewers equivalence tests use.
struct PipelineWorld {
  PipelineWorld() : topology_(Topology::ThreeRegions()), sim_(91) {
    tao_ = std::make_unique<TaoStore>(&sim_, &topology_, TaoConfig{}, &metrics_);
    PylonConfig pylon_config;
    pylon_config.servers_per_region = 1;
    pylon_config.kv_nodes_per_region = 3;
    pylon_ = std::make_unique<PylonCluster>(&sim_, &topology_, pylon_config, &metrics_, &trace_);
    // Fast WAS processing so a fetch round trip (couple of ms) completes
    // well inside the cross-region TAO replication window (tens of ms) —
    // the stale-follower test issues several fetches during that window.
    WasConfig was_config;
    was_config.fetch_base_ms = 2.0;
    was_config.query_base_ms = 1.0;
    was_config.privacy_check_ms = 0.5;
    was_ = std::make_unique<WebAppServer>(&sim_, kHostRegion, tao_.get(), pylon_.get(),
                                          was_config, &metrics_, &trace_);
    InstallSocialSchema(*was_);
    channel_ = std::make_unique<RpcChannel>(&sim_, was_->rpc(), LatencyModel::Fixed(0.1));

    author_ = CreateUser(*tao_, "author", "en");
    viewer_a_ = CreateUser(*tao_, "viewer-a", "en");
    viewer_b_ = CreateUser(*tao_, "viewer-b", "en");
    viewer_c_ = CreateUser(*tao_, "viewer-c", "en");
    batch_viewers_ = {viewer_a_, viewer_b_};
    MakePipeline(FetchPipelineConfig{});
    sim_.RunFor(Seconds(2));  // replicate the users everywhere
  }

  void MakePipeline(FetchPipelineConfig config) {
    pipeline_ = std::make_unique<FetchPipeline>(
        &sim_, kHostRegion, channel_.get(), Seconds(5), config, &metrics_, &trace_,
        [this](const std::string&) -> const std::vector<UserId>& { return batch_viewers_; });
  }

  // Allocates an object id owned by a region-0 leader shard.
  ObjectId AllocLeaderRegionId() {
    ObjectId id = tao_->NextId();
    while (tao_->LeaderRegionOf(id) != kLeaderRegion) {
      id = tao_->NextId();
    }
    return id;
  }

  // Writes (a new version of) a comment object; returns the stamped version.
  uint64_t PutComment(ObjectId id, const std::string& text) {
    Object object;
    object.id = id;
    object.otype = "comment";
    object.data.Set("text", text);
    object.data.Set("author", author_);
    uint64_t version = 0;
    tao_->PutObject(std::move(object), &version);
    return version;
  }

  Value Meta(ObjectId id, uint64_t version) {
    Value meta;
    meta.Set("id", id);
    meta.Set("author", author_);
    meta.Set("version", static_cast<int64_t>(version));
    return meta;
  }

  std::shared_ptr<FetchResult> Fetch(UserId viewer, const Value& metadata,
                                     bool bypass_cache = false) {
    auto result = std::make_shared<FetchResult>();
    FetchOptions options;
    options.viewer = viewer;
    options.bypass_cache = bypass_cache;
    pipeline_->Fetch("LVC", metadata, options, [result](bool allowed, Value payload) {
      result->done = true;
      result->allowed = allowed;
      result->payload = std::move(payload);
    });
    return result;
  }

  int64_t Counter(const std::string& name) { return metrics_.GetCounter(name).value(); }

  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  std::unique_ptr<TaoStore> tao_;
  std::unique_ptr<PylonCluster> pylon_;
  std::unique_ptr<WebAppServer> was_;
  std::unique_ptr<RpcChannel> channel_;
  std::unique_ptr<FetchPipeline> pipeline_;
  UserId author_ = 0;
  UserId viewer_a_ = 0;
  UserId viewer_b_ = 0;
  UserId viewer_c_ = 0;
  std::vector<UserId> batch_viewers_;
};

class FetchPipelineTest : public ::testing::Test, public PipelineWorld {};

TEST_F(FetchPipelineTest, CoalescesSameInstantFetchesIntoOneRoundTrip) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "hello");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));

  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(Counter("brass.fetch.coalesced"), 1);
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_TRUE(b->allowed);
  EXPECT_EQ(a->payload.Get("text").AsString(), "hello");
  EXPECT_EQ(b->payload.Get("text").AsString(), "hello");
}

TEST_F(FetchPipelineTest, ServesFollowersFromVersionedCache) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "cached");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // Viewer B arrives later; their decision was prefetched in the batched
  // RPC, so this is a pure cache hit: no new WAS round trip.
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(b->allowed);
  EXPECT_EQ(b->payload.Get("text").AsString(), "cached");
  EXPECT_EQ(Counter("was.fetches"), 1);
  EXPECT_EQ(Counter("brass.fetch.cache_hits"), 1);
}

TEST_F(FetchPipelineTest, PerViewerPrivacyPreservedInBatchAndCache) {
  BlockUser(*tao_, author_, viewer_b_);
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "private");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_FALSE(b->allowed);
  EXPECT_TRUE(b->payload.is_null());

  // The cached denial is as authoritative as the WAS's answer: a repeat
  // fetch by the blocked viewer stays denied and payload-free.
  auto b2 = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(b2->done);
  EXPECT_FALSE(b2->allowed);
  EXPECT_TRUE(b2->payload.is_null());
  EXPECT_EQ(Counter("was.fetches"), 1);
}

TEST_F(FetchPipelineTest, LateViewerGetsPrivacyOnlyTopUp) {
  batch_viewers_ = {viewer_a_};  // only A's decision is prefetched
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "topup");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);

  // C's decision is missing from the cache entry: a privacy-only RPC runs
  // (no payload re-fetch), then the cached payload is served.
  auto c = Fetch(viewer_c_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(c->done);
  EXPECT_TRUE(c->allowed);
  EXPECT_EQ(c->payload.Get("text").AsString(), "topup");
  EXPECT_EQ(Counter("brass.fetch.privacy_rpcs"), 1);
  EXPECT_EQ(Counter("brass.fetch.rpcs"), 1);
}

TEST_F(FetchPipelineTest, BypassCacheAlwaysReachesTheWas) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "direct");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(Counter("was.fetches"), 1);

  auto direct = Fetch(viewer_a_, Meta(id, version), /*bypass_cache=*/true);
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(direct->done);
  EXPECT_TRUE(direct->allowed);
  EXPECT_EQ(direct->payload.Get("text").AsString(), "direct");
  EXPECT_EQ(Counter("was.fetches"), 2);
  EXPECT_EQ(Counter("brass.fetch.bypass"), 1);
}

TEST_F(FetchPipelineTest, NewerObservedVersionInvalidatesCachedPayload) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "v1");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, v1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // A Pylon event announcing version 2 of the object arrives at the host.
  pipeline_->ObserveEvent(Meta(id, v1 + 1));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
  EXPECT_EQ(Counter("brass.fetch.invalidations"), 1);
}

// The regression this pipeline must never introduce: after version v+1 of
// an object has been observed, the cached version v payload must not be
// delivered for a new fetch — including when the follower-region WAS,
// still mid-replication, answers the fresh fetch with version v again.
TEST_F(FetchPipelineTest, StaleFollowerReadIsDeliveredButNeverCachedAsCurrent) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "old");
  sim_.RunFor(Seconds(2));

  // Version 1 is cached on the host.
  auto warm = Fetch(viewer_a_, Meta(id, v1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(warm->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // Version 2 is written through the region-0 leader and its Pylon event
  // reaches the host at once — long before TAO replication lands the new
  // version in this region.
  uint64_t v2 = PutComment(id, "new");
  ASSERT_EQ(v2, v1 + 1);
  pipeline_->ObserveEvent(Meta(id, v2));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);  // v1 can no longer be served

  // A fetch for the v2 event during the replication lag: the cache must
  // miss (fresh WAS round trip), the follower WAS still serves v1 — which
  // is delivered, exactly as an unpipelined fetch would have — but the
  // stale payload must not be cached as the current version.
  int64_t rpcs_before = Counter("was.fetches");
  auto lagged = Fetch(viewer_a_, Meta(id, v2));
  sim_.RunFor(Millis(10));
  ASSERT_TRUE(lagged->done);
  EXPECT_TRUE(lagged->allowed);
  EXPECT_EQ(lagged->payload.Get("text").AsString(), "old");
  EXPECT_EQ(Counter("was.fetches"), rpcs_before + 1);
  EXPECT_EQ(Counter("brass.fetch.stale_returns"), 1);
  EXPECT_EQ(pipeline_->CacheSize(), 0u);

  // Another fetch during the lag must go to the WAS again — there is no
  // cached entry that could hand back the stale payload.
  auto lagged2 = Fetch(viewer_b_, Meta(id, v2));
  sim_.RunFor(Millis(10));
  ASSERT_TRUE(lagged2->done);
  EXPECT_EQ(lagged2->payload.Get("text").AsString(), "old");  // still mid-replication
  EXPECT_EQ(Counter("was.fetches"), rpcs_before + 2);
  EXPECT_EQ(pipeline_->CacheSize(), 0u);

  // Once replication lands, the fetch returns version 2 and only then is
  // the payload cached (and served to followers) as current.
  sim_.RunFor(Seconds(2));
  auto fresh = Fetch(viewer_a_, Meta(id, v2));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(fresh->done);
  EXPECT_EQ(fresh->payload.Get("text").AsString(), "new");
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  int64_t rpcs_after = Counter("was.fetches");
  auto hit = Fetch(viewer_b_, Meta(id, v2));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(hit->done);
  EXPECT_EQ(hit->payload.Get("text").AsString(), "new");
  EXPECT_EQ(Counter("was.fetches"), rpcs_after);
}

TEST_F(FetchPipelineTest, SupersededInFlightFetchIsNotCached) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t v1 = PutComment(id, "v1");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, v1));
  // Before the flight's RPC returns, a newer version is observed.
  pipeline_->ObserveEvent(Meta(id, v1 + 1));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  EXPECT_TRUE(a->allowed);  // the waiter still gets the v1 result
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
}

TEST_F(FetchPipelineTest, LruEvictionBoundsTheCache) {
  FetchPipelineConfig config;
  config.cache_capacity = 2;
  MakePipeline(config);

  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    ObjectId id = AllocLeaderRegionId();
    PutComment(id, "entry");
    ids.push_back(id);
  }
  sim_.RunFor(Seconds(2));

  for (ObjectId id : ids) {
    auto r = Fetch(viewer_a_, Meta(id, 1));
    sim_.RunFor(Seconds(1));
    ASSERT_TRUE(r->done);
  }
  EXPECT_EQ(pipeline_->CacheSize(), 2u);
  EXPECT_EQ(Counter("brass.fetch.evictions"), 1);
}

TEST_F(FetchPipelineTest, DisabledPipelineStillFetchesCorrectly) {
  FetchPipelineConfig config;
  config.enabled = false;
  MakePipeline(config);

  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "plain");
  sim_.RunFor(Seconds(2));

  auto a = Fetch(viewer_a_, Meta(id, version));
  auto b = Fetch(viewer_b_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(a->done);
  ASSERT_TRUE(b->done);
  EXPECT_TRUE(a->allowed);
  EXPECT_EQ(b->payload.Get("text").AsString(), "plain");
  EXPECT_EQ(Counter("was.fetches"), 2);  // one round trip per stream
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
}

TEST_F(FetchPipelineTest, ClearDropsCacheAndFlights) {
  ObjectId id = AllocLeaderRegionId();
  uint64_t version = PutComment(id, "gone");
  sim_.RunFor(Seconds(2));

  auto warm = Fetch(viewer_a_, Meta(id, version));
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(warm->done);
  EXPECT_EQ(pipeline_->CacheSize(), 1u);

  // A second object's fetch is mid-flight when the host clears (drain or
  // crash): its waiter must never fire afterwards.
  ObjectId id2 = AllocLeaderRegionId();
  uint64_t version2 = PutComment(id2, "never");
  sim_.RunFor(Seconds(2));
  auto inflight = Fetch(viewer_a_, Meta(id2, version2));
  pipeline_->Clear();
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(pipeline_->CacheSize(), 0u);
  EXPECT_FALSE(inflight->done);
}

// FetchForViewers must be indistinguishable from one Fetch per viewer. Each
// case runs the same steps on two identical worlds: one batched call on one
// world, one Fetch per viewer on the other. The crowd is larger than the
// 64-viewer batch cap, so waiters beyond the RPC's batch re-enter the pipeline
// and privacy-only top-up rounds run.
class FetchForViewersTest : public ::testing::Test {
 protected:
  static constexpr size_t kCrowd = 200;

  // What the crowd was told: decisions in answer order, payload per viewer.
  struct Answers {
    FetchPipeline::ViewerDecisions decisions;
    std::map<UserId, std::string> payloads;  // Value::ToJson of each answer
    int batch_callbacks = 0;
  };

  // Runs on a world before (`before`) or right after (`after`) the fetch.
  using Step = std::function<void(PipelineWorld&, const Value& metadata)>;

  static std::shared_ptr<Answers> Run(PipelineWorld& w, bool batched, const Step& before,
                                      const Step& after) {
    // Every fifth viewer is blocked by the author, so decisions differ.
    std::vector<UserId> crowd;
    for (size_t i = 0; i < kCrowd; ++i) {
      crowd.push_back(CreateUser(*w.tao_, "crowd-" + std::to_string(i), "en"));
      if (i % 5 == 0) {
        BlockUser(*w.tao_, w.author_, crowd.back());
      }
    }
    w.batch_viewers_ = crowd;
    ObjectId id = w.AllocLeaderRegionId();
    Value metadata = w.Meta(id, w.PutComment(id, "crowd"));
    w.sim_.RunFor(Seconds(2));
    before(w, metadata);

    auto answers = std::make_shared<Answers>();
    if (batched) {
      w.pipeline_->FetchForViewers(
          "LVC", metadata, crowd, TraceContext(),
          [answers](FetchPipeline::ViewerDecisions decisions, Value payload) {
            answers->batch_callbacks += 1;
            for (const auto& [viewer, allowed] : decisions) {
              answers->payloads[viewer] = allowed ? payload.ToJson() : Value().ToJson();
            }
            answers->decisions = std::move(decisions);
          });
    } else {
      for (UserId viewer : crowd) {
        FetchOptions options;
        options.viewer = viewer;
        w.pipeline_->Fetch("LVC", metadata, options,
                           [answers, viewer](bool allowed, Value payload) {
                             answers->decisions.emplace_back(viewer, allowed);
                             answers->payloads[viewer] = payload.ToJson();
                           });
      }
    }
    after(w, metadata);
    w.sim_.RunFor(Seconds(5));
    return answers;
  }

  static void ExpectEquivalent(const Step& before, const Step& after) {
    PipelineWorld single_world;
    PipelineWorld batch_world;
    auto single = Run(single_world, /*batched=*/false, before, after);
    auto batched = Run(batch_world, /*batched=*/true, before, after);

    ASSERT_EQ(batched->batch_callbacks, 1);
    ASSERT_EQ(single->decisions.size(), kCrowd);
    EXPECT_EQ(batched->decisions, single->decisions);
    EXPECT_EQ(batched->payloads, single->payloads);
    size_t allowed = 0;
    for (const auto& decision : single->decisions) {
      allowed += decision.second ? 1 : 0;
    }
    EXPECT_GT(allowed, 0u);
    EXPECT_LT(allowed, kCrowd);
    for (const char* counter : {"brass.fetch.requests", "brass.fetch.rpcs",
                                "brass.fetch.privacy_rpcs", "brass.fetch.coalesced",
                                "brass.fetch.cache_hits", "was.fetches"}) {
      EXPECT_EQ(batch_world.Counter(counter), single_world.Counter(counter)) << counter;
    }
    EXPECT_EQ(batch_world.sim_.events_executed(), single_world.sim_.events_executed());
  }

  static void Nothing(PipelineWorld&, const Value&) {}

  // One earlier fetch caches the payload with the first 64 (the batch cap)
  // decisions of the crowd; the rest of the crowd needs top-ups.
  static void WarmCache(PipelineWorld& w, const Value& metadata) {
    auto warm = w.Fetch(w.viewer_a_, metadata);
    w.sim_.RunFor(Seconds(1));
    ASSERT_TRUE(warm->done);
    ASSERT_EQ(w.pipeline_->CacheSize(), 1u);
  }
};

TEST_F(FetchForViewersTest, ColdCrowdMatchesOneFetchPerViewer) {
  ExpectEquivalent(Nothing, [](PipelineWorld& w, const Value&) {
    // Still one payload flight; everything else is re-entry and top-ups.
    EXPECT_EQ(w.Counter("brass.fetch.requests"), static_cast<int64_t>(kCrowd));
  });
}

TEST_F(FetchForViewersTest, CacheHitsAndTopUpsMatchOneFetchPerViewer) {
  ExpectEquivalent(WarmCache, [](PipelineWorld& w, const Value&) {
    EXPECT_GT(w.Counter("brass.fetch.cache_hits"), 0);
  });
}

TEST_F(FetchForViewersTest, TopUpSupersededMidFlightMatchesOneFetchPerViewer) {
  ExpectEquivalent(WarmCache, [](PipelineWorld& w, const Value& metadata) {
    // A newer version is observed while the top-up flight is in the air:
    // its waiters must re-fetch the payload from scratch.
    Value newer = metadata;
    newer.Set("version", metadata.Get("version").AsInt(0) + 1);
    w.pipeline_->ObserveEvent(newer);
    EXPECT_EQ(w.pipeline_->CacheSize(), 0u);
  });
}

TEST_F(FetchForViewersTest, DisabledPipelineMatchesOneFetchPerViewer) {
  ExpectEquivalent(
      [](PipelineWorld& w, const Value&) {
        FetchPipelineConfig config;
        config.enabled = false;
        w.MakePipeline(config);
      },
      Nothing);
}

TEST_F(FetchPipelineTest, FetchForNoViewersCallsBackAtOnce) {
  int calls = 0;
  pipeline_->FetchForViewers("LVC", Meta(1, 1), {}, TraceContext(),
                             [&calls](FetchPipeline::ViewerDecisions decisions, Value payload) {
                               calls += 1;
                               EXPECT_TRUE(decisions.empty());
                               EXPECT_TRUE(payload.is_null());
                             });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(Counter("brass.fetch.requests"), 0);
}

}  // namespace
}  // namespace bladerunner

// Overload-control tests: bounded conflating delivery queues, the push
// pacer the host and the POP share, drain- and failure-aware routing, and
// degrade-to-poll fallback under a hot-topic spike (docs/OVERLOAD.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/brass/delivery_queue.h"
#include "src/brass/host.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/net/connection.h"
#include "src/net/rpc.h"
#include "src/pylon/messages.h"
#include "src/sim/simulator.h"
#include "src/tao/store.h"
#include "src/was/server.h"
#include "src/workload/social_gen.h"

namespace bladerunner {
namespace {

// ---- ConflatingDeliveryQueue unit tests ----

Value Payload(const std::string& tag) {
  Value v;
  v.Set("tag", tag);
  return v;
}

DeliverOptions Keyed(const std::string& key, uint64_t version) {
  DeliverOptions options;
  options.conflation_key = key;
  options.version = version;
  return options;
}

TEST(DeliveryQueueTest, ConflatesNewestVersionWins) {
  ConflatingDeliveryQueue queue;
  EXPECT_EQ(queue.Offer(Payload("v1"), Keyed("comment:7", 1), true, 8).outcome,
            ConflatingDeliveryQueue::Outcome::kQueued);
  EXPECT_EQ(queue.Offer(Payload("v3"), Keyed("comment:7", 3), true, 8).outcome,
            ConflatingDeliveryQueue::Outcome::kConflated);
  // An out-of-order older version still conflates but must not clobber the
  // newer pending payload.
  EXPECT_EQ(queue.Offer(Payload("v2"), Keyed("comment:7", 2), true, 8).outcome,
            ConflatingDeliveryQueue::Outcome::kConflated);
  ASSERT_EQ(queue.size(), 1u);
  PendingDelivery front = queue.PopFront();
  EXPECT_EQ(front.payload.Get("tag").AsString(), "v3");
  EXPECT_EQ(front.options.version, 3u);
}

TEST(DeliveryQueueTest, ConflatedEntryKeepsQueuePosition) {
  ConflatingDeliveryQueue queue;
  queue.Offer(Payload("a1"), Keyed("a", 1), true, 8);
  queue.Offer(Payload("b1"), Keyed("b", 1), true, 8);
  queue.Offer(Payload("a2"), Keyed("a", 2), true, 8);
  ASSERT_EQ(queue.size(), 2u);
  // "a" was offered first, so its (updated) entry still drains first.
  EXPECT_EQ(queue.PopFront().payload.Get("tag").AsString(), "a2");
  EXPECT_EQ(queue.PopFront().payload.Get("tag").AsString(), "b1");
}

TEST(DeliveryQueueTest, EmptyKeyAndNonConflatableAppsNeverConflate) {
  ConflatingDeliveryQueue queue;
  queue.Offer(Payload("x"), DeliverOptions{}, true, 8);
  queue.Offer(Payload("y"), DeliverOptions{}, true, 8);
  EXPECT_EQ(queue.size(), 2u);
  // Same key, but the app's descriptor is not conflatable.
  EXPECT_EQ(queue.Offer(Payload("k1"), Keyed("k", 1), false, 8).outcome,
            ConflatingDeliveryQueue::Outcome::kQueued);
  EXPECT_EQ(queue.Offer(Payload("k2"), Keyed("k", 2), false, 8).outcome,
            ConflatingDeliveryQueue::Outcome::kQueued);
  EXPECT_EQ(queue.size(), 4u);
}

TEST(DeliveryQueueTest, ShedsOldestAtBound) {
  ConflatingDeliveryQueue queue;
  queue.Offer(Payload("one"), Keyed("k1", 1), true, 2);
  queue.Offer(Payload("two"), Keyed("k2", 1), true, 2);
  auto result = queue.Offer(Payload("three"), Keyed("k3", 1), true, 2);
  EXPECT_EQ(result.outcome, ConflatingDeliveryQueue::Outcome::kShed);
  EXPECT_EQ(result.shed.payload.Get("tag").AsString(), "one");
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.PopFront().payload.Get("tag").AsString(), "two");
  EXPECT_EQ(queue.PopFront().payload.Get("tag").AsString(), "three");
}

// The queue is a ring that doubles when full and is freed when it drains:
// a long run of offers, sheds, conflations and pops across many wraps and
// regrowths must drain in the order a plain FIFO model does, and a
// moved-from queue is empty.
TEST(DeliveryQueueTest, OrderHoldsAcrossStorageReuse) {
  // Offer i carries tag "t<i>" and conflation key "k<i % 7>".
  auto tag = [](int i) { return "t" + std::to_string(i); };
  auto key = [](int i) { return "k" + std::to_string(i % 7); };
  ConflatingDeliveryQueue queue;
  std::deque<int> model;  // the pending offers, oldest first
  const size_t bound = 5;
  for (int i = 0; i < 400; ++i) {
    auto result = queue.Offer(Payload(tag(i)), Keyed(key(i), static_cast<uint64_t>(i)), true,
                              bound);
    auto same_key = std::find_if(model.begin(), model.end(),
                                 [&](int pending) { return key(pending) == key(i); });
    if (same_key != model.end()) {
      ASSERT_EQ(result.outcome, ConflatingDeliveryQueue::Outcome::kConflated);
      *same_key = i;  // newest version wins, in place
    } else if (model.size() >= bound) {
      ASSERT_EQ(result.outcome, ConflatingDeliveryQueue::Outcome::kShed);
      EXPECT_EQ(result.shed.payload.Get("tag").AsString(), tag(model.front()));
      model.pop_front();
      model.push_back(i);
    } else {
      ASSERT_EQ(result.outcome, ConflatingDeliveryQueue::Outcome::kQueued);
      model.push_back(i);
    }
    if (i % 3 == 0 && !model.empty()) {
      EXPECT_EQ(queue.PopFront().payload.Get("tag").AsString(), tag(model.front()));
      model.pop_front();
    }
    ASSERT_EQ(queue.size(), model.size());
    if (!model.empty()) {
      EXPECT_TRUE(queue.Holds(key(model.back()), static_cast<uint64_t>(model.back())));
    }
  }
  ConflatingDeliveryQueue moved = std::move(queue);
  EXPECT_TRUE(queue.empty());  // a moved-from queue is empty
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(moved.size(), model.size());
  for (int pending : model) {
    EXPECT_EQ(moved.PopFront().payload.Get("tag").AsString(), tag(pending));
  }
  EXPECT_TRUE(moved.empty());
}

// Conservation invariant: every offered delivery is accounted for exactly
// once — offered == drained + conflated + shed. Pinned across the two
// orderings that are easy to double-count: a conflated entry that is later
// displaced at the bound (conflate-then-shed), and shedding at the bound
// with non-conflatable offers.
TEST(DeliveryQueueTest, EveryOfferAccountedForAcrossOrderings) {
  struct Tally {
    int64_t offered = 0;
    int64_t conflated = 0;
    int64_t shed = 0;

    void Count(ConflatingDeliveryQueue::Outcome outcome) {
      offered += 1;
      if (outcome == ConflatingDeliveryQueue::Outcome::kConflated) conflated += 1;
      if (outcome == ConflatingDeliveryQueue::Outcome::kShed) shed += 1;
    }
  };
  auto drained = [](ConflatingDeliveryQueue& queue) {
    int64_t n = 0;
    while (!queue.empty()) {
      queue.PopFront();
      n += 1;
    }
    return n;
  };

  // Conflate-then-shed: k1 absorbs an update, then the (conflated) entry is
  // itself displaced at the bound. The absorbed update must not resurface as
  // a second drainable delivery, and the displaced entry counts as shed.
  {
    ConflatingDeliveryQueue queue;
    Tally tally;
    tally.Count(queue.Offer(Payload("k1v1"), Keyed("k1", 1), true, 2).outcome);
    tally.Count(queue.Offer(Payload("k1v2"), Keyed("k1", 2), true, 2).outcome);  // conflates
    tally.Count(queue.Offer(Payload("k2v1"), Keyed("k2", 1), true, 2).outcome);
    tally.Count(queue.Offer(Payload("k3v1"), Keyed("k3", 1), true, 2).outcome);  // sheds k1
    tally.Count(queue.Offer(Payload("k3v2"), Keyed("k3", 2), true, 2).outcome);  // conflates
    EXPECT_EQ(tally.conflated, 2);
    EXPECT_EQ(tally.shed, 1);
    EXPECT_EQ(tally.offered, drained(queue) + tally.conflated + tally.shed);
  }

  // Shed-at-bound: empty keys never conflate, so a bound-1 queue sheds on
  // every offer after the first.
  {
    ConflatingDeliveryQueue queue;
    Tally tally;
    for (int i = 0; i < 3; ++i) {
      tally.Count(queue.Offer(Payload("p"), Keyed("", 1), true, 1).outcome);
    }
    EXPECT_EQ(tally.conflated, 0);
    EXPECT_EQ(tally.shed, 2);
    EXPECT_EQ(tally.offered, drained(queue) + tally.conflated + tally.shed);
  }

  // Deterministic mixed sweep: interleaved keys (some empty), occasional
  // drains, and a tight bound, so conflates and sheds interleave freely.
  {
    ConflatingDeliveryQueue queue;
    Tally tally;
    int64_t popped = 0;
    const char* keys[] = {"a", "b", "", "c", "a", "", "b", "a"};
    for (int i = 0; i < 200; ++i) {
      tally.Count(
          queue.Offer(Payload("p"), Keyed(keys[i % 8], 1 + i / 3), i % 5 != 4, 3).outcome);
      if (i % 7 == 6 && !queue.empty()) {
        queue.PopFront();
        popped += 1;
      }
    }
    EXPECT_GT(tally.conflated, 0);
    EXPECT_GT(tally.shed, 0);
    EXPECT_EQ(tally.offered, popped + drained(queue) + tally.conflated + tally.shed);
  }
}

// ---- cluster-level overload tests ----

struct TestCluster {
  std::unique_ptr<BladerunnerCluster> cluster;
  SocialGraph graph;
};

TestCluster MakeCluster(ClusterConfig config, Topology topology) {
  TestCluster out;
  out.cluster = std::make_unique<BladerunnerCluster>(std::move(config), std::move(topology));
  SocialGraphConfig graph_config;
  graph_config.num_users = 20;
  graph_config.num_videos = 2;
  graph_config.num_threads = 4;
  out.graph =
      GenerateSocialGraph(out.cluster->tao(), out.cluster->sim().rng(), graph_config);
  out.cluster->sim().RunFor(Seconds(2));  // let setup writes replicate
  return out;
}

std::unique_ptr<DeviceAgent> MakeDevice(TestCluster& tc, size_t user_index,
                                        RegionId region = 0) {
  return std::make_unique<DeviceAgent>(tc.cluster.get(), tc.graph.users[user_index], region,
                                       DeviceProfile::kWifi);
}

// Rapid typing toggles on one (thread, typist) key conflate down to a few
// paced pushes, and the stream ends on the latest typing state.
TEST(OverloadClusterTest, TypingTogglesConflateToLatestState) {
  ClusterConfig config;
  config.seed = 1234;
  config.apps.typing.backend_check = false;
  config.brass.overload.min_push_gap = Millis(500);
  TestCluster tc = MakeCluster(std::move(config), Topology::OneRegion());

  ObjectId thread = tc.graph.threads[0];
  const auto& members = tc.graph.thread_members[thread];
  ASSERT_GE(members.size(), 2u);
  auto watcher =
      std::make_unique<DeviceAgent>(tc.cluster.get(), members[0], 0, DeviceProfile::kWifi);
  auto typist =
      std::make_unique<DeviceAgent>(tc.cluster.get(), members[1], 0, DeviceProfile::kWifi);

  std::vector<Value> received;
  watcher->set_payload_hook([&](uint64_t, const Value& payload) {
    if (payload.Get("__type").AsString() == "TypingIndicator") {
      received.push_back(payload);
    }
  });
  watcher->SubscribeTyping(thread);
  tc.cluster->sim().RunFor(Seconds(3));

  const int kToggles = 10;
  for (int i = 0; i < kToggles; ++i) {
    typist->SetTyping(thread, i % 2 == 0);  // last toggle (i=9) is "false"
    tc.cluster->sim().RunFor(Millis(100));
  }
  tc.cluster->sim().RunFor(Seconds(5));

  ASSERT_GE(received.size(), 1u);
  // Pacing + conflation: strictly fewer pushes than toggles, with at least
  // one coalesced update.
  EXPECT_LT(received.size(), static_cast<size_t>(kToggles));
  EXPECT_GE(tc.cluster->metrics().GetCounter("brass.conflated.TI").value(), 1);
  // Newest-version-wins: pushed states are ordered by event creation time,
  // and the stream ends on the final typing state.
  for (size_t i = 1; i < received.size(); ++i) {
    EXPECT_GE(received[i].Get("_createdAt").AsInt(0),
              received[i - 1].Get("_createdAt").AsInt(0));
  }
  EXPECT_FALSE(received.back().Get("typing").AsBool(true));
}

// The router must not place new streams on a host that is mid-drain, while
// the draining host keeps serving its existing streams for the grace period.
TEST(OverloadClusterTest, RouterSkipsDrainingHost) {
  ClusterConfig config;
  config.seed = 77;
  config.brass_hosts_per_region = 2;
  TestCluster tc = MakeCluster(std::move(config), Topology::OneRegion());

  auto first = MakeDevice(tc, 0);
  first->SubscribeLvc(tc.graph.videos[0]);
  tc.cluster->sim().RunFor(Seconds(3));

  size_t draining_index = tc.cluster->brass_host(0).StreamCount() > 0 ? 0 : 1;
  BrassHost& draining = tc.cluster->brass_host(draining_index);
  BrassHost& other = tc.cluster->brass_host(1 - draining_index);
  ASSERT_EQ(draining.StreamCount(), 1u);

  draining.StartDrain(Seconds(5));
  auto second = MakeDevice(tc, 1);
  second->SubscribeLvc(tc.graph.videos[0]);
  tc.cluster->sim().RunFor(Seconds(3));

  // During the grace period: the new stream landed on the healthy host and
  // the draining host still serves its existing stream.
  EXPECT_TRUE(draining.draining());
  EXPECT_TRUE(draining.alive());
  EXPECT_EQ(draining.StreamCount(), 1u);
  EXPECT_EQ(other.StreamCount(), 1u);

  tc.cluster->sim().RunFor(Seconds(10));  // grace expires; client repairs
  EXPECT_EQ(draining.StreamCount(), 0u);
  EXPECT_EQ(other.StreamCount(), 2u);
}

// A device that also records why each of its streams ended.
class RecordingDevice : public DeviceAgent {
 public:
  using DeviceAgent::DeviceAgent;

  void OnStreamTerminated(uint64_t sid, TerminateReason reason,
                          const std::string& detail) override {
    terminations.emplace_back(sid, reason);
    DeviceAgent::OnStreamTerminated(sid, reason, detail);
  }

  std::vector<std::pair<uint64_t, TerminateReason>> terminations;
};

// The router places a stream in its own region while that region has a
// routable host, and in another region once its host is draining or
// failed. With every host failed the proxy ends the subscribe with kError.
TEST(OverloadClusterTest, RouterKeepsRegionFailsOverThenErrors) {
  ClusterConfig config;
  config.seed = 99;
  config.brass_hosts_per_region = 1;
  TestCluster tc = MakeCluster(std::move(config), Topology::ThreeRegions());
  ASSERT_EQ(tc.cluster->NumBrassHosts(), 3u);

  BrassHost* home = nullptr;
  for (size_t i = 0; i < tc.cluster->NumBrassHosts(); ++i) {
    if (tc.cluster->brass_host(i).region() == 0) {
      home = &tc.cluster->brass_host(i);
    }
  }
  ASSERT_NE(home, nullptr);
  auto streams_outside_region = [&] {
    size_t total = 0;
    for (size_t i = 0; i < tc.cluster->NumBrassHosts(); ++i) {
      BrassHost& host = tc.cluster->brass_host(i);
      if (&host != home) {
        total += host.StreamCount();
      }
    }
    return total;
  };
  auto device = [&](size_t user_index) {
    return std::make_unique<RecordingDevice>(tc.cluster.get(), tc.graph.users[user_index],
                                             /*region=*/0, DeviceProfile::kWifi);
  };

  // In region: both region-0 streams land on the home host, though by
  // load alone the second would go to an idle host elsewhere.
  std::vector<std::unique_ptr<RecordingDevice>> devices;
  for (size_t i = 0; i < 2; ++i) {
    devices.push_back(device(i));
    devices.back()->SubscribeLvc(tc.graph.videos[0]);
    tc.cluster->sim().RunFor(Seconds(3));
  }
  EXPECT_EQ(home->StreamCount(), 2u);
  EXPECT_EQ(streams_outside_region(), 0u);

  // Draining: the home host keeps its streams, the new one leaves the region.
  home->StartDrain(Seconds(60));
  devices.push_back(device(2));
  devices.back()->SubscribeLvc(tc.graph.videos[0]);
  tc.cluster->sim().RunFor(Seconds(3));
  EXPECT_EQ(home->StreamCount(), 2u);
  EXPECT_EQ(streams_outside_region(), 1u);

  // Failed: the proxy moves the home host's streams out of the region, and
  // a new stream goes there too.
  home->FailHost();
  devices.push_back(device(3));
  devices.back()->SubscribeLvc(tc.graph.videos[0]);
  tc.cluster->sim().RunFor(Seconds(5));
  EXPECT_EQ(home->StreamCount(), 0u);
  EXPECT_EQ(streams_outside_region(), 4u);

  // No host left: the proxy ends a new subscribe with kError, not a
  // redirect, and the device counts the stream as terminated.
  for (size_t i = 0; i < tc.cluster->NumBrassHosts(); ++i) {
    tc.cluster->brass_host(i).FailHost();
  }
  tc.cluster->sim().RunFor(Seconds(5));
  Counter& terminated = tc.cluster->metrics().GetCounter("device.streams_terminated");
  const int64_t terminated_before = terminated.value();
  auto last = device(4);
  uint64_t sid = last->SubscribeLvc(tc.graph.videos[0]);
  tc.cluster->sim().RunFor(Seconds(3));
  ASSERT_EQ(last->terminations.size(), 1u);
  EXPECT_EQ(last->terminations[0].first, sid);
  EXPECT_EQ(last->terminations[0].second, TerminateReason::kError);
  EXPECT_EQ(terminated.value(), terminated_before + 1);
  EXPECT_EQ(last->burst().ActiveStreamCount(), 0u);
  EXPECT_EQ(tc.cluster->metrics().GetCounter("burst.client_redirects").value(), 0);
}

// A 10x hot-topic spike on one LVC stream: the bounded queue sheds, the
// stream degrades to polling (device falls back to the query loop), and
// once the spike subsides the stream resumes.
TEST(OverloadClusterTest, HotTopicSpikeDegradesToPollAndRecovers) {
  ClusterConfig config;
  config.seed = 4242;
  config.brass_hosts_per_region = 1;
  config.apps.lvc.placement = BrassPlacement::kDeviceFirehose;  // every comment pushes
  config.brass.overload.min_push_gap = Millis(500);
  config.brass.overload.max_pending_per_stream = 4;
  config.brass.overload.degrade_min_sheds = 4;
  config.brass.overload.degrade_shed_fraction = 0.25;
  config.brass.overload.shed_window = Seconds(2);
  config.brass.overload.recover_check_interval = Seconds(2);
  TestCluster tc = MakeCluster(std::move(config), Topology::OneRegion());

  auto viewer = MakeDevice(tc, 0);
  auto poster = MakeDevice(tc, 1);
  viewer->set_fallback_poll_interval(Millis(500));
  ObjectId video = tc.graph.videos[0];
  viewer->SubscribeLvc(video);
  tc.cluster->sim().RunFor(Seconds(3));

  // Spike: 80 distinct comments in 4 s — an order of magnitude over the
  // 2/s push budget, and distinct conflation keys so the queue must shed.
  // (Comments index ~1.8 s after posting, so the spike must outlast the
  // ranking delay for fallback polls to observe indexed comments.)
  for (int i = 0; i < 80; ++i) {
    poster->PostComment(video, "spike comment", tc.graph.language[poster->user()]);
    tc.cluster->sim().RunFor(Millis(50));
  }

  // Mid-spike: the queue bound held, sheds happened, and the stream
  // degraded; the device switched to the polling fallback and is seeing
  // comments through it.
  EXPECT_LE(tc.cluster->metrics().GetHistogram("brass.delivery_queue_depth").max(), 4.0);
  EXPECT_GE(tc.cluster->metrics().GetCounter("brass.shed.LVC").value(), 1);
  EXPECT_GE(tc.cluster->metrics().GetCounter("brass.degrade_signals").value(), 1);
  EXPECT_GE(viewer->degrade_to_poll_signals(), 1u);
  EXPECT_EQ(viewer->active_fallback_pollers(), 1u);
  EXPECT_GE(viewer->fallback_polls(), 1u);
  EXPECT_GE(viewer->fallback_comments(), 1u);

  // Spike over: offered load subsides, the host signals resume, and the
  // device stops polling.
  tc.cluster->sim().RunFor(Seconds(10));
  EXPECT_GE(tc.cluster->metrics().GetCounter("brass.recover_signals").value(), 1);
  EXPECT_GE(viewer->resume_stream_signals(), 1u);
  EXPECT_EQ(viewer->active_fallback_pollers(), 0u);
}

// ---- PushPacer unit tests ----

TEST(PushPacerTest, GapOfZeroAlwaysTakesTheSlot) {
  Simulator sim(1);
  int released = 0;
  PushPacer pacer(&sim, 0, [&released](PendingDelivery) { ++released; });
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pacer.TakeSlot());
  }
  sim.RunFor(Millis(1));
  EXPECT_TRUE(pacer.TakeSlot());
  EXPECT_TRUE(pacer.queue().empty());
  EXPECT_EQ(released, 0);
}

TEST(PushPacerTest, ReleasesTheQueueOnePushPerGap) {
  Simulator sim(1);
  std::vector<std::pair<SimTime, std::string>> released;
  PushPacer pacer(&sim, Millis(100), [&](PendingDelivery next) {
    released.emplace_back(sim.Now(), next.payload.Get("tag").AsString());
  });
  ASSERT_TRUE(pacer.TakeSlot());
  EXPECT_FALSE(pacer.TakeSlot());
  pacer.queue().Offer(Payload("a"), DeliverOptions{}, false, 8);
  pacer.queue().Offer(Payload("b"), DeliverOptions{}, false, 8);
  pacer.ScheduleRelease();
  pacer.ScheduleRelease();  // already armed: still one release per slot
  sim.RunFor(Millis(250));
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0], std::make_pair(Millis(100), std::string("a")));
  EXPECT_EQ(released[1], std::make_pair(Millis(200), std::string("b")));
  // The last release took the slot until 300 ms.
  EXPECT_FALSE(pacer.TakeSlot());
  sim.RunFor(Millis(50));
  EXPECT_TRUE(pacer.TakeSlot());
}

TEST(PushPacerTest, DestroyedOrAssignedOverPacerNeverReleases) {
  Simulator sim(1);
  int released = 0;
  auto count = [&released](PendingDelivery) { ++released; };
  auto armed = [&]() {
    auto pacer = std::make_unique<PushPacer>(&sim, Millis(100), count);
    EXPECT_TRUE(pacer->TakeSlot());
    pacer->queue().Offer(Payload("waiting"), DeliverOptions{}, false, 8);
    pacer->ScheduleRelease();
    EXPECT_EQ(sim.PendingEvents(), 1u);
    return pacer;
  };

  armed().reset();
  EXPECT_EQ(sim.PendingEvents(), 0u);
  sim.RunFor(Seconds(1));
  EXPECT_EQ(released, 0);

  std::unique_ptr<PushPacer> pacer = armed();
  *pacer = PushPacer(&sim, Millis(100), count);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_TRUE(pacer->queue().empty());
  sim.RunFor(Seconds(1));
  EXPECT_EQ(released, 0);
}

// ---- host push pacing ----

// Pushes a payload for every event to every stream the event reaches.
class PushEveryEventApp : public BrassApplication {
 public:
  using BrassApplication::BrassApplication;
  void OnEvent(const Topic&, const UpdateEvent&,
               const std::vector<BrassStream*>& streams) override {
    for (BrassStream* stream : streams) {
      runtime().DeliverData(*stream, Payload("event"), DeliverOptions{});
    }
  }
};

// Records when each data push reaches the proxy's end of a host connection.
class PushArrivals : public ConnectionHandler {
 public:
  explicit PushArrivals(Simulator* sim) : sim_(sim) {}
  void OnMessage(ConnectionEnd&, MessagePtr message) override {
    if (auto response = std::dynamic_pointer_cast<ResponseFrame>(message)) {
      for (const Delta& delta : response->batch) {
        if (delta.kind == DeltaKind::kData) {
          times.push_back(sim_->Now());
        }
      }
    }
  }
  void OnDisconnect(ConnectionEnd&, DisconnectReason) override {}

  std::vector<SimTime> times;

 private:
  Simulator* sim_;
};

// A stream's pending release goes with the stream: a new stream under the
// same key paces from its own push slot, and the old stream's release must
// not push the new stream's queued delivery early.
TEST(HostPacingTest, ClosedStreamsReleaseCannotPushForItsSuccessor) {
  Topology topology = Topology::OneRegion();
  Simulator sim(5);
  MetricsRegistry metrics;
  TraceCollector trace(TraceConfig{.enabled = false});
  TaoStore tao(&sim, &topology, TaoConfig{}, &metrics);
  WebAppServer was(&sim, 0, &tao, nullptr, WasConfig{}, &metrics, &trace);
  was.RegisterSubscriptionResolver("probe", [](const Field&, UserId, ExecContext&) {
    SubscriptionResolution resolution;
    resolution.topics = {"t"};
    return resolution;
  });
  BrassAppRegistry registry;
  registry["P"] = BrassAppRegistration{BrassAppDescriptor{}, [](BrassRuntime& runtime) {
                                         return std::make_unique<PushEveryEventApp>(runtime);
                                       }};
  BrassConfig config;
  config.overload.min_push_gap = Millis(500);
  BrassHost host(&sim, 1, 0, &was, nullptr, &registry, config, BurstConfig{}, &metrics, &trace);
  auto [proxy, host_end] = CreateConnection(&sim, LatencyModel::Fixed(1.0), Millis(50));
  host.burst()->AttachProxyConnection(host_end);
  PushArrivals pushes(&sim);
  proxy->set_handler(&pushes);
  RpcChannel events(&sim, host.event_rpc(), LatencyModel::Fixed(1.0));

  const StreamKey key{1, 1};
  auto subscribe = [&]() {
    StreamHeader header;
    header.set_app("P").set_viewer(1).set_subscription("subscription { probe }");
    auto frame = std::make_shared<SubscribeFrame>();
    frame->key = key;
    frame->header = std::move(header).Take();
    proxy->Send(frame);
    sim.RunFor(Millis(50));
  };
  auto publish = [&]() {
    auto delivery = std::make_shared<BrassEventDelivery>();
    auto event = std::make_shared<UpdateEvent>();
    event->topic = "t";
    delivery->event = std::move(event);
    events.Call("brass.event", delivery, [](RpcStatus, MessagePtr) {});
    sim.RunFor(Millis(50));
  };

  subscribe();
  publish();  // pushes at once
  publish();  // waits for the slot
  auto cancel = std::make_shared<CancelFrame>();
  cancel->key = key;
  proxy->Send(cancel);
  sim.RunFor(Millis(50));
  ASSERT_EQ(host.StreamCount(), 0u);

  subscribe();  // the same key: a new stream
  ASSERT_EQ(host.StreamCount(), 1u);
  publish();  // the new stream's first push goes at once
  publish();  // and its second waits a whole gap for the slot
  sim.RunFor(Seconds(2));

  ASSERT_EQ(pushes.times.size(), 3u);
  EXPECT_GE(pushes.times[2] - pushes.times[1], Millis(500));
}

}  // namespace
}  // namespace bladerunner

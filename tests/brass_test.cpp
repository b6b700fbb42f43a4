// Tests for the BRASS layer: serverless app spawning, the per-host Pylon
// subscription manager (dedup, unsubscribe-on-last-stream), routing
// policies, host drain/crash/revive, Pylon quorum-loss signalling, and the
// host's cached per-topic dispatch plans and Fig. 7 event counts.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/registry.h"
#include "src/brass/app_descriptor.h"
#include "src/brass/host.h"
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/net/connection.h"
#include "src/pylon/messages.h"
#include "src/pylon/topic.h"
#include "src/tao/store.h"
#include "src/trace/analysis.h"
#include "src/trace/collector.h"
#include "src/was/resolvers.h"
#include "src/was/server.h"
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

// A crashed host's Pylon subscriptions are withdrawn 800 ms after the
// crash. A host revived sooner runs that withdrawal at the revive, so it
// cannot take back the subscriptions of streams that start afterwards.
TEST_F(BrassTest, HostRevivedBeforeTheCrashWithdrawalKeepsNewSubscriptions) {
  ClusterConfig config;
  config.seed = 83;
  config.brass_hosts_per_region = 1;
  BladerunnerCluster cluster(config, Topology::OneRegion());
  cluster.sim().RunFor(Seconds(1));
  BrassHost& host = cluster.brass_host(0);
  host.FailHost();
  cluster.sim().RunFor(Millis(100));
  host.Revive();
  DeviceAgent device(&cluster, 1, 0, DeviceProfile::kWifi);
  device.SubscribeTicker(1);
  cluster.sim().RunFor(Millis(1400));  // 1.5 s after the crash
  ASSERT_EQ(host.StreamCount(), 1u);

  PublishSpec spec;
  spec.topic = TickerTopic(1);
  spec.metadata.Set("tick", static_cast<int64_t>(1));
  cluster.was(0).PublishNow(spec, cluster.sim().Now());
  cluster.sim().RunFor(Seconds(2));
  EXPECT_EQ(device.payloads_received(), 1u);
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

// ---- dispatch plans and Fig. 7 counts (docs/PERF.md §11) ----

class DispatchModel;

// The state RecordingApp hangs on each stream it starts: the stream's key and
// a serial of its own, reported to the model as the state is destroyed.
struct RecordedState : BrassStreamState {
  RecordedState(DispatchModel* model, StreamKey key, uint64_t serial)
      : model(model), key(key), serial(serial) {}
  ~RecordedState() override;

  DispatchModel* model;
  StreamKey key;
  uint64_t serial;
};

// A reference model of how a host hands a Pylon event to its apps and
// counts Fig. 7 events, evaluated per event by brute force as the host did
// before it cached dispatch plans. A topic lists the keys of the streams
// started on it until that key's stream closes, or after FailHost until
// the withdrawal. A stream starts only once per key: when resolves of one
// key race, only the latest installs. An event targets every key its topic
// lists that has a stream; each app gets its keys in StreamKey order, minus
// those whose stream left before the dispatch.
//
// Each started stream's app state lives as long as the host's entry: it is
// destroyed once, after OnStreamClosed has seen it, or, without a close,
// by a drain or crash (StreamsClearing .. StreamsCleared).
class DispatchModel {
 public:
  explicit DispatchModel(MetricsRegistry* metrics)
      : received_(&metrics->GetCounter("brass.events_received")),
        unsubscribed_(&metrics->GetCounter("brass.events_unsubscribed_topic")) {}

  // ---- host changes, reported as the host makes them ----
  // Returns the serial of the stream's state.
  uint64_t Started(const std::string& app, const BrassStream& stream) {
    Sync();
    replacements_ += streams_.count(stream.key);
    const uint64_t serial = states_.size() + 1;
    states_[serial] = State{};
    streams_[stream.key] = Stream{app, stream.topics, 0, serial};
    keys_.insert(stream.key);
    for (const Topic& topic : stream.topics) {
      topics_[topic].insert(stream.key);
    }
    return serial;
  }
  void Closed(const BrassStream& stream) {
    Sync();
    const StreamKey& key = stream.key;
    ExpectOwnState(stream);
    auto it = streams_.find(key);
    ASSERT_NE(it, streams_.end()) << key.ToString();
    states_[it->second.state].closed = true;
    for (const Topic& topic : it->second.topics) {
      auto listed = topics_.find(topic);
      if (listed != topics_.end() && listed->second.erase(key) > 0 && listed->second.empty()) {
        topics_.erase(listed);
      }
    }
    closed_.emplace_back(key, it->second.events);
    streams_.erase(it);
    ++removals_;
  }
  void StateDestroyed(uint64_t serial) {
    State& state = states_[serial];
    EXPECT_FALSE(state.destroyed) << "state " << serial << " destroyed twice";
    EXPECT_TRUE(state.closed || clearing_)
        << "state " << serial << " destroyed before OnStreamClosed saw it";
    state.destroyed = true;
  }
  // A drain or crash is about to drop every stream at once.
  void StreamsClearing() { clearing_ = true; }
  void StreamsCleared() {
    Sync();
    for (const auto& [key, stream] : streams_) {
      EXPECT_TRUE(states_[stream.state].destroyed)
          << key.ToString() << "'s state outlived its stream";
    }
    clearing_ = false;
    streams_.clear();
    ++removals_;
  }
  void TopicsCleared() {
    Sync();
    topics_.clear();
  }

  // ---- events ----
  void Injected(const Topic& topic, uint64_t event_id) {
    Sync();
    pending_ = Pending{topic, event_id, received_->value(), unsubscribed_->value()};
  }
  // Takes the grouping of an injected event that has reached the host since
  // from the model as it stood then: before the change about to be applied.
  void Sync() {
    if (!pending_ || received_->value() == pending_->received) {
      return;
    }
    const Pending event = *pending_;
    pending_.reset();
    Arrival& arrival = arrivals_[event.id];
    arrival.removals = removals_;
    auto listed = topics_.find(event.topic);
    EXPECT_EQ(unsubscribed_->value() - event.unsubscribed, listed == topics_.end() ? 1 : 0)
        << event.topic;
    if (listed == topics_.end()) {
      return;
    }
    for (const StreamKey& key : listed->second) {
      auto stream = streams_.find(key);
      if (stream == streams_.end()) {
        continue;
      }
      stream->second.events += 1;
      arrival.groups[stream->second.app].push_back(key);
    }
  }
  bool Arrived(uint64_t event_id) const { return arrivals_.count(event_id) > 0; }

  void Dispatched(const std::string& app, const UpdateEvent& event,
                  const std::vector<BrassStream*>& streams) {
    Sync();
    auto arrival = arrivals_.find(event.event_id);
    ASSERT_NE(arrival, arrivals_.end()) << "event " << event.event_id << " never arrived";
    auto group = arrival->second.groups.find(app);
    ASSERT_NE(group, arrival->second.groups.end()) << app << " got event " << event.event_id;
    std::vector<std::string> want;
    for (const StreamKey& key : group->second) {
      if (streams_.count(key) > 0) {
        want.push_back(key.ToString());
      }
    }
    std::vector<std::string> got;
    for (const BrassStream* stream : streams) {
      got.push_back(stream->key.ToString());
      ExpectOwnState(*stream);
      auto current = streams_.find(stream->key);
      if (current != streams_.end()) {
        EXPECT_EQ(stream->topics, current->second.topics) << "a pointer to a replaced stream";
      }
    }
    EXPECT_EQ(got, want) << app << ", event " << event.event_id;
    EXPECT_TRUE(arrival->second.dispatched.insert(app).second) << "dispatched twice";
    ++dispatches_;
  }

  // `find` is the app's BrassRuntime::FindStream, asked during a dispatch:
  // it finds each dispatched stream, and, of every key the host has
  // started, exactly the keys open with `app`, each as the stream that
  // carries its state.
  void ExpectFindStream(const std::string& app, const std::vector<BrassStream*>& dispatched,
                        const std::function<BrassStream*(const StreamKey&)>& find) const {
    for (BrassStream* stream : dispatched) {
      EXPECT_EQ(find(stream->key), stream) << stream->key.ToString();
    }
    for (const StreamKey& key : keys_) {
      const BrassStream* found = find(key);
      auto open = streams_.find(key);
      if (open == streams_.end() || open->second.app != app) {
        EXPECT_EQ(found, nullptr) << app << " found " << key.ToString();
        continue;
      }
      ASSERT_NE(found, nullptr) << app << " lost " << key.ToString();
      ExpectOwnState(*found);
    }
  }

  // Every started stream's state is destroyed exactly when its stream has
  // left the host.
  void ExpectStates() const {
    std::set<uint64_t> open;
    for (const auto& [key, stream] : streams_) {
      open.insert(stream.state);
    }
    for (const auto& [serial, state] : states_) {
      EXPECT_EQ(state.destroyed, open.count(serial) == 0) << "state " << serial;
    }
  }

  // Every group reached its app unless a stream left after its arrival.
  void ExpectEveryGroupDispatched() const {
    for (const auto& [id, arrival] : arrivals_) {
      for (const auto& [app, keys] : arrival.groups) {
        if (arrival.dispatched.count(app) == 0) {
          EXPECT_GT(removals_, arrival.removals) << app << " never got event " << id;
        }
      }
    }
  }
  // Every StreamRecord's events_targeted equals the per-stream count.
  void ExpectCounts(const BrassHost& host) const {
    std::map<std::string, uint64_t> open;
    for (const StreamRecord& record : host.OpenStreamRecords()) {
      open[record.key.ToString()] = record.events_targeted;
    }
    std::map<std::string, uint64_t> want;
    for (const auto& [key, stream] : streams_) {
      want[key.ToString()] = stream.events;
    }
    EXPECT_EQ(open, want);
    std::vector<std::pair<std::string, uint64_t>> closed;
    for (const StreamRecord& record : host.closed_stream_records()) {
      closed.emplace_back(record.key.ToString(), record.events_targeted);
    }
    std::vector<std::pair<std::string, uint64_t>> closed_want;
    for (const auto& [key, events] : closed_) {
      closed_want.emplace_back(key.ToString(), events);
    }
    EXPECT_EQ(closed, closed_want);
  }

  std::vector<StreamKey> LiveKeys() const {
    std::vector<StreamKey> keys;
    for (const auto& [key, stream] : streams_) {
      keys.push_back(key);
    }
    return keys;
  }
  int64_t dispatches() const { return dispatches_; }
  int64_t replacements() const { return replacements_; }
  size_t closed() const { return closed_.size(); }

 private:
  struct Stream {
    std::string app;
    std::vector<Topic> topics;
    uint64_t events = 0;
    uint64_t state = 0;  // serial of its app state
  };
  struct State {
    bool closed = false;  // OnStreamClosed saw it
    bool destroyed = false;
  };

  // `stream` is open and carries the live state its app made for it.
  void ExpectOwnState(const BrassStream& stream) const {
    const auto* state = dynamic_cast<const RecordedState*>(stream.app_state.get());
    ASSERT_NE(state, nullptr) << stream.key.ToString() << " carries no state";
    auto open = streams_.find(stream.key);
    ASSERT_NE(open, streams_.end()) << stream.key.ToString();
    EXPECT_EQ(state->key, stream.key);
    EXPECT_EQ(state->serial, open->second.state) << stream.key.ToString();
    EXPECT_FALSE(states_.at(state->serial).destroyed) << stream.key.ToString();
  }
  struct Pending {
    Topic topic;
    uint64_t id = 0;
    int64_t received = 0;
    int64_t unsubscribed = 0;
  };
  struct Arrival {
    std::map<std::string, std::vector<StreamKey>> groups;
    std::set<std::string> dispatched;
    int64_t removals = 0;
  };

  Counter* received_;
  Counter* unsubscribed_;
  std::map<Topic, std::set<StreamKey>> topics_;
  std::map<StreamKey, Stream> streams_;
  std::set<StreamKey> keys_;            // every key a stream started with
  std::map<uint64_t, State> states_;    // by serial
  bool clearing_ = false;
  std::vector<std::pair<StreamKey, uint64_t>> closed_;
  std::optional<Pending> pending_;
  std::map<uint64_t, Arrival> arrivals_;
  int64_t removals_ = 0;
  int64_t dispatches_ = 0;
  int64_t replacements_ = 0;
};

RecordedState::~RecordedState() { model->StateDestroyed(serial); }

// Reports every stream start, close and event dispatch to the model, gives
// each stream a RecordedState, and checks FindStream at every dispatch.
class RecordingApp : public BrassApplication {
 public:
  RecordingApp(BrassRuntime& runtime, std::string name, DispatchModel* model)
      : BrassApplication(runtime), name_(std::move(name)), model_(model) {}

  void OnStreamStarted(BrassStream& stream) override {
    stream.app_state =
        std::make_unique<RecordedState>(model_, stream.key, model_->Started(name_, stream));
  }
  void OnStreamClosed(BrassStream& stream) override { model_->Closed(stream); }
  void OnEvent(const Topic&, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override {
    model_->Dispatched(name_, event, streams);
    model_->ExpectFindStream(name_, streams,
                             [this](const StreamKey& key) { return runtime().FindStream(key); });
  }

 private:
  std::string name_;
  DispatchModel* model_;
};

class IgnoreMessages : public ConnectionHandler {
 public:
  void OnMessage(ConnectionEnd&, MessagePtr) override {}
  void OnDisconnect(ConnectionEnd&, DisconnectReason) override {}
};

// One BRASS host of three recording apps (A, B, C), fed directly: the test
// plays the proxy (subscribe and cancel frames on one connection) and Pylon
// (events through the host's event RPC). The subscription
// `probe(topics: "t1,t2,t1")` resolves to exactly those topics, duplicates
// included; `reads: N` makes its resolution N TAO reads slower. With
// `with_pylon`, the host keeps real Pylon subscriptions, which Drain and
// FailHost withdraw. The host, the WAS and Pylon record their spans in
// `trace()`.
class DispatchWorld {
 public:
  DispatchWorld(uint64_t seed, bool with_pylon)
      : topology_(Topology::OneRegion()), sim_(seed), model_(&metrics_) {
    tao_ = std::make_unique<TaoStore>(&sim_, &topology_, TaoConfig{}, &metrics_);
    if (with_pylon) {
      PylonConfig pylon_config;
      pylon_config.servers_per_region = 1;
      pylon_config.kv_nodes_per_region = 3;
      pylon_ = std::make_unique<PylonCluster>(&sim_, &topology_, pylon_config, &metrics_,
                                              &trace_);
    }
    was_ = std::make_unique<WebAppServer>(&sim_, 0, tao_.get(), pylon_.get(), WasConfig{},
                                          &metrics_, &trace_);
    was_->RegisterSubscriptionResolver("probe", [](const Field& field, UserId,
                                                   ExecContext& ctx) {
      ctx.cost.point_reads = static_cast<uint64_t>(field.Arg("reads").AsInt());
      SubscriptionResolution resolution;
      const std::string& list = field.Arg("topics").AsString();
      for (size_t begin = 0; begin < list.size();) {
        size_t end = list.find(',', begin);
        end = end == std::string::npos ? list.size() : end;
        resolution.topics.push_back(list.substr(begin, end - begin));
        begin = end + 1;
      }
      return resolution;
    });
    for (const std::string name : {"A", "B", "C"}) {
      registry_[name] = BrassAppRegistration{
          BrassAppDescriptor{}, [this, name](BrassRuntime& runtime) {
            return std::make_unique<RecordingApp>(runtime, name, &model_);
          }};
    }
    host_ = std::make_unique<BrassHost>(&sim_, 1, 0, was_.get(), pylon_.get(), &registry_,
                                        BrassConfig{}, BurstConfig{}, &metrics_, &trace_);
    events_ = std::make_unique<RpcChannel>(&sim_, host_->event_rpc(), LatencyModel::Fixed(1.0));
    Connect();
  }
  // The host's own destruction drops its open streams' states, as a drain
  // does.
  ~DispatchWorld() { model_.StreamsClearing(); }

  BrassHost& host() { return *host_; }
  DispatchModel& model() { return model_; }
  const TraceCollector& trace() const { return trace_; }
  // The Pylon KV replicas whose subscriber list for `topic` holds the host.
  int PylonReplicasListing(const Topic& topic) {
    int replicas = 0;
    for (size_t i = 0; i < pylon_->NumKvNodes(); ++i) {
      const std::set<int64_t>* subscribers = pylon_->KvNodeAt(i)->Find(topic);
      replicas += subscribers != nullptr && subscribers->count(host_->host_id()) > 0;
    }
    return replicas;
  }

  void Subscribe(StreamKey key, const std::string& app, const std::vector<Topic>& topics,
                 UserId viewer, int reads = 0) {
    std::string list;
    for (const Topic& topic : topics) {
      list += (list.empty() ? "" : ",") + topic;
    }
    StreamHeader header;
    header.set_app(app).set_viewer(viewer).set_subscription(
        "subscription { probe(topics: \"" + list + "\", reads: " + std::to_string(reads) + ") }");
    auto frame = std::make_shared<SubscribeFrame>();
    frame->key = key;
    frame->header = std::move(header).Take();
    proxy_->Send(frame);
  }
  void Cancel(StreamKey key) {
    auto frame = std::make_shared<CancelFrame>();
    frame->key = key;
    proxy_->Send(frame);
  }
  // Runs until the event reaches the host; its dispatch (at least 0.28 ms
  // later) has not run yet.
  uint64_t Publish(const Topic& topic) {
    auto event = std::make_shared<UpdateEvent>();
    event->topic = topic;
    event->event_id = ++last_event_;
    auto delivery = std::make_shared<BrassEventDelivery>();
    delivery->event = event;
    model_.Injected(topic, event->event_id);
    events_->Call("brass.event", delivery, [](RpcStatus, MessagePtr) {});
    Run(Millis(1));
    EXPECT_TRUE(model_.Arrived(event->event_id));
    return event->event_id;
  }
  void Run(SimTime duration) {
    sim_.RunFor(duration);
    model_.Sync();
  }
  void Drain() {
    model_.StreamsClearing();
    host_->Drain();
    model_.StreamsCleared();
    model_.TopicsCleared();
  }
  void Fail() {
    model_.StreamsClearing();
    host_->FailHost();
    model_.StreamsCleared();
    // Right after the host's own withdrawal, 800 ms from now, unless a
    // revive runs it sooner.
    withdrawal_ = sim_.Schedule(Millis(800), [this]() {
      withdrawal_ = kInvalidTimerId;
      model_.TopicsCleared();
    });
  }
  void Revive() {
    host_->Revive();
    if (withdrawal_ != kInvalidTimerId) {
      sim_.Cancel(withdrawal_);
      withdrawal_ = kInvalidTimerId;
      model_.TopicsCleared();
    }
    Connect();
  }

 private:
  void Connect() {
    auto [proxy_end, host_end] = CreateConnection(&sim_, LatencyModel::Fixed(1.0), Millis(50));
    host_->burst()->AttachProxyConnection(host_end);
    proxy_end->set_handler(&ignore_);
    proxy_ = proxy_end;
  }

  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
  DispatchModel model_;
  IgnoreMessages ignore_;
  std::unique_ptr<TaoStore> tao_;
  std::unique_ptr<PylonCluster> pylon_;
  std::unique_ptr<WebAppServer> was_;
  BrassAppRegistry registry_;
  std::unique_ptr<BrassHost> host_;
  std::unique_ptr<RpcChannel> events_;
  std::shared_ptr<ConnectionEnd> proxy_;
  uint64_t last_event_ = 0;
  TimerId withdrawal_ = kInvalidTimerId;
};

// Seeded random lifetimes against the model: multi-topic streams, duplicate
// topics, several apps on one topic, closes inside the dispatch window,
// re-subscribes of live keys, resolves of one key that race, drains, and
// fails followed by revives. Along the way the model checks each stream's
// app state (made, carried, found and destroyed with the host's entry).
class DispatchPlanPropertyTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(DispatchPlanPropertyTest, MatchesBruteForceGroupingAndCounts) {
  const auto [seed, with_pylon] = GetParam();
  DispatchWorld world(seed, with_pylon);
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<Topic> pool = {"t0", "t1", "t2", "t3", "t4"};
  const std::vector<std::string> apps = {"A", "B", "C"};
  auto topics = [&]() {
    std::vector<Topic> drawn;
    for (size_t n = 1 + pick(3); n > 0; --n) {
      drawn.push_back(pool[pick(pool.size())]);  // duplicates allowed
    }
    return drawn;
  };
  auto viewer = [&]() { return static_cast<UserId>(pick(5)); };  // 0: no viewer
  std::vector<StreamKey> keys;
  auto new_key = [&]() {
    if (!keys.empty() && pick(4) == 0) {
      return keys[pick(keys.size())];  // a key that may still be listed somewhere
    }
    keys.push_back(StreamKey{static_cast<int64_t>(1 + pick(4)), keys.size() + 1});
    return keys.back();
  };
  auto live = [&]() { return world.model().LiveKeys(); };

  bool alive = true;
  int races = 0;
  for (int step = 0; step < 2000; ++step) {
    const size_t op = pick(100);
    if (!alive) {
      if (op < 30) {
        world.Revive();
        alive = true;
      }
    } else if (op < 30) {
      world.Subscribe(new_key(), apps[pick(apps.size())], topics(), viewer());
    } else if (op < 38) {
      // Subscribe, cancel and subscribe again: two resolves of one key race,
      // and only the later one installs.
      ++races;
      StreamKey key = new_key();
      world.Subscribe(key, apps[pick(apps.size())], topics(), viewer());
      world.Cancel(key);
      world.Subscribe(key, apps[pick(apps.size())], topics(), viewer());
    } else if (op < 70) {
      const bool unknown = pick(10) == 0;
      world.Publish(unknown ? Topic("nobody") : pool[pick(pool.size())]);
      // Close up to two streams inside the dispatch window.
      std::vector<StreamKey> open = live();
      for (size_t n = pick(3); n > 0 && !open.empty(); --n) {
        ServerStream* stream = world.host().burst()->FindStream(open[pick(open.size())]);
        if (stream != nullptr) {
          stream->Terminate(TerminateReason::kComplete, "closed inside the dispatch window");
        }
        open = live();
      }
    } else if (op < 84) {
      std::vector<StreamKey> open = live();
      if (!open.empty()) {
        StreamKey key = open[pick(open.size())];
        world.Cancel(key);
        if (pick(2) == 0) {
          world.Subscribe(key, apps[pick(apps.size())], topics(), viewer());
        }
      }
    } else if (op < 94) {
      // A re-subscribe of a live, attached key: a resume, no change.
      std::vector<StreamKey> open = live();
      if (!open.empty()) {
        world.Subscribe(open[pick(open.size())], apps[pick(apps.size())], topics(), viewer());
      }
    } else if (op < 97) {
      world.Drain();
      alive = false;
    } else {
      world.Fail();
      alive = false;
    }
    world.Run(Micros(static_cast<int64_t>(pick(12000))));
    if (step % 25 == 0) {
      world.model().ExpectCounts(world.host());
      world.model().ExpectStates();
    }
  }
  world.Run(Seconds(10));
  world.model().ExpectCounts(world.host());
  world.model().ExpectStates();
  world.model().ExpectEveryGroupDispatched();
  // The draws reached the cases the plan cache must get right.
  EXPECT_GT(world.model().dispatches(), 100);
  EXPECT_GT(races, 0);
  EXPECT_EQ(world.model().replacements(), 0);
  EXPECT_GT(world.model().closed(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchPlanPropertyTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Bool()));

// N events on a topic whose streams do not change build its plan once; a
// stream joining the topic, or any stream leaving the host, rebuilds it at
// the next event.
TEST(DispatchPlanTest, HotTopicWithUnchangedMembershipBuildsItsPlanOnce) {
  DispatchWorld world(5, /*with_pylon=*/true);
  for (int i = 0; i < 6; ++i) {
    world.Subscribe(StreamKey{100 + i, 1}, i % 2 == 0 ? "A" : "B", {"hot"}, 10 + i);
  }
  world.Subscribe(StreamKey{200, 1}, "C", {"cold"}, 30);
  world.Run(Seconds(1));
  ASSERT_EQ(world.host().StreamCount(), 7u);

  const uint64_t builds = world.host().dispatch_plan_builds();
  for (int i = 0; i < 50; ++i) {
    world.Publish("hot");
    world.Run(Millis(20));
  }
  EXPECT_EQ(world.host().dispatch_plan_builds(), builds + 1);
  EXPECT_EQ(world.model().dispatches(), 100);  // both apps, every event

  world.Subscribe(StreamKey{106, 1}, "C", {"hot"}, 16);  // joins the topic
  world.Run(Seconds(1));
  for (int i = 0; i < 10; ++i) {
    world.Publish("hot");
    world.Run(Millis(20));
  }
  EXPECT_EQ(world.host().dispatch_plan_builds(), builds + 2);

  world.Cancel(StreamKey{200, 1});  // leaves the host, not the topic
  world.Run(Seconds(1));
  for (int i = 0; i < 10; ++i) {
    world.Publish("hot");
    world.Run(Millis(20));
  }
  EXPECT_EQ(world.host().dispatch_plan_builds(), builds + 3);
  EXPECT_EQ(world.model().dispatches(), 160);
  world.model().ExpectCounts(world.host());
}

// Subscribe, cancel, subscribe on one key: two resolves race and only the
// later one installs. The first app never sees the key, its topic never
// lists it, and once the key's stream closes no topic lists it and Pylon
// holds none of its topics. A later stream with the key is targeted
// through its own topics only.
TEST(DispatchPlanTest, SupersededResolveInstallsNothing) {
  DispatchWorld world(6, /*with_pylon=*/true);
  const StreamKey key{7, 1};
  world.Subscribe(key, "A", {"x"}, 1);
  world.Cancel(key);
  world.Subscribe(key, "B", {"y"}, 2, /*reads=*/400);
  world.Run(Seconds(1));  // A's resolve returns first, then B's
  ASSERT_EQ(world.model().LiveKeys(), std::vector<StreamKey>{key});
  EXPECT_EQ(world.model().replacements(), 0);
  EXPECT_EQ(world.PylonReplicasListing("x"), 0);
  EXPECT_GT(world.PylonReplicasListing("y"), 0);
  world.Publish("x");  // listed by no topic: reaches no app
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 0);
  world.Publish("y");
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 1);

  world.Cancel(key);
  world.Run(Seconds(1));
  EXPECT_EQ(world.PylonReplicasListing("x"), 0);
  EXPECT_EQ(world.PylonReplicasListing("y"), 0);
  world.Publish("x");
  world.Run(Millis(30));
  world.Publish("y");
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 1);

  world.Subscribe(key, "C", {"z"}, 3);
  world.Run(Millis(30));
  world.Publish("x");
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 1);
  world.Publish("z");
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 2);
  world.model().ExpectEveryGroupDispatched();
  world.model().ExpectCounts(world.host());
}

// A stream that resumes before its first resolve returns is resolved again.
// Only the later resolve installs it: it starts once, leaves one record,
// and the earlier resolve's span ends "superseded".
TEST(DispatchPlanTest, StreamResumedBeforeItsResolveInstallsOnce) {
  DispatchWorld world(7, /*with_pylon=*/false);
  const StreamKey key{8, 1};
  world.Subscribe(key, "A", {"x"}, 1, /*reads=*/400);
  world.Subscribe(key, "A", {"x"}, 1, /*reads=*/400);  // a resume of the open stream
  world.Run(Seconds(1));
  ASSERT_EQ(world.model().LiveKeys(), std::vector<StreamKey>{key});
  EXPECT_EQ(world.model().replacements(), 0);
  world.Publish("x");
  world.Run(Millis(30));
  EXPECT_EQ(world.model().dispatches(), 1);

  world.Cancel(key);
  world.Run(Seconds(1));
  EXPECT_EQ(world.model().closed(), 1u);
  ASSERT_EQ(world.host().closed_stream_records().size(), 1u);
  EXPECT_EQ(world.host().closed_stream_records()[0].events_targeted, 1u);
  world.model().ExpectCounts(world.host());

  SpanQuery query;
  query.name = "brass.subscribe";
  std::vector<const Span*> subscribes = FindSpans(world.trace(), query);
  ASSERT_EQ(subscribes.size(), 2u);
  EXPECT_NE(subscribes[0]->FindAnnotation("superseded"), nullptr);
  EXPECT_FALSE(subscribes[0]->open());
  EXPECT_EQ(subscribes[1]->FindAnnotation("superseded"), nullptr);
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

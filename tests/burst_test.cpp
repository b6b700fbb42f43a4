// Protocol-level tests for BURST: the full device -> POP -> proxy -> host
// chain built with fake application handlers, exercising multiplexing,
// rewrites, sticky routing, redirects, acks, batches, and the §4 failure
// signalling / recovery axioms at the protocol layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/burst/client.h"
#include "src/burst/pop.h"
#include "src/burst/proxy.h"
#include "src/burst/server.h"
#include "src/sim/simulator.h"

namespace bladerunner {
namespace {

// Records everything; echoes nothing by default.
class FakeAppHandler : public BurstServerHandler {
 public:
  void OnStreamStarted(ServerStream& stream) override {
    started.push_back(stream.key());
    last_stream = &stream;
  }
  void OnStreamResumed(ServerStream& stream) override {
    resumed.push_back(stream.key());
    last_stream = &stream;
  }
  void OnStreamDetached(ServerStream& stream, const std::string& reason) override {
    detached.push_back(stream.key());
    (void)reason;
  }
  void OnStreamClosed(const StreamKey& key, TerminateReason reason) override {
    closed.push_back(key);
    close_reasons.push_back(reason);
  }
  void OnAck(ServerStream& stream, uint64_t seq) override {
    acks.push_back({stream.key(), seq});
  }

  std::vector<StreamKey> started;
  std::vector<StreamKey> resumed;
  std::vector<StreamKey> detached;
  std::vector<StreamKey> closed;
  std::vector<TerminateReason> close_reasons;
  std::vector<std::pair<StreamKey, uint64_t>> acks;
  ServerStream* last_stream = nullptr;
};

class FakeObserver : public BurstClient::Observer {
 public:
  void OnStreamData(uint64_t sid, const Value& payload, uint64_t seq) override {
    data.push_back({sid, payload, seq});
  }
  void OnStreamFlowStatus(uint64_t sid, FlowStatus status, const std::string&) override {
    flow.push_back({sid, status});
  }
  void OnStreamTerminated(uint64_t sid, TerminateReason reason, const std::string&) override {
    terminated.push_back({sid, reason});
  }
  void OnConnectionStateChanged(bool connected) override {
    connection_changes.push_back(connected);
  }

  struct DataEvent {
    uint64_t sid;
    Value payload;
    uint64_t seq;
  };
  std::vector<DataEvent> data;
  std::vector<std::pair<uint64_t, FlowStatus>> flow;
  std::vector<std::pair<uint64_t, TerminateReason>> terminated;
  std::vector<bool> connection_changes;
};

// Directory over a fixed set of hosts; load-based pick.
class FakeDirectory : public BurstServerDirectory {
 public:
  explicit FakeDirectory(Simulator* sim) : sim_(sim) {}

  void AddHost(int64_t id, BurstServer* server) { hosts_[id] = server; }

  int64_t PickHost(const StreamHeaderView& header) override {
    (void)header;
    size_t min_load = SIZE_MAX;
    for (auto& [id, server] : hosts_) {
      if (server->alive()) {
        min_load = std::min(min_load, server->StreamCount());
      }
    }
    std::vector<int64_t> tied;
    for (auto& [id, server] : hosts_) {
      if (server->alive() && server->StreamCount() == min_load) {
        tied.push_back(id);
      }
    }
    if (tied.empty()) {
      return 0;
    }
    return tied[round_robin_++ % tied.size()];
  }
  bool IsHostAlive(int64_t host_id) const override {
    auto it = hosts_.find(host_id);
    return it != hosts_.end() && it->second->alive();
  }
  std::shared_ptr<ConnectionEnd> ConnectToHost(ReverseProxy*, int64_t host_id) override {
    auto it = hosts_.find(host_id);
    if (it == hosts_.end() || !it->second->alive()) {
      return nullptr;
    }
    auto [proxy_end, host_end] = CreateConnection(sim_, LatencyModel::Fixed(0.5), Millis(50));
    it->second->AttachProxyConnection(std::move(host_end));
    return proxy_end;
  }

 private:
  Simulator* sim_;
  std::map<int64_t, BurstServer*> hosts_;
  size_t round_robin_ = 0;
};

class BurstTest : public ::testing::Test {
 protected:
  BurstTest() : sim_(21) {
    config_.reconnect_backoff_min = Millis(50);
    config_.reconnect_backoff_max = Millis(200);
    config_.failure_detection_delay = Millis(50);
    config_.server_stream_keep_timeout = Seconds(10);

    directory_ = std::make_unique<FakeDirectory>(&sim_);
    server1_ = std::make_unique<BurstServer>(&sim_, 1, &app1_, config_, &metrics_);
    server2_ = std::make_unique<BurstServer>(&sim_, 2, &app2_, config_, &metrics_);
    directory_->AddHost(1, server1_.get());
    directory_->AddHost(2, server2_.get());

    proxy_ = std::make_unique<ReverseProxy>(&sim_, ProxyId(1), 0, directory_.get(), &metrics_);
    proxy2_ = std::make_unique<ReverseProxy>(&sim_, ProxyId(2), 0, directory_.get(), &metrics_);

    pop_connector_ = [this](Pop*, RegionId, ProxyId exclude) -> Pop::Uplink {
      ReverseProxy* target = nullptr;
      if (proxy_->alive() && proxy_->proxy_id() != exclude) {
        target = proxy_.get();
      } else if (proxy2_->alive() && proxy2_->proxy_id() != exclude) {
        target = proxy2_.get();
      }
      if (target == nullptr) {
        return {};
      }
      auto [pop_end, proxy_end] = CreateConnection(&sim_, LatencyModel::Fixed(2.0), Millis(50));
      target->AttachPopConnection(std::move(proxy_end));
      Pop::Uplink uplink;
      uplink.end = std::move(pop_end);
      uplink.proxy_id = target->proxy_id();
      return uplink;
    };
    pop_ = std::make_unique<Pop>(&sim_, PopId(1), 0, pop_connector_, config_, &metrics_);

    client_connector_ = [this](int64_t, BurstClient::ConnectDone done) {
      if (!pop_->alive()) {
        done(nullptr);
        return;
      }
      auto [device_end, pop_end] = CreateConnection(&sim_, LatencyModel::Fixed(5.0), Millis(50));
      pop_->AttachDeviceConnection(std::move(pop_end));
      done(std::move(device_end));
    };
    client_ = std::make_unique<BurstClient>(&sim_, 100, client_connector_, &observer_, config_,
                                            &metrics_);
  }

  Value MakeHeader(const std::string& app) {
    StreamHeader header;
    header.set_app(app).set_viewer(100);
    return std::move(header).Take();
  }

  Simulator sim_;
  MetricsRegistry metrics_;
  BurstConfig config_;
  FakeAppHandler app1_;
  FakeAppHandler app2_;
  std::unique_ptr<FakeDirectory> directory_;
  std::unique_ptr<BurstServer> server1_;
  std::unique_ptr<BurstServer> server2_;
  std::unique_ptr<ReverseProxy> proxy_;
  std::unique_ptr<ReverseProxy> proxy2_;
  Pop::ProxyConnector pop_connector_;
  std::unique_ptr<Pop> pop_;
  BurstClient::Connector client_connector_;
  FakeObserver observer_;
  std::unique_ptr<BurstClient> client_;
};

TEST_F(BurstTest, SubscribeReachesAHost) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(app1_.started.size() + app2_.started.size(), 1u);
  const StreamKey& key = app1_.started.empty() ? app2_.started[0] : app1_.started[0];
  EXPECT_EQ(key.device_id, 100);
  EXPECT_EQ(key.sid, sid);
}

TEST_F(BurstTest, DataFlowsDownstream) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  Value payload;
  payload.Set("msg", "hello");
  app.last_stream->PushData(payload, 5);
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(observer_.data.size(), 1u);
  EXPECT_EQ(observer_.data[0].sid, sid);
  EXPECT_EQ(observer_.data[0].seq, 5u);
  EXPECT_EQ(observer_.data[0].payload.Get("msg").AsString(), "hello");
}

// A POP without placement drops an envelope frame: devices never see it,
// while ordinary data on the same stream still flows.
TEST_F(BurstTest, PopWithoutPlacementForwardsNothingFromAnEnvelopeFrame) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  auto envelope = std::make_shared<EnvelopeFrame>();
  envelope->streams = {app.last_stream->key()};
  envelope->metadata.Set("id", int64_t{7});
  envelope->conflation_key = "comment:7";
  envelope->version = 1;
  ASSERT_TRUE(app.last_stream->SendFrame(envelope));
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(observer_.data.empty());
  EXPECT_EQ(metrics_.GetCounter("burst.pop_envelopes").value(), 1);
  EXPECT_EQ(metrics_.GetCounter("burst.pop_envelope_bytes").value(),
            static_cast<int64_t>(envelope->WireSize()));

  Value payload;
  payload.Set("msg", "after");
  app.last_stream->PushData(payload);
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(observer_.data.size(), 1u);
  EXPECT_EQ(observer_.data[0].sid, sid);
}

TEST_F(BurstTest, BatchesApplyAtomically) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  Value rewritten = app.last_stream->header();
  rewritten.Set("extra", "state");
  app.last_stream->Push({Delta::Rewrite(rewritten), Delta::Data(Value("d1"), 1),
                         Delta::Data(Value("d2"), 2)});
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(observer_.data.size(), 2u);
  // The rewrite applied before data callbacks fired: the client header
  // already carries the new state.
  const Value* header = client_->HeaderOf(observer_.data[0].sid);
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(header->Get("extra").AsString(), "state");
}

TEST_F(BurstTest, MultipleStreamsMultiplexIndependently) {
  uint64_t sid1 = client_->Subscribe(MakeHeader("app-a"));
  uint64_t sid2 = client_->Subscribe(MakeHeader("app-b"));
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(client_->ActiveStreamCount(), 2u);
  EXPECT_NE(sid1, sid2);
  // Cancelling one leaves the other.
  client_->Cancel(sid1);
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(client_->ActiveStreamCount(), 1u);
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 1u);
}

TEST_F(BurstTest, CancelNotifiesHost) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  client_->Cancel(sid);
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  ASSERT_EQ(app.closed.size(), 1u);
  EXPECT_EQ(app.close_reasons[0], TerminateReason::kCancelled);
}

TEST_F(BurstTest, AcksReachTheHost) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  client_->Ack(sid, 42);
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  ASSERT_EQ(app.acks.size(), 1u);
  EXPECT_EQ(app.acks[0].second, 42u);
  EXPECT_EQ(app.last_stream->last_ack(), 42u);
}

TEST_F(BurstTest, ServerTerminationReachesClient) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  app.last_stream->Terminate(TerminateReason::kComplete, "done");
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(observer_.terminated.size(), 1u);
  EXPECT_EQ(observer_.terminated[0].second, TerminateReason::kComplete);
  EXPECT_EQ(client_->ActiveStreamCount(), 0u);
  // Proxy and POP state must be GCed too.
  EXPECT_EQ(proxy_->StreamCount() + proxy2_->StreamCount(), 0u);
  EXPECT_EQ(pop_->StreamCount(), 0u);
}

TEST_F(BurstTest, RewritePropagatesToAllStoredCopies) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  StreamHeader header(app.last_stream->header());
  header.set_resume_token(77);
  app.last_stream->Rewrite(std::move(header).Take());
  sim_.RunFor(Seconds(1));
  const Value* client_header = client_->HeaderOf(sid);
  ASSERT_NE(client_header, nullptr);
  EXPECT_EQ(StreamHeaderView(*client_header).resume_token(), 77);
}

TEST_F(BurstTest, ReconnectAfterDropResubscribesWithRewrittenHeader) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  BurstServer* serving = app1_.started.empty() ? server2_.get() : server1_.get();
  StreamHeader header(app.last_stream->header());
  header.set_brass_host(serving->host_id()).set_resume_token(9);
  app.last_stream->Rewrite(std::move(header).Take());
  sim_.RunFor(Seconds(1));

  client_->SimulateConnectionDrop();
  sim_.RunFor(Seconds(2));
  ASSERT_TRUE(client_->connected());

  // The host retained state -> resume (not a fresh start), and the client
  // observed a recovery flow status.
  EXPECT_EQ(app.resumed.size(), 1u);
  bool saw_recovered = false;
  for (auto& [s, status] : observer_.flow) {
    if (s == sid && status == FlowStatus::kRecovered) {
      saw_recovered = true;
    }
  }
  EXPECT_TRUE(saw_recovered);
  // The resubscribe carried the rewritten header.
  EXPECT_EQ(StreamHeaderView(app.last_stream->header()).resume_token(), 9);
}

TEST_F(BurstTest, HostCrashRepairsOntoOtherHost) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  BurstServer* serving = app1_.started.empty() ? server2_.get() : server1_.get();
  BurstServer* other = serving == server1_.get() ? server2_.get() : server1_.get();
  FakeAppHandler& other_app = serving == server1_.get() ? app2_ : app1_;

  const size_t flows_before = observer_.flow.size();
  serving->FailHost();
  sim_.RunFor(Seconds(2));

  // Proxy repaired the stream onto the other host; the client saw degraded,
  // then "restarted" — the new host rebuilt the stream's state from scratch
  // (a cold resume), which must NOT masquerade as a seamless recovery.
  EXPECT_EQ(other->StreamCount(), 1u);
  EXPECT_EQ(other_app.started.size(), 1u);
  bool saw_degraded = false;
  bool saw_recovered = false;
  bool saw_restarted = false;
  for (size_t i = flows_before; i < observer_.flow.size(); ++i) {
    const FlowStatus status = observer_.flow[i].second;
    saw_degraded |= status == FlowStatus::kDegraded;
    saw_recovered |= status == FlowStatus::kRecovered;
    saw_restarted |= status == FlowStatus::kRestarted;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_FALSE(saw_recovered);
  EXPECT_TRUE(saw_restarted);
  EXPECT_GE(metrics_.GetCounter("burst.proxy_induced_reconnects").value(), 1);
}

TEST_F(BurstTest, GracefulDrainAlsoRepairs) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  BurstServer* serving = app1_.started.empty() ? server2_.get() : server1_.get();
  BurstServer* other = serving == server1_.get() ? server2_.get() : server1_.get();
  serving->Drain();
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(other->StreamCount(), 1u);
}

TEST_F(BurstTest, ProxyFailureRepairedByPop) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(proxy_->StreamCount(), 1u);  // pop prefers proxy_
  // Sticky rewrite (the real BRASS host does this on stream start, §3.5):
  // ensures the repair resubscribe resumes on the same host instead of
  // starting a duplicate stream elsewhere.
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  BurstServer* serving = app1_.started.empty() ? server2_.get() : server1_.get();
  StreamHeader header(app.last_stream->header());
  header.set_brass_host(serving->host_id());
  app.last_stream->Rewrite(std::move(header).Take());
  sim_.RunFor(Seconds(1));
  proxy_->FailProxy();
  sim_.RunFor(Seconds(2));
  // POP reconnected through proxy2 and resubscribed; the stream is alive.
  EXPECT_EQ(proxy2_->StreamCount(), 1u);
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 1u);
  EXPECT_GE(metrics_.GetCounter("burst.pop_initiated_reconnects").value(), 1);
}

TEST_F(BurstTest, DeviceLossDetachesServerStreamThenGcExpires) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  client_->SetAutoReconnect(false);
  client_->SimulateConnectionDrop();
  sim_.RunFor(Seconds(1));
  // §4 axiom 1 upstream: the host learned of the detach.
  EXPECT_EQ(app.detached.size(), 1u);
  // Pushes during the detach window are dropped, not crashing.
  app.last_stream->PushData(Value("lost"), 1);
  EXPECT_GE(metrics_.GetCounter("burst.server_pushes_dropped").value(), 1);
  // After the keep timeout, the stream state is GCed.
  sim_.RunFor(config_.server_stream_keep_timeout + Seconds(1));
  EXPECT_EQ(app.closed.size(), 1u);
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 0u);
}

TEST_F(BurstTest, RedirectMovesStreamToRewrittenTarget) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  BurstServer* serving = app1_.started.empty() ? server2_.get() : server1_.get();
  BurstServer* other = serving == server1_.get() ? server2_.get() : server1_.get();
  FakeAppHandler& other_app = serving == server1_.get() ? app2_ : app1_;

  // §3.5 Redirects: rewrite new routing info into the stored request, then
  // terminate with kRedirect; the device retries with the new header.
  StreamHeader header(app.last_stream->header());
  header.set_brass_host(other->host_id());
  app.last_stream->Rewrite(std::move(header).Take());
  app.last_stream->Terminate(TerminateReason::kRedirect, "rebalance");
  EXPECT_EQ(serving->StreamCount(), 0u);  // redirect released the old stream
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(other_app.started.size(), 1u);
  EXPECT_EQ(other->StreamCount(), 1u);
  EXPECT_EQ(client_->ActiveStreamCount(), 1u);  // stream survived the move
}

TEST_F(BurstTest, PopFailureForcesClientReconnect) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  pop_->FailPop();
  sim_.RunFor(Millis(200));
  EXPECT_FALSE(client_->connected());
  // No alternate POP in this fixture: the connector returns nullptr and
  // the client keeps backing off without crashing.
  sim_.RunFor(Seconds(2));
  EXPECT_FALSE(client_->connected());
}

TEST_F(BurstTest, SubscribeWhileDisconnectedConnectsLazily) {
  // Fresh client that never called Connect().
  FakeObserver observer2;
  BurstClient client2(&sim_, 200, client_connector_, &observer2, config_, &metrics_);
  EXPECT_FALSE(client2.connected());
  client2.Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  EXPECT_TRUE(client2.connected());
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 1u);
}

TEST_F(BurstTest, LoadBalancedAcrossHosts) {
  for (int i = 0; i < 10; ++i) {
    client_->Subscribe(MakeHeader("test"));
  }
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 10u);
  EXPECT_GE(server1_->StreamCount(), 4u);
  EXPECT_GE(server2_->StreamCount(), 4u);
}

TEST_F(BurstTest, SubscribeBodyReachesTheServerOpaquely) {
  Value header = MakeHeader("test");
  client_->Subscribe(header, "opaque-binary-blob\x01\x02");
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  ASSERT_NE(app.last_stream, nullptr);
  EXPECT_EQ(app.last_stream->body(), "opaque-binary-blob\x01\x02");
}

TEST_F(BurstTest, AckAfterResumeStillReachesTheServer) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  client_->SimulateConnectionDrop();
  sim_.RunFor(Seconds(2));
  ASSERT_TRUE(client_->connected());
  // Without a sticky rewrite (this fixture's handlers do none), the resume
  // may have landed on either host; the ack must reach whichever one now
  // serves the stream.
  client_->Ack(sid, 99);
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(app1_.acks.size() + app2_.acks.size(), 1u);
  uint64_t seq = app1_.acks.empty() ? app2_.acks.back().second : app1_.acks.back().second;
  EXPECT_EQ(seq, 99u);
}

TEST_F(BurstTest, CancelWhileDetachedClosesServerStateViaGc) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  // Device drops and never comes back, then cancels locally while offline:
  // the cancel frame has no connection to travel on; the server state must
  // still be released by the detach GC (§3.5 garbage collection).
  client_->SetAutoReconnect(false);
  client_->SimulateConnectionDrop();
  client_->Cancel(sid);
  EXPECT_EQ(client_->ActiveStreamCount(), 0u);
  sim_.RunFor(config_.server_stream_keep_timeout + Seconds(2));
  EXPECT_EQ(app.closed.size(), 1u);
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), 0u);
}

TEST_F(BurstTest, TerminationIsAtomicWithFinalData) {
  client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  FakeAppHandler& app = app1_.started.empty() ? app2_ : app1_;
  // A final batch: last data delta and the termination travel together and
  // apply atomically — the client must observe the data before the end.
  app.last_stream->Push({Delta::Data(Value("final"), 7),
                         Delta::Terminate(TerminateReason::kComplete, "eos")});
  sim_.RunFor(Seconds(1));
  ASSERT_EQ(observer_.data.size(), 1u);
  EXPECT_EQ(observer_.data[0].payload.AsString(), "final");
  ASSERT_EQ(observer_.terminated.size(), 1u);
  EXPECT_EQ(observer_.terminated[0].second, TerminateReason::kComplete);
}

TEST_F(BurstTest, RadioPromotionDelaysIdleUplinkSends) {
  // The device has been idle well past the radio threshold; the subscribe
  // pays the promotion delay before leaving the device.
  BurstConfig config = config_;
  config.radio_promotion_ms = 400.0;
  config.radio_promotion_sigma = 0.0;
  config.radio_idle_threshold = Seconds(5);
  FakeObserver observer2;
  BurstClient client2(&sim_, 300, client_connector_, &observer2, config, &metrics_);
  client2.Connect();
  sim_.RunFor(Seconds(10));  // idle: radio sleeps

  int64_t promotions_before = metrics_.GetCounter("burst.radio_promotions").value();
  client2.Subscribe(MakeHeader("test"));
  sim_.RunFor(Millis(300));
  // Not yet at the server: the radio is still waking up.
  size_t streams_at_300ms = server1_->StreamCount() + server2_->StreamCount();
  sim_.RunFor(Seconds(2));
  EXPECT_EQ(server1_->StreamCount() + server2_->StreamCount(), streams_at_300ms + 1);
  EXPECT_GT(metrics_.GetCounter("burst.radio_promotions").value(), promotions_before);

  // A second subscribe right after rides the hot radio: no promotion.
  int64_t promotions_mid = metrics_.GetCounter("burst.radio_promotions").value();
  client2.Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));
  EXPECT_EQ(metrics_.GetCounter("burst.radio_promotions").value(), promotions_mid);
}

// Captures proxy -> POP response and envelope frames.
class FrameRecorder : public ConnectionHandler {
 public:
  void OnMessage(ConnectionEnd&, MessagePtr message) override {
    if (auto response = std::dynamic_pointer_cast<ResponseFrame>(message)) {
      responses.push_back(std::move(response));
    } else if (auto envelope = std::dynamic_pointer_cast<EnvelopeFrame>(message)) {
      envelopes.push_back(std::move(envelope));
    }
  }
  void OnDisconnect(ConnectionEnd&, DisconnectReason) override {}
  std::vector<std::shared_ptr<ResponseFrame>> responses;
  std::vector<std::shared_ptr<EnvelopeFrame>> envelopes;
};

// A host's envelope frame lists streams of two POPs that share its proxy
// connection: the proxy sends each POP one frame listing just its own
// streams, and drops a stream it does not know.
TEST(ProxyRouteTest, EnvelopeFrameIsSplitPerPop) {
  Simulator sim(34);
  MetricsRegistry metrics;
  BurstConfig config;
  FakeAppHandler app;
  FakeDirectory directory(&sim);
  BurstServer server(&sim, 1, &app, config, &metrics);
  directory.AddHost(1, &server);
  ReverseProxy proxy(&sim, ProxyId(1), 0, &directory, &metrics);

  FrameRecorder pops[2];
  std::vector<std::shared_ptr<ConnectionEnd>> pop_ends;
  for (FrameRecorder& pop : pops) {
    auto [pop_end, proxy_end] = CreateConnection(&sim, LatencyModel::Fixed(2.0), Millis(50));
    pop_end->set_handler(&pop);
    proxy.AttachPopConnection(std::move(proxy_end));
    pop_ends.push_back(std::move(pop_end));
  }
  const StreamKey on_first{100, 1};
  const StreamKey on_second[] = {{200, 1}, {201, 1}};
  auto subscribe = [&](const StreamKey& key, size_t pop) {
    auto frame = std::make_shared<SubscribeFrame>();
    frame->key = key;
    frame->header = std::move(StreamHeader().set_app("test").set_viewer(key.device_id)).Take();
    pop_ends[pop]->Send(frame);
  };
  subscribe(on_first, 0);
  subscribe(on_second[0], 1);
  subscribe(on_second[1], 1);
  sim.RunFor(Seconds(1));
  ASSERT_EQ(server.StreamCount(), 3u);

  auto envelope = std::make_shared<EnvelopeFrame>();
  envelope->streams = {on_first, on_second[0], on_second[1], StreamKey{999, 1}};
  envelope->conflation_key = "comment:7";
  envelope->version = 3;
  ASSERT_TRUE(server.FindStream(on_first)->SendFrame(envelope));
  sim.RunFor(Seconds(1));

  ASSERT_EQ(pops[0].envelopes.size(), 1u);
  EXPECT_EQ(pops[0].envelopes[0]->streams, std::vector<StreamKey>({on_first}));
  ASSERT_EQ(pops[1].envelopes.size(), 1u);
  EXPECT_EQ(pops[1].envelopes[0]->streams,
            std::vector<StreamKey>({on_second[0], on_second[1]}));
  for (const FrameRecorder& pop : pops) {
    EXPECT_EQ(pop.envelopes[0]->conflation_key, "comment:7");
    EXPECT_EQ(pop.envelopes[0]->version, 3u);
  }
}

TEST(ProxyRouteTest, ResubscribeToNewHostDetachesOldRoute) {
  Simulator sim(33);
  MetricsRegistry metrics;
  BurstConfig config;
  config.failure_detection_delay = Millis(50);
  FakeAppHandler app1;
  FakeAppHandler app2;
  FakeDirectory directory(&sim);
  BurstServer server1(&sim, 1, &app1, config, &metrics);
  BurstServer server2(&sim, 2, &app2, config, &metrics);
  directory.AddHost(1, &server1);
  directory.AddHost(2, &server2);
  ReverseProxy proxy(&sim, ProxyId(1), 0, &directory, &metrics);

  auto [pop_end, proxy_end] = CreateConnection(&sim, LatencyModel::Fixed(2.0), Millis(50));
  FrameRecorder pop;
  pop_end->set_handler(&pop);
  proxy.AttachPopConnection(std::move(proxy_end));

  StreamKey key{100, 1};
  auto subscribe = std::make_shared<SubscribeFrame>();
  subscribe->key = key;
  subscribe->header = std::move(
      StreamHeader().set_app("test").set_viewer(100).set_brass_host(1)).Take();  // sticky: host 1
  pop_end->Send(subscribe);
  sim.RunFor(Seconds(1));
  ASSERT_EQ(server1.StreamCount(), 1u);
  EXPECT_EQ(proxy.HostConnStreamCount(1), 1u);

  // The stream is re-routed (rebalance): a subscribe for the same key
  // arrives sticky to host 2, with no termination of the old route first.
  auto moved = std::make_shared<SubscribeFrame>();
  moved->key = key;
  moved->header = std::move(
      StreamHeader().set_app("test").set_viewer(100).set_brass_host(2)).Take();
  moved->resubscribe = true;
  pop_end->Send(moved);
  sim.RunFor(Seconds(1));
  EXPECT_EQ(server2.StreamCount(), 1u);
  // Regression (bookkeeping leak): the key must leave host 1's stream set
  // when the route changes, not linger there.
  EXPECT_EQ(proxy.HostConnStreamCount(1), 0u);
  EXPECT_EQ(proxy.HostConnStreamCount(2), 1u);
  EXPECT_EQ(proxy.StreamCount(), 1u);

  // Host 1 dying later must not disturb the moved stream: no spurious
  // degraded signal downstream, no duplicate resubscribe to host 2.
  size_t responses_before = pop.responses.size();
  int64_t reconnects_before = metrics.GetCounter("burst.proxy_induced_reconnects").value();
  size_t server2_subscribes = app2.started.size() + app2.resumed.size();
  server1.FailHost();
  sim.RunFor(Seconds(2));
  EXPECT_EQ(metrics.GetCounter("burst.proxy_induced_reconnects").value(), reconnects_before);
  EXPECT_EQ(app2.started.size() + app2.resumed.size(), server2_subscribes);
  EXPECT_EQ(server2.StreamCount(), 1u);
  for (size_t i = responses_before; i < pop.responses.size(); ++i) {
    for (const Delta& delta : pop.responses[i]->batch) {
      if (delta.kind == DeltaKind::kFlowStatus) {
        EXPECT_NE(delta.status, FlowStatus::kDegraded);
      }
    }
  }
}

TEST(FramesTest, DeltaFactories) {
  Delta d = Delta::Data(Value(1), 3);
  EXPECT_EQ(d.kind, DeltaKind::kData);
  EXPECT_EQ(d.seq, 3u);
  Delta f = Delta::Flow(FlowStatus::kRecovered, "x");
  EXPECT_EQ(f.kind, DeltaKind::kFlowStatus);
  EXPECT_EQ(f.status, FlowStatus::kRecovered);
  Delta r = Delta::Rewrite(Value(ValueMap{}));
  EXPECT_EQ(r.kind, DeltaKind::kRewrite);
  Delta t = Delta::Terminate(TerminateReason::kRedirect, "go");
  EXPECT_EQ(t.kind, DeltaKind::kTermination);
  EXPECT_EQ(t.reason, TerminateReason::kRedirect);
}

TEST(FramesTest, StreamKeyComparisonAndHash) {
  StreamKey a{1, 2};
  StreamKey b{1, 2};
  StreamKey c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);
  StreamKeyHash hasher;
  EXPECT_EQ(hasher(a), hasher(b));
  EXPECT_NE(hasher(a), hasher(c));
}

TEST(FramesTest, ToStringCoverage) {
  EXPECT_STREQ(ToString(DeltaKind::kRewrite), "rewrite_request");
  EXPECT_STREQ(ToString(FlowStatus::kDegraded), "degraded");
  EXPECT_STREQ(ToString(FlowStatus::kRestarted), "restarted");
  EXPECT_STREQ(ToString(TerminateReason::kCancelled), "cancelled");
}

TEST(FramesTest, ResumeTokenZeroIsDistinctFromAbsent) {
  // "No token" and "token 0" must be distinguishable: a durable stream's
  // acked offset legitimately starts at 0, while an absent token means
  // "start at the log head".
  Value none = std::move(StreamHeader().set_app("t").set_viewer(1)).Take();
  StreamHeaderView absent(none);
  EXPECT_FALSE(absent.has_resume_token());
  EXPECT_EQ(absent.resume_token(), 0);

  Value zero = std::move(StreamHeader().set_app("t").set_viewer(1).set_resume_token(0)).Take();
  StreamHeaderView explicit_zero(zero);
  EXPECT_TRUE(explicit_zero.has_resume_token());
  EXPECT_EQ(explicit_zero.resume_token(), 0);
  EXPECT_FALSE(explicit_zero.durable());

  Value durable = std::move(
      StreamHeader().set_app("t").set_viewer(1).set_durable(true).set_resume_token(7)).Take();
  StreamHeaderView view(durable);
  EXPECT_TRUE(view.durable());
  EXPECT_TRUE(view.has_resume_token());
  EXPECT_EQ(view.resume_token(), 7);
}

// Regression: the reconnect backoff drew uniformly from the same base
// window on every consecutive failure, so a dead POP was hammered at a
// constant rate forever. It must now grow (capped exponential, full
// jitter) and reset once a connect succeeds.
TEST(BackoffTest, GrowsUnderRepeatedFailureAndResetsOnSuccess) {
  Simulator sim(7);
  MetricsRegistry metrics;
  BurstConfig config;
  config.reconnect_backoff_min = Millis(50);
  config.reconnect_backoff_max = Millis(200);
  config.reconnect_backoff_cap = Seconds(5);

  std::vector<SimTime> attempts;
  bool pop_reachable = false;
  FakeObserver observer;
  FrameRecorder far_side;
  std::shared_ptr<ConnectionEnd> far_end_keep;
  BurstClient::Connector connector = [&](int64_t, BurstClient::ConnectDone done) {
    attempts.push_back(sim.Now());
    if (!pop_reachable) {
      done(nullptr);
      return;
    }
    auto [device_end, pop_end] = CreateConnection(&sim, LatencyModel::Fixed(1.0), Millis(50));
    pop_end->set_handler(&far_side);
    far_end_keep = pop_end;
    done(std::move(device_end));
  };
  BurstClient client(&sim, 100, connector, &observer, config, &metrics);

  client.Subscribe(std::move(StreamHeader().set_app("test").set_viewer(100)).Take());
  sim.RunFor(Seconds(30));

  ASSERT_GE(attempts.size(), 6u);
  std::vector<SimTime> gaps;
  for (size_t i = 1; i < attempts.size(); ++i) {
    gaps.push_back(attempts[i] - attempts[i - 1]);
  }
  // The first retry draws the unchanged base window.
  EXPECT_GE(gaps[0], Millis(50));
  EXPECT_LE(gaps[0], Millis(200));
  // Later retries must space out past the base window (the regression kept
  // every gap <= reconnect_backoff_max) while staying under the cap.
  SimTime max_gap = 0;
  for (SimTime gap : gaps) {
    max_gap = std::max(max_gap, gap);
    EXPECT_GE(gap, Millis(50));
    EXPECT_LE(gap, Seconds(5));
  }
  EXPECT_GT(max_gap, Millis(200));

  // A successful connect resets the streak: the next drop's first retry is
  // back in the base window instead of the widened one.
  pop_reachable = true;
  sim.RunFor(Seconds(10));
  ASSERT_TRUE(client.connected());
  pop_reachable = false;
  size_t attempts_before = attempts.size();
  SimTime drop_at = sim.Now();
  client.SimulateConnectionDrop();
  sim.RunFor(Seconds(1));
  ASSERT_GT(attempts.size(), attempts_before);
  SimTime first_retry_gap = attempts[attempts_before] - drop_at;
  EXPECT_GE(first_retry_gap, Millis(50));
  EXPECT_LE(first_retry_gap, Millis(200));
}

// Streams opened while the connection is still coming up are first
// subscribes when it completes: the host starts them fresh, with no cold
// resume and no kRestarted. Once sent, they resubscribe after a drop, and
// the host takes each as a resume (warm or cold), not a first start.
TEST_F(BurstTest, StreamsOpenedWhileConnectingAreFirstSubscribes) {
  BurstClient::Connector handshake = [this](int64_t device_id, BurstClient::ConnectDone done) {
    sim_.Schedule(Millis(10), [this, device_id, done = std::move(done)]() {
      client_connector_(device_id, done);
    });
  };
  FakeObserver observer;
  BurstClient client(&sim_, 200, handshake, &observer, config_, &metrics_);
  client.Subscribe(MakeHeader("test"));
  client.Subscribe(MakeHeader("test"));
  ASSERT_FALSE(client.connected());
  sim_.RunFor(Seconds(1));
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(app1_.started.size() + app2_.started.size(), 2u);
  EXPECT_EQ(metrics_.GetCounter("burst.client_resubscribes").value(), 0);
  EXPECT_EQ(metrics_.GetCounter("burst.server_stream_cold_resumes").value(), 0);
  for (const auto& [sid, status] : observer.flow) {
    EXPECT_NE(status, FlowStatus::kRestarted) << "stream " << sid;
  }

  client.SimulateConnectionDrop();
  sim_.RunFor(Seconds(2));
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(metrics_.GetCounter("burst.client_resubscribes").value(), 2);
  EXPECT_EQ(metrics_.GetCounter("burst.server_stream_resumes").value() +
                metrics_.GetCounter("burst.server_stream_cold_resumes").value(),
            2);
}

TEST_F(BurstTest, ResumeAfterKeepTimeoutExpirySignalsRestart) {
  uint64_t sid = client_->Subscribe(MakeHeader("test"));
  sim_.RunFor(Seconds(1));

  // The device goes dark for longer than the server's keep timeout (10s in
  // this fixture): the host GCs the stream state (the retention grace from
  // the paper's resumption protocol).
  const size_t flows_before = observer_.flow.size();
  client_->SetAutoReconnect(false);
  client_->SimulateConnectionDrop();
  sim_.RunFor(Seconds(15));

  client_->SetAutoReconnect(true);
  client_->Connect();
  sim_.RunFor(Seconds(2));
  ASSERT_TRUE(client_->connected());

  // Regression: this used to surface as kRecovered — indistinguishable from
  // a seamless resume — even though the server rebuilt the stream from
  // scratch and any gap was silently lost. The app layer needs the
  // "restarted" signal to re-snapshot.
  bool saw_restarted = false;
  for (size_t i = flows_before; i < observer_.flow.size(); ++i) {
    saw_restarted |= observer_.flow[i] == std::make_pair(sid, FlowStatus::kRestarted);
  }
  EXPECT_TRUE(saw_restarted);
  // Server-side it was a fresh start, not a resume.
  EXPECT_EQ(app1_.resumed.size() + app2_.resumed.size(), 0u);
  EXPECT_EQ(app1_.started.size() + app2_.started.size(), 2u);
}

}  // namespace
}  // namespace bladerunner

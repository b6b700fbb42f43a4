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
#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/pylon/topic.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"
#include "src/was/resolvers.h"

namespace bladerunner {
namespace {

// The descriptor lookup of the POPs here, which run with placement off.
const BrassAppDescriptor* NoDescriptor(const std::string&) { return nullptr; }

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

    proxy_ = std::make_unique<ReverseProxy>(&sim_, ProxyId(1), 0, directory_.get(), &metrics_,
                                            &trace_);
    proxy2_ = std::make_unique<ReverseProxy>(&sim_, ProxyId(2), 0, directory_.get(), &metrics_,
                                             &trace_);

    pop_connector_ = [this](Pop*, RegionId) -> std::shared_ptr<ConnectionEnd> {
      ReverseProxy* target = proxy_->alive() ? proxy_.get() : proxy2_.get();
      if (!target->alive()) {
        return nullptr;
      }
      auto [pop_end, proxy_end] = CreateConnection(&sim_, LatencyModel::Fixed(2.0), Millis(50));
      target->AttachPopConnection(std::move(proxy_end));
      return pop_end;
    };
    pop_ = std::make_unique<Pop>(&sim_, PopId(1), 0, pop_connector_, NoDescriptor, config_,
                                 &metrics_, &trace_);

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
                                            &metrics_, &trace_);
  }

  Value MakeHeader(const std::string& app) {
    StreamHeader header;
    header.set_app(app).set_viewer(100);
    return std::move(header).Take();
  }

  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_;
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
  app.last_stream->Push({Delta::Rewrite(app.last_stream->header(), rewritten),
                         Delta::Data(Value("d1"), 1),
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
  BurstClient client2(&sim_, 200, client_connector_, &observer2, config_, &metrics_, &trace_);
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
  BurstClient client2(&sim_, 300, client_connector_, &observer2, config, &metrics_, &trace_);
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
  TraceCollector trace;
  ReverseProxy proxy(&sim, ProxyId(1), 0, &directory, &metrics, &trace);

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

// The proxy's input of the stale-route test below: the stream is re-routed
// to another BRASS host, and the old host dies later.
void ProxyStreamMovesToAnotherHost() {
  Simulator sim(33);
  MetricsRegistry metrics;
  TraceCollector trace;
  BurstConfig config;
  config.failure_detection_delay = Millis(50);
  FakeAppHandler app1;
  FakeAppHandler app2;
  FakeDirectory directory(&sim);
  BurstServer server1(&sim, 1, &app1, config, &metrics);
  BurstServer server2(&sim, 2, &app2, config, &metrics);
  directory.AddHost(1, &server1);
  directory.AddHost(2, &server2);
  ReverseProxy proxy(&sim, ProxyId(1), 0, &directory, &metrics, &trace);

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
  EXPECT_EQ(metrics.GetCounter("burst.proxy_host_disconnects").value(), 1);
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

// The POP's input: the device resubscribes over a new connection to the
// same POP before the POP detects that the old connection failed.
void PopStreamMovesToANewConnection() {
  Simulator sim(35);
  MetricsRegistry metrics;
  TraceCollector trace;
  BurstConfig config;
  FakeAppHandler app;
  FakeDirectory directory(&sim);
  BurstServer server(&sim, 1, &app, config, &metrics);
  directory.AddHost(1, &server);
  ReverseProxy proxy(&sim, ProxyId(1), 0, &directory, &metrics, &trace);
  Pop pop(
      &sim, PopId(1), 0,
      [&](Pop*, RegionId) {
        auto [pop_end, proxy_end] = CreateConnection(&sim, LatencyModel::Fixed(2.0), Millis(50));
        proxy.AttachPopConnection(std::move(proxy_end));
        return pop_end;
      },
      NoDescriptor, config, &metrics, &trace);
  // A device connection whose failure the POP notices 500 ms late.
  FrameRecorder device;
  auto connect = [&]() {
    auto [device_end, pop_end] = CreateConnection(&sim, LatencyModel::Fixed(5.0), Millis(500));
    device_end->set_handler(&device);
    pop.AttachDeviceConnection(std::move(pop_end));
    return device_end;
  };
  const StreamKey key{100, 1};
  auto subscribe = [&](ConnectionEnd& on, bool resubscribe) {
    auto frame = std::make_shared<SubscribeFrame>();
    frame->key = key;
    frame->header = std::move(StreamHeader().set_app("test").set_viewer(100)).Take();
    frame->resubscribe = resubscribe;
    on.Send(frame);
  };
  std::shared_ptr<ConnectionEnd> old_conn = connect();
  subscribe(*old_conn, /*resubscribe=*/false);
  sim.RunFor(Seconds(1));
  ASSERT_EQ(server.StreamCount(), 1u);

  old_conn->Fail();
  std::shared_ptr<ConnectionEnd> new_conn = connect();
  subscribe(*new_conn, /*resubscribe=*/true);
  sim.RunFor(Millis(100));
  ASSERT_EQ(app.resumed.size(), 1u);
  ASSERT_EQ(metrics.GetCounter("burst.pop_device_disconnects").value(), 0);

  // The old connection's failure is detected now, after the move: no
  // StreamDetached goes up, and the stream stays at every hop.
  sim.RunFor(Seconds(1));
  EXPECT_EQ(metrics.GetCounter("burst.pop_device_disconnects").value(), 1);
  EXPECT_EQ(pop.DeviceConnectionCount(), 1u);
  EXPECT_TRUE(app.detached.empty());
  EXPECT_EQ(pop.StreamCount(), 1u);
  EXPECT_EQ(proxy.StreamCount(), 1u);

  // Data keeps reaching the device over the new connection.
  const size_t responses_before = device.responses.size();
  app.last_stream->PushData(Value("after the move"), 1);
  sim.RunFor(Seconds(1));
  ASSERT_EQ(device.responses.size(), responses_before + 1);
  const Delta& delta = device.responses.back()->batch.front();
  EXPECT_EQ(delta.kind, DeltaKind::kData);
  EXPECT_EQ(delta.payload.AsString(), "after the move");
}

// The stale-route rule (docs/BURST.md "Failure handling"), one input per
// hop: a stream moves to a newer route before the hop detects that its old
// route failed, and the late detection must leave the moved stream alone.
TEST(ProxyRouteTest, ResubscribeToNewHostDetachesOldRoute) {
  const std::pair<const char*, void (*)()> inputs[] = {
      {"proxy: the stream moves to another BRASS host", ProxyStreamMovesToAnotherHost},
      {"pop: the device resubscribes over a new connection", PopStreamMovesToANewConnection},
  };
  for (const auto& [hop, run] : inputs) {
    SCOPED_TRACE(hop);
    run();
  }
}

TEST(FramesTest, DeltaFactories) {
  Delta d = Delta::Data(Value(1), 3);
  EXPECT_EQ(d.kind, DeltaKind::kData);
  EXPECT_EQ(d.seq, 3u);
  Delta f = Delta::Flow(FlowStatus::kRecovered, "x");
  EXPECT_EQ(f.kind, DeltaKind::kFlowStatus);
  EXPECT_EQ(f.status, FlowStatus::kRecovered);
  Delta r = Delta::Rewrite(Value(ValueMap{}), Value(ValueMap{}));
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

// ---- rewrite_request deltas: an RFC 7386 merge patch of the header ----

TEST(HeaderRewriteTest, PatchCarriesAddedChangedAndRemovedKeys) {
  Value base =
      std::move(StreamHeader().set_app("t").set_viewer(1).set_resume_token(3).set_placement(2))
          .Take();
  Value header =
      std::move(StreamHeader(base).set_resume_token(4).set_brass_host(7).set_placement(0)).Take();
  Delta rewrite = Delta::Rewrite(base, header);
  EXPECT_EQ(rewrite.kind, DeltaKind::kRewrite);
  EXPECT_EQ(rewrite.rewrite.patch.ToJson(), R"({"brass_host":7,"placement":null,"resume":4})");
}

TEST(HeaderRewriteTest, RewriteToAnIdenticalHeaderIsAnEmptyPatch) {
  Value base = std::move(StreamHeader().set_app("t").set_viewer(1).set_brass_host(7)).Take();
  Delta rewrite = Delta::Rewrite(base, base);
  EXPECT_EQ(rewrite.rewrite.patch.ToJson(), "{}");
  EXPECT_EQ(rewrite.WireSize(), 8u + 2u);
  Value hop = std::move(StreamHeader().set_app("t").set_viewer(2)).Take();
  const Value before = hop;
  rewrite.ApplyRewrite(hop);
  EXPECT_EQ(hop, before);
}

TEST(HeaderRewriteTest, WireSizeIsEightPlusThePatch) {
  Value base = std::move(StreamHeader()
                             .set_app("LVC")
                             .set_subscription("subscription { liveVideoComments(videoId: 9) }")
                             .set_viewer(5)
                             .set_region(1))
                   .Take();
  Value header = std::move(StreamHeader(base).set_brass_host(12)).Take();
  Delta rewrite = Delta::Rewrite(base, header);
  EXPECT_EQ(rewrite.WireSize(), 8 + rewrite.rewrite.patch.WireSize());
  // {"brass_host": <int>}: 2 B of braces + 10 B of key + 3 B of quoting and
  // colon + 8 B of value + 1 B separator.
  EXPECT_EQ(rewrite.rewrite.patch.WireSize(), 24u);
  EXPECT_LT(rewrite.WireSize(), 8 + header.WireSize());
  ResponseFrame frame;
  frame.batch.push_back(rewrite);
  EXPECT_EQ(frame.WireSize(), 24 + 8 + rewrite.rewrite.patch.WireSize());
}

TEST(HeaderRewriteTest, HopHoldingTheBaseAdoptsTheServerTree) {
  Value base = std::move(StreamHeader().set_app("t").set_viewer(1).set_placement(2)).Take();
  Value header = std::move(StreamHeader(base).set_brass_host(7).set_resume_token(0)).Take();
  Delta rewrite = Delta::Rewrite(base, header);
  Value shared = base;                 // the tree the server itself held
  Value copied(ValueMap(base.AsMap()));  // an equal header in a tree of its own
  rewrite.ApplyRewrite(shared);
  rewrite.ApplyRewrite(copied);
  EXPECT_EQ(shared, header);
  EXPECT_EQ(copied, header);
  // Both now reference the server's new tree rather than a copy of it.
  EXPECT_EQ(&shared.AsMap(), &header.AsMap());
  EXPECT_EQ(&copied.AsMap(), &header.AsMap());
}

TEST(HeaderRewriteTest, HopHoldingADifferentHeaderGetsItsHeaderPlusThePatch) {
  // The client of a POP-placed stream never saw the POP's placement stamp.
  Value client = std::move(StreamHeader().set_app("t").set_viewer(1).set_resume_token(3)).Take();
  Value base = std::move(StreamHeader(client).set_placement(2)).Take();
  Value header = std::move(StreamHeader(base).set_brass_host(7).set_resume_token(4)).Take();
  Delta rewrite = Delta::Rewrite(base, header);
  rewrite.ApplyRewrite(client);
  EXPECT_EQ(client, std::move(StreamHeader(header).set_placement(0)).Take());
  EXPECT_EQ(StreamHeaderView(client).brass_host(), 7);
  EXPECT_EQ(StreamHeaderView(client).resume_token(), 4);
  EXPECT_EQ(StreamHeaderView(client).placement(), 0);
}

TEST(HeaderRewriteTest, PatchRecursesIntoNestedMaps) {
  Value base;
  base.Set("a", Value(ValueMap{{"x", Value(1)}, {"y", Value(2)}}));
  base.Set("b", 1);
  Value header;
  header.Set("a", Value(ValueMap{{"x", Value(1)}, {"z", Value(3)}}));
  header.Set("b", 1);
  Delta rewrite = Delta::Rewrite(base, header);
  EXPECT_EQ(rewrite.rewrite.patch.ToJson(), R"({"a":{"y":null,"z":3}})");
  Value hop;
  hop.Set("a", Value(ValueMap{{"x", Value(5)}, {"y", Value(2)}}));
  rewrite.ApplyRewrite(hop);
  EXPECT_EQ(hop.ToJson(), R"({"a":{"x":5,"z":3}})");
}

// ---- rewrite deltas from every producer, over the full cluster ----

class HeaderRewriteClusterTest : public ::testing::Test {
 protected:
  void Build(ClusterConfig config = {}) {
    config.seed = 515;
    config.apps.lvc.min_quality = 0.0;
    config.apps.lvc.non_friend_quality = 0.0;
    config.apps.lvc.filter_language = false;
    config.apps.lvc.push_interval = Seconds(1);
    cluster_ = std::make_unique<BladerunnerCluster>(config, Topology::OneRegion());
    alice_ = CreateUser(cluster_->tao(), "alice", "en");
    bob_ = CreateUser(cluster_->tao(), "bob", "en");
    MakeFriends(cluster_->tao(), alice_, bob_);
    video_ = CreateVideo(cluster_->tao(), alice_, "v");
    thread_ = CreateThread(cluster_->tao(), {alice_, bob_});
    cluster_->sim().RunFor(Seconds(2));
  }

  void BuildPlaced() {
    ClusterConfig config;
    config.apps.lvc.placement = BrassPlacement::kPopFilterConflate;
    config.burst.pop_placement_enabled = true;
    Build(config);
  }

  std::unique_ptr<DeviceAgent> Device(UserId user) {
    return std::make_unique<DeviceAgent>(cluster_.get(), user, 0, DeviceProfile::kWifi);
  }

  int64_t Counter(const std::string& name) {
    return cluster_->metrics().GetCounter(name).value();
  }

  // The header the stream's BRASS host holds (nullptr: no host has it).
  const Value* ServerHeader(const DeviceAgent& device, uint64_t sid) {
    const StreamKey key{device.user(), sid};
    for (size_t i = 0; i < cluster_->NumBrassHosts(); ++i) {
      if (ServerStream* stream = cluster_->brass_host(i).burst()->FindStream(key)) {
        return &stream->header();
      }
    }
    return nullptr;
  }

  // The client, and every POP and proxy that stores the stream (at least
  // one of each), hold the header the BRASS host holds.
  void ExpectEveryHopHoldsTheServerHeader(DeviceAgent& device, uint64_t sid) {
    const StreamKey key{device.user(), sid};
    const Value* server = ServerHeader(device, sid);
    ASSERT_NE(server, nullptr);
    const Value* client = device.burst().HeaderOf(sid);
    ASSERT_NE(client, nullptr);
    EXPECT_EQ(*client, *server);
    int pops = 0;
    for (size_t i = 0; i < cluster_->NumPops(); ++i) {
      if (const Value* header = cluster_->pop(i).HeaderOf(key)) {
        EXPECT_EQ(*header, *server) << "POP " << i;
        pops += 1;
      }
    }
    int proxies = 0;
    for (size_t i = 0; i < cluster_->NumProxies(); ++i) {
      if (const Value* header = cluster_->proxy(i).HeaderOf(key)) {
        EXPECT_EQ(*header, *server) << "proxy " << i;
        proxies += 1;
      }
    }
    EXPECT_GE(pops, 1);
    EXPECT_GE(proxies, 1);
  }

  std::unique_ptr<BladerunnerCluster> cluster_;
  UserId alice_ = 0;
  UserId bob_ = 0;
  ObjectId video_ = 0;
  ObjectId thread_ = 0;
};

TEST_F(HeaderRewriteClusterTest, StreamStartRewriteReachesEveryHop) {
  Build();
  auto device = Device(alice_);
  uint64_t sid = device->SubscribeTyping(thread_);
  cluster_->sim().RunFor(Seconds(3));
  const Value* server = ServerHeader(*device, sid);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(StreamHeaderView(*server).brass_host(), 0);
  EXPECT_FALSE(StreamHeaderView(*server).durable());
  EXPECT_FALSE(StreamHeaderView(*server).has_resume_token());
  ExpectEveryHopHoldsTheServerHeader(*device, sid);
}

TEST_F(HeaderRewriteClusterTest, DurableStreamStartRewriteReachesEveryHop) {
  Build();
  auto device = Device(alice_);
  uint64_t sid = device->SubscribeTicker(1);
  cluster_->sim().RunFor(Seconds(3));
  const Value* server = ServerHeader(*device, sid);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(StreamHeaderView(*server).brass_host(), 0);
  EXPECT_TRUE(StreamHeaderView(*server).durable());
  EXPECT_TRUE(StreamHeaderView(*server).has_resume_token());
  ExpectEveryHopHoldsTheServerHeader(*device, sid);
}

TEST_F(HeaderRewriteClusterTest, DurableTokenRewriteReachesEveryHop) {
  Build();
  auto device = Device(alice_);
  uint64_t sid = device->SubscribeTicker(1);
  cluster_->sim().RunFor(Seconds(3));
  const int64_t interval =
      static_cast<int64_t>(cluster_->config().brass.durable_log.token_rewrite_interval);
  for (int64_t tick = 1; tick <= 2 * interval; ++tick) {
    PublishSpec spec;
    spec.topic = TickerTopic(1);
    spec.metadata.Set("tick", tick);
    cluster_->was(0).PublishNow(spec, cluster_->sim().Now());
    cluster_->sim().RunFor(Millis(100));
  }
  cluster_->sim().RunFor(Seconds(3));
  EXPECT_EQ(Counter("brass.durable_token_rewrites"), 2);
  const Value* server = ServerHeader(*device, sid);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(StreamHeaderView(*server).resume_token(), 2 * interval);
  ExpectEveryHopHoldsTheServerHeader(*device, sid);
}

TEST_F(HeaderRewriteClusterTest, MessengerProgressRewriteReachesEveryHop) {
  Build();
  auto receiver = Device(alice_);
  auto sender = Device(bob_);
  uint64_t sid = receiver->SubscribeMailbox(0);
  cluster_->sim().RunFor(Seconds(3));
  for (int i = 1; i <= 2; ++i) {
    sender->SendMessage(thread_, "m" + std::to_string(i));
    cluster_->sim().RunFor(Seconds(3));
    ASSERT_EQ(receiver->last_messenger_seq(), static_cast<uint64_t>(i));
    const Value* server = ServerHeader(*receiver, sid);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(StreamHeaderView(*server).resume_token(), i);
    ExpectEveryHopHoldsTheServerHeader(*receiver, sid);
  }
}

// A stream start sends one response frame down the backbone: 24 B of frame
// and 8 B of delta around the patch, which only names the sticky host.
TEST_F(HeaderRewriteClusterTest, StreamStartCostsOnePatchOnTheBackbone) {
  Build();
  auto device = Device(alice_);
  uint64_t sid = device->SubscribeTyping(thread_);
  const Value subscribed = *device->burst().HeaderOf(sid);
  const int64_t bytes_before = Counter("burst.pop_backbone_bytes_down");
  const int64_t pushes_before = Counter("burst.server_pushes");
  cluster_->sim().RunFor(Seconds(3));
  const Value* server = ServerHeader(*device, sid);
  ASSERT_NE(server, nullptr);
  const Value patch = Delta::Rewrite(subscribed, *server).rewrite.patch;
  EXPECT_EQ(patch.ToJson(),
            R"({"brass_host":)" + std::to_string(StreamHeaderView(*server).brass_host()) + "}");
  EXPECT_EQ(Counter("burst.server_pushes") - pushes_before, 1);
  EXPECT_EQ(Counter("burst.pop_backbone_bytes_down") - bytes_before,
            static_cast<int64_t>(24 + 8 + patch.WireSize()));
}

// The POP stamps `placement` on the subscribe it forwards, so the host,
// proxy and POP hold it; the client never saw it and the rewrite's patch
// does not name it, so the client gains the sticky host but not the stamp.
TEST_F(HeaderRewriteClusterTest, PlacedStreamClientGainsBrassHostButNotPlacement) {
  BuildPlaced();
  auto device = Device(alice_);
  uint64_t sid = device->SubscribeLvc(video_);
  cluster_->sim().RunFor(Seconds(3));
  const Value* server = ServerHeader(*device, sid);
  ASSERT_NE(server, nullptr);
  EXPECT_NE(StreamHeaderView(*server).placement(), 0);
  const Value* client = device->burst().HeaderOf(sid);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(StreamHeaderView(*client).brass_host(), StreamHeaderView(*server).brass_host());
  EXPECT_EQ(StreamHeaderView(*client).placement(), 0);
  EXPECT_EQ(*client, std::move(StreamHeader(*server).set_placement(0)).Take());
  const StreamKey key{device->user(), sid};
  EXPECT_EQ(*cluster_->pop(0).HeaderOf(key), *server);
}

// A resubscribe through a placement-incapable POP carries the client's
// unstamped header, so the stream falls back to regional processing, and
// every hop then holds one header again.
TEST_F(HeaderRewriteClusterTest, ResubscribeThroughIncapablePopFallsBackToRegional) {
  BuildPlaced();
  ASSERT_GE(cluster_->NumPops(), 2u);
  cluster_->pop(1).set_placement_enabled(false);
  auto viewer = Device(alice_);
  auto poster = Device(bob_);
  uint64_t sid = viewer->SubscribeLvc(video_);
  cluster_->sim().RunFor(Seconds(3));
  ASSERT_NE(cluster_->pop(0).HeaderOf(StreamKey{viewer->user(), sid}), nullptr);

  cluster_->pop(0).FailPop();
  cluster_->sim().RunFor(Seconds(10));
  const Value* server = ServerHeader(*viewer, sid);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(StreamHeaderView(*server).placement(), 0);
  EXPECT_NE(StreamHeaderView(*server).brass_host(), 0);
  ExpectEveryHopHoldsTheServerHeader(*viewer, sid);

  const int64_t regional_before = Counter("brass.deliveries");
  poster->PostComment(video_, "after failover", "en");
  cluster_->sim().RunFor(Seconds(15));
  EXPECT_GT(Counter("brass.deliveries"), regional_before);
  EXPECT_GE(viewer->payloads_received(), 1u);
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
  TraceCollector trace;
  BurstClient client(&sim, 100, connector, &observer, config, &metrics, &trace);

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
  BurstClient client(&sim_, 200, handshake, &observer, config_, &metrics_, &trace_);
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

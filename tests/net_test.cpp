// Unit tests for the simulated network: connections (ordering, close/fail
// semantics, failure-detection delay), RPC (latency, unavailability,
// timeout), latency models, and topology.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/connection.h"
#include "src/net/latency.h"
#include "src/net/rpc.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace bladerunner {
namespace {

struct TextMessage : Message {
  explicit TextMessage(std::string t) : text(std::move(t)) {}
  std::string text;
};

class RecordingHandler : public ConnectionHandler {
 public:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override {
    (void)on;
    received.push_back(std::static_pointer_cast<TextMessage>(message)->text);
  }
  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override {
    (void)on;
    disconnects.push_back(reason);
  }
  std::vector<std::string> received;
  std::vector<DisconnectReason> disconnects;
};

TEST(ConnectionTest, DeliversMessagesAfterLatency) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(10.0));
  RecordingHandler handler_b;
  b->set_handler(&handler_b);
  a->Send(std::make_shared<TextMessage>("hi"));
  sim.RunFor(Millis(9));
  EXPECT_TRUE(handler_b.received.empty());
  sim.RunFor(Millis(2));
  ASSERT_EQ(handler_b.received.size(), 1u);
  EXPECT_EQ(handler_b.received[0], "hi");
}

TEST(ConnectionTest, InOrderDeliveryDespiteJitter) {
  Simulator sim;
  LatencyModel jittery{10.0, 0.9, 1.0};  // heavy jitter
  auto [a, b] = CreateConnection(&sim, jittery);
  RecordingHandler handler_b;
  b->set_handler(&handler_b);
  for (int i = 0; i < 50; ++i) {
    a->Send(std::make_shared<TextMessage>(std::to_string(i)));
  }
  sim.Run();
  ASSERT_EQ(handler_b.received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(handler_b.received[static_cast<size_t>(i)], std::to_string(i));
  }
}

TEST(ConnectionTest, BidirectionalTraffic) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(5.0));
  RecordingHandler handler_a;
  RecordingHandler handler_b;
  a->set_handler(&handler_a);
  b->set_handler(&handler_b);
  a->Send(std::make_shared<TextMessage>("to-b"));
  b->Send(std::make_shared<TextMessage>("to-a"));
  sim.Run();
  ASSERT_EQ(handler_a.received.size(), 1u);
  ASSERT_EQ(handler_b.received.size(), 1u);
  EXPECT_EQ(handler_a.received[0], "to-a");
  EXPECT_EQ(handler_b.received[0], "to-b");
}

TEST(ConnectionTest, GracefulCloseDrainsInFlight) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(10.0));
  RecordingHandler handler_b;
  b->set_handler(&handler_b);
  a->Send(std::make_shared<TextMessage>("last"));
  a->Close();
  sim.Run();
  ASSERT_EQ(handler_b.received.size(), 1u);  // the in-flight message arrived
  ASSERT_EQ(handler_b.disconnects.size(), 1u);
  EXPECT_EQ(handler_b.disconnects[0], DisconnectReason::kPeerClose);
}

// An abrupt failure loses what travels toward the failed end and what it
// would still send; messages already in flight toward the survivor land
// before it observes the failure (§4: each side learns on its own).
TEST(ConnectionTest, AbruptFailureDropsInFlight) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(10.0), Millis(100));
  RecordingHandler handler_a;
  RecordingHandler handler_b;
  a->set_handler(&handler_a);
  b->set_handler(&handler_b);
  a->Send(std::make_shared<TextMessage>("toward the survivor"));
  b->Send(std::make_shared<TextMessage>("toward the failed end"));
  a->Fail();
  a->Send(std::make_shared<TextMessage>("after the failure"));
  sim.RunFor(Millis(50));
  b->Send(std::make_shared<TextMessage>("before b observes the failure"));
  sim.Run();
  EXPECT_TRUE(handler_a.received.empty());  // §4: drops are real
  EXPECT_TRUE(handler_a.disconnects.empty());  // a failed itself; nothing tells it
  EXPECT_EQ(handler_b.received, std::vector<std::string>{"toward the survivor"});
  ASSERT_EQ(handler_b.disconnects.size(), 1u);
  EXPECT_EQ(handler_b.disconnects[0], DisconnectReason::kPeerFailure);
}

TEST(ConnectionTest, FailureDetectionDelayApplies) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(1.0), Millis(500));
  RecordingHandler handler_b;
  b->set_handler(&handler_b);
  a->Fail();
  sim.RunFor(Millis(499));
  EXPECT_TRUE(handler_b.disconnects.empty());
  sim.RunFor(Millis(2));
  EXPECT_EQ(handler_b.disconnects.size(), 1u);
}

TEST(ConnectionTest, SendAfterCloseIsDropped) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(1.0));
  RecordingHandler handler_b;
  b->set_handler(&handler_b);
  a->Close();
  a->Send(std::make_shared<TextMessage>("too late"));
  b->Send(std::make_shared<TextMessage>("also too late"));
  sim.Run();
  EXPECT_TRUE(handler_b.received.empty());
}

// open() is each end's own view: the end that closes or fails turns false
// at once, its peer only when the news reaches it.
TEST(ConnectionTest, OpenReflectsState) {
  Simulator sim;
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(1.0), Millis(100));
  EXPECT_TRUE(a->open());
  EXPECT_TRUE(b->open());
  a->Close();
  EXPECT_FALSE(a->open());
  EXPECT_TRUE(b->open());
  sim.RunFor(Millis(2));
  EXPECT_FALSE(b->open());

  auto [c, d] = CreateConnection(&sim, LatencyModel::Fixed(1.0), Millis(100));
  c->Fail();
  EXPECT_FALSE(c->open());
  sim.RunFor(Millis(99));
  EXPECT_TRUE(d->open());
  sim.RunFor(Millis(2));
  EXPECT_FALSE(d->open());
}

// Logs what reaches one end, stamped with the receiving LP's clock.
class TimedHandler : public ConnectionHandler {
 public:
  explicit TimedHandler(Simulator* sim) : sim_(sim) {}
  void OnMessage(ConnectionEnd&, MessagePtr message) override {
    log.push_back(std::to_string(sim_->Now()) + " " +
                  std::static_pointer_cast<TextMessage>(message)->text);
  }
  void OnDisconnect(ConnectionEnd&, DisconnectReason reason) override {
    log.push_back(std::to_string(sim_->Now()) + " " + ToString(reason));
  }
  std::vector<std::string> log;

 private:
  Simulator* sim_;
};

// One scripted program on one connection whose ends sit in LPs `lp_a` and
// `lp_b`: traffic both ways, an abrupt failure of `a` with messages in
// flight each way, and sends from both ends after `a` is down. Each action
// runs in the LP of the end it acts on. Returns {a's log, b's log}.
std::pair<std::vector<std::string>, std::vector<std::string>> RunConnectionScript(
    Simulator& sim, LpId lp_a, LpId lp_b) {
  auto [a, b] = CreateConnection(&sim, LatencyModel::Fixed(10.0), Millis(30));
  a->BindLp(lp_a);
  b->BindLp(lp_b);
  TimedHandler handler_a(&sim);
  TimedHandler handler_b(&sim);
  a->set_handler(&handler_a);
  b->set_handler(&handler_b);
  auto send = [](const std::shared_ptr<ConnectionEnd>& end, const std::string& text) {
    return [end, text]() { end->Send(std::make_shared<TextMessage>(text)); };
  };
  sim.ScheduleAt(lp_a, Millis(0), send(a, "a1"));
  sim.ScheduleAt(lp_b, Millis(1), send(b, "b1"));
  sim.ScheduleAt(lp_a, Millis(12), send(a, "a2"));   // b has a1 by now
  sim.ScheduleAt(lp_b, Millis(13), send(b, "b2"));
  sim.ScheduleAt(lp_a, Millis(15), [a = a]() { a->Fail(); });  // a2, b2 in flight
  sim.ScheduleAt(lp_a, Millis(16), send(a, "a3"));   // after its own failure
  sim.ScheduleAt(lp_b, Millis(20), send(b, "b3"));   // toward the failed end
  sim.ScheduleAt(lp_b, Millis(50), send(b, "b4"));   // after b observed it
  sim.Run();
  return {handler_a.log, handler_b.log};
}

// The connection rules do not depend on the LP layout: the same program
// gives the same deliveries, disconnect reasons and times with both ends in
// one LP as with the ends in two LPs of a partitioned simulator.
TEST(ConnectionTest, OneModelAtEveryLpLayout) {
  Simulator one_lp(7);
  auto [one_a, one_b] = RunConnectionScript(one_lp, kGlobalLp, kGlobalLp);

  SimParallelOptions options;
  options.num_lps = 3;
  options.lookahead = Millis(5);
  Simulator three_lps(7, options);
  auto [split_a, split_b] = RunConnectionScript(three_lps, LpId(1), LpId(2));

  const std::vector<std::string> want_a = {"11000 b1"};
  const std::vector<std::string> want_b = {"10000 a1", "22000 a2", "45000 peer-failure"};
  EXPECT_EQ(one_a, want_a);
  EXPECT_EQ(one_b, want_b);
  EXPECT_EQ(split_a, one_a);
  EXPECT_EQ(split_b, one_b);
  EXPECT_GT(three_lps.cross_lp_sends(), 0u);
}

TEST(ConnectionTest, UniqueConnectionIds) {
  Simulator sim;
  auto [a1, b1] = CreateConnection(&sim, LatencyModel::Fixed(1.0));
  auto [a2, b2] = CreateConnection(&sim, LatencyModel::Fixed(1.0));
  EXPECT_NE(a1->connection_id(), a2->connection_id());
  EXPECT_EQ(a1->connection_id(), b1->connection_id());
}

TEST(RpcTest, RoundTripLatency) {
  Simulator sim;
  RpcServer server;
  server.RegisterMethod("echo", [](MessagePtr request, RpcServer::Respond respond) {
    respond(request);
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(10.0));
  SimTime completed_at = 0;
  channel.Call("echo", std::make_shared<TextMessage>("x"),
               [&](RpcStatus status, MessagePtr response) {
                 EXPECT_EQ(status, RpcStatus::kOk);
                 EXPECT_EQ(std::static_pointer_cast<TextMessage>(response)->text, "x");
                 completed_at = sim.Now();
               });
  sim.Run();
  EXPECT_EQ(completed_at, Millis(20));  // 10ms each way
}

TEST(RpcTest, UnavailableServer) {
  Simulator sim;
  RpcServer server;
  server.RegisterMethod("m", [](MessagePtr, RpcServer::Respond respond) {
    respond(nullptr);
  });
  server.SetAvailable(false);
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  RpcStatus got = RpcStatus::kOk;
  channel.Call("m", std::make_shared<TextMessage>(""), [&](RpcStatus status, MessagePtr) {
    got = status;
  });
  sim.Run();
  EXPECT_EQ(got, RpcStatus::kUnavailable);
}

TEST(RpcTest, TimeoutFiresWhenServerHangs) {
  Simulator sim;
  RpcServer server;
  server.RegisterMethod("hang", [](MessagePtr, RpcServer::Respond) {
    // never responds
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  RpcStatus got = RpcStatus::kOk;
  int calls = 0;
  channel.Call(
      "hang", std::make_shared<TextMessage>(""),
      [&](RpcStatus status, MessagePtr) {
        got = status;
        ++calls;
      },
      Seconds(1));
  sim.Run();
  EXPECT_EQ(got, RpcStatus::kTimeout);
  EXPECT_EQ(calls, 1);
}

TEST(RpcTest, CallbackInvokedExactlyOnceWhenResponseRacesTimeout) {
  Simulator sim;
  RpcServer server;
  server.RegisterMethod("slow", [&sim](MessagePtr request, RpcServer::Respond respond) {
    sim.Schedule(Millis(100), [request, respond]() { respond(request); });
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  int calls = 0;
  channel.Call(
      "slow", std::make_shared<TextMessage>(""),
      [&](RpcStatus, MessagePtr) { ++calls; }, Millis(105));
  sim.Run();
  EXPECT_EQ(calls, 1);
}

// A call that completes long before its deadline releases the callback and
// everything it captures at completion; the deadline event still fires (it
// is part of the event count) but holds only the finished call's state.
TEST(RpcTest, CompletedCallReleasesItsCallbackBeforeTheDeadline) {
  Simulator sim;
  RpcServer server;
  server.RegisterMethod("echo", [](MessagePtr request, RpcServer::Respond respond) {
    respond(request);
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  auto capture = std::make_shared<int>(0);
  std::weak_ptr<int> watch = capture;
  int calls = 0;
  channel.Call(
      "echo", std::make_shared<TextMessage>("x"),
      [capture = std::move(capture), &calls](RpcStatus status, MessagePtr) {
        EXPECT_EQ(status, RpcStatus::kOk);
        ++calls;
      },
      Seconds(3));
  sim.RunFor(Millis(20));  // the reply arrives at 10 ms
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(watch.expired()) << "the completed call still holds its callback's captures";
  EXPECT_EQ(sim.PendingEvents(), 1u);  // the deadline, still to fire
  const uint64_t before = sim.events_executed();
  sim.Run();
  EXPECT_EQ(sim.events_executed(), before + 1);
  EXPECT_EQ(calls, 1);
}

TEST(RpcTest, ServerGoingDownMidCallDropsResponse) {
  Simulator sim;
  RpcServer server;
  RpcServer::Respond saved;
  server.RegisterMethod("m", [&saved](MessagePtr, RpcServer::Respond respond) {
    saved = std::move(respond);
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  RpcStatus got = RpcStatus::kOk;
  channel.Call(
      "m", std::make_shared<TextMessage>(""),
      [&](RpcStatus status, MessagePtr) { got = status; }, Seconds(2));
  sim.RunFor(Millis(20));
  server.SetAvailable(false);
  saved(std::make_shared<TextMessage>("never-seen"));
  sim.Run();
  EXPECT_EQ(got, RpcStatus::kTimeout);  // only the timeout fires
}

TEST(RpcTest, ServerRestartingMidCallDropsStaleResponse) {
  // A server that goes down and comes back before its handler responds is a
  // new incarnation: the old incarnation's in-flight work must not leak out
  // as a response after the restart (regression for KV crash/recovery —
  // without the incarnation check the down-then-up window is invisible).
  Simulator sim;
  RpcServer server;
  RpcServer::Respond saved;
  server.RegisterMethod("m", [&saved](MessagePtr, RpcServer::Respond respond) {
    saved = std::move(respond);
  });
  RpcChannel channel(&sim, &server, LatencyModel::Fixed(5.0));
  RpcStatus got = RpcStatus::kOk;
  channel.Call(
      "m", std::make_shared<TextMessage>(""),
      [&](RpcStatus status, MessagePtr) { got = status; }, Seconds(2));
  sim.RunFor(Millis(20));
  server.SetAvailable(false);
  server.SetAvailable(true);  // restarted: available again, new incarnation
  saved(std::make_shared<TextMessage>("stale"));
  sim.Run();
  EXPECT_EQ(got, RpcStatus::kTimeout);  // the stale response never arrives
}

TEST(RpcTest, RetargetPointsNewCallsAtNewServer) {
  Simulator sim;
  RpcServer server1;
  RpcServer server2;
  int hits1 = 0;
  int hits2 = 0;
  server1.RegisterMethod("m", [&](MessagePtr, RpcServer::Respond respond) {
    ++hits1;
    respond(nullptr);
  });
  server2.RegisterMethod("m", [&](MessagePtr, RpcServer::Respond respond) {
    ++hits2;
    respond(nullptr);
  });
  RpcChannel channel(&sim, &server1, LatencyModel::Fixed(1.0));
  channel.Call("m", std::make_shared<TextMessage>(""), [](RpcStatus, MessagePtr) {});
  channel.Retarget(&server2);
  channel.Call("m", std::make_shared<TextMessage>(""), [](RpcStatus, MessagePtr) {});
  sim.Run();
  EXPECT_EQ(hits1, 1);
  EXPECT_EQ(hits2, 1);
}

TEST(LatencyTest, FixedModelIsExact) {
  Simulator sim;
  LatencyModel fixed = LatencyModel::Fixed(7.5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fixed.Sample(sim.rng()), MillisF(7.5));
  }
}

TEST(LatencyTest, SamplesRespectFloor) {
  Simulator sim;
  LatencyModel model{10.0, 1.0, 8.0};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.Sample(sim.rng()), MillisF(8.0));
  }
}

TEST(LatencyTest, MedianRoughlyMatches) {
  Simulator sim;
  LatencyModel model = LatencyModel::LastMile4g();
  std::vector<SimTime> samples;
  for (int i = 0; i < 10001; ++i) {
    samples.push_back(model.Sample(sim.rng()));
  }
  std::nth_element(samples.begin(), samples.begin() + 5000, samples.end());
  EXPECT_NEAR(ToMillis(samples[5000]), model.median_ms, model.median_ms * 0.1);
}

TEST(TopologyTest, ThreeRegionsShape) {
  Topology topo = Topology::ThreeRegions();
  EXPECT_EQ(topo.num_regions(), 3);
  EXPECT_EQ(topo.region_name(0), "americas");
}

TEST(TopologyTest, IntraVsCrossRegionLatency) {
  Topology topo = Topology::ThreeRegions();
  LatencyModel intra = topo.LinkModel(0, 0);
  LatencyModel cross = topo.LinkModel(0, 2);
  EXPECT_LT(intra.median_ms, 1.0);
  EXPECT_GT(cross.median_ms, 50.0);
}

TEST(TopologyTest, ProfileMixCoversAllProfiles) {
  Topology topo = Topology::ThreeRegions();
  Rng rng(1);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    counts[static_cast<int>(topo.SampleProfile(rng))] += 1;
  }
  EXPECT_GT(counts[0], 0);  // wifi
  EXPECT_GT(counts[1], 0);  // 4g
  EXPECT_GT(counts[2], 0);  // 2g
  EXPECT_GT(counts[0], counts[2]);  // wifi outnumbers 2g
}

TEST(TopologyTest, MtbfOrderedByProfileQuality) {
  Topology topo = Topology::ThreeRegions();
  EXPECT_GT(topo.LastMileMtbf(DeviceProfile::kWifi), topo.LastMileMtbf(DeviceProfile::kMobile4g));
  EXPECT_GT(topo.LastMileMtbf(DeviceProfile::kMobile4g),
            topo.LastMileMtbf(DeviceProfile::kMobile2g));
}

}  // namespace
}  // namespace bladerunner

// The baseline data-freshness architectures Bladerunner is evaluated
// against (§2): client-side polling, server-side polling agents, and
// pub/sub-triggered polling (Thialfi-style).
//
// All three are instantiated for the LiveVideoComments workload, which is
// the application the paper uses to compare approaches (Fig. 6, §1's 10x
// switchover numbers).

#ifndef BLADERUNNER_SRC_BASELINE_POLLING_H_
#define BLADERUNNER_SRC_BASELINE_POLLING_H_

#include <memory>
#include <set>
#include <string>

#include "src/core/cluster.h"
#include "src/net/rpc.h"
#include "src/pylon/messages.h"
#include "src/sim/metrics.h"
#include "src/tao/types.h"

namespace bladerunner {

// ---- client-side polling (§2 "Client-side polling", Fig. 1) ----
//
// The device polls the WAS over the last mile at a fixed interval with the
// range query "comments on V since my watermark". Most polls return
// nothing (Table 1); each one still pays the range-read cost at TAO.
class LvcPollingClient {
 public:
  LvcPollingClient(BladerunnerCluster* cluster, UserId user, RegionId region,
                   DeviceProfile profile, ObjectId video, SimTime interval);
  ~LvcPollingClient();

  void Start();
  void Stop();

  uint64_t polls() const { return polls_; }
  uint64_t empty_polls() const { return empty_polls_; }
  uint64_t comments_seen() const { return comments_seen_; }

 private:
  void PollOnce();
  void ScheduleNext();

  BladerunnerCluster* cluster_;
  SimContext ctx_;  // the global LP: baselines run in one-LP clusters
  UserId user_;
  ObjectId video_;
  SimTime interval_;
  Counter* polls_counter_;  // resolved once at construction (docs/PERF.md)
  Counter* empty_polls_counter_;
  Histogram* latency_us_;
  std::unique_ptr<RpcChannel> channel_;
  bool running_ = false;
  TimerId timer_ = kInvalidTimerId;
  SimTime watermark_ = 0;  // newest comment time seen so far
  std::set<ObjectId> seen_;
  uint64_t polls_ = 0;
  uint64_t empty_polls_ = 0;
  uint64_t comments_seen_ = 0;
};

// ---- server-side polling (§2 "Server-side polling") ----
//
// A backend agent polls the WAS from inside the datacenter on the client's
// behalf and pushes new comments to the device over a persistent
// connection (modeled as a last-mile delivery delay). Client and last-mile
// overheads shrink; the backend query load does not.
class LvcServerPollAgent {
 public:
  LvcServerPollAgent(BladerunnerCluster* cluster, UserId user, RegionId region,
                     DeviceProfile profile, ObjectId video, SimTime interval);
  ~LvcServerPollAgent();

  void Start();
  void Stop();

  uint64_t polls() const { return polls_; }
  uint64_t empty_polls() const { return empty_polls_; }
  uint64_t comments_pushed() const { return comments_pushed_; }

 private:
  void PollOnce();
  void ScheduleNext();

  BladerunnerCluster* cluster_;
  SimContext ctx_;  // the global LP: baselines run in one-LP clusters
  UserId user_;
  ObjectId video_;
  SimTime interval_;
  LatencyModel last_mile_;
  Counter* polls_counter_;  // resolved once at construction (docs/PERF.md)
  Counter* pushed_counter_;
  Counter* empty_polls_counter_;
  Histogram* latency_us_;
  std::unique_ptr<RpcChannel> channel_;  // intra-DC to the WAS
  bool running_ = false;
  TimerId timer_ = kInvalidTimerId;
  SimTime watermark_ = 0;
  std::set<ObjectId> seen_;
  uint64_t polls_ = 0;
  uint64_t empty_polls_ = 0;
  uint64_t comments_pushed_ = 0;
};

// ---- pub/sub triggering (§2 "Pub/Sub triggering", Thialfi-style) ----
//
// A notification service subscribes to the video's topic; when an update
// event arrives it pokes the device ("something changed"), and only then
// does the device poll. Empty polls vanish, but the triggered poll still
// pays the range/intersect query cost and the notification round trip.
class LvcTriggerClient {
 public:
  LvcTriggerClient(BladerunnerCluster* cluster, UserId user, RegionId region,
                   DeviceProfile profile, ObjectId video, int64_t notifier_host_id);
  ~LvcTriggerClient();

  void Start();
  void Stop();

  uint64_t notifications() const { return notifications_; }
  uint64_t polls() const { return polls_; }
  uint64_t comments_seen() const { return comments_seen_; }

 private:
  void OnNotified();
  void PollOnce();

  BladerunnerCluster* cluster_;
  SimContext ctx_;  // the global LP: baselines run in one-LP clusters
  UserId user_;
  ObjectId video_;
  LatencyModel last_mile_;
  Counter* notifications_counter_;  // resolved once at construction (docs/PERF.md)
  Counter* polls_counter_;
  Histogram* latency_us_;
  int64_t notifier_host_id_;
  RpcServer notify_rpc_;  // receives Pylon event deliveries
  std::unique_ptr<RpcChannel> poll_channel_;
  bool running_ = false;
  bool poll_in_flight_ = false;
  bool poll_again_ = false;
  SimTime watermark_ = 0;
  std::set<ObjectId> seen_;
  uint64_t notifications_ = 0;
  uint64_t polls_ = 0;
  uint64_t comments_seen_ = 0;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BASELINE_POLLING_H_

// ActiveStatus: shows which of a user's friends are currently online (§3.4).
//
// Devices heartbeat ONLINE every 30 s; the WAS publishes /AS/<uid>. A
// stream subscribes (via the host subscription manager) to /AS/<friend> for
// every friend. The BRASS maintains a per-stream map of online friends with
// a 30 s TTL and pushes *batched* diffs periodically — pushing batches only
// periodically prevents the device from receiving too many updates.

#ifndef BLADERUNNER_SRC_APPS_ACTIVE_STATUS_H_
#define BLADERUNNER_SRC_APPS_ACTIVE_STATUS_H_

#include <map>

#include "src/brass/application.h"
#include "src/brass/runtime.h"

namespace bladerunner {

struct ActiveStatusConfig {
  SimTime online_ttl = Seconds(45);  // heartbeats every 30s; margin avoids flapping
  SimTime batch_interval = Seconds(10);
};

class ActiveStatusApp : public BrassApplication {
 public:
  ActiveStatusApp(BrassRuntime& runtime, ActiveStatusConfig config);

  void OnStreamStarted(BrassStream& stream) override;
  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(ActiveStatusConfig config = {});
  // QoS: batches are stateful online/offline diffs, so they never conflate;
  // a delayed batch self-heals on the next interval.
  static BrassAppDescriptor Descriptor();

 private:
  // One viewer's state, on its stream's entry. The batch timer is armed
  // from OnStreamStarted on, and is cancelled as the state is destroyed.
  struct ViewerState : BrassStreamState {
    explicit ViewerState(SimContext ctx) : ctx(ctx) {}
    ~ViewerState() override { ctx.Cancel(batch_timer); }

    SimContext ctx;
    std::map<UserId, SimTime> last_seen;   // friend -> last heartbeat
    std::map<UserId, TraceContext> last_trace;  // friend -> heartbeat's trace
    std::map<UserId, bool> last_pushed;    // friend -> online as last told
    TimerId batch_timer = kInvalidTimerId;
  };

  void ScheduleBatch(BrassStream& stream);
  void PushBatch(BrassStream& stream);

  ActiveStatusConfig config_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_ACTIVE_STATUS_H_

// Device-side BURST endpoint.
//
// One BurstClient lives on each simulated device. It multiplexes all the
// device's request-streams (typically 10+ concurrent, §3) over a single
// connection to a POP, keeps the current (possibly rewritten) subscription
// request of every stream, and transparently reconnects + resubscribes
// after connection drops — the client half of §4's recovery axioms.

#ifndef BLADERUNNER_SRC_BURST_CLIENT_H_
#define BLADERUNNER_SRC_BURST_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/burst/config.h"
#include "src/burst/frames.h"
#include "src/net/connection.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/trace/collector.h"

namespace bladerunner {

class BurstClient : public ConnectionHandler {
 public:
  // Application-facing events. All callbacks refer to streams by sid.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void OnStreamData(uint64_t sid, const Value& payload, uint64_t seq) {
      (void)sid;
      (void)payload;
      (void)seq;
    }
    virtual void OnStreamFlowStatus(uint64_t sid, FlowStatus status, const std::string& detail) {
      (void)sid;
      (void)status;
      (void)detail;
    }
    virtual void OnStreamTerminated(uint64_t sid, TerminateReason reason,
                                    const std::string& detail) {
      (void)sid;
      (void)reason;
      (void)detail;
    }
    virtual void OnConnectionStateChanged(bool connected) { (void)connected; }
  };

  // Asks the infrastructure for a fresh device->POP connection and invokes
  // `done` exactly once with the device-side end (already attached at a
  // POP), or nullptr when no POP is reachable right now. A cluster hops
  // into the POP-owning LP to pick a POP and back — the
  // connection-establishment round trip — so POP selection never reads
  // another LP's state; a test connector may also call `done` inline.
  using ConnectDone = std::function<void(std::shared_ptr<ConnectionEnd>)>;
  using Connector = std::function<void(int64_t device_id, ConnectDone done)>;

  // The client closes the "burst.deliver" span of each traced data delta
  // in `trace` at the moment the device receives it. `ctx` carries the
  // device's LP; a raw Simulator* converts to the global LP.
  BurstClient(SimContext ctx, int64_t device_id, Connector connector, Observer* observer,
              BurstConfig config, MetricsRegistry* metrics, TraceCollector* trace);
  ~BurstClient() override;

  int64_t device_id() const { return device_id_; }
  bool connected() const { return conn_ != nullptr && conn_->open(); }

  // Establishes the POP connection (idempotent).
  void Connect();

  // Graceful shutdown: closes the connection; streams stay subscribed
  // client-side and will resubscribe on the next Connect().
  void Disconnect();

  // Abrupt last-mile loss (radio drop). The client notices via its own
  // connection-failure detection and enters the reconnect loop.
  void SimulateConnectionDrop();

  // Opens a request-stream described by `header` (+ optional opaque body).
  // Returns the client-chosen sid. Subscribes lazily once connected.
  uint64_t Subscribe(Value header, std::string body = "");

  // Terminates a stream.
  void Cancel(uint64_t sid);

  // Acknowledges data deltas up to `seq` on the stream.
  void Ack(uint64_t sid, uint64_t seq);

  // The stream's current header (reflecting server rewrites); nullptr if
  // the sid is unknown. Read fields through StreamHeaderView.
  const Value* HeaderOf(uint64_t sid) const;

  size_t ActiveStreamCount() const { return streams_.size(); }

  // Stops reconnecting (e.g. app backgrounded / user went offline).
  void SetAutoReconnect(bool enabled) { auto_reconnect_ = enabled; }

  // ConnectionHandler:
  void OnMessage(ConnectionEnd& on, MessagePtr message) override;
  void OnDisconnect(ConnectionEnd& on, DisconnectReason reason) override;

 private:
  struct ClientStream {
    Value header;
    std::string body;
    bool subscribed_on_current_conn = false;
    // Set by the first SendSubscribe: from then on the host may hold (or
    // have lost) the stream's state, so a reconnect resubscribes it.
    bool sent = false;
    // Durable-tier state (header carries durable=true): the highest durable
    // log sequence delivered to the app. Replay after a reconnect may
    // overlap the already-delivered suffix; deltas at or below this mark
    // are dropped so each sequence reaches the app exactly once.
    bool durable = false;
    uint64_t last_durable_seq = 0;
  };

  // Sends a client-originated frame, paying the radio-promotion delay if
  // the uplink radio has gone idle.
  void SendFromDevice(MessagePtr frame);

  void SendSubscribe(uint64_t sid, ClientStream& stream, bool resubscribe);
  void ResubscribeAll();
  void ScheduleReconnect();
  // The reconnect backoff: capped exponential with full jitter.
  // `failures` == 0 draws the base [min, max] window; each further failure
  // doubles the upper edge up to config_.reconnect_backoff_cap.
  SimTime DrawBackoff(int failures);
  void HandleResponse(const ResponseFrame& response);

  // Metric handles resolved once at construction (docs/PERF.md).
  struct Metrics {
    Counter* client_cancels;
    Counter* client_data_deltas;
    Counter* client_duplicates_dropped;
    Counter* client_redirects;
    Counter* client_resubscribes;
    Counter* client_subscribes;
    Counter* device_connection_drops;
    Counter* device_observed_disconnects;
    Counter* device_reconnect_attempts;
    Counter* radio_promotions;
    // Fleet-wide open-stream gauge ("burst.active_streams"), so global-LP
    // samplers need not walk device state.
    Gauge* active_streams;
  };

  SimContext ctx_;
  int64_t device_id_;
  Connector connector_;
  Observer* observer_;
  BurstConfig config_;
  MetricsRegistry* metrics_;
  Metrics m_;
  TraceCollector* trace_;

  std::shared_ptr<ConnectionEnd> conn_;
  uint64_t next_sid_ = 1;
  std::map<uint64_t, ClientStream> streams_;
  bool auto_reconnect_ = true;
  bool connect_pending_ = false;  // a Connector request is in flight
  bool reconnect_scheduled_ = false;
  // Consecutive failed connect attempts since the last successful one;
  // drives the exponential reconnect backoff.
  int reconnect_failures_ = 0;
  TimerId reconnect_timer_ = kInvalidTimerId;
  SimTime last_uplink_activity_ = -Days(365);  // long ago: radio starts idle
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_CLIENT_H_

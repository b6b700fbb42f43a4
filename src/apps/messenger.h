// Messenger content delivery: reliable, in-order message delivery built on
// Bladerunner's best-effort substrate (§4).
//
// Every mailbox message carries a consecutive per-mailbox sequence number.
// The BRASS tracks the next expected sequence per stream; gaps (dropped
// publishes) are detected and recovered by polling the mailbox through the
// WAS. Deliveries carry their sequence number; the device acks, and the
// BRASS persists the last-delivered sequence into the stream header via a
// rewrite, so a resubscribe after any failure resumes exactly where the
// device left off — the paper's "Resumption" use of rewrites (§3.5).

#ifndef BLADERUNNER_SRC_APPS_MESSENGER_H_
#define BLADERUNNER_SRC_APPS_MESSENGER_H_

#include <cstdint>
#include <map>

#include "src/brass/application.h"
#include "src/brass/runtime.h"
#include "src/sim/metrics.h"

namespace bladerunner {

struct MessengerConfig {
  // How many delivered-but-unacked messages to retain for redelivery.
  size_t redelivery_buffer = 64;
};

class MessengerApp : public BrassApplication {
 public:
  MessengerApp(BrassRuntime& runtime, MessengerConfig config);

  void OnStreamStarted(BrassStream& stream) override;
  void OnStreamResumed(BrassStream& stream) override;
  void OnStreamClosed(BrassStream& stream) override;
  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;
  void OnAck(BrassStream& stream, uint64_t seq) override;

  static BrassAppFactory Factory(MessengerConfig config = {});
  // QoS: strictly sequenced — never conflated; a deep queue bound absorbs
  // mailbox bursts.
  static BrassAppDescriptor Descriptor();

 private:
  struct PendingMessage {
    Value payload;
    // "brass.process" span, open since the update event arrived; invalid
    // for messages recovered via gap polls (no originating event trace).
    TraceContext span;
  };

  // One mailbox stream's state, on its stream's entry.
  struct MailboxState : BrassStreamState {
    uint64_t next_seq = 1;                 // next sequence to deliver
    std::map<uint64_t, PendingMessage> pending;  // fetched, waiting for their turn
    std::map<uint64_t, Value> unacked;     // delivered, awaiting device ack
    bool recovering = false;               // gap poll in flight
  };

  void FetchAndQueue(BrassStream& stream, const Value& metadata, uint64_t seq,
                     SimTime created_at, TraceContext span);
  void DrainPending(BrassStream& stream);
  void RecoverGap(BrassStream& stream);
  void PersistProgress(BrassStream& stream);

  MessengerConfig config_;
  Counter* redeliveries_;  // resolved once at construction (docs/PERF.md)
  Counter* gaps_detected_;
  Counter* gap_polls_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_MESSENGER_H_

#include "src/apps/messenger.h"

#include <string>

namespace bladerunner {

MessengerApp::MessengerApp(BrassRuntime& runtime, MessengerConfig config)
    : BrassApplication(runtime), config_(config) {
  redeliveries_ = &this->runtime().metrics().GetCounter("messenger.redeliveries");
  gaps_detected_ = &this->runtime().metrics().GetCounter("messenger.gaps_detected");
  gap_polls_ = &this->runtime().metrics().GetCounter("messenger.gap_polls");
}

BrassAppFactory MessengerApp::Factory(MessengerConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<MessengerApp>(runtime, config);
  };
}

BrassAppDescriptor MessengerApp::Descriptor() {
  BrassAppDescriptor descriptor;
  descriptor.name = "Messenger";
  // Mailbox delivery is sequenced and reliable: conflating or shedding a
  // message would force a gap poll, so the queue bound is deep instead.
  descriptor.conflatable = false;
  descriptor.max_pending_per_stream = 64;
  return descriptor;
}

void MessengerApp::OnStreamStarted(BrassStream& stream) {
  MailboxState state;
  state.stream = &stream;
  // Resume point: an explicit resume token (rewritten into the header on
  // every delivery) wins; otherwise the subscription-time mailbox size from
  // the WAS resolution context (the device just polled to that point).
  int64_t resume = StreamHeaderView(stream.stream->header()).resume_token();
  if (resume == 0) {
    resume = stream.context.Get("maxSeq").AsInt(0);
  }
  state.next_seq = static_cast<uint64_t>(resume) + 1;
  mailboxes_[stream.key] = std::move(state);
  // A cold resume may have missed messages entirely; reconcile via poll.
  if (resume > 0) {
    RecoverGap(stream.key);
  }
}

void MessengerApp::OnStreamResumed(BrassStream& stream) {
  auto it = mailboxes_.find(stream.key);
  if (it == mailboxes_.end()) {
    OnStreamStarted(stream);
    return;
  }
  // Redeliver everything the device never acked; deliveries during the
  // detach window were dropped by the transport.
  MailboxState& state = it->second;
  for (auto& [seq, payload] : state.unacked) {
    redeliveries_->Increment();
    DeliverOptions deliver;
    deliver.seq = seq;
    runtime().DeliverData(*state.stream, payload, deliver);
  }
  // And recover anything published while we were detached.
  RecoverGap(stream.key);
}

void MessengerApp::OnStreamClosed(const StreamKey& key) {
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end()) {
    return;
  }
  for (auto& [seq, pending] : it->second.pending) {
    runtime().AnnotateSpan(pending.span, "outcome", Value("stream_closed"));
    runtime().EndSpan(pending.span);
  }
  mailboxes_.erase(it);
}

void MessengerApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                           const std::vector<BrassStream*>& streams) {
  (void)topic;
  uint64_t seq = event.seq != 0
                     ? event.seq
                     : static_cast<uint64_t>(event.metadata.Get("seq").AsInt(0));
  for (BrassStream* stream : streams) {
    auto it = mailboxes_.find(stream->key);
    if (it == mailboxes_.end()) {
      continue;
    }
    MailboxState& state = it->second;
    if (seq < state.next_seq) {
      runtime().CountDecision(false);  // duplicate / already delivered
      continue;
    }
    runtime().CountDecision(true);
    if (seq > state.next_seq && !state.recovering) {
      // Gap: an earlier publish was dropped somewhere. Detect + recover by
      // polling the mailbox through the WAS (§4's Messenger design).
      gaps_detected_->Increment();
      RecoverGap(stream->key);
    }
    FetchAndQueue(stream->key, event.metadata, seq, event.created_at,
                  runtime().StartSpan(event.trace, "brass.process"));
  }
}

void MessengerApp::FetchAndQueue(const StreamKey& key, const Value& metadata, uint64_t seq,
                                 SimTime created_at, TraceContext span) {
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end()) {
    runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
    runtime().EndSpan(span);
    return;
  }
  UserId viewer = it->second.stream->viewer;
  // Mailbox payloads are per-viewer sequenced state: reliable delivery
  // requires observing the WAS directly, never a shared cached payload.
  runtime().FetchPayload(
      metadata, FetchOptions{.viewer = viewer, .parent = span, .bypass_cache = true},
      [this, key, seq, created_at, span](bool allowed, Value payload) {
        auto it2 = mailboxes_.find(key);
        if (it2 == mailboxes_.end()) {
          runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
          runtime().EndSpan(span);
          return;
        }
        if (seq < it2->second.next_seq) {
          // A concurrent gap poll recovered and delivered
          // this sequence while the fetch was in flight; a
          // stale insert would wedge the drain queue.
          runtime().AnnotateSpan(span, "outcome", Value("superseded"));
          runtime().EndSpan(span);
          return;
        }
        if (!allowed) {
          // Privacy-suppressed content still consumes its
          // sequence slot (the mailbox entry exists).
          payload = Value(ValueMap{});
          payload.Set("__type", "Message");
          payload.Set("suppressed", true);
        }
        payload.Set("_createdAtEvent", created_at);
        it2->second.pending[seq] = PendingMessage{std::move(payload), span};
        DrainPending(key);
      });
}

void MessengerApp::DrainPending(const StreamKey& key) {
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end()) {
    return;
  }
  MailboxState& state = it->second;
  // Defensively drop stale heads (sequences another recovery path already
  // delivered); they must never block newer pending messages.
  while (!state.pending.empty() && state.pending.begin()->first < state.next_seq) {
    runtime().AnnotateSpan(state.pending.begin()->second.span, "outcome", Value("superseded"));
    runtime().EndSpan(state.pending.begin()->second.span);
    state.pending.erase(state.pending.begin());
  }
  while (!state.pending.empty() && state.pending.begin()->first == state.next_seq) {
    uint64_t seq = state.pending.begin()->first;
    Value payload = std::move(state.pending.begin()->second.payload);
    TraceContext span = state.pending.begin()->second.span;
    state.pending.erase(state.pending.begin());
    SimTime created_at = payload.Get("_createdAtEvent").AsInt(0);
    state.next_seq = seq + 1;
    DeliverOptions deliver;
    deliver.seq = seq;
    deliver.event_created_at = created_at;
    deliver.parent = span;
    runtime().DeliverData(*state.stream, payload, deliver);
    runtime().EndSpan(span);
    state.unacked[seq] = std::move(payload);
    if (state.unacked.size() > config_.redelivery_buffer) {
      state.unacked.erase(state.unacked.begin());
    }
    PersistProgress(state);
  }
}

void MessengerApp::RecoverGap(const StreamKey& key) {
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end() || it->second.recovering) {
    return;
  }
  MailboxState& state = it->second;
  state.recovering = true;
  uint64_t after = state.next_seq - 1;
  std::string query = "query { mailbox(afterSeq: " + std::to_string(after) +
                      ", first: 50) { id seq author thread text time } }";
  gap_polls_->Increment();
  runtime().WasQuery(query,
                     FetchOptions{.viewer = state.stream->viewer, .parent = {},
                                  .bypass_cache = true},
                     [this, key](bool ok, Value data) {
    auto it2 = mailboxes_.find(key);
    if (it2 == mailboxes_.end()) {
      return;
    }
    it2->second.recovering = false;
    if (!ok) {
      return;
    }
    for (const Value& message : data.Get("mailbox").AsList()) {
      uint64_t seq = static_cast<uint64_t>(message.Get("seq").AsInt(0));
      if (seq >= it2->second.next_seq &&
          it2->second.pending.find(seq) == it2->second.pending.end()) {
        Value payload = message;
        payload.Set("__type", "Message");
        // Gap-recovered messages have no originating event trace.
        it2->second.pending[seq] = PendingMessage{std::move(payload), TraceContext()};
      }
    }
    DrainPending(key);
  });
}

void MessengerApp::PersistProgress(MailboxState& state) {
  // Rewrite the resume token into the stream header (§3.5 "Resumption"):
  // after any failure, the resubscribe carries the last delivered sequence,
  // and the replacement BRASS resumes from exactly there.
  ServerStream* raw = state.stream->stream;
  if (!raw->attached()) {
    return;
  }
  StreamHeader header(raw->header());
  header.set_resume_token(static_cast<int64_t>(state.next_seq - 1));
  raw->Rewrite(std::move(header).Take());
}

void MessengerApp::OnAck(BrassStream& stream, uint64_t seq) {
  auto it = mailboxes_.find(stream.key);
  if (it == mailboxes_.end()) {
    return;
  }
  MailboxState& state = it->second;
  for (auto u = state.unacked.begin(); u != state.unacked.end();) {
    if (u->first <= seq) {
      u = state.unacked.erase(u);
    } else {
      break;
    }
  }
}

}  // namespace bladerunner

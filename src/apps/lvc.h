// LiveVideoComments: the application that drove Bladerunner's design (§2).
//
// Each stream-connected viewer has a ranked buffer of candidate comments.
// Incoming update events are filtered per viewer (spam/quality, age,
// language, self-comments), buffered, and the highest-ranked comment is
// pushed at a prescribed maximum rate (one comment every ~2 s, buffered at
// most 10 s). Under very high comment volume the WAS/BRASS strategy
// switches: the WAS pre-ranks, discards low-quality comments, publishes
// only extremely high-ranked ones to /LVC/<vid>, and routes the rest via
// /LVC/<vid>/<uid> per-author topics that BRASSes subscribe to for each
// viewer's friends (§3.4).

#ifndef BLADERUNNER_SRC_APPS_LVC_H_
#define BLADERUNNER_SRC_APPS_LVC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/brass/application.h"
#include "src/brass/runtime.h"
#include "src/sim/metrics.h"

namespace bladerunner {

struct LvcConfig {
  // Max one pushed comment per stream per this interval (paper: one message
  // every two seconds for LVC, §5).
  SimTime push_interval = Seconds(2);

  // Comments older than this are irrelevant and dropped (§5: "buffering
  // comments up to a maximum of 10 seconds").
  SimTime max_comment_age = Seconds(10);

  // Ranked-buffer capacity per stream (paper holds ranking fixed at 5).
  size_t buffer_capacity = 5;

  // Quality floor below which a comment is filtered for everyone.
  double min_quality = 0.35;

  // Comments by users the viewer does not know are less meaningful (§2):
  // they pass only above this (much higher) quality bar — "unless perhaps
  // the commenter is a celebrity".
  double non_friend_quality = 0.88;

  // Freshness weighting at push time: effective rank = quality -
  // age_penalty * (age / max_comment_age). Comments to a live video lose
  // relevance quickly (§1), so a fresh decent comment beats a stale great
  // one.
  double age_penalty = 0.45;

  // Filter comments whose language differs from the viewer's.
  bool filter_language = true;

  // Where LVC's per-event stages run (docs/BURST.md "Placement"):
  //  - kRegional (default): filter, rank, pace, fetch at the BRASS host —
  //    byte-identical to the pre-placement behavior.
  //  - kPopFilterConflate: the viewer-independent quality floor and
  //    newest-version-wins pacing run at the device-facing POP on small
  //    event envelopes; self/friend/language filters, fetch, and privacy
  //    stay regional.
  //  - kDeviceFirehose: the DESIGN.md §5.4 ablation — no server-side
  //    filtering or rate limiting; every event is fetched and pushed, and
  //    the *device* makes the relevance decisions (the firehose the
  //    paper's design avoids, §2 "Pub/sub data distribution").
  BrassPlacement placement = BrassPlacement::kRegional;
};

// For each user, the LVC streams on one host whose viewer lists that user as
// a friend, sorted by StreamKey. A comment below
// LvcConfig::non_friend_quality can pass only for such streams (§2), so
// LiveVideoCommentsApp evaluates just those and counts every other stream
// as a negative decision at once. Each stream's entries come from its own
// viewer's friend list: friendship is never assumed symmetric.
class LvcFriendIndex {
 public:
  // Records that the viewer of stream `key` lists every user in `friends`.
  void Add(const StreamKey& key, const std::vector<UserId>& friends);
  // Undoes Add(key, friends).
  void Remove(const StreamKey& key, const std::vector<UserId>& friends);
  // The streams of `streams` whose viewer lists `author` as a friend, in
  // `streams` order. `streams` must be sorted by key, as
  // BrassApplication::OnEvent passes them.
  std::vector<BrassStream*> CandidatesFor(UserId author,
                                          const std::vector<BrassStream*>& streams) const;

 private:
  std::unordered_map<UserId, std::vector<StreamKey>> streams_by_friend_;
};

class LiveVideoCommentsApp : public BrassApplication {
 public:
  LiveVideoCommentsApp(BrassRuntime& runtime, LvcConfig config);

  void OnStreamStarted(BrassStream& stream) override;
  void OnStreamClosed(BrassStream& stream) override;
  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(LvcConfig config = {});
  // QoS: conflatable per comment object, and the only app
  // with a polling baseline to degrade to under overload. The config-aware
  // overload also declares the placement policy (where the quality floor
  // and pacing run) so POPs can honor it.
  static BrassAppDescriptor Descriptor();
  static BrassAppDescriptor Descriptor(const LvcConfig& config);

 private:
  struct Candidate {
    double quality = 0.0;
    SimTime created_at = 0;   // comment creation (origin side)
    SimTime received_at = 0;  // event arrival at this BRASS instance
    // The event's metadata; a copy shares the event's tree.
    Value metadata;
    // "brass.process" span: event receipt -> push decision (delivered,
    // evicted, or aged out). Fig. 9's "BRASS host processing" leg.
    TraceContext span;
  };

  // One viewer's state, on its stream's entry. The push timer is armed from
  // OnStreamStarted on, and is cancelled as the state is destroyed.
  struct ViewerState : BrassStreamState {
    explicit ViewerState(SimContext ctx) : ctx(ctx) {}
    ~ViewerState() override { ctx.Cancel(push_timer); }

    SimContext ctx;
    std::string language;
    std::vector<UserId> friends;
    std::vector<Candidate> buffer;  // kept sorted by quality, best first
    TimerId push_timer = kInvalidTimerId;
  };

  // One update event as OnEvent decides it: the fields every viewer's
  // filter reads, decoded once, the outcome tallies, and what the streams
  // that pass share.
  struct EventDecision {
    explicit EventDecision(const UpdateEvent& event);

    const UpdateEvent& event;
    double quality;
    UserId author;
    const std::string& language;
    int64_t negatives = 0;
    int64_t positives = 0;
    // The POP-placed streams the event passed; they share one envelope.
    std::vector<BrassStream*> placed;
  };

  // The per-viewer filter: the quality floor (skipped on a placed stream,
  // whose POP applies it), the viewer's own comment, the stranger bar, and
  // language.
  bool Passes(const EventDecision& decision, const ViewerState& viewer,
              const BrassStream& stream, bool placed) const;
  // Filters the event for one stream, then buffers it (regional) or lists
  // the stream for the event's envelope (placed).
  void Decide(EventDecision& decision, BrassStream& stream);

  void InsertCandidate(ViewerState& viewer, const EventDecision& decision);
  void SchedulePush(BrassStream& stream);
  void PushBest(BrassStream& stream);

  LvcConfig config_;
  Counter* privacy_filtered_;  // resolved once at construction (docs/PERF.md)
  LvcFriendIndex friend_index_;  // over the open streams' friend lists
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_LVC_H_

#include "src/apps/lvc.h"

#include <algorithm>
#include <cassert>

namespace bladerunner {

namespace {

// A comment's delivery: queued versions of one comment conflate
// newest-version-wins.
DeliverOptions CommentDelivery(const Value& metadata, SimTime created_at, TraceContext parent) {
  DeliverOptions deliver;
  deliver.event_created_at = created_at;
  deliver.parent = parent;
  deliver.conflation_key = "comment:" + std::to_string(ObjectIdOf(metadata));
  deliver.version = ObjectVersionOf(metadata);
  return deliver;
}

}  // namespace

void LvcFriendIndex::Add(const StreamKey& key, const std::vector<UserId>& friends) {
  for (UserId f : friends) {
    std::vector<StreamKey>& keys = streams_by_friend_[f];
    auto pos = std::lower_bound(keys.begin(), keys.end(), key);
    if (pos == keys.end() || *pos != key) {
      keys.insert(pos, key);
    }
  }
}

void LvcFriendIndex::Remove(const StreamKey& key, const std::vector<UserId>& friends) {
  for (UserId f : friends) {
    auto it = streams_by_friend_.find(f);
    if (it == streams_by_friend_.end()) {
      continue;
    }
    std::vector<StreamKey>& keys = it->second;
    auto pos = std::lower_bound(keys.begin(), keys.end(), key);
    if (pos != keys.end() && *pos == key) {
      keys.erase(pos);
    }
    if (keys.empty()) {
      streams_by_friend_.erase(it);
    }
  }
}

std::vector<BrassStream*> LvcFriendIndex::CandidatesFor(
    UserId author, const std::vector<BrassStream*>& streams) const {
  std::vector<BrassStream*> out;
  auto it = streams_by_friend_.find(author);
  if (it == streams_by_friend_.end()) {
    return out;
  }
  // Both sides are sorted by key: each search starts where the last ended.
  auto pos = streams.begin();
  for (const StreamKey& key : it->second) {
    pos = std::lower_bound(pos, streams.end(), key,
                           [](const BrassStream* s, const StreamKey& k) { return s->key < k; });
    if (pos == streams.end()) {
      break;
    }
    if ((*pos)->key == key) {
      out.push_back(*pos);
    }
  }
  return out;
}

LiveVideoCommentsApp::LiveVideoCommentsApp(BrassRuntime& runtime, LvcConfig config)
    : BrassApplication(runtime), config_(config) {
  privacy_filtered_ = &this->runtime().metrics().GetCounter("lvc.privacy_filtered");
}

LiveVideoCommentsApp::~LiveVideoCommentsApp() {
  for (auto& [key, viewer] : viewers_) {
    if (viewer.push_timer != kInvalidTimerId) {
      runtime().CancelTimer(viewer.push_timer);
    }
  }
}

BrassAppFactory LiveVideoCommentsApp::Factory(LvcConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<LiveVideoCommentsApp>(runtime, config);
  };
}

BrassAppDescriptor LiveVideoCommentsApp::Descriptor() { return Descriptor(LvcConfig{}); }

BrassAppDescriptor LiveVideoCommentsApp::Descriptor(const LvcConfig& config) {
  BrassAppDescriptor descriptor;
  descriptor.name = "LVC";
  descriptor.routing = BrassRoutingPolicy::kByLoad;
  // Comments conflate per comment object (edits supersede); distinct
  // comments queue, shed, and ultimately degrade the stream to polling.
  descriptor.conflatable = true;
  descriptor.degrade_to_poll = true;
  // Edge placement (docs/BURST.md "Placement"): the viewer-independent
  // quality floor — and, under kPopFilterConflate, the per-stream push
  // pacing — may run at the POP against these knobs. kDeviceFirehose also
  // rides here but POPs ignore it (it only disables regional filtering).
  descriptor.placement = config.placement;
  descriptor.pop_filter.quality_field = "quality";
  descriptor.pop_filter.min_quality = config.min_quality;
  descriptor.pop_push_gap_us = config.push_interval;
  return descriptor;
}

void LiveVideoCommentsApp::OnStreamStarted(BrassStream& stream) {
  ViewerState viewer;
  viewer.stream = &stream;
  viewer.language = stream.context.Get("language").AsString();
  if (viewer.language.empty()) {
    viewer.language = "en";
  }
  for (const Value& f : stream.context.Get("friends").AsList()) {
    viewer.friends.push_back(f.AsInt(0));
  }
  // A restarted stream replaces its old friend-list snapshot.
  ViewerState& slot = viewers_[stream.key];
  friend_index_.Remove(stream.key, slot.friends);
  friend_index_.Add(stream.key, viewer.friends);
  slot = std::move(viewer);
  SchedulePush(stream.key);
}

void LiveVideoCommentsApp::OnStreamClosed(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  if (it->second.push_timer != kInvalidTimerId) {
    runtime().CancelTimer(it->second.push_timer);
  }
  for (Candidate& candidate : it->second.buffer) {
    runtime().AnnotateSpan(candidate.span, "outcome", Value("stream_closed"));
    runtime().EndSpan(candidate.span);
  }
  friend_index_.Remove(key, it->second.friends);
  viewers_.erase(it);
}

LiveVideoCommentsApp::EventDecision::EventDecision(const UpdateEvent& event)
    : event(event),
      quality(event.metadata.Get("quality").AsDouble(0.0)),
      author(event.metadata.Get("author").AsInt(0)),
      language(event.metadata.Get("language").AsString()) {}

bool LiveVideoCommentsApp::Passes(const EventDecision& decision, const ViewerState& viewer,
                                  const BrassStream& stream, bool placed) const {
  if (!placed && decision.quality < config_.min_quality) {
    return false;  // spam / low quality, filtered for all users
  }
  if (decision.author == stream.viewer) {
    return false;  // the viewer's own comment is already on screen
  }
  // A stranger's comment needs to be exceptional to be shown (§2).
  if (decision.quality < config_.non_friend_quality &&
      std::find(viewer.friends.begin(), viewer.friends.end(), decision.author) ==
          viewer.friends.end()) {
    return false;
  }
  if (config_.filter_language && !decision.language.empty() &&
      decision.language != viewer.language) {
    return false;
  }
  return true;
}

void LiveVideoCommentsApp::InsertCandidate(ViewerState& viewer, const EventDecision& decision) {
  Candidate candidate;
  candidate.quality = decision.quality;
  candidate.created_at = decision.event.created_at;
  candidate.received_at = runtime().Now();
  candidate.metadata = decision.event.metadata;
  candidate.span = runtime().StartSpan(decision.event.trace, "brass.process");
  auto pos = std::lower_bound(
      viewer.buffer.begin(), viewer.buffer.end(), candidate,
      [](const Candidate& a, const Candidate& b) { return a.quality > b.quality; });
  viewer.buffer.insert(pos, std::move(candidate));
  if (viewer.buffer.size() > config_.buffer_capacity) {
    // Evict the lowest-ranked candidate; its update never reaches the
    // device, which the trace records as an annotated end.
    runtime().AnnotateSpan(viewer.buffer.back().span, "outcome", Value("evicted"));
    runtime().EndSpan(viewer.buffer.back().span);
    viewer.buffer.pop_back();
  }
}

void LiveVideoCommentsApp::Decide(EventDecision& decision, BrassStream& stream) {
  auto it = viewers_.find(stream.key);
  assert(it != viewers_.end() && it->second.stream == &stream);
  const bool placed =
      stream.pop_placed && config_.placement == BrassPlacement::kPopFilterConflate;
  if (!Passes(decision, it->second, stream, placed)) {
    ++decision.negatives;
    return;
  }
  if (placed) {
    // Edge placement: the decision is final here, and the event leaves as a
    // small envelope — the POP applies the floor, conflates, paces, and
    // resolves the payload through its versioned edge cache.
    ++decision.positives;
    decision.placed.push_back(&stream);
    return;
  }
  // Buffering is not yet a delivery decision; the decision happens at push
  // time. But an insert that evicts a candidate *was* a decision against
  // the evicted one — accounted there via the age filter.
  InsertCandidate(it->second, decision);
}

void LiveVideoCommentsApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                                   const std::vector<BrassStream*>& streams) {
  (void)topic;
  assert(std::is_sorted(streams.begin(), streams.end(),
                        [](const BrassStream* a, const BrassStream* b) { return a->key < b->key; }));
  // Every stream has viewer state, pointing at that same stream: it entered
  // the host's topic map and viewers_ in one subscription step, and leaves
  // both on close.
  assert(std::all_of(streams.begin(), streams.end(), [this](const BrassStream* s) {
    auto it = viewers_.find(s->key);
    return it != viewers_.end() && it->second.stream == s;
  }));
  if (config_.placement == BrassPlacement::kDeviceFirehose) {
    // Ablation: firehose mode — push everything, let the device decide.
    for (BrassStream* stream : streams) {
      runtime().CountDecision(true);
      StreamKey key = stream->key;
      TraceContext span = runtime().StartSpan(event.trace, "brass.process");
      DeliverOptions deliver = CommentDelivery(event.metadata, event.created_at, span);
      runtime().FetchPayload(
          event.metadata, FetchOptions{.viewer = stream->viewer, .parent = span},
          [this, key, deliver, span](bool allowed, Value payload) {
            if (!allowed) {
              runtime().AnnotateSpan(span, "outcome", Value("privacy_filtered"));
              runtime().EndSpan(span);
              return;
            }
            auto it2 = viewers_.find(key);
            if (it2 == viewers_.end()) {
              runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
              runtime().EndSpan(span);
              return;
            }
            runtime().DeliverData(*it2->second.stream, std::move(payload), deliver);
            runtime().EndSpan(span);
          });
    }
    return;
  }
  EventDecision decision(event);
  if (decision.quality >= config_.non_friend_quality) {
    for (BrassStream* stream : streams) {
      Decide(decision, *stream);
    }
  } else {
    // Below the stranger bar only viewers who list the author as a friend
    // can pass, so only their streams are filtered one by one; every other
    // stream is a negative decision.
    std::vector<BrassStream*> friends = friend_index_.CandidatesFor(decision.author, streams);
    for (BrassStream* stream : friends) {
      Decide(decision, *stream);
    }
    decision.negatives += static_cast<int64_t>(streams.size() - friends.size());
  }
  runtime().CountDecision(false, decision.negatives);
  runtime().CountDecision(true, decision.positives);
  if (!decision.placed.empty()) {
    // One envelope for every placed stream the event passed. It carries
    // only what the edge and the regional re-fetch consume: object identity
    // + version (conflation, payload cache), the coarse-filter field, and
    // the author the WAS checks blocks against. On a POP cache miss the
    // payload is fetched here, keyed by exactly these fields.
    const Value& metadata = event.metadata;
    Value envelope;
    envelope.Set("id", metadata.Get("id"));
    envelope.Set("version", metadata.Get("version"));
    envelope.Set("quality", metadata.Get("quality"));
    envelope.Set("author", metadata.Get("author"));
    runtime().PushEnvelope(decision.placed, std::move(envelope),
                           CommentDelivery(metadata, event.created_at, event.trace));
  }
}

void LiveVideoCommentsApp::SchedulePush(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  it->second.push_timer = runtime().ScheduleTimer(config_.push_interval, [this, key]() {
    PushBest(key);
    SchedulePush(key);
  });
}

void LiveVideoCommentsApp::PushBest(const StreamKey& key) {
  auto it = viewers_.find(key);
  if (it == viewers_.end()) {
    return;
  }
  ViewerState& viewer = it->second;
  SimTime now = runtime().Now();

  // Age out stale candidates first; each expiry is a negative decision.
  while (!viewer.buffer.empty() &&
         now - viewer.buffer.back().created_at > config_.max_comment_age) {
    runtime().AnnotateSpan(viewer.buffer.back().span, "outcome", Value("expired"));
    runtime().EndSpan(viewer.buffer.back().span);
    viewer.buffer.pop_back();
    runtime().CountDecision(false);
  }
  // (Aging is quality-ordered from the back; sweep remaining entries too.)
  for (size_t i = viewer.buffer.size(); i > 0; --i) {
    if (now - viewer.buffer[i - 1].created_at > config_.max_comment_age) {
      runtime().AnnotateSpan(viewer.buffer[i - 1].span, "outcome", Value("expired"));
      runtime().EndSpan(viewer.buffer[i - 1].span);
      viewer.buffer.erase(viewer.buffer.begin() + static_cast<ptrdiff_t>(i - 1));
      runtime().CountDecision(false);
    }
  }
  if (viewer.buffer.empty() || !viewer.stream->attached()) {
    return;
  }
  // Pick by freshness-weighted rank: a live-video comment loses relevance
  // as it ages, so effective rank decays over the buffering window.
  size_t best_index = 0;
  double best_rank = -1e9;
  for (size_t i = 0; i < viewer.buffer.size(); ++i) {
    double age_fraction = static_cast<double>(now - viewer.buffer[i].created_at) /
                          static_cast<double>(config_.max_comment_age);
    double rank = viewer.buffer[i].quality - config_.age_penalty * age_fraction;
    if (rank > best_rank) {
      best_rank = rank;
      best_index = i;
    }
  }
  Candidate best = std::move(viewer.buffer[best_index]);
  viewer.buffer.erase(viewer.buffer.begin() + static_cast<ptrdiff_t>(best_index));
  runtime().CountDecision(true);

  // Fetch the comment payload from the WAS (privacy-checked point query,
  // Fig. 5 steps 8-10), then push to the device. The candidate's
  // "brass.process" span (opened at event receipt) covers buffering, rate
  // limiting, and the fetch — Fig. 9's "BRASS host processing" leg — and
  // ends when the push is handed to BURST.
  StreamKey stream_key = key;
  TraceContext span = best.span;
  UserId viewer_id = viewer.stream->viewer;
  DeliverOptions deliver = CommentDelivery(best.metadata, best.created_at, span);
  runtime().FetchPayload(
      best.metadata, FetchOptions{.viewer = viewer_id, .parent = span},
      [this, stream_key, deliver, span](bool allowed, Value payload) {
        if (!allowed) {
          privacy_filtered_->Increment();
          runtime().AnnotateSpan(span, "outcome", Value("privacy_filtered"));
          runtime().EndSpan(span);
          return;
        }
        auto it2 = viewers_.find(stream_key);
        if (it2 == viewers_.end()) {
          runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
          runtime().EndSpan(span);
          return;
        }
        runtime().AnnotateSpan(span, "outcome", Value("delivered"));
        runtime().DeliverData(*it2->second.stream, std::move(payload), deliver);
        runtime().EndSpan(span);
      });
}

}  // namespace bladerunner

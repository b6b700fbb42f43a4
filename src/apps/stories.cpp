#include "src/apps/stories.h"

#include <algorithm>
#include <vector>

namespace bladerunner {

StoriesApp::StoriesApp(BrassRuntime& runtime, StoriesConfig config)
    : BrassApplication(runtime), config_(config) {}

BrassAppFactory StoriesApp::Factory(StoriesConfig config) {
  return [config](BrassRuntime& runtime) {
    return std::make_unique<StoriesApp>(runtime, config);
  };
}

BrassAppDescriptor StoriesApp::Descriptor() {
  BrassAppDescriptor descriptor;
  descriptor.name = "Stories";
  // "New story" pushes conflate per author (the latest story supersedes);
  // tray add/remove deltas are stateful and carry no conflation key.
  descriptor.conflatable = true;
  return descriptor;
}

void StoriesApp::OnStreamStarted(BrassStream& stream) {
  ViewerState viewer;
  viewer.stream = &stream;
  viewers_[stream.key] = std::move(viewer);
}

void StoriesApp::OnStreamClosed(const StreamKey& key) { viewers_.erase(key); }

void StoriesApp::OnEvent(const Topic& topic, const UpdateEvent& event,
                         const std::vector<BrassStream*>& streams) {
  (void)topic;
  UserId author = event.metadata.Get("author").AsInt(0);
  double rank = event.metadata.Get("rank").AsDouble(0.0);
  if (author == 0) {
    return;
  }
  for (BrassStream* stream : streams) {
    auto it = viewers_.find(stream->key);
    if (it == viewers_.end()) {
      continue;
    }
    ContainerInfo& info = it->second.containers[author];
    info.rank = std::max(info.rank, rank);
    info.freshest = event.created_at;
    ReconcileTray(it->second, event);
  }
}

void StoriesApp::ReconcileTray(ViewerState& viewer, const UpdateEvent& trigger) {
  SimTime now = runtime().Now();

  // Expire stale containers (story TTL).
  for (auto it = viewer.containers.begin(); it != viewer.containers.end();) {
    if (now - it->second.freshest > config_.story_ttl) {
      if (it->second.displayed && viewer.stream->attached()) {
        Value removal;
        removal.Set("__type", "StoryTrayRemove");
        removal.Set("owner", it->first);
        runtime().CountDecision(true);
        runtime().DeliverData(*viewer.stream, std::move(removal), DeliverOptions{});
      }
      it = viewer.containers.erase(it);
    } else {
      ++it;
    }
  }

  // Rank the containers and pick the display set.
  std::vector<std::pair<UserId, ContainerInfo*>> ranked;
  ranked.reserve(viewer.containers.size());
  for (auto& [uid, info] : viewer.containers) {
    ranked.emplace_back(uid, &info);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second->rank != b.second->rank) {
      return a.second->rank > b.second->rank;
    }
    return a.first < b.first;
  });

  UserId trigger_author = trigger.metadata.Get("author").AsInt(0);
  for (size_t i = 0; i < ranked.size(); ++i) {
    auto& [uid, info] = ranked[i];
    bool should_display = i < config_.tray_size;
    if (should_display == info->displayed) {
      // The triggering author's container may still need a "new story"
      // push even without a tray change.
      if (should_display && uid == trigger_author) {
        runtime().CountDecision(true);
        if (viewer.stream->attached()) {
          StreamKey key = viewer.stream->key;
          TraceContext span = runtime().StartSpan(trigger.trace, "brass.process");
          DeliverOptions deliver;
          deliver.event_created_at = trigger.created_at;
          deliver.parent = span;
          // Conflate queued "new story" pushes per author: the latest story
          // supersedes (ordered by event time — story objects are distinct
          // TAO writes, so their per-object versions do not order them).
          deliver.conflation_key = "story:" + std::to_string(trigger_author);
          deliver.version = static_cast<uint64_t>(trigger.created_at);
          runtime().FetchPayload(
              trigger.metadata, FetchOptions{.viewer = viewer.stream->viewer, .parent = span},
              [this, key, deliver, span](bool allowed, Value payload) {
                if (!allowed) {
                  runtime().AnnotateSpan(span, "outcome", Value("privacy_filtered"));
                  runtime().EndSpan(span);
                  return;
                }
                auto it = viewers_.find(key);
                if (it == viewers_.end()) {
                  runtime().AnnotateSpan(span, "outcome", Value("stream_gone"));
                  runtime().EndSpan(span);
                  return;
                }
                payload.Set("__type", "StoryTrayAddStory");
                runtime().DeliverData(*it->second.stream, std::move(payload), deliver);
                runtime().EndSpan(span);
              });
        }
      } else if (!should_display && uid == trigger_author) {
        runtime().CountDecision(false);  // examined, container not displayed
      }
      continue;
    }
    info->displayed = should_display;
    if (!viewer.stream->attached()) {
      continue;
    }
    runtime().CountDecision(true);
    Value delta;
    delta.Set("owner", uid);
    delta.Set("rank", info->rank);
    if (should_display) {
      delta.Set("__type", "StoryTrayAddContainer");
      DeliverOptions deliver;
      deliver.event_created_at = trigger.created_at;
      deliver.parent = trigger.trace;
      runtime().DeliverData(*viewer.stream, std::move(delta), deliver);
    } else {
      delta.Set("__type", "StoryTrayRemove");
      runtime().DeliverData(*viewer.stream, std::move(delta), DeliverOptions{});
    }
  }
}

}  // namespace bladerunner

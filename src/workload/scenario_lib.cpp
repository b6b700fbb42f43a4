#include "src/workload/scenario_lib.h"

#include <string>

#include "src/brass/host.h"
#include "src/burst/durable_log.h"
#include "src/pylon/cluster.h"
#include "src/pylon/kv_node.h"
#include "src/pylon/topic.h"

namespace bladerunner {

void DriveCommentLoad(BladerunnerCluster& cluster,
                      std::vector<std::unique_ptr<DeviceAgent>>& commenters, ObjectId video,
                      int per_second, SimTime duration, Rng& rng, const char* text,
                      const std::function<void(int)>& on_comment) {
  const int total = static_cast<int>(duration / Seconds(1)) * per_second;
  const SimTime gap = Seconds(1) / per_second;
  for (int i = 0; i < total; ++i) {
    DeviceAgent& c = *commenters[rng.Index(commenters.size())];
    c.PostComment(video, text, "en");
    if (on_comment) {
      on_comment(i);
    }
    cluster.sim().RunFor(gap);
  }
}

void ScheduleCommentLoad(BladerunnerCluster& cluster,
                         std::vector<std::unique_ptr<DeviceAgent>>& commenters, ObjectId video,
                         int per_second, SimTime start, SimTime duration, Rng& rng,
                         const char* text) {
  (void)cluster;
  const int total = static_cast<int>(duration / Seconds(1)) * per_second;
  const SimTime gap = Seconds(1) / per_second;
  std::string body = text;
  // Commenters are drawn up front in schedule order, so the draw sequence —
  // and therefore the whole run — is a function of `rng`'s seed alone, not
  // of when the events interleave with other phases.
  for (int i = 0; i < total; ++i) {
    DeviceAgent* c = commenters[rng.Index(commenters.size())].get();
    // Each post runs as a timer on the commenter's own context so it lands
    // in the device's LP in a partitioned cluster.
    c->ctx().Schedule(start + gap * i, [c, video, body]() { c->PostComment(video, body, "en"); });
  }
}

void ScheduleTickerTicks(BladerunnerCluster& cluster, int num_channels, int ticks_per_channel,
                         SimTime tick_gap, SimTime start, TickerPublishState* state) {
  // Ticks publish through the WAS, which lives in the global LP.
  const SimContext backend(&cluster.sim());
  for (int64_t c = 1; c <= num_channels; ++c) {
    for (int t = 0; t < ticks_per_channel; ++t) {
      SimTime at = start + tick_gap * t + (tick_gap * (c - 1)) / num_channels;
      backend.Schedule(at, [&cluster, state, c]() {
        PublishSpec spec;
        spec.topic = TickerTopic(c);
        spec.metadata.Set("tick", state->per_channel[c] + 1);
        cluster.was(0).PublishNow(spec, cluster.sim().Now());
        state->total += 1;
        state->per_channel[c] += 1;
      });
    }
  }
}

DurableTickerAudit AuditDurableTicker(BladerunnerCluster& cluster, int num_channels,
                                      const std::map<int64_t, int64_t>& published_per_channel,
                                      const TickerSeqsSeen& seen) {
  DurableTickerAudit audit;
  for (const auto& [d, channels] : seen) {
    (void)d;
    for (const auto& [channel, seqs] : channels) {
      auto it = published_per_channel.find(channel);
      int64_t expected = it == published_per_channel.end() ? 0 : it->second;
      std::set<uint64_t> distinct(seqs.begin(), seqs.end());
      audit.duplicates += static_cast<int64_t>(seqs.size() - distinct.size());
      audit.lost += expected - static_cast<int64_t>(distinct.size());
    }
  }
  // The shared log is the ground truth: every publish must have been
  // appended exactly once, across all the hosts the events fanned out to.
  for (int64_t c = 1; c <= num_channels; ++c) {
    const DurableTopicLog* log = cluster.durable_logs().Find(TickerTopic(c));
    uint64_t last = log == nullptr ? 0 : log->last_seq();
    auto it = published_per_channel.find(c);
    int64_t expected = it == published_per_channel.end() ? 0 : it->second;
    if (static_cast<int64_t>(last) != expected) {
      audit.log_matches_publishes = false;
    }
  }
  return audit;
}

KvFailureInjectorConfig MakeKvCampaignConfig(uint64_t seed, SimTime duration, SimTime mtbf,
                                             SimTime mean_outage) {
  KvFailureInjectorConfig config;
  config.seed = seed;
  config.mean_time_between_failures = mtbf;
  config.mean_outage = mean_outage;
  config.min_outage = Minutes(1);
  config.state_loss_probability = 0.5;
  config.correlated_failure_probability = 0.25;
  config.duration = duration;
  return config;
}

KvCampaignStats SummarizeKvCampaign(const KvFailureInjector& injector) {
  KvCampaignStats stats;
  const auto& outages = injector.outages();
  stats.crashes = outages.size();
  for (size_t i = 0; i < outages.size(); ++i) {
    stats.state_losses += outages[i].state_loss ? 1 : 0;
    stats.correlated += (i > 0 && outages[i].at == outages[i - 1].at) ? 1 : 0;
  }
  return stats;
}

SubscriptionAudit AuditSubscriptionDurability(BladerunnerCluster& cluster) {
  SubscriptionAudit audit;
  for (size_t h = 0; h < cluster.NumBrassHosts(); ++h) {
    BrassHost& host = cluster.brass_host(h);
    if (!host.alive()) {
      continue;
    }
    for (const Topic& topic : host.PylonSubscribedTopics()) {
      ++audit.audited;
      RegionId home = cluster.pylon()->RouteServer(topic)->region();
      bool present = false;
      for (KvNode* node : cluster.pylon()->ReplicasFor(topic, home)) {
        const std::set<int64_t>* subs = node->Find(topic);
        present |= subs != nullptr && subs->count(host.host_id()) > 0;
      }
      audit.lost += present ? 0 : 1;
    }
  }
  return audit;
}

}  // namespace bladerunner

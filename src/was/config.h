// Web Application Server configuration. Medians are calibrated against the
// paper's Table 3.

#ifndef BLADERUNNER_SRC_WAS_CONFIG_H_
#define BLADERUNNER_SRC_WAS_CONFIG_H_

namespace bladerunner {

struct WasConfig {
  // Fixed per-request executor overhead (parse + dispatch), ms.
  double query_base_ms = 3.0;

  // Mutation business logic between the TAO write completing and the update
  // event being handed to Pylon. Table 3: 240 ms for non-ranked updates.
  double publish_logic_ms = 230.0;

  // Additional ML quality-ranking latency for comment-like updates.
  // Table 3: "1,790ms of this time is spent on ranking".
  double ranking_ms = 1790.0;

  // Privacy checks are complex and only ever run inside the WAS (§1).
  double privacy_check_ms = 12.0;

  // Payload fetch handling (BRASS-facing): processing around the TAO point
  // read; Table 3 attributes ~60 ms of BRASS time to the WAS query.
  double fetch_base_ms = 42.0;

  // ---- LVC hot-video strategy switch (§3.4) ----
  // When a video's comment index becomes hot (partition count passes the
  // threshold), the WAS pre-ranks: very high-quality comments publish to
  // /LVC/<vid>; ordinary ones publish to per-author /LVC/<vid>/<uid>
  // topics (delivered only to the author's friends); low-ranked comments
  // are discarded outright.
  bool lvc_hot_strategy = true;
  // LVC subscriptions also cover /LVC/<vid>/<friend> for each of the
  // viewer's friends, so per-author (hot-mode) publishes reach the right
  // viewers (§3.4: "BRASS subscribes to /LVC/VideoID as well as to
  // /LVC/VideoID/a-uid for each friend of each stream-connected viewer").
  bool lvc_subscribe_friend_topics = true;
  int lvc_hot_partition_threshold = 6;
  double lvc_hot_discard_below = 0.35;
  double lvc_hot_broadcast_above = 0.93;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_WAS_CONFIG_H_

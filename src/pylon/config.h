// Pylon configuration.

#ifndef BLADERUNNER_SRC_PYLON_CONFIG_H_
#define BLADERUNNER_SRC_PYLON_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"

namespace bladerunner {

struct PylonConfig {
  // Logical topic shards mapped onto the physical Pylon servers. Production
  // uses 512K (§3.1); simulations use fewer since servers number in the
  // tens rather than thousands.
  uint32_t num_topic_shards = 4096;

  // Pylon servers per region.
  int servers_per_region = 4;

  // Subscriber-list KV nodes per region.
  int kv_nodes_per_region = 3;

  // Replication factor of a topic's subscriber list: one local replica plus
  // (replication_factor - 1) replicas in distinct remote regions (§3.1).
  int replication_factor = 3;

  // Write quorum for subscription (CP) updates.
  int write_quorum = 2;

  // KV node service time per operation.
  double kv_service_ms = 0.4;

  // Pylon server processing time for a publish before fanout starts.
  double publish_processing_ms = 1.2;

  // Marginal cost of forwarding a publication to each additional subscriber
  // (serialization + send). ~10k subscribers at 1.2us each adds ~12ms,
  // reproducing the Table 3 gap between the <10k and >=10k rows.
  double per_subscriber_send_us = 1.2;

  // Internal pipeline budget between accepting a publish and each outward
  // forward (queuing, dedup, serialization batches); calibrated so the
  // publish->BRASS delivery average lands at Table 3's ~100ms.
  double fanout_pipeline_ms = 50.0;

  // Forward a publish as soon as the first replica's subscriber list
  // arrives (§3.1), patching in stragglers later. Disabling waits for a
  // quorum of replica views before any forward — the ablation of
  // DESIGN.md §5.3 (adds remote-replica RTT to every delivery).
  bool forward_on_first_response = true;

  // Deadline for KV replica responses during subscribe/publish.
  SimTime kv_timeout = Seconds(1);

  // ---- Subscriber-KV fault tolerance (crash/recovery) ----

  // A recovering KV node re-fetches its topics' subscriber sets from peer
  // replicas (anti-entropy) before rejoining quorums; this is the deadline
  // for each per-peer snapshot fetch of that pass.
  SimTime kv_snapshot_timeout = Seconds(2);
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_PYLON_CONFIG_H_

// BURST (Bladerunner Unified Request Stream Transport) wire model (§3.5).
//
// A request-stream is identified end-to-end by a StreamKey and is routed
// independently across the hops device -> POP -> reverse proxy -> BRASS
// host. Client-originated frames are Subscribe / Cancel / Ack; the server
// side emits Response frames, each carrying a batch of *deltas* that is
// applied atomically by the client. Deltas carry data, flow-status (failure
// and recovery signalling), header rewrites (the mechanism behind sticky
// routing, resumption tokens, and redirects), and stream termination.

#ifndef BLADERUNNER_SRC_BURST_FRAMES_H_
#define BLADERUNNER_SRC_BURST_FRAMES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graphql/value.h"
#include "src/net/message.h"
#include "src/trace/context.h"

namespace bladerunner {

// Globally unique stream identity: the sid is client-generated (§3.5), so
// it is only unique per device; the pair is unique across the system.
struct StreamKey {
  int64_t device_id = 0;
  uint64_t sid = 0;

  bool operator==(const StreamKey& other) const {
    return device_id == other.device_id && sid == other.sid;
  }
  bool operator<(const StreamKey& other) const {
    if (device_id != other.device_id) {
      return device_id < other.device_id;
    }
    return sid < other.sid;
  }
  std::string ToString() const {
    return std::to_string(device_id) + ":" + std::to_string(sid);
  }
};

struct StreamKeyHash {
  size_t operator()(const StreamKey& k) const {
    uint64_t h = static_cast<uint64_t>(k.device_id) * 0x9e3779b97f4a7c15ULL;
    h ^= k.sid + 0x9e3779b9ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

// ---- Stream header access ----
// The header is a JSON-ish map visible to (and interpreted by) the proxies
// for routing (§3.5); BRASS rewrites persist new versions of it everywhere
// along the path. All reads and writes of the well-known fields go through
// the typed accessors below; the raw string keys (the wire format, which is
// unchanged) live in frames.cpp and nowhere else.

// Read-only view over a header map owned elsewhere (e.g. a ServerStream or
// a received SubscribeFrame). The referenced Value must outlive the view.
//
// Construction decodes the map in one pass into plain fields, so each
// accessor is a load — not a string-keyed map lookup per field per touch.
class StreamHeaderView {
 public:
  explicit StreamHeaderView(const Value& header);

  const std::string& app() const { return *app_; }                    // application name
  const std::string& subscription() const { return *subscription_; }  // GraphQL text
  int64_t viewer() const { return viewer_; }            // authenticated uid (0: none)
  int64_t brass_host() const { return brass_host_; }    // sticky-routing target (0: none)
  int64_t resume_token() const { return resume_token_; }  // sync offset (see has_resume_token)
  // Whether the header carries a resume token at all. Durable streams need
  // the distinction: an absent token means "fresh subscriber, start at the
  // log head", while token 0 is a legitimate offset (nothing delivered yet
  // — replay from the beginning of the retained log).
  bool has_resume_token() const { return has_resume_token_; }
  // Durable-delivery tier marker (BrassAppDescriptor::durable); set by the
  // BRASS host's sticky rewrite so client and proxies treat resume_token as
  // a real readSeq offset rather than app-defined opaque state.
  bool durable() const { return durable_; }
  int32_t region(int32_t fallback = 0) const {          // preferred DC region
    return has_region_ ? region_ : fallback;
  }
  // Edge-placement stamp (numeric BrassPlacement value; 0 = regional/none).
  // Written by the device-facing POP on every Subscribe it forwards, so the
  // BRASS host learns which in-transit stages the *current* edge actually
  // runs — a resubscribe through a placement-incapable POP clears it and
  // the stream falls back to fully regional processing.
  int32_t placement() const { return placement_; }

 private:
  const std::string* app_;
  const std::string* subscription_;
  int64_t viewer_ = 0;
  int64_t brass_host_ = 0;
  int64_t resume_token_ = 0;
  bool has_resume_token_ = false;
  bool durable_ = false;
  int32_t region_ = 0;
  bool has_region_ = false;
  int32_t placement_ = 0;
};

// Owning builder for constructing a new header or rewriting an existing
// one. `Take()` yields the underlying map for the wire.
class StreamHeader {
 public:
  StreamHeader() = default;
  explicit StreamHeader(Value header) : value_(std::move(header)) {}

  const std::string& app() const { return StreamHeaderView(value_).app(); }
  const std::string& subscription() const { return StreamHeaderView(value_).subscription(); }
  int64_t viewer() const { return StreamHeaderView(value_).viewer(); }
  int64_t brass_host() const { return StreamHeaderView(value_).brass_host(); }
  int64_t resume_token() const { return StreamHeaderView(value_).resume_token(); }
  int32_t region(int32_t fallback = 0) const { return StreamHeaderView(value_).region(fallback); }

  StreamHeader& set_app(const std::string& app);
  StreamHeader& set_subscription(const std::string& text);
  StreamHeader& set_viewer(int64_t viewer);
  StreamHeader& set_brass_host(int64_t host_id);
  StreamHeader& set_resume_token(int64_t token);
  StreamHeader& set_durable(bool durable);
  StreamHeader& set_region(int32_t region);
  // 0 clears the stamp (removes the key from the wire map entirely, so
  // default headers stay byte-identical to the pre-placement wire format).
  StreamHeader& set_placement(int32_t placement);

  const Value& value() const { return value_; }
  Value Take() && { return std::move(value_); }

 private:
  Value value_;
};

// ---- Deltas ----

enum class DeltaKind {
  kData,        // a GraphQL payload (one update)
  kFlowStatus,  // failure / recovery signalling
  kRewrite,     // patch the stored subscription header
  kTermination, // the stream is over
};

enum class FlowStatus {
  kDegraded,       // a failure affecting this stream was detected
  kRecovered,      // the stream has been repaired / re-established
  kDegradeToPoll,  // overload: device should fall back to the polling baseline
  kResumeStream,   // overload subsided: device should resume streaming
  kRestarted,      // server state was lost (retention grace expired or the
                   // durable log truncated past the token); the stream was
                   // rebuilt and the gap, if any, is NOT being replayed —
                   // the app layer must re-snapshot or accept the loss
};

enum class TerminateReason {
  kComplete,   // server finished the stream normally
  kCancelled,  // client cancelled
  kRedirect,   // reconnect using the (rewritten) header (§3.5 "Redirects")
  kError,      // unrecoverable server-side error
};

const char* ToString(DeltaKind kind);
const char* ToString(FlowStatus status);
const char* ToString(TerminateReason reason);

// A rewrite_request's content: an RFC 7386 JSON merge patch that turns the
// header the server held (`base`) into its new header (`header`) — the keys
// added or changed, and each removed key mapped to null. Only the patch
// crosses the wire. `base` and `header` are the server's own trees, which
// the simulated hops share rather than copy (docs/BURST.md "State kept per
// hop"); only Delta::ApplyRewrite reads them.
struct HeaderRewrite {
  Value patch;
  Value base;
  Value header;
};

struct Delta {
  DeltaKind kind = DeltaKind::kData;
  // kData: the payload.
  Value payload;
  uint64_t seq = 0;
  // kFlowStatus
  FlowStatus status = FlowStatus::kDegraded;
  // kRewrite
  HeaderRewrite rewrite;
  // kTermination
  TerminateReason reason = TerminateReason::kComplete;
  // free-form detail for logs/UX
  std::string detail;
  // kData: the update's trace context, carried to the device so the
  // last-mile hops (proxy, POP, client receipt) join the trace.
  TraceContext trace;

  static Delta Data(Value payload, uint64_t seq);
  static Delta Flow(FlowStatus status, std::string detail = "");
  // A rewrite from `base` to `header`; computes the merge patch.
  static Delta Rewrite(const Value& base, const Value& header);
  static Delta Terminate(TerminateReason reason, std::string detail = "");

  // Applies this rewrite to a hop's stored header. A hop that holds the
  // rewrite's base adopts the server's new tree, which is what the patch
  // would make of it, so every such hop keeps sharing one tree with the
  // server; a hop that holds anything else gets the patch applied to its
  // own header (a key the patch does not name keeps its value or absence).
  void ApplyRewrite(Value& header) const;

  uint64_t WireSize() const;
};

// ---- Frames ----

// Client -> server: open a stream (or re-attach one after a failure).
struct SubscribeFrame : Message {
  StreamKey key;
  Value header;
  std::string body;        // opaque blob only the target BRASS understands
  bool resubscribe = false;  // true when re-attaching after a failure

  std::string Describe() const override {
    return std::string(resubscribe ? "Resubscribe(" : "Subscribe(") + key.ToString() + ")";
  }
  uint64_t WireSize() const override { return 32 + header.WireSize() + body.size(); }
};

// Client -> server: tear down a stream.
struct CancelFrame : Message {
  StreamKey key;

  std::string Describe() const override { return "Cancel(" + key.ToString() + ")"; }
};

// Client -> server: acknowledge deltas up to `seq` (used by applications
// that implement reliable delivery on top of BURST, e.g. Messenger).
struct AckFrame : Message {
  StreamKey key;
  uint64_t seq = 0;

  std::string Describe() const override {
    return "Ack(" + key.ToString() + ", " + std::to_string(seq) + ")";
  }
};

// Server -> client: an atomically applied batch of deltas.
struct ResponseFrame : Message {
  StreamKey key;
  std::vector<Delta> batch;

  std::string Describe() const override {
    return "Response(" + key.ToString() + ", " + std::to_string(batch.size()) + " deltas)";
  }
  uint64_t WireSize() const override;
};

// Inter-node control (not seen by devices): the downstream path of a stream
// was lost; propagated hop-by-hop toward the BRASS (§4 axiom 1, upstream
// direction).
struct StreamDetachedFrame : Message {
  StreamKey key;
  std::string reason;

  std::string Describe() const override { return "StreamDetached(" + key.ToString() + ")"; }
};

// Inter-node (BRASS host -> proxy -> POP; never seen by devices): one update
// event's *envelope* for the listed streams, whose app placed its
// coarse-filter and conflation stages at the POP
// (BrassPlacement::kPopFilterConflate). The host sends one frame per proxy
// connection and the proxy splits it per POP, so an event crosses the
// backbone once per (host, POP) however many of the POP's streams it is
// for. The POP filters it once, then paces, conflates and resolves a copy
// per listed stream.
struct EnvelopeFrame : Message {
  std::vector<StreamKey> streams;
  // What the edge and the regional fetch need of the event: id and version
  // (conflation, payload cache), quality (the coarse filter) and author
  // (the WAS privacy check).
  Value metadata;
  // Newest-version-wins conflation inputs, mirroring DeliverOptions
  // (src/brass/delivery_queue.h), plus the origin timestamp the POP stamps
  // into each delivered payload for e2e latency accounting.
  std::string conflation_key;
  uint64_t version = 0;
  int64_t event_created_at = 0;
  // `trace` is the host's "brass.process" span for this frame; the POP's
  // per-stream spans are its children.

  std::string Describe() const override {
    return "Envelope(" + conflation_key + " v" + std::to_string(version) + ", " +
           std::to_string(streams.size()) + " streams)";
  }
  // A frame header, the envelope priced like a delta (16 B + its fields)
  // and 16 B per listed StreamKey.
  uint64_t WireSize() const override {
    return 32 + (16 + metadata.WireSize() + conflation_key.size() + trace.WireBytes()) +
           16 * streams.size();
  }
};

// Inter-node control (POP -> BRASS host, routed like an Ack along `key`'s
// path): the POP's payload cache missed for this versioned object; fetch it
// regionally — with per-viewer privacy — and reply with a PopFillFrame.
// `viewers` lists the viewers whose envelope of this object version waits
// at the POP and whom neither the POP's cache nor an outstanding fetch
// covers (docs/BURST.md "Placement"), so one regional fetch answers every
// envelope waiting when it leaves.
struct PopFetchFrame : Message {
  StreamKey key;     // the stream the fetch goes up through (and returns by)
  std::string app;
  Value metadata;    // the event metadata to fetch by (id, version, ...)
  std::vector<int64_t> viewers;

  std::string Describe() const override {
    return "PopFetch(" + key.ToString() + ", " + std::to_string(viewers.size()) + " viewers)";
  }
  uint64_t WireSize() const override {
    return 32 + metadata.WireSize() + 8 * viewers.size();
  }
};

// Inter-node control (BRASS host -> POP): the payload + per-viewer privacy
// decisions answering a PopFetchFrame, one per requested viewer. One fill
// fans out to every stream at the POP waiting on those viewers — the
// payload crosses the backbone once per fetch, not once per stream.
struct PopFillFrame : Message {
  StreamKey key;
  std::string app;
  int64_t object = 0;
  uint64_t version = 0;
  bool ok = false;   // false: no viewer allowed, or the fetch failed; waiters drop
  Value payload;
  std::vector<std::pair<int64_t, bool>> decisions;  // viewer -> allowed

  std::string Describe() const override {
    return "PopFill(" + key.ToString() + ", object " + std::to_string(object) + " v" +
           std::to_string(version) + ")";
  }
  uint64_t WireSize() const override {
    return 32 + payload.WireSize() + 9 * decisions.size();
  }
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_FRAMES_H_

#include "src/burst/frames.h"

#include <cassert>

namespace bladerunner {

// The wire-format keys of the well-known header fields. Private to this
// file: everything else goes through StreamHeaderView / StreamHeader.
namespace {
constexpr char kHeaderApp[] = "app";                   // application name
constexpr char kHeaderSubscription[] = "subscription";  // GraphQL text
constexpr char kHeaderViewer[] = "viewer";             // authenticated uid
constexpr char kHeaderBrassHost[] = "brass_host";      // sticky-routing target
constexpr char kHeaderResumeToken[] = "resume";        // sync offset
constexpr char kHeaderDurable[] = "durable";           // durable-tier marker
constexpr char kHeaderRegion[] = "region";             // preferred DC region
constexpr char kHeaderPlacement[] = "placement";       // edge-placement stamp

// The RFC 7386 merge patch that turns `from` into `to`. A key `to` maps to
// null reads as absent: a merge patch cannot tell the two apart.
Value MergePatch(const Value& from, const Value& to) {
  if (!from.is_map() || !to.is_map()) {
    return to;  // a non-map patch replaces its target whole
  }
  Value patch(ValueMap{});
  for (const auto& [key, value] : to.AsMap()) {
    const Value& before = from.Get(key);
    if (before != value) {
      patch.Set(key, MergePatch(before, value));
    }
  }
  for (const auto& [key, value] : from.AsMap()) {
    if (!to.Has(key)) {
      patch.Set(key, nullptr);
    }
  }
  return patch;
}

// RFC 7386 MergePatch(target, patch), written into `target`.
void ApplyMergePatch(const Value& patch, Value& target) {
  if (!patch.is_map()) {
    target = patch;
    return;
  }
  if (!target.is_map()) {
    target = Value(ValueMap{});
  }
  for (const auto& [key, value] : patch.AsMap()) {
    if (value.is_null()) {
      target.Erase(key);
    } else if (!value.is_map()) {
      target.Set(key, value);
    } else {
      Value member = target.Get(key);
      ApplyMergePatch(value, member);
      target.Set(key, std::move(member));
    }
  }
}
}  // namespace

StreamHeaderView::StreamHeaderView(const Value& header) {
  static const std::string kEmpty;
  app_ = &kEmpty;
  subscription_ = &kEmpty;
  if (!header.is_map()) {
    return;
  }
  // One pass over the (sorted) wire map; each well-known field is decoded
  // into a POD member so repeated accessor calls never re-hit the map.
  for (const auto& [key, value] : header.AsMap()) {
    if (key == kHeaderApp) {
      app_ = &value.AsString();
    } else if (key == kHeaderSubscription) {
      subscription_ = &value.AsString();
    } else if (key == kHeaderViewer) {
      viewer_ = value.AsInt(0);
    } else if (key == kHeaderBrassHost) {
      brass_host_ = value.AsInt(0);
    } else if (key == kHeaderResumeToken) {
      if (value.is_number()) {
        resume_token_ = value.AsInt(0);
        has_resume_token_ = true;
      }
    } else if (key == kHeaderDurable) {
      durable_ = value.AsBool(false);
    } else if (key == kHeaderRegion) {
      if (value.is_number()) {
        region_ = static_cast<int32_t>(value.AsInt(0));
        has_region_ = true;
      }
    } else if (key == kHeaderPlacement) {
      placement_ = static_cast<int32_t>(value.AsInt(0));
    }
  }
}

StreamHeader& StreamHeader::set_app(const std::string& app) {
  value_.Set(kHeaderApp, app);
  return *this;
}

StreamHeader& StreamHeader::set_subscription(const std::string& text) {
  value_.Set(kHeaderSubscription, text);
  return *this;
}

StreamHeader& StreamHeader::set_viewer(int64_t viewer) {
  value_.Set(kHeaderViewer, viewer);
  return *this;
}

StreamHeader& StreamHeader::set_brass_host(int64_t host_id) {
  value_.Set(kHeaderBrassHost, host_id);
  return *this;
}

StreamHeader& StreamHeader::set_resume_token(int64_t token) {
  value_.Set(kHeaderResumeToken, token);
  return *this;
}

StreamHeader& StreamHeader::set_durable(bool durable) {
  value_.Set(kHeaderDurable, durable);
  return *this;
}

StreamHeader& StreamHeader::set_region(int32_t region) {
  value_.Set(kHeaderRegion, static_cast<int64_t>(region));
  return *this;
}

StreamHeader& StreamHeader::set_placement(int32_t placement) {
  if (placement == 0) {
    // Erase rather than store 0: a never-stamped header and a cleared one
    // are the same wire bytes, which keeps placement-off runs byte-identical.
    value_.Erase(kHeaderPlacement);
  } else {
    value_.Set(kHeaderPlacement, static_cast<int64_t>(placement));
  }
  return *this;
}

const char* ToString(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kData:
      return "data";
    case DeltaKind::kFlowStatus:
      return "flow_status";
    case DeltaKind::kRewrite:
      return "rewrite_request";
    case DeltaKind::kTermination:
      return "termination";
  }
  return "unknown";
}

const char* ToString(FlowStatus status) {
  switch (status) {
    case FlowStatus::kDegraded:
      return "degraded";
    case FlowStatus::kRecovered:
      return "recovered";
    case FlowStatus::kDegradeToPoll:
      return "degrade_to_poll";
    case FlowStatus::kResumeStream:
      return "resume_stream";
    case FlowStatus::kRestarted:
      return "restarted";
  }
  return "unknown";
}

const char* ToString(TerminateReason reason) {
  switch (reason) {
    case TerminateReason::kComplete:
      return "complete";
    case TerminateReason::kCancelled:
      return "cancelled";
    case TerminateReason::kRedirect:
      return "redirect";
    case TerminateReason::kError:
      return "error";
  }
  return "unknown";
}

Delta Delta::Data(Value payload, uint64_t seq) {
  Delta d;
  d.kind = DeltaKind::kData;
  d.payload = std::move(payload);
  d.seq = seq;
  return d;
}

Delta Delta::Flow(FlowStatus status, std::string detail) {
  Delta d;
  d.kind = DeltaKind::kFlowStatus;
  d.status = status;
  d.detail = std::move(detail);
  return d;
}

Delta Delta::Rewrite(const Value& base, const Value& header) {
  Delta d;
  d.kind = DeltaKind::kRewrite;
  d.rewrite.patch = MergePatch(base, header);
  d.rewrite.base = base;
  d.rewrite.header = header;
  return d;
}

Delta Delta::Terminate(TerminateReason reason, std::string detail) {
  Delta d;
  d.kind = DeltaKind::kTermination;
  d.reason = reason;
  d.detail = std::move(detail);
  return d;
}

void Delta::ApplyRewrite(Value& header) const {
  assert(kind == DeltaKind::kRewrite);
  if (header == rewrite.base) {
    header = rewrite.header;
  } else {
    ApplyMergePatch(rewrite.patch, header);
  }
}

uint64_t Delta::WireSize() const {
  switch (kind) {
    case DeltaKind::kData:
      return 16 + payload.WireSize() + trace.WireBytes();
    case DeltaKind::kFlowStatus:
      return 8 + detail.size();
    case DeltaKind::kRewrite:
      return 8 + rewrite.patch.WireSize();
    case DeltaKind::kTermination:
      return 8 + detail.size();
  }
  return 8;
}

uint64_t ResponseFrame::WireSize() const {
  uint64_t total = 24;
  for (const Delta& d : batch) {
    total += d.WireSize();
  }
  return total;
}

}  // namespace bladerunner

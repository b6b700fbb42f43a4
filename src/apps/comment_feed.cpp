#include "src/apps/comment_feed.h"

namespace bladerunner {

LiveQueryAppSpec CommentFeedSpec() {
  LiveQueryAppSpec spec;
  spec.name = "LiveFeed";
  spec.conflatable = true;
  spec.fetch_payload = true;
  return spec;
}

BrassAppFactory CommentFeedFactory() {
  return LiveQueryAdapterApp::Factory(CommentFeedSpec());
}

BrassAppDescriptor CommentFeedDescriptor() {
  return LiveQueryAdapterApp::Descriptor(CommentFeedSpec());
}

}  // namespace bladerunner

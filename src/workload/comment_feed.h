// Deterministic comment-feed mutation workload for live-query benches and
// tests: a pre-generated op list (comments, comment deletes, likes,
// unlikes) applied directly to TAO at fixed simulated times. Because the
// ops and their apply times are fixed up front, two clusters replaying the
// same list see byte-identical stores and change streams regardless of
// what the subscriber side does with the resulting updates — which is what
// lets the ablation bench prove bit-identical view contents across modes.

#ifndef BLADERUNNER_SRC_WORKLOAD_COMMENT_FEED_H_
#define BLADERUNNER_SRC_WORKLOAD_COMMENT_FEED_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/random.h"
#include "src/tao/store.h"

namespace bladerunner {

enum class CommentFeedOpKind {
  kPostComment,    // new comment object + (video, kComment) edge
  kDeleteComment,  // tombstone the (video, kComment) edge of an earlier op
  kEditComment,    // rewrite an earlier comment object (new version)
  kLike,           // (post, kLike, user) edge
  kUnlike,         // tombstone an earlier like
};

struct CommentFeedOp {
  CommentFeedOpKind kind = CommentFeedOpKind::kPostComment;
  SimTime at = 0;       // apply time, relative to replay start
  ObjectId anchor = 0;  // video (comment ops) or post (like ops)
  UserId user = 0;      // author / liker
  int target = -1;      // index of the kPostComment op a delete/edit refers to
  std::string text;
};

struct CommentFeedShape {
  int num_ops = 400;
  SimTime spacing = Millis(25);      // ops are strictly spaced: no time ties
  double delete_fraction = 0.12;     // of eligible ops, deletes of live comments
  double edit_fraction = 0.10;       // of eligible ops, edits of live comments
  double like_fraction = 0.30;       // of ops, likes (vs comments)
  double unlike_fraction = 0.40;     // of like ops, unlikes of live likes
};

// Generates a deterministic op list over the given anchors/users. Deletes
// and edits always target a comment that is still live at that point in
// the list; unlikes target a live (post, user) like.
std::vector<CommentFeedOp> GenerateCommentFeedOps(const CommentFeedShape& shape,
                                                  const std::vector<ObjectId>& anchors,
                                                  const std::vector<UserId>& users, Rng& rng);

// Applies ops directly to TAO (no WAS, no modeled write latency), keeping
// the op-index -> comment-object-id mapping deletes and edits need.
class CommentFeedApplier {
 public:
  CommentFeedApplier(Simulator* sim, TaoStore* tao) : ctx_(sim), tao_(tao) {}

  // Applies op `index` of the list at the current simulated time. Returns
  // the comment object id for kPostComment/kEditComment ops,
  // kInvalidObjectId otherwise.
  ObjectId Apply(const CommentFeedOp& op, int index);

  // Schedules every op at `start + op.at`. The op list must outlive the
  // run.
  void ScheduleAll(const std::vector<CommentFeedOp>& ops, SimTime start = 0);

 private:
  SimContext ctx_;
  TaoStore* tao_;
  std::unordered_map<int, ObjectId> comment_ids_;  // kPostComment op index -> id
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_WORKLOAD_COMMENT_FEED_H_

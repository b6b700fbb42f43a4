#include "src/workload/comment_feed.h"

#include <utility>

namespace bladerunner {

std::vector<CommentFeedOp> GenerateCommentFeedOps(const CommentFeedShape& shape,
                                                  const std::vector<ObjectId>& anchors,
                                                  const std::vector<UserId>& users, Rng& rng) {
  std::vector<CommentFeedOp> ops;
  ops.reserve(static_cast<size_t>(shape.num_ops));
  // Live comments as (op index, anchor); live likes as (anchor, user).
  std::vector<std::pair<int, ObjectId>> live_comments;
  std::vector<std::pair<ObjectId, UserId>> live_likes;

  for (int i = 0; i < shape.num_ops; ++i) {
    CommentFeedOp op;
    op.at = static_cast<SimTime>(i + 1) * shape.spacing;
    if (rng.Bernoulli(shape.like_fraction)) {
      if (!live_likes.empty() && rng.Bernoulli(shape.unlike_fraction)) {
        size_t pick = rng.Index(live_likes.size());
        op.kind = CommentFeedOpKind::kUnlike;
        op.anchor = live_likes[pick].first;
        op.user = live_likes[pick].second;
        live_likes.erase(live_likes.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        op.kind = CommentFeedOpKind::kLike;
        op.anchor = anchors[rng.Index(anchors.size())];
        op.user = users[rng.Index(users.size())];
        // A duplicate (anchor, user) like is fine: TAO appends another
        // edge and the count view counts edges, not distinct likers.
        live_likes.emplace_back(op.anchor, op.user);
      }
    } else if (!live_comments.empty() && rng.Bernoulli(shape.delete_fraction)) {
      size_t pick = rng.Index(live_comments.size());
      op.kind = CommentFeedOpKind::kDeleteComment;
      op.target = live_comments[pick].first;
      op.anchor = live_comments[pick].second;
      live_comments.erase(live_comments.begin() + static_cast<ptrdiff_t>(pick));
    } else if (!live_comments.empty() && rng.Bernoulli(shape.edit_fraction)) {
      size_t pick = rng.Index(live_comments.size());
      op.kind = CommentFeedOpKind::kEditComment;
      op.target = live_comments[pick].first;
      op.anchor = live_comments[pick].second;
      op.text = "edit of op " + std::to_string(op.target) + " at " + std::to_string(i);
    } else {
      op.kind = CommentFeedOpKind::kPostComment;
      op.anchor = anchors[rng.Index(anchors.size())];
      op.user = users[rng.Index(users.size())];
      op.text = "comment " + std::to_string(i);
      live_comments.emplace_back(i, op.anchor);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

ObjectId CommentFeedApplier::Apply(const CommentFeedOp& op, int index) {
  switch (op.kind) {
    case CommentFeedOpKind::kPostComment: {
      Object comment;
      comment.otype = "comment";
      comment.data.Set("text", op.text);
      comment.data.Set("author", op.user);
      comment.data.Set("video", op.anchor);
      comment.data.Set("time", ctx_.Now());
      ObjectId id = tao_->PutObject(std::move(comment));
      comment_ids_[index] = id;
      Assoc edge;
      edge.id1 = op.anchor;
      edge.atype = AssocType::kComment;
      edge.id2 = id;
      edge.data.Set("author", op.user);
      tao_->AddAssoc(std::move(edge));
      return id;
    }
    case CommentFeedOpKind::kDeleteComment: {
      auto it = comment_ids_.find(op.target);
      if (it == comment_ids_.end()) {
        return kInvalidObjectId;
      }
      tao_->DeleteAssoc(op.anchor, AssocType::kComment, it->second);
      return kInvalidObjectId;
    }
    case CommentFeedOpKind::kEditComment: {
      auto it = comment_ids_.find(op.target);
      if (it == comment_ids_.end()) {
        return kInvalidObjectId;
      }
      auto existing = tao_->GetObject(tao_->LeaderRegionOf(it->second), it->second, nullptr);
      if (!existing.has_value()) {
        return kInvalidObjectId;
      }
      Object edited = *existing;
      edited.data.Set("text", op.text);
      tao_->PutObject(std::move(edited));
      return it->second;
    }
    case CommentFeedOpKind::kLike: {
      Assoc edge;
      edge.id1 = op.anchor;
      edge.atype = AssocType::kLike;
      edge.id2 = op.user;
      tao_->AddAssoc(std::move(edge));
      return kInvalidObjectId;
    }
    case CommentFeedOpKind::kUnlike: {
      tao_->DeleteAssoc(op.anchor, AssocType::kLike, op.user);
      return kInvalidObjectId;
    }
  }
  return kInvalidObjectId;
}

void CommentFeedApplier::ScheduleAll(const std::vector<CommentFeedOp>& ops, SimTime start) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const CommentFeedOp& op = ops[i];
    ctx_.Schedule(start + op.at - ctx_.Now(),
                  [this, &op, i]() { Apply(op, static_cast<int>(i)); });
  }
}

}  // namespace bladerunner

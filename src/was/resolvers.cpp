// GCC 12 reports spurious -Wmaybe-uninitialized on std::variant-backed
// Value moves during vector growth under -O2 (a known false positive in
// GCC's uninit analysis for variants); suppress it for this file only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "src/was/resolvers.h"

#include <algorithm>
#include <string>
#include <vector>

namespace bladerunner {

namespace {

constexpr size_t kDefaultPageSize = 25;
constexpr size_t kCommentPollPageSize = 25;
constexpr SimTime kOnlineTtl = Seconds(60);

// ---- shared building blocks ----

Value UserValue(const Object& user) {
  Value v = user.data;
  v.Set("__type", "User");
  v.Set("id", user.id);
  return v;
}

Value CommentValue(const Object& comment) {
  Value v = comment.data;
  v.Set("__type", "Comment");
  v.Set("id", comment.id);
  return v;
}

// Stamps the shard + per-shard mutation sequence of the most recent TAO
// write into publish metadata. Downstream consumers (conflation keys, the
// livequery change stream) anchor ordering decisions to this instead of
// wall-clock event times.
void StampMutationSeq(const WasContext& was, PublishSpec& publish) {
  const TaoMutationStamp& stamp = was.tao->last_stamp();
  publish.metadata.Set("shard", static_cast<int64_t>(stamp.shard));
  publish.metadata.Set("shardSeq", static_cast<int64_t>(stamp.seq));
}

std::vector<UserId> FriendsOf(ExecContext& ctx, UserId user) {
  WasContext& was = WasContext::Of(ctx);
  std::vector<Assoc> assocs = was.tao->AssocRange(was.region, user, AssocType::kFriend, kBeginningOfTime,
                                                  kSimTimeNever, 5000, &ctx.cost);
  std::vector<UserId> friends;
  friends.reserve(assocs.size());
  for (const Assoc& a : assocs) {
    friends.push_back(a.id2);
  }
  return friends;
}

// ---- query resolvers ----

Value ResolveUser(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId id = info.field.Arg("id").AsInt();
  auto object = was.tao->GetObject(was.region, id, &info.ctx.cost);
  if (!object.has_value()) {
    return Value(nullptr);
  }
  return UserValue(*object);
}

Value ResolveVideo(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId id = info.field.Arg("id").AsInt();
  auto object = was.tao->GetObject(was.region, id, &info.ctx.cost);
  if (!object.has_value()) {
    return Value(nullptr);
  }
  Value v = object->data;
  v.Set("__type", "Video");
  v.Set("id", object->id);
  return v;
}

// The canonical polling query: "all comments on video V since timestamp X".
// Range read on a (frequently hot, thus partitioned) index plus one point
// read per returned comment (§1 footnote 5).
Value ResolveComments(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId video = info.field.Arg("video").AsInt();
  SimTime after = info.field.Arg("after").AsInt(0);
  size_t first = static_cast<size_t>(info.field.Arg("first").AsInt(kDefaultPageSize));
  // Oldest-first pagination: a poller catching up through a backlog walks
  // forward from its watermark, page by page.
  std::vector<Assoc> assocs = was.tao->AssocRangeAscending(
      was.region, video, AssocType::kComment, after, kSimTimeNever, first, &info.ctx.cost);
  ValueList out;
  for (const Assoc& a : assocs) {
    auto comment = was.tao->GetObject(was.region, a.id2, &info.ctx.cost);
    if (!comment.has_value()) {
      continue;
    }
    UserId author = comment->data.Get("author").AsInt(0);
    if (!was.was->PrivacyCheck(info.ctx.viewer_id, author, &info.ctx.cost)) {
      // Emit a contentless placeholder so the client's pagination
      // watermark can advance past suppressed entries.
      Value tombstone;
      tombstone.Set("suppressed", true);
      tombstone.Set("indexTime", a.time);
      out.push_back(std::move(tombstone));
      continue;
    }
    Value v = CommentValue(*comment);
    // The index position, i.e. the next poll's `after` watermark. Distinct
    // from "time" (creation): comments index only after ranking.
    v.Set("indexTime", a.time);
    out.push_back(std::move(v));
  }
  return Value(std::move(out));
}

// The *intersect* poll: comments on V authored by the viewer's friends.
Value ResolveCommentsByFriends(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId video = info.field.Arg("video").AsInt();
  SimTime after = info.field.Arg("after").AsInt(0);
  size_t first = static_cast<size_t>(info.field.Arg("first").AsInt(kDefaultPageSize));
  std::vector<UserId> friends = FriendsOf(info.ctx, info.ctx.viewer_id);
  std::vector<Assoc> assocs = was.tao->AssocIntersect(was.region, video, AssocType::kComment,
                                                      friends, after, first, &info.ctx.cost);
  ValueList out;
  for (const Assoc& a : assocs) {
    auto comment = was.tao->GetObject(was.region, a.id2, &info.ctx.cost);
    if (comment.has_value()) {
      out.push_back(CommentValue(*comment));
    }
  }
  return Value(std::move(out));
}

Value ResolveActiveFriends(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  std::vector<UserId> friends = FriendsOf(info.ctx, info.ctx.viewer_id);
  SimTime now = was.was->sim()->Now();
  ValueList out;
  for (UserId f : friends) {
    auto user = was.tao->GetObject(was.region, f, &info.ctx.cost);
    if (!user.has_value()) {
      continue;
    }
    SimTime last_active = user->data.Get("last_active").AsInt(0);
    if (last_active > 0 && now - last_active <= kOnlineTtl) {
      out.push_back(UserValue(*user));
    }
  }
  return Value(std::move(out));
}

// The stories tray requires two intersect-class queries under polling (§3.4).
Value ResolveStoriesTray(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  size_t first = static_cast<size_t>(info.field.Arg("first").AsInt(10));
  std::vector<UserId> friends = FriendsOf(info.ctx, info.ctx.viewer_id);
  // Intersect #1: containers of friends having fresh stories.
  // Intersect #2: ranked stories inside those containers.
  // Modeled as two intersect reads over the friends' containers.
  info.ctx.cost.intersect_reads += 2;
  info.ctx.cost.shards_touched += 2 * (1 + friends.size() / 16);
  struct RankedContainer {
    UserId owner;
    double rank;
    ValueList stories;
  };
  std::vector<RankedContainer> containers;
  for (UserId f : friends) {
    std::vector<Assoc> stories = was.tao->AssocRange(
        was.region, f, AssocType::kStory, was.was->sim()->Now() - Hours(24), kSimTimeNever, 20,
        &info.ctx.cost);
    if (stories.empty()) {
      continue;
    }
    RankedContainer rc;
    rc.owner = f;
    rc.rank = 0.0;
    for (const Assoc& a : stories) {
      rc.rank = std::max(rc.rank, a.data.Get("rank").AsDouble(0.0));
      Value story = a.data;
      story.Set("__type", "Story");
      story.Set("id", a.id2);
      rc.stories.push_back(std::move(story));
    }
    containers.push_back(std::move(rc));
  }
  std::sort(containers.begin(), containers.end(),
            [](const RankedContainer& a, const RankedContainer& b) { return a.rank > b.rank; });
  if (containers.size() > first) {
    containers.resize(first);
  }
  ValueList out;
  for (RankedContainer& rc : containers) {
    ValueMap m;
    m["__type"] = Value("StoryContainer");
    m["owner"] = Value(rc.owner);
    m["rank"] = Value(rc.rank);
    m["stories"] = Value(std::move(rc.stories));
    out.push_back(Value(std::move(m)));
  }
  return Value(std::move(out));
}

Value ResolveThread(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId id = info.field.Arg("id").AsInt();
  auto object = was.tao->GetObject(was.region, id, &info.ctx.cost);
  if (!object.has_value()) {
    return Value(nullptr);
  }
  Value v = object->data;
  v.Set("__type", "Thread");
  v.Set("id", object->id);
  return v;
}

Value ResolveMailbox(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  uint64_t after_seq = static_cast<uint64_t>(info.field.Arg("afterSeq").AsInt(0));
  size_t first = static_cast<size_t>(info.field.Arg("first").AsInt(kDefaultPageSize));
  std::vector<Assoc> assocs =
      was.tao->AssocRange(was.region, info.ctx.viewer_id, AssocType::kMessage, kBeginningOfTime, kSimTimeNever,
                          2000, &info.ctx.cost);
  // Assoc list is newest-first; collect messages with seq > after_seq and
  // return them oldest-first so clients can apply in order.
  ValueList out;
  for (const Assoc& a : assocs) {
    uint64_t seq = static_cast<uint64_t>(a.data.Get("seq").AsInt(0));
    if (seq <= after_seq) {
      break;
    }
    auto msg = was.tao->GetObject(was.region, a.id2, &info.ctx.cost);
    if (!msg.has_value()) {
      continue;
    }
    Value v = msg->data;
    v.Set("__type", "Message");
    v.Set("id", msg->id);
    v.Set("seq", static_cast<int64_t>(seq));
    out.push_back(std::move(v));
    if (out.size() >= first) {
      break;
    }
  }
  std::reverse(out.begin(), out.end());
  return Value(std::move(out));
}

// ---- mutation resolvers ----

Value MutatePostComment(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId video = info.field.Arg("video").AsInt();
  const std::string& text = info.field.Arg("text").AsString();
  std::string language = info.field.Arg("language").AsString();
  if (language.empty()) {
    language = "en";
  }
  Simulator* sim = was.was->sim();

  Object comment;
  comment.otype = "comment";
  comment.data.Set("text", text);
  comment.data.Set("author", info.ctx.viewer_id);
  comment.data.Set("video", video);
  comment.data.Set("language", language);
  comment.data.Set("time", sim->Now());
  // Quality score: in production an ML model assigns this during ranking;
  // here it is sampled once at creation and carried in the metadata.
  double quality = std::clamp(sim->rng().Normal(0.55, 0.22), 0.0, 1.0);
  comment.data.Set("quality", quality);
  uint64_t version = 0;
  ObjectId id = was.tao->PutObject(std::move(comment), &version);
  info.ctx.cost.writes += 1;

  // The comment enters the *serving index* (the video's comment assoc
  // list, which polls range-read) only once the quality pipeline has
  // ranked it — production comments are not servable before ranking.
  // The object itself is written immediately: BRASS point fetches (which
  // happen strictly after the ranked publish) read it by id.
  TaoStore* tao = was.tao;
  UserId author = info.ctx.viewer_id;
  auto index_comment = [tao, video, id, author, quality]() {
    Assoc edge;
    edge.id1 = video;
    edge.atype = AssocType::kComment;
    edge.id2 = id;
    edge.data.Set("author", author);
    edge.data.Set("quality", quality);
    tao->AddAssoc(std::move(edge));
  };
  info.ctx.cost.writes += 1;

  PublishSpec publish;
  publish.on_published = std::move(index_comment);
  publish.topic = LvcTopic(video);
  publish.metadata.Set("id", id);
  publish.metadata.Set("version", static_cast<int64_t>(version));
  publish.metadata.Set("author", info.ctx.viewer_id);
  publish.metadata.Set("video", video);
  publish.metadata.Set("quality", quality);
  publish.metadata.Set("language", language);
  StampMutationSeq(was, publish);  // stamp of the comment-object put
  publish.requires_ranking = true;

  // Hot-video strategy switch (§3.4): under extreme comment volume, the
  // broadcast topic carries only exceptional comments; the rest go to
  // per-author topics that BRASSes subscribe to for each viewer's friends;
  // low-ranked comments are discarded before ever reaching Pylon.
  const WasConfig& config = was.was->config();
  bool hot = config.lvc_hot_strategy &&
             was.tao->IndexPartitions(video, AssocType::kComment) >=
                 config.lvc_hot_partition_threshold;
  if (hot) {
    was.was->metric_handles().lvc_hot_comments->Increment();
    if (quality < config.lvc_hot_discard_below) {
      was.was->metric_handles().lvc_hot_discarded->Increment();
      publish.topic.clear();  // discarded: no publish at all
    } else if (quality < config.lvc_hot_broadcast_above) {
      publish.topic = LvcUserTopic(video, info.ctx.viewer_id);
    }
  }
  if (!publish.topic.empty()) {
    was.publishes.push_back(std::move(publish));
  } else {
    // Still index it once ranking completes: polls can see discarded-from-
    // push comments, they are just never streamed.
    was.publishes.push_back(PublishSpec{});
    was.publishes.back().on_published = publish.on_published;
    was.publishes.back().requires_ranking = true;
    was.publishes.back().topic.clear();
  }

  ValueMap out;
  out["__type"] = Value("Comment");
  out["id"] = Value(id);
  return Value(std::move(out));
}

// Rewrites an existing comment's text in place. TAO stamps a new object
// version on the put; the LVC publish carries that version so downstream
// consumers (POP payload caches, conflation keys) can tell the edit apart
// from the original. The comment keeps its ranking-time quality score and
// is already in the serving index, so the edit skips the ranking pipeline.
Value MutateEditComment(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId id = info.field.Arg("comment").AsInt();
  const std::string& text = info.field.Arg("text").AsString();
  auto existing = was.tao->GetObject(was.region, id, &info.ctx.cost);
  if (!existing.has_value() || existing->otype != "comment") {
    return Value();
  }
  ObjectId video = existing->data.Get("video").AsInt(0);
  Object comment = *existing;
  comment.data.Set("text", text);
  uint64_t version = 0;
  was.tao->PutObject(std::move(comment), &version);
  info.ctx.cost.writes += 1;

  PublishSpec publish;
  publish.topic = LvcTopic(video);
  publish.metadata.Set("id", id);
  publish.metadata.Set("version", static_cast<int64_t>(version));
  publish.metadata.Set("author", existing->data.Get("author").AsInt(0));
  publish.metadata.Set("video", video);
  publish.metadata.Set("quality", existing->data.Get("quality").AsDouble(0.0));
  publish.metadata.Set("language", existing->data.Get("language").AsString());
  StampMutationSeq(was, publish);  // stamp of the comment-object put
  was.publishes.push_back(std::move(publish));

  ValueMap out;
  out["__type"] = Value("Comment");
  out["id"] = Value(id);
  out["version"] = Value(static_cast<int64_t>(version));
  return Value(std::move(out));
}

Value MutateLikePost(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId post = info.field.Arg("post").AsInt();
  Assoc edge;
  edge.id1 = post;
  edge.atype = AssocType::kLike;
  edge.id2 = info.ctx.viewer_id;
  was.tao->AddAssoc(std::move(edge));
  info.ctx.cost.writes += 1;

  PublishSpec publish;
  publish.topic = "/Likes/" + std::to_string(post);
  publish.metadata.Set("post", post);
  publish.metadata.Set("author", info.ctx.viewer_id);
  StampMutationSeq(was, publish);
  was.publishes.push_back(std::move(publish));
  return Value(true);
}

Value MutateHeartbeatOnline(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  Simulator* sim = was.was->sim();
  auto user = was.tao->GetObject(was.region, info.ctx.viewer_id, &info.ctx.cost);
  uint64_t version = 0;
  if (user.has_value()) {
    user->data.Set("last_active", sim->Now());
    was.tao->PutObject(*user, &version);
    info.ctx.cost.writes += 1;
  }
  PublishSpec publish;
  publish.topic = ActiveStatusTopic(info.ctx.viewer_id);
  publish.metadata.Set("user", info.ctx.viewer_id);
  publish.metadata.Set("version", static_cast<int64_t>(version));
  publish.metadata.Set("online", true);
  publish.metadata.Set("at", sim->Now());
  if (version != 0) {
    StampMutationSeq(was, publish);  // no TAO write when the user is unknown
  }
  was.publishes.push_back(std::move(publish));
  return Value(true);
}

Value MutateSetTyping(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId thread = info.field.Arg("thread").AsInt();
  bool typing = info.field.Arg("typing").AsBool(true);
  // Typing state is ephemeral: no TAO write, publish only.
  PublishSpec publish;
  publish.topic = TypingTopic(thread, info.ctx.viewer_id);
  publish.metadata.Set("thread", thread);
  publish.metadata.Set("user", info.ctx.viewer_id);
  publish.metadata.Set("typing", typing);
  was.publishes.push_back(std::move(publish));
  return Value(true);
}

Value MutatePostStory(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  Simulator* sim = was.was->sim();
  Object story;
  story.otype = "story";
  story.data.Set("author", info.ctx.viewer_id);
  story.data.Set("text", info.field.Arg("text").AsString());
  story.data.Set("time", sim->Now());
  double rank = std::clamp(sim->rng().Normal(0.5, 0.25), 0.0, 1.0);
  story.data.Set("rank", rank);
  uint64_t version = 0;
  ObjectId id = was.tao->PutObject(std::move(story), &version);
  info.ctx.cost.writes += 1;

  Assoc edge;
  edge.id1 = info.ctx.viewer_id;  // container == the user
  edge.atype = AssocType::kStory;
  edge.id2 = id;
  edge.data.Set("author", info.ctx.viewer_id);
  edge.data.Set("rank", rank);
  was.tao->AddAssoc(std::move(edge));
  info.ctx.cost.writes += 1;

  PublishSpec publish;
  publish.topic = StoriesTopic(info.ctx.viewer_id);
  publish.metadata.Set("id", id);
  publish.metadata.Set("version", static_cast<int64_t>(version));
  publish.metadata.Set("author", info.ctx.viewer_id);
  publish.metadata.Set("rank", rank);
  StampMutationSeq(was, publish);  // stamp of the container's kStory add
  was.publishes.push_back(std::move(publish));

  ValueMap out;
  out["__type"] = Value("Story");
  out["id"] = Value(id);
  return Value(std::move(out));
}

Value MutateSendMessage(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId thread = info.field.Arg("thread").AsInt();
  auto thread_obj = was.tao->GetObject(was.region, thread, &info.ctx.cost);
  if (!thread_obj.has_value()) {
    info.ctx.AddError("sendMessage: unknown thread " + std::to_string(thread));
    return Value(nullptr);
  }
  Simulator* sim = was.was->sim();
  Object message;
  message.otype = "message";
  message.data.Set("author", info.ctx.viewer_id);
  message.data.Set("thread", thread);
  message.data.Set("text", info.field.Arg("text").AsString());
  message.data.Set("time", sim->Now());
  uint64_t version = 0;
  ObjectId id = was.tao->PutObject(std::move(message), &version);
  info.ctx.cost.writes += 1;

  // Mailbox model (§4): every member's mailbox gets the message with that
  // mailbox's next consecutive sequence number.
  for (const Value& member : thread_obj->data.Get("members").AsList()) {
    UserId uid = member.AsInt(0);
    if (uid == 0) {
      continue;
    }
    // Sequence numbers are allocated at the mailbox leader: a follower's
    // replication-lagged view could hand two fast messages the same number.
    size_t count = was.tao->AssocCountAtLeader(uid, AssocType::kMessage, &info.ctx.cost);
    uint64_t seq = static_cast<uint64_t>(count) + 1;
    Assoc edge;
    edge.id1 = uid;
    edge.atype = AssocType::kMessage;
    edge.id2 = id;
    edge.data.Set("seq", static_cast<int64_t>(seq));
    edge.data.Set("author", info.ctx.viewer_id);
    edge.data.Set("thread", thread);
    was.tao->AddAssoc(std::move(edge));
    info.ctx.cost.writes += 1;

    PublishSpec publish;
    publish.topic = MailboxTopic(uid);
    publish.metadata.Set("id", id);
    publish.metadata.Set("version", static_cast<int64_t>(version));
    publish.metadata.Set("author", info.ctx.viewer_id);
    publish.metadata.Set("thread", thread);
    publish.metadata.Set("seq", static_cast<int64_t>(seq));
    StampMutationSeq(was, publish);  // stamp of this member's mailbox add
    publish.seq = seq;
    was.publishes.push_back(std::move(publish));
  }

  ValueMap out;
  out["__type"] = Value("Message");
  out["id"] = Value(id);
  return Value(std::move(out));
}

Value MutateAddFriend(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  UserId other = info.field.Arg("user").AsInt();
  MakeFriends(*was.tao, info.ctx.viewer_id, other);
  info.ctx.cost.writes += 2;
  return Value(true);
}

Value MutateBlockUser(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  UserId other = info.field.Arg("user").AsInt();
  BlockUser(*was.tao, info.ctx.viewer_id, other);
  info.ctx.cost.writes += 1;
  return Value(true);
}

Value MutateCreateVideo(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  ObjectId id = CreateVideo(*was.tao, info.ctx.viewer_id, info.field.Arg("title").AsString());
  info.ctx.cost.writes += 1;
  ValueMap out;
  out["__type"] = Value("Video");
  out["id"] = Value(id);
  return Value(std::move(out));
}

Value MutateCreateThread(const ResolveInfo& info) {
  WasContext& was = WasContext::Of(info.ctx);
  std::vector<UserId> members;
  members.push_back(info.ctx.viewer_id);
  for (const Value& m : info.field.Arg("members").AsList()) {
    members.push_back(m.AsInt(0));
  }
  ObjectId id = CreateThread(*was.tao, members);
  info.ctx.cost.writes += 1;
  ValueMap out;
  out["__type"] = Value("Thread");
  out["id"] = Value(id);
  return Value(std::move(out));
}

// ---- subscription resolution ----

SubscriptionResolution ResolveLvcSubscription(const Field& field, UserId viewer,
                                              ExecContext& ctx) {
  SubscriptionResolution r;
  r.app = "LVC";
  int64_t video = field.Arg("videoId").AsInt();
  r.topics.push_back(LvcTopic(video));
  r.context.Set("video", video);
  // Per-viewer relevance needs the viewer's language and friend set
  // ("comments posted by users the viewer does not know are less
  // meaningful", §2).
  WasContext& was = WasContext::Of(ctx);
  auto user = was.tao->GetObject(was.region, viewer, &ctx.cost);
  if (user.has_value()) {
    r.context.Set("language", user->data.Get("language"));
  }
  ValueList friend_list;
  for (UserId f : FriendsOf(ctx, viewer)) {
    friend_list.push_back(Value(f));
    if (was.was->config().lvc_subscribe_friend_topics) {
      r.topics.push_back(LvcUserTopic(video, f));
    }
  }
  r.context.Set("friends", Value(std::move(friend_list)));
  return r;
}

SubscriptionResolution ResolveActiveStatusSubscription(const Field& field, UserId viewer,
                                                       ExecContext& ctx) {
  (void)field;
  SubscriptionResolution r;
  r.app = "AS";
  // One device subscribe results in many BRASS subscriptions (§3.4).
  ValueList friend_list;
  for (UserId f : FriendsOf(ctx, viewer)) {
    r.topics.push_back(ActiveStatusTopic(f));
    friend_list.push_back(Value(f));
  }
  r.context.Set("friends", Value(std::move(friend_list)));
  return r;
}

SubscriptionResolution ResolveTypingSubscription(const Field& field, UserId viewer,
                                                 ExecContext& ctx) {
  SubscriptionResolution r;
  r.app = "TI";
  WasContext& was = WasContext::Of(ctx);
  ObjectId thread = field.Arg("threadId").AsInt();
  auto thread_obj = was.tao->GetObject(was.region, thread, &ctx.cost);
  if (!thread_obj.has_value()) {
    r.ok = false;
    r.error = "unknown thread";
    return r;
  }
  for (const Value& member : thread_obj->data.Get("members").AsList()) {
    UserId uid = member.AsInt(0);
    if (uid != 0 && uid != viewer) {
      r.topics.push_back(TypingTopic(thread, uid));
    }
  }
  r.context.Set("thread", thread);
  return r;
}

SubscriptionResolution ResolveStoriesSubscription(const Field& field, UserId viewer,
                                                  ExecContext& ctx) {
  (void)field;
  SubscriptionResolution r;
  r.app = "Stories";
  ValueList friend_list;
  for (UserId f : FriendsOf(ctx, viewer)) {
    r.topics.push_back(StoriesTopic(f));
    friend_list.push_back(Value(f));
  }
  r.context.Set("friends", Value(std::move(friend_list)));
  return r;
}

SubscriptionResolution ResolveMailboxSubscription(const Field& field, UserId viewer,
                                                  ExecContext& ctx) {
  (void)field;
  SubscriptionResolution r;
  r.app = "Messenger";
  WasContext& was = WasContext::Of(ctx);
  r.topics.push_back(MailboxTopic(viewer));
  size_t count = was.tao->AssocCount(was.region, viewer, AssocType::kMessage, &ctx.cost);
  r.context.Set("maxSeq", static_cast<int64_t>(count));
  return r;
}

SubscriptionResolution ResolveTickerSubscription(const Field& field, UserId viewer,
                                                 ExecContext& ctx) {
  (void)viewer;
  (void)ctx;
  SubscriptionResolution r;
  r.app = "Ticker";
  int64_t channel = field.Arg("channel").AsInt(0);
  if (channel == 0) {
    r.ok = false;
    r.error = "unknown channel";
    return r;
  }
  r.topics.push_back(TickerTopic(channel));
  r.context.Set("channel", channel);
  return r;
}

// ---- fetch handlers (BRASS payload fetch, Fig. 5 step 8) ----

Value FetchObjectPayload(const Value& metadata, UserId viewer, ExecContext& ctx, bool* allowed,
                         const char* type_name) {
  (void)viewer;
  WasContext& was = WasContext::Of(ctx);
  ObjectId id = metadata.Get("id").AsInt(0);
  auto object = was.tao->GetObject(was.region, id, &ctx.cost);
  if (!object.has_value()) {
    *allowed = false;
    return Value(nullptr);
  }
  // Report which version this region actually served; a lagging follower
  // can hand back an older version than the event announced.
  was.fetched_object_version = object->version;
  Value payload = object->data;
  payload.Set("__type", type_name);
  payload.Set("id", object->id);
  return payload;
}

}  // namespace

void InstallSocialSchema(WebAppServer& was) {
  Schema& schema = was.schema();
  schema.AddResolver("Query", "user", ResolveUser);
  schema.AddResolver("Query", "video", ResolveVideo);
  schema.AddResolver("Query", "comments", ResolveComments);
  schema.AddResolver("Query", "commentsByFriends", ResolveCommentsByFriends);
  schema.AddResolver("Query", "activeFriends", ResolveActiveFriends);
  schema.AddResolver("Query", "storiesTray", ResolveStoriesTray);
  schema.AddResolver("Query", "thread", ResolveThread);
  schema.AddResolver("Query", "mailbox", ResolveMailbox);

  schema.AddResolver("Mutation", "postComment", MutatePostComment);
  schema.AddResolver("Mutation", "editComment", MutateEditComment);
  schema.AddResolver("Mutation", "likePost", MutateLikePost);
  schema.AddResolver("Mutation", "heartbeatOnline", MutateHeartbeatOnline);
  schema.AddResolver("Mutation", "setTyping", MutateSetTyping);
  schema.AddResolver("Mutation", "postStory", MutatePostStory);
  schema.AddResolver("Mutation", "sendMessage", MutateSendMessage);
  schema.AddResolver("Mutation", "addFriend", MutateAddFriend);
  schema.AddResolver("Mutation", "blockUser", MutateBlockUser);
  schema.AddResolver("Mutation", "createVideo", MutateCreateVideo);
  schema.AddResolver("Mutation", "createThread", MutateCreateThread);

  // "Comment" / "User" / etc. leaf fields resolve from parent properties by
  // default; a nested author object needs a resolver:
  schema.AddResolver("Comment", "authorUser", [](const ResolveInfo& info) {
    WasContext& ctx = WasContext::Of(info.ctx);
    UserId author = info.parent.Get("author").AsInt(0);
    auto user = ctx.tao->GetObject(ctx.region, author, &info.ctx.cost);
    if (!user.has_value()) {
      return Value(nullptr);
    }
    return UserValue(*user);
  });

  was.RegisterSubscriptionResolver("liveVideoComments", ResolveLvcSubscription);
  was.RegisterSubscriptionResolver("activeStatus", ResolveActiveStatusSubscription);
  was.RegisterSubscriptionResolver("typingIndicator", ResolveTypingSubscription);
  was.RegisterSubscriptionResolver("storiesTray", ResolveStoriesSubscription);
  was.RegisterSubscriptionResolver("mailbox", ResolveMailboxSubscription);
  was.RegisterSubscriptionResolver("ticker", ResolveTickerSubscription);

  was.RegisterFetchHandler("LVC",
                           [](const Value& metadata, UserId viewer, ExecContext& ctx,
                              bool* allowed) {
                             return FetchObjectPayload(metadata, viewer, ctx, allowed, "Comment");
                           });
  was.RegisterFetchHandler("Stories",
                           [](const Value& metadata, UserId viewer, ExecContext& ctx,
                              bool* allowed) {
                             return FetchObjectPayload(metadata, viewer, ctx, allowed, "Story");
                           });
  was.RegisterFetchHandler("Messenger",
                           [](const Value& metadata, UserId viewer, ExecContext& ctx,
                              bool* allowed) {
                             Value payload =
                                 FetchObjectPayload(metadata, viewer, ctx, allowed, "Message");
                             payload.Set("seq", metadata.Get("seq"));
                             return payload;
                           });
  // Metadata-only applications: the event itself is the payload.
  was.RegisterFetchHandler("AS", [](const Value& metadata, UserId, ExecContext&, bool*) {
    return metadata;
  });
  was.RegisterFetchHandler("TI", [](const Value& metadata, UserId, ExecContext&, bool*) {
    return metadata;
  });
}

UserId CreateUser(TaoStore& tao, const std::string& name, const std::string& language) {
  Object user;
  user.otype = "user";
  user.data.Set("name", name);
  user.data.Set("language", language);
  user.data.Set("last_active", static_cast<int64_t>(0));
  return tao.PutObject(std::move(user));
}

ObjectId CreateVideo(TaoStore& tao, UserId owner, const std::string& title) {
  Object video;
  video.otype = "video";
  video.data.Set("owner", owner);
  video.data.Set("title", title);
  return tao.PutObject(std::move(video));
}

ObjectId CreateThread(TaoStore& tao, const std::vector<UserId>& members) {
  Object thread;
  thread.otype = "thread";
  ValueList list;
  for (UserId m : members) {
    list.push_back(Value(m));
  }
  thread.data.Set("members", Value(std::move(list)));
  ObjectId id = tao.PutObject(std::move(thread));
  for (UserId m : members) {
    Assoc edge;
    edge.id1 = id;
    edge.atype = AssocType::kThreadMember;
    edge.id2 = m;
    tao.AddAssoc(std::move(edge));
  }
  return id;
}

void MakeFriends(TaoStore& tao, UserId a, UserId b) {
  Assoc ab;
  ab.id1 = a;
  ab.atype = AssocType::kFriend;
  ab.id2 = b;
  tao.AddAssoc(std::move(ab));
  Assoc ba;
  ba.id1 = b;
  ba.atype = AssocType::kFriend;
  ba.id2 = a;
  tao.AddAssoc(std::move(ba));
}

void BlockUser(TaoStore& tao, UserId blocker, UserId blocked) {
  Assoc edge;
  edge.id1 = blocker;
  edge.atype = AssocType::kBlocked;
  edge.id2 = blocked;
  tao.AddAssoc(std::move(edge));
}

std::string CommentPollQuery(ObjectId video, SimTime after) {
  return "query { comments(video: " + std::to_string(video) + ", after: " +
         std::to_string(after) + ", first: " + std::to_string(kCommentPollPageSize) +
         ") { id text author time indexTime suppressed } }";
}

CommentPollPage WalkCommentPollPage(const Value& data, SimTime* watermark,
                                    std::set<ObjectId>* seen,
                                    const std::function<void(SimTime created)>& on_fresh) {
  CommentPollPage page;
  size_t entries = 0;
  for (const Value& comment : data.Get("comments").AsList()) {
    ++entries;
    *watermark = std::max<SimTime>(*watermark, comment.Get("indexTime").AsInt(0));
    if (comment.Get("suppressed").AsBool(false)) {
      continue;
    }
    ObjectId id = comment.Get("id").AsInt(0);
    if (id == 0 || !seen->insert(id).second) {
      continue;
    }
    ++page.fresh;
    on_fresh(comment.Get("time").AsInt(0));
  }
  page.full = entries >= kCommentPollPageSize;
  return page;
}

}  // namespace bladerunner

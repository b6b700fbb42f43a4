// Unit tests for src/livequery: delta fold correctness for the supported
// view shapes (range insert/remove/reorder, counter deltas), out-of-order
// shard sequences, delete-before-insert annihilation (exact (id2, time)
// matching, so re-adds are never falsely annihilated), deletes of
// pre-registration edges, unsupported-shape fallback (including object-edit
// re-execution), net-change-only publishing, registration planning, and the
// per-shard mutation sequence stamp.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/device.h"
#include "src/livequery/engine.h"
#include "src/livequery/plan.h"
#include "src/livequery/schema.h"
#include "src/was/resolvers.h"

namespace bladerunner {
namespace {

struct PublishedOp {
  Topic topic;
  Value metadata;
};

class LiveQueryTest : public ::testing::Test {
 protected:
  LiveQueryTest() : topology_(Topology::OneRegion()), sim_(77) { Init(); }

  void Init(LiveQueryConfig config = MakeEnabled()) {
    engine_.reset();
    was_.reset();
    tao_.reset();
    published_.clear();
    tao_ = std::make_unique<TaoStore>(&sim_, &topology_, TaoConfig{}, &metrics_);
    was_ = std::make_unique<WebAppServer>(&sim_, 0, tao_.get(), nullptr, WasConfig{}, &metrics_,
                                          &trace_);
    InstallSocialSchema(*was_);
    engine_ = std::make_unique<LiveQueryEngine>(&sim_, tao_.get(), was_.get(), config, &metrics_,
                                                &trace_);
    engine_->set_publish_hook([this](const Topic& topic, const Value& metadata) {
      published_.push_back(PublishedOp{topic, metadata});
    });

    alice_ = CreateUser(*tao_, "alice", "en");
    bob_ = CreateUser(*tao_, "bob", "en");
    video_ = CreateVideo(*tao_, alice_, "the video");
    sim_.RunFor(Seconds(1));
  }

  static LiveQueryConfig MakeEnabled() {
    LiveQueryConfig config;
    config.enabled = true;
    return config;
  }

  // Registers a comment-feed range view with the given window.
  Topic RegisterFeed(size_t limit) {
    LiveQueryRegistration reg;
    reg.topic = LiveFeedTopic(video_);
    reg.viewer = alice_;
    reg.query = "{ comments(video: " + std::to_string(video_) +
                ", first: " + std::to_string(limit) + ") { id text author time } }";
    std::string error;
    EXPECT_TRUE(engine_->Register(reg, &error)) << error;
    return reg.topic;
  }

  Topic RegisterCount(ObjectId post) {
    LiveQueryRegistration reg;
    reg.topic = LiveCountTopic(post);
    reg.viewer = alice_;
    reg.query = "{ likeCount(post: " + std::to_string(post) + ") }";
    std::string error;
    EXPECT_TRUE(engine_->Register(reg, &error)) << error;
    return reg.topic;
  }

  // Posts a comment directly to TAO (object + serving-index edge) and lets
  // the change stream deliver. Returns the comment object id.
  ObjectId PostComment(const std::string& text, UserId author) {
    Object comment;
    comment.otype = "comment";
    comment.data.Set("text", text);
    comment.data.Set("author", author);
    comment.data.Set("video", video_);
    comment.data.Set("time", sim_.Now());
    ObjectId id = tao_->PutObject(std::move(comment));
    Assoc edge;
    edge.id1 = video_;
    edge.atype = AssocType::kComment;
    edge.id2 = id;
    edge.data.Set("author", author);
    tao_->AddAssoc(std::move(edge));
    sim_.RunFor(Millis(10));  // deliver deltas; also spaces index times
    return id;
  }

  std::vector<const PublishedOp*> OpsFor(const Topic& topic) const {
    std::vector<const PublishedOp*> ops;
    for (const PublishedOp& op : published_) {
      if (op.topic == topic) {
        ops.push_back(&op);
      }
    }
    return ops;
  }

  int64_t CounterValue(const std::string& name) { return metrics_.GetCounter(name).value(); }

  Topology topology_;
  Simulator sim_;
  MetricsRegistry metrics_;
  TraceCollector trace_{TraceConfig{.enabled = false}};
  std::unique_ptr<TaoStore> tao_;
  std::unique_ptr<WebAppServer> was_;
  std::unique_ptr<LiveQueryEngine> engine_;
  std::vector<PublishedOp> published_;
  UserId alice_ = 0;
  UserId bob_ = 0;
  ObjectId video_ = 0;
};

TEST_F(LiveQueryTest, PlansSupportedShapes) {
  PlanResult range = AnalyzeLiveQuery("{ comments(video: 7, first: 10) { id text } }");
  ASSERT_TRUE(range.ok) << range.error;
  EXPECT_EQ(range.plan.shape, LiveQueryShape::kAssocRange);
  EXPECT_EQ(range.plan.anchor, 7);
  EXPECT_EQ(range.plan.limit, 10u);

  PlanResult count = AnalyzeLiveQuery("{ likeCount(post: 9) }");
  ASSERT_TRUE(count.ok) << count.error;
  EXPECT_EQ(count.plan.shape, LiveQueryShape::kAssocCount);

  // Pagination beyond the window head falls back to re-execution.
  PlanResult paginated = AnalyzeLiveQuery("{ comments(video: 7, after: 5) { id } }");
  ASSERT_TRUE(paginated.ok) << paginated.error;
  EXPECT_EQ(paginated.plan.shape, LiveQueryShape::kReExecute);

  PlanResult unknown = AnalyzeLiveQuery("{ somethingElse(x: 1) { id } }");
  EXPECT_FALSE(unknown.ok);
  EXPECT_NE(unknown.error.find("unsupported live-query root field"), std::string::npos);
}

TEST_F(LiveQueryTest, RangeInsertFoldMatchesStoreAndPublishesInOrder) {
  Topic topic = RegisterFeed(10);
  ObjectId c1 = PostComment("first", alice_);
  ObjectId c2 = PostComment("second", bob_);
  ObjectId c3 = PostComment("third", alice_);

  // Newest-first insert ops, each at index 0 as it arrives.
  auto ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 3u);
  for (const PublishedOp* op : ops) {
    EXPECT_EQ(op->metadata.Get("op").AsString(), "insert");
    EXPECT_EQ(op->metadata.Get("index").AsInt(-1), 0);
  }
  EXPECT_EQ(ops[0]->metadata.Get("id").AsInt(0), c1);
  EXPECT_EQ(ops[1]->metadata.Get("id").AsInt(0), c2);
  EXPECT_EQ(ops[2]->metadata.Get("id").AsInt(0), c3);
  // viewSeq is strictly increasing per view.
  EXPECT_LT(ops[0]->metadata.Get("viewSeq").AsInt(0), ops[1]->metadata.Get("viewSeq").AsInt(0));
  EXPECT_LT(ops[1]->metadata.Get("viewSeq").AsInt(0), ops[2]->metadata.Get("viewSeq").AsInt(0));
  // Satellite: shard/shardSeq stamps ride in the op metadata.
  EXPECT_GT(ops[2]->metadata.Get("shardSeq").AsInt(0), 0);

  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  // The maintained state matches a from-scratch recompute byte for byte.
  std::string state = engine_->ViewStateJson(topic);
  EXPECT_NE(state.find("\"third\""), std::string::npos);
  EXPECT_NE(state.find(std::to_string(c3)), std::string::npos);
}

TEST_F(LiveQueryTest, WindowTrimsToLimitAndRefillsOnDelete) {
  Topic topic = RegisterFeed(3);
  ObjectId c1 = PostComment("c1", alice_);
  PostComment("c2", alice_);
  ObjectId c3 = PostComment("c3", bob_);
  PostComment("c4", bob_);
  ObjectId c5 = PostComment("c5", alice_);

  // Window holds the newest 3; audit agrees with the store.
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  std::string state = engine_->ViewStateJson(topic);
  EXPECT_EQ(state.find("\"c1\""), std::string::npos);
  EXPECT_NE(state.find("\"c5\""), std::string::npos);

  // Deleting inside the window refills from the store (c2 re-enters).
  published_.clear();
  int64_t refills_before = CounterValue("livequery.refills");
  tao_->DeleteAssoc(video_, AssocType::kComment, c3);
  sim_.RunFor(Millis(10));
  EXPECT_EQ(CounterValue("livequery.refills"), refills_before + 1);
  auto ops = OpsFor(topic);
  ASSERT_FALSE(ops.empty());
  bool saw_remove = false;
  for (const PublishedOp* op : ops) {
    if (op->metadata.Get("op").AsString() == "remove") {
      saw_remove = true;
      EXPECT_EQ(op->metadata.Get("id").AsInt(0), c3);
    }
  }
  EXPECT_TRUE(saw_remove);
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  EXPECT_NE(engine_->ViewStateJson(topic).find("\"c2\""), std::string::npos);

  // Deleting below the window is a net no-op: nothing published.
  published_.clear();
  int64_t suppressed_before = CounterValue("livequery.suppressed");
  tao_->DeleteAssoc(video_, AssocType::kComment, c1);
  sim_.RunFor(Millis(10));
  EXPECT_TRUE(OpsFor(topic).empty());
  EXPECT_EQ(CounterValue("livequery.suppressed"), suppressed_before + 1);
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  (void)c5;
}

TEST_F(LiveQueryTest, ReplayedOldEdgeBelowFullWindowIsSuppressed) {
  // Three comments exist before the view registers; the window snapshot
  // holds only the newest two.
  ObjectId c_old = PostComment("oldest", alice_);
  SimTime old_time = sim_.Now() - Millis(10);  // c_old's index time
  PostComment("new1", alice_);
  PostComment("new2", bob_);
  Topic topic = RegisterFeed(2);

  // A replayed change-stream delta for the trimmed entry (e.g. a resumed
  // stream re-delivering history) lands below the full window: no net
  // change, nothing published.
  published_.clear();
  int64_t suppressed_before = CounterValue("livequery.suppressed");
  TaoDelta replay;
  replay.kind = TaoMutationKind::kAssocAdd;
  replay.id = video_;
  replay.atype = AssocType::kComment;
  replay.id2 = c_old;
  replay.time = old_time;
  replay.shard = tao_->ShardOf(video_);
  replay.shard_seq = 1000;
  replay.committed_at = sim_.Now();
  engine_->InjectDelta(replay);

  EXPECT_TRUE(OpsFor(topic).empty());
  EXPECT_GT(CounterValue("livequery.suppressed"), suppressed_before);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
}

TEST_F(LiveQueryTest, EditFoldsToUpdateOpWithoutReads) {
  Topic topic = RegisterFeed(5);
  ObjectId c1 = PostComment("before edit", alice_);
  published_.clear();

  auto existing = tao_->GetObject(0, c1, nullptr);
  ASSERT_TRUE(existing.has_value());
  Object edited = *existing;
  edited.data.Set("text", "after edit");
  tao_->PutObject(std::move(edited));
  sim_.RunFor(Millis(10));

  auto ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("op").AsString(), "update");
  EXPECT_EQ(ops[0]->metadata.Get("id").AsInt(0), c1);
  EXPECT_EQ(ops[0]->metadata.Get("version").AsInt(0), 2);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  EXPECT_NE(engine_->ViewStateJson(topic).find("after edit"), std::string::npos);
}

TEST_F(LiveQueryTest, OutOfOrderShardSequencesAreCountedAndVersionGuarded) {
  Topic topic = RegisterFeed(5);
  ObjectId c1 = PostComment("v1 text", alice_);
  published_.clear();

  // A stale object delta (lower version than the row already holds)
  // arriving after a newer one must not regress the view.
  auto object = tao_->GetObject(0, c1, nullptr);
  ASSERT_TRUE(object.has_value());
  int shard = tao_->ShardOf(c1);
  int64_t out_of_order_before = CounterValue("livequery.out_of_order");

  TaoDelta newer;
  newer.kind = TaoMutationKind::kObjectPut;
  newer.id = c1;
  newer.version = 3;
  newer.data = object->data;
  newer.data.Set("text", "v3 text");
  newer.shard = shard;
  newer.shard_seq = 100;
  newer.committed_at = sim_.Now();
  engine_->InjectDelta(newer);

  TaoDelta stale = newer;
  stale.version = 2;
  stale.data.Set("text", "v2 text");
  stale.shard_seq = 99;  // arrives after seq 100: out of order
  engine_->InjectDelta(stale);

  EXPECT_EQ(CounterValue("livequery.out_of_order"), out_of_order_before + 1);
  std::string state = engine_->ViewStateJson(topic);
  EXPECT_NE(state.find("v3 text"), std::string::npos);
  EXPECT_EQ(state.find("v2 text"), std::string::npos);
  // Exactly one net change published (the stale delta was suppressed).
  ASSERT_EQ(OpsFor(topic).size(), 1u);
  EXPECT_EQ(OpsFor(topic)[0]->metadata.Get("op").AsString(), "update");
}

TEST_F(LiveQueryTest, DeleteBeforeInsertAnnihilates) {
  Topic topic = RegisterFeed(5);
  published_.clear();

  // A tombstone can replicate ahead of the entry it deletes; the late add
  // must annihilate against the pending remove instead of inserting.
  ObjectId ghost = 987654;
  int shard = tao_->ShardOf(video_);
  TaoDelta remove;
  remove.kind = TaoMutationKind::kAssocDelete;
  remove.id = video_;
  remove.atype = AssocType::kComment;
  remove.id2 = ghost;
  remove.time = sim_.Now();
  remove.shard = shard;
  remove.shard_seq = 50;
  remove.committed_at = sim_.Now();
  engine_->InjectDelta(remove);

  TaoDelta add = remove;
  add.kind = TaoMutationKind::kAssocAdd;
  add.shard_seq = 51;
  engine_->InjectDelta(add);

  EXPECT_TRUE(OpsFor(topic).empty());
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  EXPECT_EQ(engine_->ViewStateJson(topic), "{\"rows\":[]}");
}

TEST_F(LiveQueryTest, CounterFoldsDeleteOfPreRegistrationEdge) {
  // Edges that exist before the view registers are part of the snapshot
  // count but were never delivered as deltas; deleting one must still
  // decrement instead of parking a never-matched pending remove.
  auto like = [this](UserId user) {
    Assoc edge;
    edge.id1 = video_;
    edge.atype = AssocType::kLike;
    edge.id2 = user;
    tao_->AddAssoc(std::move(edge));
    sim_.RunFor(Millis(10));
  };
  like(alice_);
  like(bob_);
  Topic topic = RegisterCount(video_);
  EXPECT_EQ(engine_->ViewStateJson(topic), "{\"count\":2}");

  published_.clear();
  tao_->DeleteAssoc(video_, AssocType::kLike, alice_);
  sim_.RunFor(Millis(10));
  auto ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("count").AsInt(-1), 1);
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 0u);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;

  // A later re-like by the same user is a brand-new edge, not an
  // annihilation target: the count climbs back and stays auditable.
  like(alice_);
  EXPECT_EQ(engine_->ViewStateJson(topic), "{\"count\":2}");
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
}

TEST_F(LiveQueryTest, RangeFoldsDeleteOfPreRegistrationEntryBelowWindow) {
  // Three comments predate registration; the 2-row window never saw the
  // oldest. Its delete is a net no-op and must not park a tombstone.
  ObjectId c1 = PostComment("pre1", alice_);
  PostComment("pre2", alice_);
  PostComment("pre3", bob_);
  Topic topic = RegisterFeed(2);

  published_.clear();
  tao_->DeleteAssoc(video_, AssocType::kComment, c1);
  sim_.RunFor(Millis(10));
  EXPECT_TRUE(OpsFor(topic).empty());
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 0u);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
}

TEST_F(LiveQueryTest, DeleteThenReAddBelowWindowReentersWindow) {
  Topic topic = RegisterFeed(2);
  ObjectId c1 = PostComment("c1", alice_);
  PostComment("c2", alice_);
  PostComment("c3", bob_);

  // c1 sits below the 2-row window; its delete changes nothing and — since
  // its add was already delivered — leaves no pending tombstone behind.
  tao_->DeleteAssoc(video_, AssocType::kComment, c1);
  sim_.RunFor(Millis(10));
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 0u);

  // TAO allows delete-then-re-add: the fresh edge (new index time) must
  // insert at the head of the window, not annihilate against the delete.
  published_.clear();
  Assoc edge;
  edge.id1 = video_;
  edge.atype = AssocType::kComment;
  edge.id2 = c1;
  tao_->AddAssoc(std::move(edge));
  sim_.RunFor(Millis(10));

  bool saw_insert = false;
  for (const PublishedOp* op : OpsFor(topic)) {
    if (op->metadata.Get("op").AsString() == "insert" && op->metadata.Get("id").AsInt(0) == c1) {
      saw_insert = true;
      EXPECT_EQ(op->metadata.Get("index").AsInt(-1), 0);
    }
  }
  EXPECT_TRUE(saw_insert);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
  EXPECT_NE(engine_->ViewStateJson(topic).find("\"c1\""), std::string::npos);
}

TEST_F(LiveQueryTest, PendingRemoveMatchesExactEntryNotJustId2) {
  Topic topic = RegisterFeed(5);
  published_.clear();

  // A tombstone for entry (ghost, t2) replicates ahead of its add while a
  // *different* edge to the same target, (ghost, t1), is also in flight.
  // The pending remove must annihilate only the exact (id2, time) entry.
  ObjectId ghost = 987654;
  SimTime t1 = sim_.Now() - Millis(5);
  SimTime t2 = sim_.Now();
  int shard = tao_->ShardOf(video_);
  TaoDelta remove;
  remove.kind = TaoMutationKind::kAssocDelete;
  remove.id = video_;
  remove.atype = AssocType::kComment;
  remove.id2 = ghost;
  remove.time = t2;
  remove.shard = shard;
  remove.shard_seq = 50;
  remove.committed_at = sim_.Now();
  engine_->InjectDelta(remove);
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 1u);

  TaoDelta add_other = remove;
  add_other.kind = TaoMutationKind::kAssocAdd;
  add_other.time = t1;
  add_other.shard_seq = 51;
  engine_->InjectDelta(add_other);  // distinct entry: inserts
  auto ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("op").AsString(), "insert");
  EXPECT_EQ(ops[0]->metadata.Get("id").AsInt(0), ghost);
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 1u);

  TaoDelta add_exact = remove;
  add_exact.kind = TaoMutationKind::kAssocAdd;
  add_exact.shard_seq = 52;
  engine_->InjectDelta(add_exact);  // exact match: annihilates silently
  EXPECT_EQ(OpsFor(topic).size(), 1u);
  EXPECT_EQ(engine_->PendingRemoveCount(topic), 0u);
}

TEST_F(LiveQueryTest, CounterViewFoldsAddsAndDeletes) {
  Topic topic = RegisterCount(video_);
  auto like = [this](UserId user) {
    Assoc edge;
    edge.id1 = video_;
    edge.atype = AssocType::kLike;
    edge.id2 = user;
    tao_->AddAssoc(std::move(edge));
    sim_.RunFor(Millis(10));
  };
  like(alice_);
  like(bob_);

  auto ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0]->metadata.Get("op").AsString(), "count");
  EXPECT_EQ(ops[0]->metadata.Get("count").AsInt(0), 1);
  EXPECT_EQ(ops[1]->metadata.Get("count").AsInt(0), 2);

  published_.clear();
  tao_->DeleteAssoc(video_, AssocType::kLike, alice_);
  sim_.RunFor(Millis(10));
  ops = OpsFor(topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("count").AsInt(0), 1);

  // The folded count matches the store's AssocCount exactly.
  EXPECT_EQ(engine_->ViewStateJson(topic),
            "{\"count\":" + std::to_string(tao_->AssocCount(0, video_, AssocType::kLike, nullptr)) +
                "}");
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(topic, &diagnostic)) << diagnostic;
}

TEST_F(LiveQueryTest, UnsupportedShapeFallsBackToReExecution) {
  MakeFriends(*tao_, alice_, bob_);
  sim_.RunFor(Seconds(1));
  LiveQueryRegistration reg;
  reg.topic = Topic("/LQFeed/byfriends");
  reg.viewer = alice_;
  reg.query = "{ commentsByFriends(video: " + std::to_string(video_) + ") { id text author } }";
  std::string error;
  ASSERT_TRUE(engine_->Register(reg, &error)) << error;
  const LiveQueryPlan* plan = engine_->PlanFor(reg.topic);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->shape, LiveQueryShape::kReExecute);

  int64_t fallback_before = CounterValue("livequery.fallback_reexecs");
  published_.clear();
  PostComment("friend comment", bob_);

  EXPECT_GT(CounterValue("livequery.fallback_reexecs"), fallback_before);
  auto ops = OpsFor(reg.topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("op").AsString(), "invalidate");
  // The materialized fallback state equals a fresh execution.
  ExecResult fresh = was_->ExecuteNow(reg.query, alice_);
  EXPECT_EQ(engine_->ViewStateJson(reg.topic), "{\"data\":" + fresh.data.ToJson() + "}");
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(reg.topic, &diagnostic)) << diagnostic;

  // A re-executed result that does not change publishes nothing: alice's
  // own comment is invisible to the by-friends view (she is not her own
  // friend), so the fallback result is unchanged.
  published_.clear();
  PostComment("self comment", alice_);
  EXPECT_TRUE(OpsFor(reg.topic).empty());
}

TEST_F(LiveQueryTest, FallbackViewReExecutesOnObjectEdit) {
  MakeFriends(*tao_, alice_, bob_);
  sim_.RunFor(Seconds(1));
  LiveQueryRegistration reg;
  reg.topic = Topic("/LQFeed/byfriends");
  reg.viewer = alice_;
  reg.query = "{ commentsByFriends(video: " + std::to_string(video_) + ") { id text author } }";
  std::string error;
  ASSERT_TRUE(engine_->Register(reg, &error)) << error;
  ObjectId comment = PostComment("before edit", bob_);
  published_.clear();

  // Editing the comment object touches no assoc list, only the object
  // itself. The fallback view tracks the ids in its last result, so the
  // object put must re-execute it rather than leave it stale.
  auto existing = tao_->GetObject(0, comment, nullptr);
  ASSERT_TRUE(existing.has_value());
  Object edited = *existing;
  edited.data.Set("text", "after edit");
  tao_->PutObject(std::move(edited));
  sim_.RunFor(Millis(10));

  auto ops = OpsFor(reg.topic);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->metadata.Get("op").AsString(), "invalidate");
  EXPECT_NE(engine_->ViewStateJson(reg.topic).find("after edit"), std::string::npos);
  std::string diagnostic;
  EXPECT_TRUE(engine_->AuditView(reg.topic, &diagnostic)) << diagnostic;
}

TEST_F(LiveQueryTest, RegisterRejectsSameTopicWithDifferentQuery) {
  Topic topic = RegisterFeed(5);
  LiveQueryRegistration other;
  other.topic = topic;
  other.viewer = bob_;
  other.query = "{ likeCount(post: " + std::to_string(video_) + ") }";
  std::string error;
  EXPECT_FALSE(engine_->Register(other, &error));
  EXPECT_NE(error.find("different query"), std::string::npos);
  // The original registration is untouched.
  const LiveQueryPlan* plan = engine_->PlanFor(topic);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->shape, LiveQueryShape::kAssocRange);
}

TEST_F(LiveQueryTest, RegistrationIsIdempotentPerTopic) {
  Topic topic = RegisterFeed(5);
  EXPECT_TRUE(engine_->IsRegistered(topic));
  int64_t snapshots_before = CounterValue("livequery.snapshots");
  Topic again = RegisterFeed(5);
  EXPECT_EQ(topic, again);
  EXPECT_EQ(CounterValue("livequery.snapshots"), snapshots_before);  // no re-snapshot
  EXPECT_EQ(engine_->Topics().size(), 1u);

  LiveQueryRegistration bad;
  bad.topic = Topic("/LQFeed/bad");
  bad.query = "{ nope(x: 1) { id } }";
  std::string error;
  EXPECT_FALSE(engine_->Register(bad, &error));
  EXPECT_NE(error.find("unsupported live-query root field"), std::string::npos);
  EXPECT_FALSE(engine_->IsRegistered(bad.topic));
}

TEST_F(LiveQueryTest, DisabledEngineObservesNothing) {
  LiveQueryConfig disabled;
  disabled.enabled = false;
  Init(disabled);
  Topic topic = RegisterFeed(5);  // registration still materializes a snapshot
  uint64_t events_before = sim_.events_executed();
  int64_t deltas_before = CounterValue("livequery.deltas");
  PostComment("unseen", alice_);
  // The disabled engine registered no change observer, so the writes
  // scheduled zero simulator events — the bit-identical guarantee — and no
  // deltas were seen. The view stays at its registration snapshot.
  EXPECT_TRUE(OpsFor(topic).empty());
  EXPECT_EQ(CounterValue("livequery.deltas"), deltas_before);
  EXPECT_EQ(sim_.events_executed(), events_before);
}

TEST_F(LiveQueryTest, MutationStampsArePerShardMonotonic) {
  ObjectId id = video_;
  int shard = tao_->ShardOf(id);
  uint64_t last_seq = 0;
  for (int i = 0; i < 4; ++i) {
    Assoc edge;
    edge.id1 = id;
    edge.atype = AssocType::kLike;
    edge.id2 = static_cast<ObjectId>(1000 + i);
    tao_->AddAssoc(std::move(edge));
    const TaoMutationStamp& stamp = tao_->last_stamp();
    EXPECT_EQ(stamp.shard, shard);
    EXPECT_GT(stamp.seq, last_seq);
    last_seq = stamp.seq;
  }
}

// Integration: a three-region store with modeled replication delays. The
// engine maintains views against its home region's visibility; after the
// stream quiesces the audit must agree with the store.
// Regression: the adapter parsed viewSeq with AsInt(0), so an op with a
// missing/malformed viewSeq became conflation version 0 and could silently
// lose to any queued op. It must be dropped and counted instead.
TEST(LiveQueryAdapterTest, MalformedViewSeqIsDroppedNotDeliveredAsVersionZero) {
  ClusterConfig config;
  config.seed = 311;
  config.livequery.enabled = true;
  BladerunnerCluster cluster(config);
  UserId viewer = CreateUser(cluster.tao(), "viewer", "en");
  ObjectId post = CreateVideo(cluster.tao(), viewer, "post");
  cluster.sim().RunFor(Seconds(2));

  DeviceAgent device(&cluster, viewer, 0, DeviceProfile::kWifi);
  uint64_t payloads = 0;
  device.set_payload_hook([&payloads](uint64_t, const Value&) { payloads += 1; });
  device.SubscribeRaw("LiveCount", "subscription { presenceCount(topicId: " +
                                       std::to_string(post) + ") }");
  cluster.sim().RunFor(Seconds(3));
  uint64_t baseline = payloads;

  // A malformed publish (no viewSeq) straight onto the view topic.
  PublishSpec bad;
  bad.topic = LiveCountTopic(post);
  bad.metadata.Set("op", "count");
  bad.metadata.Set("count", static_cast<int64_t>(5));
  cluster.was(0).PublishNow(bad, cluster.sim().Now());
  cluster.sim().RunFor(Seconds(2));
  EXPECT_EQ(cluster.metrics().GetCounter("livequery.invalid_view_seq").value(), 1);
  EXPECT_EQ(payloads, baseline);

  // A well-formed op still flows end to end.
  PublishSpec good;
  good.topic = LiveCountTopic(post);
  good.metadata.Set("op", "count");
  good.metadata.Set("count", static_cast<int64_t>(6));
  good.metadata.Set("viewSeq", static_cast<int64_t>(1));
  cluster.was(0).PublishNow(good, cluster.sim().Now());
  cluster.sim().RunFor(Seconds(2));
  EXPECT_EQ(cluster.metrics().GetCounter("livequery.invalid_view_seq").value(), 1);
  EXPECT_EQ(payloads, baseline + 1);
}

TEST(LiveQueryReplicationTest, ConvergesAcrossRegions) {
  Topology topology = Topology::ThreeRegions();
  Simulator sim(101);
  MetricsRegistry metrics;
  TraceCollector trace(TraceConfig{.enabled = false});
  TaoStore tao(&sim, &topology, TaoConfig{}, &metrics);
  WebAppServer was(&sim, 1, &tao, nullptr, WasConfig{}, &metrics, &trace);
  InstallSocialSchema(was);
  LiveQueryConfig config;
  config.enabled = true;
  config.home_region = 1;  // not the leader for most shards
  LiveQueryEngine engine(&sim, &tao, &was, config, &metrics, &trace);

  UserId author = CreateUser(tao, "author", "en");
  ObjectId video = CreateVideo(tao, author, "replicated video");
  sim.RunFor(Seconds(2));
  LiveQueryRegistration reg;
  reg.topic = LiveFeedTopic(video);
  reg.viewer = author;
  reg.query = "{ comments(video: " + std::to_string(video) + ", first: 10) { id text } }";
  std::string error;
  ASSERT_TRUE(engine.Register(reg, &error)) << error;

  std::vector<ObjectId> comments;
  for (int i = 0; i < 12; ++i) {
    Object comment;
    comment.otype = "comment";
    comment.data.Set("text", "r" + std::to_string(i));
    comment.data.Set("author", author);
    ObjectId id = tao.PutObject(std::move(comment));
    comments.push_back(id);
    Assoc edge;
    edge.id1 = video;
    edge.atype = AssocType::kComment;
    edge.id2 = id;
    tao.AddAssoc(std::move(edge));
    sim.RunFor(Millis(200));
  }
  tao.DeleteAssoc(video, AssocType::kComment, comments[10]);
  sim.RunFor(Seconds(30));  // replication + deltas quiesce

  EXPECT_GT(metrics.GetCounter("livequery.deltas").value(), 0);
  std::string diagnostic;
  EXPECT_TRUE(engine.AuditAll(&diagnostic)) << diagnostic;
  std::string state = engine.ViewStateJson(reg.topic);
  EXPECT_NE(state.find("\"r11\""), std::string::npos);
  EXPECT_EQ(state.find("\"r10\""), std::string::npos);  // deleted
}

}  // namespace
}  // namespace bladerunner

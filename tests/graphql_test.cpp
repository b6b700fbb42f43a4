// Unit tests for the query language: Value, lexer, parser, executor.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/graphql/executor.h"
#include "src/graphql/lexer.h"
#include "src/graphql/parser.h"
#include "src/graphql/value.h"

namespace bladerunner {
namespace {

// ---- Value ----

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(ValueList{}).is_list());
  EXPECT_TRUE(Value(ValueMap{}).is_map());
  EXPECT_TRUE(Value(42).is_number());
  EXPECT_TRUE(Value(3.5).is_number());
}

TEST(ValueTest, AccessorsWithFallbacks) {
  EXPECT_EQ(Value(42).AsInt(), 42);
  EXPECT_EQ(Value("x").AsInt(7), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value(3).AsDouble(), 3.0);  // int coerces to double
  EXPECT_EQ(Value(2.9).AsInt(), 2);            // double truncates to int
  EXPECT_EQ(Value("hello").AsString(), "hello");
  EXPECT_EQ(Value(1).AsString(), "");
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_FALSE(Value("x").AsBool(false));
}

TEST(ValueTest, MapAccess) {
  Value v;
  v.Set("a", 1);
  v.Set("b", "two");
  EXPECT_TRUE(v.Has("a"));
  EXPECT_FALSE(v.Has("c"));
  EXPECT_EQ(v.Get("a").AsInt(), 1);
  EXPECT_TRUE(v.Get("missing").is_null());
  EXPECT_EQ(v.Size(), 2u);
}

TEST(ValueTest, ListAccess) {
  Value v;
  v.Append(1);
  v.Append("x");
  EXPECT_EQ(v.Size(), 2u);
  EXPECT_EQ(v.AsList()[0].AsInt(), 1);
}

TEST(ValueTest, Equality) {
  Value a;
  a.Set("k", 1);
  Value b;
  b.Set("k", 1);
  EXPECT_EQ(a, b);
  b.Set("k", 2);
  EXPECT_NE(a, b);
}

TEST(ValueTest, ToJson) {
  Value v;
  v.Set("n", 3);
  v.Set("s", "a\"b");
  v.Set("l", Value(ValueList{Value(1), Value(true), Value(nullptr)}));
  EXPECT_EQ(v.ToJson(), R"({"l":[1,true,null],"n":3,"s":"a\"b"})");
}

TEST(ValueTest, WireSizeGrowsWithContent) {
  Value small;
  small.Set("a", 1);
  Value big;
  big.Set("a", std::string(1000, 'x'));
  EXPECT_GT(big.WireSize(), small.WireSize() + 900);
}

// ---- Value sharing (copy-on-write) ----

// A tree built again from its leaves: no node is shared with `v`.
Value Rebuilt(const Value& v) {
  if (v.is_list()) {
    Value out(ValueList{});
    for (const Value& element : v.AsList()) {
      out.Append(Rebuilt(element));
    }
    return out;
  }
  if (v.is_map()) {
    Value out(ValueMap{});
    for (const auto& [key, child] : v.AsMap()) {
      out.Set(key, Rebuilt(child));
    }
    return out;
  }
  return v;
}

TEST(ValueTest, CopiesOfMapsStayIsolatedAfterWrites) {
  Value a;
  a.Set("x", 1);
  a.Set("y", 2);
  Value b = a;
  b.Set("x", 10);
  b.Erase("y");
  b.Set("z", 3);
  EXPECT_EQ(a.ToJson(), R"({"x":1,"y":2})");
  EXPECT_EQ(b.ToJson(), R"({"x":10,"z":3})");
  // Writes through the original leave the copy alone too.
  Value c = a;
  a.Set("x", 5);
  a.Erase("x");
  EXPECT_EQ(c.ToJson(), R"({"x":1,"y":2})");
  EXPECT_EQ(a.ToJson(), R"({"y":2})");
}

TEST(ValueTest, CopiesOfListsStayIsolatedAfterWrites) {
  Value a;
  a.Append(1);
  Value b = a;
  b.Append(2);
  a.Append("a");
  EXPECT_EQ(a.ToJson(), R"([1,"a"])");
  EXPECT_EQ(b.ToJson(), "[1,2]");
}

TEST(ValueTest, CopiesOfNestedTreesStayIsolatedAfterWrites) {
  Value inner;
  inner.Set("n", 1);
  inner.Set("l", Value(ValueList{Value(1)}));
  Value outer;
  outer.Set("inner", inner);
  outer.Set("twin", inner);  // one subtree under two keys
  Value copy = outer;

  // Writing a child means copying it out, writing, and setting it back.
  Value child = copy.Get("inner");
  Value list = child.Get("l");
  list.Append(2);
  child.Set("l", list);
  copy.Set("inner", child);
  EXPECT_EQ(copy.ToJson(), R"({"inner":{"l":[1,2],"n":1},"twin":{"l":[1],"n":1}})");
  EXPECT_EQ(outer.ToJson(), R"({"inner":{"l":[1],"n":1},"twin":{"l":[1],"n":1}})");
  EXPECT_EQ(inner.ToJson(), R"({"l":[1],"n":1})");

  // The source subtree written after it was shared.
  inner.Erase("l");
  EXPECT_EQ(outer.Get("inner").ToJson(), R"({"l":[1],"n":1})");
  EXPECT_EQ(inner.ToJson(), R"({"n":1})");
}

TEST(ValueTest, SharedNodeIsClonedOnceThenWrittenInPlace) {
  Value a;
  a.Set("k", 1);
  a.Set("shared", Value(ValueList{Value(1)}));
  Value b = a;
  EXPECT_EQ(&a.AsMap(), &b.AsMap());  // a copy takes a reference

  b.Set("k", 2);  // the shared node is cloned...
  const ValueMap* clone = &b.AsMap();
  EXPECT_NE(clone, &a.AsMap());
  // ...one level deep: the children are still shared.
  EXPECT_EQ(&a.Get("shared").AsList(), &b.Get("shared").AsList());

  b.Set("k", 3);  // ...and the clone, now unshared, is written in place
  b.Set("new", 4);
  b.Erase("new");
  EXPECT_EQ(&b.AsMap(), clone);

  // Erasing an absent key writes nothing, so nothing is cloned.
  Value c = a;
  c.Erase("absent");
  EXPECT_EQ(&c.AsMap(), &a.AsMap());

  Value l(ValueList{Value(1)});
  Value m = l;
  m.Append(2);
  const ValueList* list_clone = &m.AsList();
  EXPECT_NE(list_clone, &l.AsList());
  m.Append(3);
  EXPECT_EQ(&m.AsList(), list_clone);
}

TEST(ValueTest, AssigningFromOwnChildOrSelfIsSafe) {
  Value v;
  v.Set("child", Value(ValueList{Value("c")}));
  v = v.Get("child");  // the only holder of the map that owns the child
  EXPECT_EQ(v.ToJson(), R"(["c"])");
  v = v.AsList()[0];
  EXPECT_EQ(v.ToJson(), R"("c")");

  Value m;
  Value inner;
  inner.Set("x", 1);
  m.Set("child", inner);
  inner = Value();
  m = m.Get("child");  // map from map
  EXPECT_EQ(m.ToJson(), R"({"x":1})");

  const Value& self = m;
  m = self;
  EXPECT_EQ(m.ToJson(), R"({"x":1})");
  m = std::move(m);
  EXPECT_EQ(m.Get("x").AsInt(), 1);
}

TEST(ValueTest, SettingAValueIntoItselfNestsACopy) {
  Value v;
  v.Set("a", 1);
  v.Set("self", v);
  v.Set("a", 2);
  EXPECT_EQ(v.ToJson(), R"({"a":2,"self":{"a":1}})");
  Value l;
  l.Append(1);
  l.Append(l);
  EXPECT_EQ(l.ToJson(), "[1,[1]]");
}

TEST(ValueTest, MovedFromContainersReadAsEmpty) {
  Value m;
  m.Set("k", 1);
  Value taken = std::move(m);
  EXPECT_TRUE(m.is_map());
  EXPECT_EQ(m.Size(), 0u);
  EXPECT_EQ(m.ToJson(), "{}");
  m.Set("again", 2);
  EXPECT_EQ(m.ToJson(), R"({"again":2})");
  EXPECT_EQ(taken.ToJson(), R"({"k":1})");
}

// A fixed corpus, several of its trees built by sharing and then writing;
// the expected JSON and wire sizes are those of a deep-copied tree.
std::vector<Value> SharedCorpus() {
  std::vector<Value> corpus;
  corpus.push_back(Value());
  corpus.push_back(Value(true));
  corpus.push_back(Value(-7));
  corpus.push_back(Value(2.5));
  corpus.push_back(Value("tab\there \"quoted\"\n"));
  corpus.push_back(Value(ValueList{}));
  corpus.push_back(Value(ValueMap{}));
  Value header;
  header.Set("app", "LVC");
  header.Set("viewer", 42);
  header.Set("placement", 2);
  corpus.push_back(header);
  Value rewritten = header;
  rewritten.Set("brass_host", 7);
  rewritten.Erase("placement");
  corpus.push_back(rewritten);
  Value tags;
  tags.Append("a");
  tags.Append(1.5);
  tags.Append(Value(ValueList{}));
  Value payload;
  payload.Set("comment", header);
  payload.Set("copy", header);
  payload.Set("tags", tags);
  tags.Append("later");
  corpus.push_back(payload);
  Value stamped = payload;
  stamped.Set("_sentAt", static_cast<int64_t>(1000));
  Value comment = stamped.Get("comment");
  comment.Set("viewer", 43);
  stamped.Set("comment", comment);
  corpus.push_back(stamped);
  corpus.push_back(tags);
  return corpus;
}

TEST(ValueTest, SharedTreesRenderCompareAndSizeAsDeepCopies) {
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"null", 4},
      {"true", 5},
      {"-7", 8},
      {"2.5", 8},
      {R"("tab\there \"quoted\"\n")", 20},
      {"[]", 2},
      {"{}", 2},
      {R"({"app":"LVC","placement":2,"viewer":42})", 53},
      {R"({"app":"LVC","brass_host":7,"viewer":42})", 54},
      {R"({"comment":{"app":"LVC","placement":2,"viewer":42},)"
       R"("copy":{"app":"LVC","placement":2,"viewer":42},"tags":["a",1.5,[]]})",
       153},
      {R"({"_sentAt":1000,"comment":{"app":"LVC","placement":2,"viewer":43},)"
       R"("copy":{"app":"LVC","placement":2,"viewer":42},"tags":["a",1.5,[]]})",
       172},
      {R"(["a",1.5,[],"later"])", 26},
  };
  const std::vector<Value> corpus = SharedCorpus();
  ASSERT_EQ(corpus.size(), expected.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(corpus[i].ToJson(), expected[i].first);
    EXPECT_EQ(corpus[i].WireSize(), expected[i].second);
    const Value rebuilt = Rebuilt(corpus[i]);
    EXPECT_EQ(rebuilt.ToJson(), expected[i].first);
    EXPECT_EQ(rebuilt.WireSize(), expected[i].second);
    for (size_t j = 0; j < corpus.size(); ++j) {
      EXPECT_EQ(corpus[i] == corpus[j], i == j) << j;
      EXPECT_EQ(rebuilt == corpus[j], i == j) << j;
      EXPECT_EQ(rebuilt != corpus[j], i != j) << j;
    }
  }
}

TEST(ValueTest, LiteralKeyLookupsKeepStringKeyOrder) {
  Value v;
  v.Set(std::string("b"), 2);
  v.Set(std::string_view("a"), 1);
  v.Set("B", 0);  // upper case sorts first, as std::string orders it
  EXPECT_EQ(v.ToJson(), R"({"B":0,"a":1,"b":2})");
  EXPECT_EQ(v.Get(std::string_view("ab").substr(0, 1)).AsInt(), 1);
  EXPECT_TRUE(v.Has(std::string("b")));
  EXPECT_FALSE(v.Has("c"));
}

// Two threads copy, write and drop Values that share nodes with each other
// and with a root both read: the refcount and the uniqueness check are the
// only synchronisation (run under TSan in CI).
TEST(ValueTest, ThreadsCopyWriteAndDropSharedValues) {
  Value root;
  root.Set("name", "root");
  root.Set("list", Value(ValueList{Value(1), Value(2)}));
  root.Set("nested", root);
  constexpr int kRounds = 2000;
  // Pair i shares a node of its own; one thread writes its half while the
  // other reads and drops the other half, so a node's last two holders
  // race, and the writer finds the node unshared whenever the dropper got
  // there first.
  std::vector<Value> left;
  for (int i = 0; i < kRounds; ++i) {
    Value pair = root;
    pair.Set("pair", i);
    left.push_back(pair);
  }
  std::vector<Value> right = left;

  auto work = [&root](std::vector<Value>* mine, int64_t id, bool drop) {
    int64_t bad = 0;
    for (int i = 0; i < kRounds; ++i) {
      Value copy = root;
      copy.Set("writer", id);
      Value list = copy.Get("list");
      list.Append(i);
      copy.Set("list", list);
      Value nested = copy.Get("nested");
      nested.Erase("name");
      copy.Set("nested", nested);
      bad += copy.Get("list").Size() != 3 || copy.Get("nested").Has("name") ||
             root.Get("list").Size() != 2;
      Value& held = (*mine)[static_cast<size_t>(i)];
      if (drop) {
        // Read the shared node, then release it: the other thread may then
        // write it in place.
        bad += held.Get("name").AsString() != "root";
        held = Value();
      } else {
        held.Set("writer", id);
        held.Erase("nested");
        bad += held.Get("writer").AsInt() != id || held.Has("nested");
      }
    }
    return bad;
  };
  int64_t bad_left = 0;
  int64_t bad_right = 0;
  std::thread a([&]() { bad_left = work(&left, 1, /*drop=*/false); });
  std::thread b([&]() { bad_right = work(&right, 2, /*drop=*/true); });
  a.join();
  b.join();
  EXPECT_EQ(bad_left, 0);
  EXPECT_EQ(bad_right, 0);
  EXPECT_EQ(root.ToJson(),
            R"({"list":[1,2],"name":"root","nested":{"list":[1,2],"name":"root"}})");
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_EQ(left[static_cast<size_t>(i)].ToJson(),
              R"({"list":[1,2],"name":"root","pair":)" + std::to_string(i) + R"(,"writer":1})");
  }
}

// ---- Lexer ----

TEST(LexerTest, TokenizesBasicQuery) {
  auto tokens = Tokenize("query { user(id: 42) { name } }");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsName("query"));
  EXPECT_TRUE(tokens[1].IsPunct('{'));
  EXPECT_TRUE(tokens[2].IsName("user"));
  EXPECT_EQ(tokens.back().type, TokenType::kEndOfInput);
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize(R"(-12 3.5 1e3 "he\"llo")");
  EXPECT_EQ(tokens[0].type, TokenType::kInt);
  EXPECT_EQ(tokens[0].value, "-12");
  EXPECT_EQ(tokens[1].type, TokenType::kFloat);
  EXPECT_EQ(tokens[2].type, TokenType::kFloat);
  EXPECT_EQ(tokens[3].type, TokenType::kString);
  EXPECT_EQ(tokens[3].value, "he\"llo");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("a # comment\n b");
  EXPECT_TRUE(tokens[0].IsName("a"));
  EXPECT_TRUE(tokens[1].IsName("b"));
}

TEST(LexerTest, ErrorOnUnterminatedString) {
  auto tokens = Tokenize("\"oops");
  EXPECT_EQ(tokens[0].type, TokenType::kError);
}

TEST(LexerTest, ErrorOnStrayCharacter) {
  auto tokens = Tokenize("user %");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].type, TokenType::kError);
}

// ---- Parser ----

TEST(ParserTest, ParsesAnonymousQuery) {
  ParseResult result = Parse("{ me { id } }");
  ASSERT_TRUE(result.ok());
  const Operation& op = result.document->Sole();
  EXPECT_EQ(op.type, OperationType::kQuery);
  ASSERT_EQ(op.selections.fields.size(), 1u);
  EXPECT_EQ(op.selections.fields[0].name, "me");
  EXPECT_EQ(op.selections.fields[0].selections.fields[0].name, "id");
}

TEST(ParserTest, ParsesNamedMutationWithArguments) {
  ParseResult result =
      Parse(R"(mutation Post { postComment(video: 7, text: "hi", fast: true) { id } })");
  ASSERT_TRUE(result.ok());
  const Operation& op = result.document->Sole();
  EXPECT_EQ(op.type, OperationType::kMutation);
  EXPECT_EQ(op.name, "Post");
  const Field& f = op.selections.fields[0];
  EXPECT_EQ(f.Arg("video").AsInt(), 7);
  EXPECT_EQ(f.Arg("text").AsString(), "hi");
  EXPECT_TRUE(f.Arg("fast").AsBool());
  EXPECT_TRUE(f.Arg("missing").is_null());
}

TEST(ParserTest, ParsesSubscription) {
  ParseResult result = Parse("subscription { liveVideoComments(videoId: 3) { id } }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->Sole().type, OperationType::kSubscription);
}

TEST(ParserTest, ParsesAliases) {
  ParseResult result = Parse("{ short: veryLongFieldName { id } }");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_EQ(f.alias, "short");
  EXPECT_EQ(f.name, "veryLongFieldName");
  EXPECT_EQ(f.ResponseKey(), "short");
}

TEST(ParserTest, ParsesListAndObjectValues) {
  ParseResult result = Parse(R"({ f(ids: [1, 2, 3], opts: { nested: "v", n: 2 }) })");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_EQ(f.Arg("ids").Size(), 3u);
  EXPECT_EQ(f.Arg("ids").AsList()[1].AsInt(), 2);
  EXPECT_EQ(f.Arg("opts").Get("nested").AsString(), "v");
}

TEST(ParserTest, ParsesEnumLiteralsAsStrings) {
  ParseResult result = Parse("{ f(mode: FAST) }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->Sole().selections.fields[0].Arg("mode").AsString(), "FAST");
}

TEST(ParserTest, ParsesNullTrueFalse) {
  ParseResult result = Parse("{ f(a: null, b: true, c: false) }");
  ASSERT_TRUE(result.ok());
  const Field& f = result.document->Sole().selections.fields[0];
  EXPECT_TRUE(f.Arg("a").is_null());
  EXPECT_TRUE(f.Arg("b").AsBool());
  EXPECT_FALSE(f.Arg("c").AsBool(true));
}

TEST(ParserTest, MultipleOperations) {
  ParseResult result = Parse("query A { x } mutation B { y }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.document->operations.size(), 2u);
}

TEST(ParserTest, ErrorOnEmptyDocument) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("   # only a comment").ok());
}

TEST(ParserTest, ErrorOnMissingBrace) {
  ParseResult result = Parse("query { user(id: 1) { name }");
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
}

TEST(ParserTest, ErrorOnBadOperationType) {
  EXPECT_FALSE(Parse("frobnicate { x }").ok());
}

TEST(ParserTest, ErrorOnLexError) {
  ParseResult result = Parse("{ f(x: \"unterminated) }");
  EXPECT_FALSE(result.ok());
}

// ---- Executor ----

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_.AddResolver("Query", "answer", [](const ResolveInfo&) { return Value(42); });
    schema_.AddResolver("Query", "viewer", [](const ResolveInfo& info) {
      Value v;
      v.Set("__type", "User");
      v.Set("id", info.ctx.viewer_id);
      v.Set("name", "alice");
      return v;
    });
    schema_.AddResolver("Query", "echo",
                        [](const ResolveInfo& info) { return info.field.Arg("value"); });
    schema_.AddResolver("User", "friends", [](const ResolveInfo&) {
      ValueList friends;
      for (int i = 0; i < 2; ++i) {
        Value f;
        f.Set("__type", "User");
        f.Set("id", 100 + i);
        f.Set("name", "friend" + std::to_string(i));
        friends.push_back(std::move(f));
      }
      return Value(std::move(friends));
    });
    schema_.AddResolver("Query", "costly", [](const ResolveInfo& info) {
      info.ctx.cost.range_reads += 1;
      info.ctx.cost.shards_touched += 5;
      return Value(1);
    });
  }

  ExecResult Run(const std::string& text, int64_t viewer = 7) {
    ExecContext ctx;
    ctx.viewer_id = viewer;
    return schema_.Execute(MustParse(text), ctx);
  }

  Schema schema_;
};

TEST_F(ExecutorTest, ScalarField) {
  ExecResult result = Run("{ answer }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("answer").AsInt(), 42);
}

TEST_F(ExecutorTest, NestedSelection) {
  ExecResult result = Run("{ viewer { id name } }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("viewer").Get("id").AsInt(), 7);
  EXPECT_EQ(result.data.Get("viewer").Get("name").AsString(), "alice");
}

TEST_F(ExecutorTest, SelectionProjectsOnlyRequestedFields) {
  ExecResult result = Run("{ viewer { id } }");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.data.Get("viewer").Has("id"));
  EXPECT_FALSE(result.data.Get("viewer").Has("name"));
}

TEST_F(ExecutorTest, ListOfObjects) {
  ExecResult result = Run("{ viewer { friends { name } } }");
  ASSERT_TRUE(result.ok());
  const Value& friends = result.data.Get("viewer").Get("friends");
  ASSERT_EQ(friends.Size(), 2u);
  EXPECT_EQ(friends.AsList()[1].Get("name").AsString(), "friend1");
}

TEST_F(ExecutorTest, Alias) {
  ExecResult result = Run("{ a: answer b: answer }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("a").AsInt(), 42);
  EXPECT_EQ(result.data.Get("b").AsInt(), 42);
}

TEST_F(ExecutorTest, ArgumentsPassThrough) {
  ExecResult result = Run(R"({ echo(value: "ping") })");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.data.Get("echo").AsString(), "ping");
}

TEST_F(ExecutorTest, UnknownFieldReportsError) {
  ExecResult result = Run("{ nonsense }");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.data.Get("nonsense").is_null());
}

TEST_F(ExecutorTest, CostAccumulates) {
  ExecResult result = Run("{ costly c2: costly }");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.cost.range_reads, 2u);
  EXPECT_EQ(result.cost.shards_touched, 10u);
}

TEST_F(ExecutorTest, ScalarWithSelectionSetIsError) {
  ExecResult result = Run("{ answer { sub } }");
  EXPECT_FALSE(result.ok());
}

// Tombstone pages: resolvers that privacy-filter list elements replace the
// content with an untyped {suppressed, indexTime} map (see ResolveComments
// in src/was/resolvers.cpp). Requested fields missing from a tombstone must
// produce per-field errors without poisoning the visible elements.
class TombstoneExecutorTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    schema_.AddResolver("Query", "comments", [](const ResolveInfo&) {
      ValueList page;
      Value visible;
      visible.Set("__type", "Comment");
      visible.Set("id", 1);
      visible.Set("text", "hello");
      visible.Set("indexTime", 100);
      page.push_back(std::move(visible));
      Value tombstone;  // untyped: privacy-filtered placeholder
      tombstone.Set("suppressed", true);
      tombstone.Set("indexTime", 200);
      page.push_back(std::move(tombstone));
      return Value(std::move(page));
    });
  }
};

TEST_F(TombstoneExecutorTest, TombstonePageYieldsPerFieldErrors) {
  ExecResult result = Run("{ comments { id text indexTime } }");
  // The tombstone is missing id and text: one error per missing field, and
  // the untyped map reports an empty type name.
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0], "no resolver and no parent property for .id");
  EXPECT_EQ(result.errors[1], "no resolver and no parent property for .text");

  // The page itself is still usable: both elements present, the visible
  // one complete, the tombstone with nulled content fields but its shared
  // indexTime (pagination watermark) intact.
  const Value& page = result.data.Get("comments");
  ASSERT_EQ(page.Size(), 2u);
  EXPECT_EQ(page.AsList()[0].Get("text").AsString(), "hello");
  EXPECT_TRUE(page.AsList()[1].Get("id").is_null());
  EXPECT_TRUE(page.AsList()[1].Get("text").is_null());
  EXPECT_EQ(page.AsList()[1].Get("indexTime").AsInt(0), 200);
}

TEST_F(TombstoneExecutorTest, TypedElementsUseTypeNameInErrors) {
  // A typed map missing a requested field names its type in the error,
  // distinguishing schema gaps from tombstones.
  ExecResult result = Run("{ comments { author } }");
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0], "no resolver and no parent property for Comment.author");
  EXPECT_EQ(result.errors[1], "no resolver and no parent property for .author");
}

TEST_F(TombstoneExecutorTest, SelectionAvoidingMissingFieldsIsClean) {
  // Selecting only fields every element carries produces no errors at all:
  // tombstones are not inherently erroneous, only missing-field accesses.
  ExecResult result = Run("{ comments { indexTime } }");
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(result.data.Get("comments").Size(), 2u);
}

TEST(QueryCostTest, AddCombines) {
  QueryCost a;
  a.point_reads = 1;
  a.range_reads = 2;
  QueryCost b;
  b.point_reads = 3;
  b.writes = 4;
  a.Add(b);
  EXPECT_EQ(a.point_reads, 4u);
  EXPECT_EQ(a.range_reads, 2u);
  EXPECT_EQ(a.writes, 4u);
  EXPECT_EQ(a.TotalReads(), 6u);
}

}  // namespace
}  // namespace bladerunner

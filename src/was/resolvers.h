// Binds the social-graph domain schema (queries, mutations, subscription
// resolution, payload fetch) onto a WebAppServer.
//
// Query fields (device polls / BRASS fetch building blocks):
//   user(id) video(id) comments(video, after, first)
//   commentsByFriends(video, after, first)   -- the expensive intersect poll
//   activeFriends() storiesTray(first) thread(id) mailbox(afterSeq, first)
//
// Mutation fields:
//   postComment(video, text, language) likePost(post) heartbeatOnline()
//   setTyping(thread, typing) postStory(text) sendMessage(thread, text)
//   addFriend(user) blockUser(user) createVideo(title) createThread(members)
//
// Subscription root fields resolve to (app, topics, context):
//   liveVideoComments(videoId)  -> LVC,        [/LVC/<vid>]
//   activeStatus()              -> AS,         [/AS/<friend> ...]
//   typingIndicator(threadId)   -> TI,         [/TI/<thread>/<member> ...]
//   storiesTray()               -> Stories,    [/Stories/<friend> ...]
//   mailbox()                   -> Messenger,  [/Mailbox/<viewer>]

#ifndef BLADERUNNER_SRC_WAS_RESOLVERS_H_
#define BLADERUNNER_SRC_WAS_RESOLVERS_H_

#include <functional>
#include <set>
#include <string>

#include "src/was/server.h"

namespace bladerunner {

// Installs every resolver, subscription resolver, and fetch handler.
void InstallSocialSchema(WebAppServer& was);

// ---- LVC comment polling ----
//
// The polling baselines (src/baseline/polling.h) and the device's
// degrade-to-poll fallback all poll the `comments` resolver the same way.

// One page of `video`'s comments indexed after `after`, oldest first.
std::string CommentPollQuery(ObjectId video, SimTime after);

struct CommentPollPage {
  size_t fresh = 0;   // new, displayable comments on the page
  bool full = false;  // a full page: a backlog remains to be paged through
};

// Walks one page CommentPollQuery returned: advances `*watermark` past every
// entry (suppressed tombstones included), skips suppressed and already
// `seen` comments, and calls `on_fresh` with each fresh comment's creation
// time, in page order.
CommentPollPage WalkCommentPollPage(const Value& data, SimTime* watermark,
                                    std::set<ObjectId>* seen,
                                    const std::function<void(SimTime created)>& on_fresh);

// Direct (setup-time) graph construction helpers used by workload
// generators; they bypass query latency modeling entirely.
UserId CreateUser(TaoStore& tao, const std::string& name, const std::string& language);
ObjectId CreateVideo(TaoStore& tao, UserId owner, const std::string& title);
ObjectId CreateThread(TaoStore& tao, const std::vector<UserId>& members);
void MakeFriends(TaoStore& tao, UserId a, UserId b);
void BlockUser(TaoStore& tao, UserId blocker, UserId blocked);

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_WAS_RESOLVERS_H_

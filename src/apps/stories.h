// Stories: the BRASS manages the device's displayed tray of the n
// highest-ranked story containers of the viewer's friends (§3.4). It pushes
// (i) new stories for displayed containers, (ii) containers that became
// ranked high enough to display, and (iii) container deletion requests —
// replacing what would otherwise be two intersect polls per refresh.

#ifndef BLADERUNNER_SRC_APPS_STORIES_H_
#define BLADERUNNER_SRC_APPS_STORIES_H_

#include <map>

#include "src/brass/application.h"
#include "src/brass/runtime.h"

namespace bladerunner {

struct StoriesConfig {
  size_t tray_size = 10;        // n highest-ranked containers displayed
  SimTime story_ttl = Hours(24);  // stories expire after a day
};

class StoriesApp : public BrassApplication {
 public:
  StoriesApp(BrassRuntime& runtime, StoriesConfig config);

  void OnStreamStarted(BrassStream& stream) override;
  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(StoriesConfig config = {});
  // QoS: "new story" pushes conflate per author, but the
  // stateful tray add/remove deltas never carry a conflation key.
  static BrassAppDescriptor Descriptor();

 private:
  struct ContainerInfo {
    double rank = 0.0;
    SimTime freshest = 0;
    bool displayed = false;
  };

  // One viewer's state, on its stream's entry.
  struct ViewerState : BrassStreamState {
    std::map<UserId, ContainerInfo> containers;  // friend -> container state
  };

  // Recomputes the top-n display set of `stream`'s viewer and pushes the
  // add/remove deltas.
  void ReconcileTray(BrassStream& stream, ViewerState& viewer, const UpdateEvent& trigger);

  StoriesConfig config_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_STORIES_H_

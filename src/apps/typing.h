// TypingIndicator: dancing ellipses when the counterparty is typing (§3.4).
// Update events are pushed to the device as they arrive; the generalized
// version (the one measured in Fig. 9) privacy-checks and transforms each
// event through a backend (WAS) call first.

#ifndef BLADERUNNER_SRC_APPS_TYPING_H_
#define BLADERUNNER_SRC_APPS_TYPING_H_

#include "src/brass/application.h"
#include "src/brass/runtime.h"

namespace bladerunner {

struct TypingConfig {
  // The simple §3.4 version pushes metadata directly; the generalized
  // version calls the WAS per event (privacy check + device-specific
  // transformation). Fig. 9 measures the generalized version.
  bool backend_check = true;

  // Device-specific transformation cost after the backend check (part of
  // Table 3's ~16ms of BRASS-side processing).
  double transform_ms = 13.0;
};

class TypingIndicatorApp : public BrassApplication {
 public:
  TypingIndicatorApp(BrassRuntime& runtime, TypingConfig config);

  void OnEvent(const Topic& topic, const UpdateEvent& event,
               const std::vector<BrassStream*>& streams) override;

  static BrassAppFactory Factory(TypingConfig config = {});
  // QoS: an ephemeral UI hint, conflatable per (thread, typist)
  // — only the latest typing state matters — with a small queue bound.
  static BrassAppDescriptor Descriptor();

 private:
  TypingConfig config_;
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_APPS_TYPING_H_

#include "src/apps/presence_counter.h"

namespace bladerunner {

LiveQueryAppSpec PresenceCounterSpec() {
  LiveQueryAppSpec spec;
  spec.name = "LiveCount";
  spec.conflatable = true;
  spec.fetch_payload = false;
  return spec;
}

BrassAppFactory PresenceCounterFactory() {
  return LiveQueryAdapterApp::Factory(PresenceCounterSpec());
}

BrassAppDescriptor PresenceCounterDescriptor() {
  return LiveQueryAdapterApp::Descriptor(PresenceCounterSpec());
}

}  // namespace bladerunner

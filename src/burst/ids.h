// Small typed identifiers for the BURST edge tier.
//
// POP and reverse-proxy ids once travelled through pop.cpp/proxy.cpp and the
// cluster as raw uint64_t, so a placement-routing bug could silently compare
// a POP id against a proxy id (or either against a region). These wrappers
// mirror the LpId idiom from src/sim/lp.h: a zero default, explicit
// construction from the raw integer, and ordering so they work as map keys.
// Zero is "no id".

#ifndef BLADERUNNER_SRC_BURST_IDS_H_
#define BLADERUNNER_SRC_BURST_IDS_H_

#include <cstdint>

namespace bladerunner {

struct PopId {
  uint64_t value = 0;
  constexpr PopId() = default;
  constexpr explicit PopId(uint64_t v) : value(v) {}
  constexpr bool operator==(PopId o) const { return value == o.value; }
  constexpr bool operator!=(PopId o) const { return value != o.value; }
  constexpr bool operator<(PopId o) const { return value < o.value; }
};

struct ProxyId {
  uint64_t value = 0;
  constexpr ProxyId() = default;
  constexpr explicit ProxyId(uint64_t v) : value(v) {}
  constexpr bool operator==(ProxyId o) const { return value == o.value; }
  constexpr bool operator!=(ProxyId o) const { return value != o.value; }
  constexpr bool operator<(ProxyId o) const { return value < o.value; }
};

}  // namespace bladerunner

#endif  // BLADERUNNER_SRC_BURST_IDS_H_

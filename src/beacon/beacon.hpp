// BLE beacon infrastructure.
//
// The deployment placed 27 BLE beacons across the habitat, each
// broadcasting ~3 advertisements per second. Beacons are passive anchors:
// badges observe them during scan windows. Rather than scheduling ~100
// million individual advertisement events, a badge scan samples each
// audible beacon's advertisements statistically (3 tries per 1 s window),
// which is equivalent in distribution and documented in DESIGN.md.
#pragma once

#include <vector>

#include "habitat/habitat.hpp"
#include "io/records.hpp"
#include "util/vec2.hpp"

namespace hs::beacon {

struct Beacon {
  io::BeaconId id = 0;
  Vec2 position;
  habitat::RoomId room = habitat::RoomId::kNone;
  /// Advertisements per second ("approximately three times per second").
  double adv_rate_hz = 3.0;
};

/// A beacon as a scanning badge sees it: the beacon and the room its
/// position lies in (habitat.room_at(position), looked up once, so the
/// per-second scan never calls room_at for a beacon).
struct AudibleBeacon {
  const Beacon* beacon = nullptr;
  habitat::RoomId room = habitat::RoomId::kNone;
};

/// Deploys beacons over a habitat: roughly evenly per room, proportionally
/// more in larger rooms, placed off-center for triangulation diversity.
/// The hangar gets none (no badge coverage there, badges are not worn on
/// EVA). Returns exactly `count` beacons (the paper used 27).
std::vector<Beacon> deploy_lunares_beacons(const habitat::Habitat& habitat, int count = 27);

}  // namespace hs::beacon

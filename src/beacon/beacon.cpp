#include "beacon/beacon.hpp"

#include <algorithm>
#include <cassert>

namespace hs::beacon {

std::vector<Beacon> deploy_lunares_beacons(const habitat::Habitat& habitat, int count) {
  assert(count >= 9);  // one beacon per covered room at least
  // Coverage plan: every room except the hangar gets beacons; bigger rooms
  // get more. Base allocation below sums to 27 for the Lunares layout
  // (the paper's count); other counts redistribute round-robin.
  using habitat::RoomId;
  const std::vector<std::pair<RoomId, int>> base_alloc = {
      {RoomId::kAtrium, 5},  {RoomId::kBedroom, 3}, {RoomId::kRestroom, 3},
      {RoomId::kBiolab, 3},  {RoomId::kKitchen, 3}, {RoomId::kOffice, 3},
      {RoomId::kWorkshop, 3}, {RoomId::kStorage, 2}, {RoomId::kAirlock, 2},
  };

  // Scale allocations to the requested count, preserving proportions.
  int base_total = 0;
  for (const auto& [room, n] : base_alloc) base_total += n;
  std::vector<std::pair<RoomId, int>> alloc;
  int assigned = 0;
  for (const auto& [room, n] : base_alloc) {
    const int scaled = std::max(1, n * count / base_total);
    alloc.emplace_back(room, scaled);
    assigned += scaled;
  }
  // Distribute the remainder (or trim overshoot) round-robin.
  std::size_t idx = 0;
  while (assigned < count) {
    ++alloc[idx % alloc.size()].second;
    ++assigned;
    ++idx;
  }
  while (assigned > count) {
    auto& slot = alloc[idx % alloc.size()];
    if (slot.second > 1) {
      --slot.second;
      --assigned;
    }
    ++idx;
  }

  // Place each room's beacons spread along the room diagonal / perimeter,
  // inset from walls (beacons were mounted on walls and furniture).
  std::vector<Beacon> beacons;
  beacons.reserve(static_cast<std::size_t>(count));
  io::BeaconId next_id = 0;
  for (const auto& [room_id, n] : alloc) {
    const auto& bounds = habitat.room(room_id).bounds;
    for (int i = 0; i < n; ++i) {
      const double frac = (i + 1.0) / (n + 1.0);
      // Alternate between the two diagonals for spatial diversity.
      const double fx = (i % 2 == 0) ? frac : 1.0 - frac;
      Vec2 pos{bounds.lo.x + fx * bounds.width(), bounds.lo.y + frac * bounds.height()};
      pos = bounds.clamp(pos, 0.3);
      beacons.push_back(Beacon{next_id++, pos, room_id, 3.0});
    }
  }
  return beacons;
}

}  // namespace hs::beacon

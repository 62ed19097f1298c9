#include "locate/triangulate.hpp"

#include <algorithm>
#include <cmath>

namespace hs::locate {

Triangulator::Triangulator(const habitat::Habitat& habitat,
                           const std::vector<beacon::Beacon>& beacons, double bin_s)
    : habitat_(&habitat), beacons_(beacons), bin_s_(bin_s) {
  io::BeaconId max_id = 0;
  for (const auto& b : beacons_) max_id = std::max(max_id, b.id);
  index_.assign(static_cast<std::size_t>(max_id) + 1, beacons_.size());
  for (std::size_t i = 0; i < beacons_.size(); ++i) index_[beacons_[i].id] = i;
  // Every int8 RSSI maps to std::pow(10, r/10) — pow is a pure function,
  // so precomputing the 256 possible results changes nothing but the
  // call count.
  for (int r = -128; r <= 127; ++r) {
    weights_[static_cast<std::size_t>(r + 128)] =
        std::pow(10.0, static_cast<double>(r) / 10.0);
  }
}

Vec2 Triangulator::estimate(const io::BeaconId* beacon, const std::int8_t* rssi_dbm,
                            std::size_t n, habitat::RoomId room) const {
  Vec2 acc{};
  double total_w = 0.0;
  // Scalar accumulation in record order: reordering the += chain would
  // reassociate the float sums (docs/PERFORMANCE.md, determinism rules).
  for (std::size_t k = 0; k < n; ++k) {
    const io::BeaconId id = beacon[k];
    if (id >= index_.size() || index_[id] >= beacons_.size()) continue;
    const auto& b = beacons_[index_[id]];
    if (b.room != room) continue;
    // Linear received power as weight: w ~ 10^(rssi/10). With path-loss
    // exponent ~2.2 this approximates inverse-square-distance weighting.
    const double w = weights_[static_cast<std::size_t>(rssi_dbm[k] + 128)];
    acc += b.position * w;
    total_w += w;
  }
  const auto& bounds = habitat_->room(room).bounds;
  if (total_w <= 0.0) return bounds.center();
  return bounds.clamp(acc / total_w, 0.05);
}

std::vector<PositionFix> Triangulator::fixes(const double* t_s, const io::BeaconId* beacon,
                                             const std::int8_t* rssi_dbm, std::size_t n,
                                             const std::vector<RoomStay>& track) const {
  std::vector<PositionFix> out;
  std::size_t i = 0;
  while (i < n) {
    const double bin_start = t_s[i];
    const double bin_end = bin_start + bin_s_;
    const std::size_t begin = i;
    while (i < n && t_s[i] < bin_end) ++i;
    if (i == begin) {
      // A non-finite timestamp (or bin_s <= 0) makes the bin predicate
      // false for its own opening record; skip it or no progress is made.
      ++i;
      continue;
    }
    const double t_mid = bin_start + bin_s_ / 2.0;
    const habitat::RoomId room = room_at_time(track, t_mid);
    if (room == habitat::RoomId::kNone) continue;
    out.push_back(
        PositionFix{t_mid, estimate(beacon + begin, rssi_dbm + begin, i - begin, room), room});
  }
  return out;
}

}  // namespace hs::locate

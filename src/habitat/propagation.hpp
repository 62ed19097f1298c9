// Radio propagation inside the habitat.
//
// Log-distance path loss plus a per-wall penetration penalty and log-normal
// shadowing. The paper reports that "the metal walls of any room perfectly
// shielded the signal from the beacons in the other rooms" — our wall
// penalty (default 35 dB for 2.4 GHz) puts cross-room BLE below receiver
// sensitivity, while the 868 MHz badge-to-badge band (lower loss, better
// sensitivity) still reaches neighbouring modules, matching the two radios'
// different roles as proximity sensors.
#pragma once

#include "habitat/habitat.hpp"
#include "util/rng.hpp"
#include "util/vec2.hpp"

namespace hs::habitat {

struct ChannelParams {
  double path_loss_1m_db;    ///< free-space loss at the 1 m reference distance
  double path_loss_exponent; ///< indoor exponent n
  double wall_loss_db;       ///< metal-wall penetration penalty per wall
  double door_leak_db;       ///< penalty when the link passes an open door instead
  double door_radius_m;      ///< aperture radius around a door midpoint
  double shadow_sigma_db;    ///< log-normal shadowing std-dev
  double tx_power_dbm;       ///< transmit power
  double sensitivity_dbm;    ///< receiver sensitivity floor
};

/// 2.4 GHz BLE advertisements (beacons and badge BLE scans). Wall loss puts
/// cross-room links ~5 dB below sensitivity on average, so rooms are almost
/// perfectly shielded; door leakage lets occasional adjacent-room
/// advertisements through, which the 10 s dwell filter must absorb.
constexpr ChannelParams kBleChannel{40.0, 2.2, 38.0, 14.0, 1.0, 3.0, 0.0, -88.0};

/// 868 MHz badge-to-badge proximity pings: lower loss and a -100 dBm floor,
/// so badges also hear each other across module walls (the coarser of the
/// paper's two proximity sensors).
constexpr ChannelParams kSubGhzChannel{31.5, 1.9, 22.0, 8.0, 1.0, 3.0, 0.0, -100.0};

class Propagation {
 public:
  Propagation(const Habitat& habitat, ChannelParams params)
      : habitat_(&habitat), params_(params) {}

  /// Mean received power (dBm) between two points, no shadowing.
  [[nodiscard]] double mean_rssi(Vec2 tx, Vec2 rx) const {
    return mean_rssi(tx, habitat_->room_at(tx), rx, habitat_->room_at(rx));
  }

  /// mean_rssi(tx, rx) for a caller that already knows the endpoints'
  /// rooms: `room_tx` and `room_rx` must be room_at(tx) and room_at(rx).
  [[nodiscard]] double mean_rssi(Vec2 tx, RoomId room_tx, Vec2 rx, RoomId room_rx) const;

  /// One fading realization: mean_rssi + N(0, shadow_sigma).
  [[nodiscard]] double sample_rssi(Vec2 tx, Vec2 rx, Rng& rng) const {
    return fade(mean_rssi(tx, rx), rng);
  }

  /// One fading realization around a known mean: mean + N(0, shadow_sigma).
  [[nodiscard]] double fade(double mean_rssi_dbm, Rng& rng) const {
    return mean_rssi_dbm + rng.normal(0.0, params_.shadow_sigma_db);
  }

  /// Whether a sample at this power is decodable.
  [[nodiscard]] bool receivable(double rssi_dbm) const { return rssi_dbm >= params_.sensitivity_dbm; }

  [[nodiscard]] const ChannelParams& params() const { return params_; }

 private:
  const Habitat* habitat_;
  ChannelParams params_;
};

}  // namespace hs::habitat

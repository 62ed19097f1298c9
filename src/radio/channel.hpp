// Packet-reception model on top of the habitat propagation model.
//
// A Channel answers one question: given transmitter and receiver positions,
// was this transmission decoded, and at what RSSI? Reception combines
// log-normal shadowing with a sensitivity floor and a small residual frame
// error rate near the floor (real BLE/sub-GHz links are not a hard cliff).
#pragma once

#include <optional>

#include "habitat/propagation.hpp"
#include "util/rng.hpp"
#include "util/vec2.hpp"

namespace hs::radio {

class Channel {
 public:
  Channel(const habitat::Habitat& habitat, habitat::ChannelParams params)
      : prop_(habitat, params) {}

  /// Attempt to receive a single transmission. Returns the measured RSSI
  /// (dBm, quantized to integer as real radios report) or nullopt if the
  /// frame was not decodable.
  std::optional<int> try_receive(Vec2 tx, Vec2 rx, Rng& rng) const {
    return receive(prop_.mean_rssi(tx, rx), rng);
  }

  /// Attempt to receive a single transmission over a link whose mean RSSI
  /// (mean_rssi() of its endpoints) is already known. Draws the same
  /// random numbers, in the same order, as try_receive() on those
  /// endpoints, so a caller sampling several frames over one link can
  /// compute the mean once.
  std::optional<int> receive(double mean_rssi_dbm, Rng& rng) const;

  /// Mean RSSI without fading (for tests and coverage analyses).
  [[nodiscard]] double mean_rssi(Vec2 tx, Vec2 rx) const { return prop_.mean_rssi(tx, rx); }
  /// Mean RSSI between endpoints whose rooms the caller already knows
  /// (`room_tx` == room_at(tx), `room_rx` == room_at(rx)).
  [[nodiscard]] double mean_rssi(Vec2 tx, habitat::RoomId room_tx, Vec2 rx,
                                 habitat::RoomId room_rx) const {
    return prop_.mean_rssi(tx, room_tx, rx, room_rx);
  }

  [[nodiscard]] const habitat::ChannelParams& params() const { return prop_.params(); }

  /// Extra path loss applied to every frame on the channel (dB), on top of
  /// the propagation model. Fault hook (hs::faults radio degradation:
  /// interference, antenna damage, a mis-seated connector); additive so
  /// overlapping fault windows compose and unwind cleanly.
  void add_extra_loss_db(double db) { extra_loss_db_ += db; }
  [[nodiscard]] double extra_loss_db() const { return extra_loss_db_; }

 private:
  habitat::Propagation prop_;
  double extra_loss_db_ = 0.0;
};

}  // namespace hs::radio

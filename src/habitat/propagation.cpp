#include "habitat/propagation.hpp"

#include <algorithm>
#include <cmath>

namespace hs::habitat {

double Propagation::mean_rssi(Vec2 tx, RoomId room_tx, Vec2 rx, RoomId room_rx) const {
  const double d = std::max(0.5, distance(tx, rx));  // near-field clamp
  const int walls = habitat_->walls_between(room_tx, room_rx);
  double obstruction_db = static_cast<double>(walls) * params_.wall_loss_db;
  // Adjacent rooms with an endpoint inside the door aperture: the signal
  // passes the open door rather than the metal wall.
  if (walls == 1 && (habitat_->near_door(room_tx, room_rx, tx, params_.door_radius_m) ||
                     habitat_->near_door(room_tx, room_rx, rx, params_.door_radius_m))) {
    obstruction_db = params_.door_leak_db;
  }
  const double path_loss = params_.path_loss_1m_db +
                           10.0 * params_.path_loss_exponent * std::log10(d) + obstruction_db;
  return params_.tx_power_dbm - path_loss;
}

}  // namespace hs::habitat

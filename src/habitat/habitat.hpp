// Habitat geometry: room rectangles, doors, the room adjacency graph,
// walking paths, the 28 cm occupancy grid, and wall counts used by the RF
// propagation model.
//
// The built-in layout mirrors the Lunares analog habitat as the paper
// describes it: separate modules of distinct purposes arranged around a
// central rest area ("a semicircle with a place to rest in the middle"),
// with the only exit leading through an airlock to an isolated hangar that
// imitates the Martian surface. Dimensions are plausible for the real
// facility but not survey-accurate; every derived result depends only on
// the topology (every module opens onto the atrium) and on the metal-wall
// RF shielding, both of which the paper states explicitly.
#pragma once

#include <cstdint>
#include <vector>

#include "habitat/room.hpp"
#include "util/vec2.hpp"

namespace hs::habitat {

/// Axis-aligned rectangle; lo is the min corner, hi the max corner.
struct Rect {
  Vec2 lo;
  Vec2 hi;

  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
  }
  [[nodiscard]] constexpr Vec2 center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }
  [[nodiscard]] constexpr double width() const { return hi.x - lo.x; }
  [[nodiscard]] constexpr double height() const { return hi.y - lo.y; }
  [[nodiscard]] constexpr double area() const { return width() * height(); }

  /// Nearest point inside the rectangle (inset by `margin` from the walls).
  [[nodiscard]] Vec2 clamp(Vec2 p, double margin = 0.0) const;
};

struct Room {
  RoomId id = RoomId::kNone;
  Rect bounds;
};

/// Grid cell index (column x, row y) of the occupancy grid.
struct Cell {
  int x = 0;
  int y = 0;
  friend constexpr bool operator==(Cell, Cell) = default;
};

class Habitat {
 public:
  /// The Lunares layout used throughout the reproduction.
  static Habitat lunares();

  /// Cell edge length of the occupancy grid; the paper analyses heatmaps at
  /// 28 cm x 28 cm granularity.
  static constexpr double kCellSize = 0.28;

  [[nodiscard]] const std::vector<Room>& rooms() const { return rooms_; }
  [[nodiscard]] const Room& room(RoomId id) const;

  /// Which room contains the point (kNone if in a wall / outside).
  [[nodiscard]] RoomId room_at(Vec2 p) const;

  /// True if rooms a and b share a door.
  [[nodiscard]] bool adjacent(RoomId a, RoomId b) const;

  /// Door midpoint between two adjacent rooms.
  [[nodiscard]] Vec2 door_between(RoomId a, RoomId b) const;

  /// True if `p` lies within `radius` of the door connecting rooms a and b
  /// (false when the rooms are not adjacent). Signals leak through open
  /// doors; metal walls block them (paper, footnote 1).
  [[nodiscard]] bool near_door(RoomId a, RoomId b, Vec2 p, double radius) const;

  /// Number of metal walls separating the two rooms along the door path
  /// (0 for the same room). Drives RF attenuation.
  [[nodiscard]] int walls_between(RoomId a, RoomId b) const;

  /// Waypoint path from a point in `from` to a point in `to`: door
  /// midpoints of the room-graph shortest path, endpoints included.
  [[nodiscard]] std::vector<Vec2> walk_path(Vec2 from, Vec2 to) const;

  /// Total walking distance along walk_path().
  [[nodiscard]] double walk_distance(Vec2 from, Vec2 to) const;

  /// Bounding box of all rooms.
  [[nodiscard]] Rect bounding_box() const { return bbox_; }

  /// Occupancy grid: dimensions and point<->cell mapping.
  [[nodiscard]] int grid_width() const { return grid_w_; }
  [[nodiscard]] int grid_height() const { return grid_h_; }
  [[nodiscard]] Cell cell_of(Vec2 p) const;
  [[nodiscard]] Vec2 cell_center(Cell c) const;

 private:
  struct Door {
    RoomId a = RoomId::kNone;
    RoomId b = RoomId::kNone;
    Vec2 position;
  };

  void finalize();
  [[nodiscard]] const Door* find_door(RoomId a, RoomId b) const;

  std::vector<Room> rooms_;
  std::vector<Door> doors_;
  Rect bbox_{};
  int grid_w_ = 0;
  int grid_h_ = 0;
  // walls_[a][b] = metal walls crossed travelling a -> b via doors.
  int walls_[kRoomCount][kRoomCount] = {};
  // hop path predecessor matrix for walk_path (next room from a toward b).
  RoomId next_hop_[kRoomCount][kRoomCount] = {};
  // door_of_[a][b] = index in doors_ of the first door joining a and b, -1
  // if none; find_door() is on the radio path of every badge-beacon link.
  std::int8_t door_of_[kRoomCount][kRoomCount] = {};
};

}  // namespace hs::habitat

#include "habitat/habitat.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

namespace hs::habitat {

Vec2 Rect::clamp(Vec2 p, double margin) const {
  const double mx = std::min(margin, width() / 2 - 1e-6);
  const double my = std::min(margin, height() / 2 - 1e-6);
  return {std::clamp(p.x, lo.x + mx, hi.x - 1e-6 - mx), std::clamp(p.y, lo.y + my, hi.y - 1e-6 - my)};
}

Habitat Habitat::lunares() {
  Habitat h;
  // Plan coordinates in meters. The atrium sits in the middle; the seven
  // living/working modules open onto it (the Lunares "semicircle"); the
  // airlock hangs off the atrium's south wall and leads to the hangar.
  h.rooms_ = {
      {RoomId::kAtrium, {{8.0, 0.0}, {20.0, 8.0}}},
      {RoomId::kBedroom, {{2.0, 0.0}, {8.0, 4.0}}},
      {RoomId::kRestroom, {{2.0, 4.0}, {8.0, 8.0}}},
      {RoomId::kBiolab, {{8.0, 8.0}, {12.0, 12.0}}},
      {RoomId::kKitchen, {{12.0, 8.0}, {16.0, 12.0}}},
      {RoomId::kOffice, {{16.0, 8.0}, {20.0, 12.0}}},
      {RoomId::kWorkshop, {{20.0, 4.0}, {26.0, 8.0}}},
      {RoomId::kStorage, {{20.0, 0.0}, {26.0, 4.0}}},
      {RoomId::kAirlock, {{12.0, -3.0}, {16.0, 0.0}}},
      {RoomId::kHangar, {{8.0, -11.0}, {20.0, -3.0}}},
  };
  // Doors: every module <-> atrium at the midpoint of the shared wall;
  // airlock chains atrium <-> airlock <-> hangar.
  h.doors_ = {
      {RoomId::kAtrium, RoomId::kBedroom, {8.0, 2.0}},
      {RoomId::kAtrium, RoomId::kRestroom, {8.0, 6.0}},
      {RoomId::kAtrium, RoomId::kBiolab, {10.0, 8.0}},
      {RoomId::kAtrium, RoomId::kKitchen, {14.0, 8.0}},
      {RoomId::kAtrium, RoomId::kOffice, {18.0, 8.0}},
      {RoomId::kAtrium, RoomId::kWorkshop, {20.0, 6.0}},
      {RoomId::kAtrium, RoomId::kStorage, {20.0, 2.0}},
      {RoomId::kAtrium, RoomId::kAirlock, {14.0, 0.0}},
      {RoomId::kAirlock, RoomId::kHangar, {14.0, -3.0}},
  };
  h.finalize();
  return h;
}

void Habitat::finalize() {
  assert(!rooms_.empty());
  bbox_ = rooms_.front().bounds;
  for (const auto& room : rooms_) {
    bbox_.lo.x = std::min(bbox_.lo.x, room.bounds.lo.x);
    bbox_.lo.y = std::min(bbox_.lo.y, room.bounds.lo.y);
    bbox_.hi.x = std::max(bbox_.hi.x, room.bounds.hi.x);
    bbox_.hi.y = std::max(bbox_.hi.y, room.bounds.hi.y);
  }
  grid_w_ = static_cast<int>(std::ceil(bbox_.width() / kCellSize));
  grid_h_ = static_cast<int>(std::ceil(bbox_.height() / kCellSize));

  for (auto& row : door_of_) std::fill(std::begin(row), std::end(row), std::int8_t{-1});
  for (std::size_t i = doors_.size(); i-- > 0;) {  // backwards: the first door wins
    const auto a = room_index(doors_[i].a);
    const auto b = room_index(doors_[i].b);
    door_of_[a][b] = door_of_[b][a] = static_cast<std::int8_t>(i);
  }

  // BFS over the door graph from every room: hop counts give wall counts
  // (each door crossing passes exactly one wall) and first hops give the
  // walking route.
  for (const auto& src : rooms_) {
    const auto s = room_index(src.id);
    for (int i = 0; i < kRoomCount; ++i) {
      walls_[s][i] = -1;
      next_hop_[s][i] = RoomId::kNone;
    }
    walls_[s][s] = 0;
    next_hop_[s][s] = src.id;
    std::queue<RoomId> frontier;
    frontier.push(src.id);
    while (!frontier.empty()) {
      const RoomId cur = frontier.front();
      frontier.pop();
      for (const auto& door : doors_) {
        RoomId nbr = RoomId::kNone;
        if (door.a == cur) nbr = door.b;
        if (door.b == cur) nbr = door.a;
        if (nbr == RoomId::kNone) continue;
        const auto n = room_index(nbr);
        if (walls_[s][n] != -1) continue;
        walls_[s][n] = walls_[s][room_index(cur)] + 1;
        // First hop toward nbr: if cur is the source, the hop is nbr itself,
        // else inherit the hop that reached cur.
        next_hop_[s][n] = (cur == src.id) ? nbr : next_hop_[s][room_index(cur)];
        frontier.push(nbr);
      }
    }
  }
}

const Room& Habitat::room(RoomId id) const {
  for (const auto& r : rooms_) {
    if (r.id == id) return r;
  }
  assert(false && "unknown room");
  return rooms_.front();
}

RoomId Habitat::room_at(Vec2 p) const {
  for (const auto& r : rooms_) {
    if (r.bounds.contains(p)) return r.id;
  }
  return RoomId::kNone;
}

const Habitat::Door* Habitat::find_door(RoomId a, RoomId b) const {
  if (room_index(a) >= kRoomCount || room_index(b) >= kRoomCount) return nullptr;
  const int i = door_of_[room_index(a)][room_index(b)];
  return i < 0 ? nullptr : &doors_[static_cast<std::size_t>(i)];
}

bool Habitat::adjacent(RoomId a, RoomId b) const { return find_door(a, b) != nullptr; }

Vec2 Habitat::door_between(RoomId a, RoomId b) const {
  const Door* d = find_door(a, b);
  assert(d != nullptr && "rooms are not adjacent");
  return d->position;
}

bool Habitat::near_door(RoomId a, RoomId b, Vec2 p, double radius) const {
  const Door* d = find_door(a, b);
  return d != nullptr && distance(d->position, p) <= radius;
}

int Habitat::walls_between(RoomId a, RoomId b) const {
  if (a == RoomId::kNone || b == RoomId::kNone) return kRoomCount;  // effectively opaque
  const int w = walls_[room_index(a)][room_index(b)];
  return w < 0 ? kRoomCount : w;
}

std::vector<Vec2> Habitat::walk_path(Vec2 from, Vec2 to) const {
  std::vector<Vec2> path{from};
  RoomId cur = room_at(from);
  const RoomId dst = room_at(to);
  if (cur == RoomId::kNone || dst == RoomId::kNone) {
    path.push_back(to);
    return path;
  }
  // Follow precomputed first hops, appending each door midpoint.
  int guard = kRoomCount + 1;
  while (cur != dst && guard-- > 0) {
    const RoomId nxt = next_hop_[room_index(cur)][room_index(dst)];
    if (nxt == RoomId::kNone || nxt == cur) break;  // unreachable (should not happen)
    path.push_back(door_between(cur, nxt));
    cur = nxt;
  }
  path.push_back(to);
  return path;
}

double Habitat::walk_distance(Vec2 from, Vec2 to) const {
  const auto path = walk_path(from, to);
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) total += distance(path[i - 1], path[i]);
  return total;
}

Cell Habitat::cell_of(Vec2 p) const {
  const int cx = static_cast<int>((p.x - bbox_.lo.x) / kCellSize);
  const int cy = static_cast<int>((p.y - bbox_.lo.y) / kCellSize);
  return {std::clamp(cx, 0, grid_w_ - 1), std::clamp(cy, 0, grid_h_ - 1)};
}

Vec2 Habitat::cell_center(Cell c) const {
  return {bbox_.lo.x + (c.x + 0.5) * kCellSize, bbox_.lo.y + (c.y + 0.5) * kCellSize};
}

}  // namespace hs::habitat

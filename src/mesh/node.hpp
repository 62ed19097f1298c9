// One replicating storage node of the in-habitat data plane.
//
// Every BLE beacon doubles as a MeshNode (wall-powered, already deployed
// in every room), plus one node at the base station. A node holds a local
// chunk store with its version vector; the store is volatile — a node
// that goes dark (beacon outage, partition-side power cut) loses its
// replicas and is re-healed by anti-entropy when it returns. Durability
// therefore comes from replication, never from any single node — exactly
// the paper's argument against the centralized sink.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "habitat/habitat.hpp"
#include "mesh/chunk.hpp"
#include "mesh/gossip.hpp"
#include "util/vec2.hpp"

namespace hs::mesh {

/// One origin's entry in a node's version vector, with the node's stored
/// chunks of that origin attached.
struct OriginStore {
  OriginId origin = 0;
  /// Every seq the node knows of this origin: stored, or declined in
  /// cap_replicas mode.
  SeqSet held;
  /// slot[seq] = 1 + index of the stored chunk in the node's chunk pool;
  /// 0 = not stored. Seqs are dense per-origin counters, so this is a flat
  /// array indexed by seq.
  std::vector<std::uint32_t> slot;
};

/// Per-node version vector: one entry per known origin, ascending origin.
using VersionVector = std::vector<OriginStore>;

class MeshNode {
 public:
  MeshNode(NodeId id, Vec2 position, habitat::RoomId room)
      : id_(id), position_(position), room_(room) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Vec2 position() const { return position_; }
  [[nodiscard]] habitat::RoomId room() const { return room_; }

  /// Store a chunk. Returns false (and stores nothing) when the node is
  /// down, the chunk is a duplicate, or its checksum does not match its
  /// payload (a flipped checksum, or another chunk's payload). The check
  /// runs on every insert; it compares the checksum with the hash the
  /// shared Payload computed once when it was built, so it costs O(1).
  bool insert(const MeshChunk& chunk);

  /// Record knowledge of a chunk without storing a copy (cap_replicas
  /// mode: a non-home node declines the payload, and marking it in the
  /// version vector keeps anti-entropy from re-offering it every round).
  void decline(ChunkKey key) {
    if (!down_) entry(key.origin).held.insert(key.seq);
  }

  [[nodiscard]] bool has(ChunkKey key) const { return find(key) != nullptr; }
  [[nodiscard]] const MeshChunk* find(ChunkKey key) const {
    const OriginStore* e = held_entry(key.origin);
    return e == nullptr ? nullptr : find(*e, key.seq);
  }
  /// The stored chunk at `seq` of `entry` (one of this node's version
  /// vector entries), or nullptr.
  [[nodiscard]] const MeshChunk* find(const OriginStore& entry, std::uint32_t seq) const {
    if (seq >= entry.slot.size() || entry.slot[seq] == 0) return nullptr;
    return &(*pool_)[entry.slot[seq] - 1];
  }
  /// This node's version-vector entry for `origin`, or nullptr.
  [[nodiscard]] const OriginStore* held_entry(OriginId origin) const;
  [[nodiscard]] const VersionVector& version_vector() const { return vv_; }
  [[nodiscard]] std::size_t chunk_count() const { return pool_ ? pool_->size() : 0; }
  [[nodiscard]] std::int64_t stored_bytes() const { return stored_bytes_; }

  /// Call `visit(chunk)` for every stored chunk in ascending ChunkKey
  /// order (per origin, ascending seq).
  template <class Visit>
  void for_each_chunk(Visit&& visit) const {
    for (const OriginStore& e : vv_) {
      for (const std::uint32_t s : e.slot) {
        if (s != 0) visit((*pool_)[s - 1]);
      }
    }
  }

  /// Order-sensitive digest over (key, checksum): two nodes with equal
  /// digests hold byte-identical stores.
  [[nodiscard]] std::uint64_t store_digest() const;

  /// Power state. Going down wipes the store and version vector (volatile
  /// storage); anti-entropy restores the replicas after recovery.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

 private:
  /// The version-vector entry for `origin`, created if absent.
  OriginStore& entry(OriginId origin);

  NodeId id_;
  Vec2 position_;
  habitat::RoomId room_;
  bool down_ = false;
  VersionVector vv_;
  /// Stored chunks in arrival order. A deque never moves its elements, so
  /// find() pointers stay valid while the node keeps storing, and it grows
  /// in small fixed blocks instead of doubling. Built on the first insert:
  /// an empty deque already allocates, and that would land in mission
  /// setup, where every node is built.
  std::optional<std::deque<MeshChunk>> pool_;
  std::int64_t stored_bytes_ = 0;
};

}  // namespace hs::mesh

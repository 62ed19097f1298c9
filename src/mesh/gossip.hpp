// Gossip anti-entropy primitives: version vectors and peer selection.
//
// Convergence is driven by periodic push–pull exchanges. Each node keeps,
// per origin, the set of chunk sequence numbers it holds as a SeqSet — a
// contiguous prefix [0, next) plus a (normally tiny) set of out-of-order
// extras, which arise only when a roaming badge offloads consecutive
// chunks to different nodes. Two SeqSets diff in O(lag + extras), so an
// exchange at steady state costs O(origins), not O(store).
//
// Peer choice is a pure function of (seed, node id, round, draw) — never
// of thread schedule, fault state or store contents — so a mission with a
// mesh is exactly as reproducible as one without (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "mesh/chunk.hpp"

namespace hs::mesh {

/// The set of sequence numbers a node holds for one origin: the dense
/// prefix [0, next) plus out-of-order extras >= next.
class SeqSet {
 public:
  /// Insert a sequence number; returns false if already present.
  bool insert(std::uint32_t seq);
  [[nodiscard]] bool contains(std::uint32_t seq) const {
    return seq < next_ || extras_.count(seq) > 0;
  }
  [[nodiscard]] std::uint32_t next() const { return next_; }
  [[nodiscard]] const std::set<std::uint32_t>& extras() const { return extras_; }
  [[nodiscard]] std::size_t size() const { return next_ + extras_.size(); }
  /// Digest wire size: next (4 bytes) + each extra (4 bytes).
  [[nodiscard]] std::size_t digest_bytes() const { return 4 + 4 * extras_.size(); }

  /// Sequence numbers present here but missing from `other`, ascending.
  [[nodiscard]] std::vector<std::uint32_t> missing_from(const SeqSet& other) const;

  /// Call `visit(seq)` for each sequence number missing_from(other) would
  /// return, in the same ascending order, without allocating. `visit` may
  /// insert the visited seq (or any seq below it) into `other`: that never
  /// changes whether a later, larger seq is missing, so the walk visits
  /// exactly what missing_from(other) returned before the first call.
  template <class Visit>
  void for_each_missing_from(const SeqSet& other, Visit&& visit) const {
    for (std::uint32_t s = other.next(); s < next_; ++s) {
      if (!other.contains(s)) visit(s);
    }
    for (const std::uint32_t e : extras_) {
      if (!other.contains(e)) visit(e);
    }
  }

  /// Union `other` into this set. Returns the number of sequence numbers
  /// newly added. Merge is commutative, associative and idempotent (it is
  /// a set union), which is what lets gossip converge in any exchange
  /// order — tests/seqset_property_test.cpp checks all three.
  std::size_t merge(const SeqSet& other);

  friend bool operator==(const SeqSet&, const SeqSet&) = default;

 private:
  std::uint32_t next_ = 0;
  std::set<std::uint32_t> extras_;
};

/// The peer node `node` gossips with on (round, draw), among `n` nodes.
/// Pure function of its arguments; uniform over the other n-1 nodes.
NodeId gossip_peer(std::uint64_t seed, NodeId node, std::uint64_t round, int draw, std::size_t n);

/// Whether `node` is one of the `k` rendezvous-placement homes for a
/// record chunk key among `n` nodes (highest-random-weight hashing, so
/// home sets are stable, uniform, and need no coordination). Control
/// items replicate everywhere and bypass this.
bool is_home(ChunkKey key, NodeId node, int k, std::size_t n);

/// Transfer/byte accounting for the whole mesh, kept by MeshNetwork.
struct GossipStats {
  std::uint64_t rounds = 0;
  std::uint64_t exchanges = 0;          ///< completed push-pull pairings
  std::uint64_t skipped_links = 0;      ///< peer down or partitioned
  std::uint64_t chunks_replicated = 0;  ///< node-to-node chunk copies
  std::int64_t digest_bytes = 0;        ///< version-vector exchange traffic
  std::int64_t replication_bytes = 0;   ///< node-to-node chunk traffic
  std::int64_t offload_bytes = 0;       ///< badge-to-node first-hop traffic
  std::uint64_t offloads = 0;           ///< chunks accepted from badges
  std::uint64_t offload_deferrals = 0;  ///< offload attempts with no reachable node
};

}  // namespace hs::mesh

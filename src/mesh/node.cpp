#include "mesh/node.hpp"

#include <algorithm>

namespace hs::mesh {
namespace {

/// Slots added beyond the one an insert needs when an origin's slot array
/// must grow: a fixed step, not doubling, so a node's slack stays at most
/// one step per origin while growth reallocates once per step.
constexpr std::size_t kSlotStep = 256;

bool origin_less(const OriginStore& e, OriginId origin) { return e.origin < origin; }

}  // namespace

const OriginStore* MeshNode::held_entry(OriginId origin) const {
  const auto it = std::lower_bound(vv_.begin(), vv_.end(), origin, origin_less);
  return it != vv_.end() && it->origin == origin ? &*it : nullptr;
}

OriginStore& MeshNode::entry(OriginId origin) {
  const auto it = std::lower_bound(vv_.begin(), vv_.end(), origin, origin_less);
  if (it != vv_.end() && it->origin == origin) return *it;
  return *vv_.insert(it, OriginStore{origin, {}, {}});
}

bool MeshNode::insert(const MeshChunk& chunk) {
  if (down_) return false;
  if (chunk.payload == nullptr || chunk.payload->hash() != chunk.checksum) return false;
  OriginStore& e = entry(chunk.key.origin);
  if (!e.held.insert(chunk.key.seq)) return false;
  stored_bytes_ += static_cast<std::int64_t>(chunk.payload_bytes());
  const std::size_t seq = chunk.key.seq;
  if (seq >= e.slot.size()) {
    if (seq >= e.slot.capacity()) e.slot.reserve(seq + 1 + kSlotStep);
    e.slot.resize(seq + 1, 0);
  }
  if (!pool_) pool_.emplace();
  pool_->push_back(chunk);
  e.slot[seq] = static_cast<std::uint32_t>(pool_->size());
  return true;
}

std::uint64_t MeshNode::store_digest() const {
  // FNV-1a fold over the ordered (origin, seq, checksum) triples.
  std::uint64_t h = 14695981039346656037ULL;
  const auto eat = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for_each_chunk([&eat](const MeshChunk& chunk) {
    eat((static_cast<std::uint64_t>(chunk.key.origin) << 32) | chunk.key.seq);
    eat(chunk.checksum);
  });
  return h;
}

void MeshNode::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down_) {
    vv_.clear();
    pool_.reset();
    stored_bytes_ = 0;
  }
}

}  // namespace hs::mesh

#include "mesh/gossip.hpp"

namespace hs::mesh {
namespace {

/// splitmix64: the seed mixer the Rng uses for stream forking; reused
/// here so peer choice is a self-contained pure function.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

bool SeqSet::insert(std::uint32_t seq) {
  if (contains(seq)) return false;
  if (seq == next_) {
    ++next_;
    // Absorb any extras the new prefix now reaches.
    auto it = extras_.begin();
    while (it != extras_.end() && *it == next_) {
      it = extras_.erase(it);
      ++next_;
    }
  } else {
    extras_.insert(seq);
  }
  return true;
}

std::size_t SeqSet::merge(const SeqSet& other) {
  std::size_t added = 0;
  other.for_each_missing_from(*this, [this, &added](std::uint32_t s) {
    if (insert(s)) ++added;
  });
  return added;
}

std::vector<std::uint32_t> SeqSet::missing_from(const SeqSet& other) const {
  std::vector<std::uint32_t> out;
  for_each_missing_from(other, [&out](std::uint32_t s) { out.push_back(s); });
  return out;
}

NodeId gossip_peer(std::uint64_t seed, NodeId node, std::uint64_t round, int draw, std::size_t n) {
  const std::uint64_t h = mix(seed ^ mix(static_cast<std::uint64_t>(node) ^
                                         mix(round ^ (static_cast<std::uint64_t>(draw) << 32))));
  const auto r = static_cast<NodeId>(h % (n - 1));
  return r >= node ? static_cast<NodeId>(r + 1) : r;  // skip self, stay uniform
}

bool is_home(ChunkKey key, NodeId node, int k, std::size_t n) {
  if (static_cast<std::size_t>(k) >= n) return true;
  const std::uint64_t base =
      mix((static_cast<std::uint64_t>(key.origin) << 32) ^ key.seq);
  const std::uint64_t mine = mix(base ^ node);
  int higher = 0;
  for (std::size_t other = 0; other < n; ++other) {
    if (other == node) continue;
    if (mix(base ^ other) > mine && ++higher >= k) return false;
  }
  return true;
}

}  // namespace hs::mesh

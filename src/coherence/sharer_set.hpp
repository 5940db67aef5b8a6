// Directory sharer vector that scales past 64 nodes.
//
// The common case (every shipped preset up to 8x8) fits in one inline word;
// larger fabrics (16x16, 32x32) spill into an out-of-line heap block of
// extra words. The set is two words wide (inline word + spill pointer), so
// an L2 line carrying one stays at 40 B; it is move-only, as lines are
// never copied. Default construction is the empty set, so CacheArray's
// `meta = Meta{}` reset on install clears the directory entry as before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace rc {

class SharerSet {
 public:
  void add(NodeId n) { word(n) |= bit(n); }
  void remove(NodeId n) {
    if (index(n) == 0)
      low_ &= ~bit(n);
    else if (index(n) <= spill_len())
      spill_[index(n)] &= ~bit(n);
  }
  bool test(NodeId n) const {
    if (index(n) == 0) return (low_ & bit(n)) != 0;
    if (index(n) <= spill_len()) return (spill_[index(n)] & bit(n)) != 0;
    return false;
  }
  void clear() {
    low_ = 0;
    spill_.reset();
  }
  /// Make `n` the only member (recall paths: the old owner becomes the
  /// single S-state sharer).
  void assign_only(NodeId n) {
    clear();
    add(n);
  }
  bool none() const {
    for (std::size_t i = 0; i < num_words(); ++i)
      if (at(i) != 0) return false;
    return true;
  }
  bool any() const { return !none(); }
  /// True when a member other than `n` exists (§ write invalidation: does
  /// the GetX need an invalidation round beyond the requestor itself?).
  bool any_besides(NodeId n) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0) return true;
    }
    return false;
  }
  /// Number of members (sparse-directory pointer budgeting).
  int count() const {
    int n = 0;
    for (std::size_t i = 0; i < num_words(); ++i)
      n += __builtin_popcountll(at(i));
    return n;
  }
  /// Lowest-numbered member other than `n`, or kInvalidNode. Deterministic
  /// pointer-overflow victim choice: the same configuration always recalls
  /// the same sharer (and the conformance model mirrors the rule).
  NodeId lowest_besides(NodeId n) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      if (index(n) == i) w &= ~bit(n);
      if (w != 0)
        return static_cast<NodeId>(i * 64 +
                                   static_cast<std::size_t>(__builtin_ctzll(w)));
    }
    return kInvalidNode;
  }
  /// Raw word access for snapshot save/restore: word 0 is the inline low_
  /// word, words 1.. are the spill. Restoring through set_words keeps the
  /// spill length exactly as saved (trailing zero words are semantically
  /// empty either way, but byte-identical snapshots are easier to reason
  /// about when the representation round-trips).
  std::vector<std::uint64_t> words() const {
    std::vector<std::uint64_t> w(num_words());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = at(i);
    return w;
  }
  void set_words(const std::vector<std::uint64_t>& w) {
    low_ = w.empty() ? 0 : w[0];
    spill_.reset();
    if (w.size() > 1) {
      grow(w.size() - 1);
      std::copy(w.begin() + 1, w.end(), &spill_[1]);
    }
  }

  /// Visit members in ascending NodeId order (deterministic invalidation
  /// send order — message ids and stats must not depend on set internals).
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < num_words(); ++i) {
      std::uint64_t w = at(i);
      while (w != 0) {
        const int b = __builtin_ctzll(w);
        w &= w - 1;
        fn(static_cast<NodeId>(i * 64 + static_cast<std::size_t>(b)));
      }
    }
  }

 private:
  static std::uint64_t bit(NodeId n) {
    return 1ull << (static_cast<unsigned>(n) % 64u);
  }
  static std::size_t index(NodeId n) {
    return static_cast<std::size_t>(n) / 64u;
  }
  /// Spill block layout: [0] = number of spill words k, [1..k] = words for
  /// nodes 64 and up. Null when k == 0.
  std::size_t spill_len() const {
    return spill_ ? static_cast<std::size_t>(spill_[0]) : 0;
  }
  std::size_t num_words() const { return spill_len() + 1; }
  std::uint64_t at(std::size_t i) const { return i == 0 ? low_ : spill_[i]; }
  /// Widen the spill to `k` words, keeping existing words, zeroing new ones.
  void grow(std::size_t k) {
    auto block = std::make_unique<std::uint64_t[]>(k + 1);  // zeroed
    const std::size_t old = spill_len();
    if (old) std::copy(&spill_[1], &spill_[1] + old, &block[1]);
    block[0] = k;
    spill_ = std::move(block);
  }
  std::uint64_t& word(NodeId n) {
    if (index(n) == 0) return low_;
    if (index(n) > spill_len()) grow(index(n));
    return spill_[index(n)];
  }

  std::uint64_t low_ = 0;
  std::unique_ptr<std::uint64_t[]> spill_;  ///< out-of-line words, see above
};

}  // namespace rc

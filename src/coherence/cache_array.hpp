// Generic set-associative array with age-based (pseudo-)LRU replacement,
// shared by the L1 caches, the L2 banks and the sparse directory.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace rc {

/// `Meta` is the per-line coherence payload (POD with a default state).
template <typename Meta>
class CacheArray {
 public:
  /// One way. The valid flag lives in bit 0 of the stored key: tags are
  /// full line addresses, so their low log2(kLineBytes) bits are always
  /// zero, and folding the flag there keeps the L2 line at 40 B (it is the
  /// bulk of a full-system run's memory) and lets a lookup test valid and
  /// tag with one compare. An invalidated line keeps its tag and last_used
  /// (the dense L1/directory snapshots serialize them).
  struct Line {
    bool valid() const { return (key_ & kValidBit) != 0; }
    Addr tag() const { return key_ & ~kValidBit; }
    void invalidate() { key_ &= ~kValidBit; }
    /// Snapshot restore; `tag` must be line-aligned (loaders check).
    void restore(Addr tag, bool valid) { key_ = tag | (valid ? kValidBit : 0); }

    Cycle last_used = 0;
    Meta meta{};

   private:
    friend class CacheArray;
    static constexpr Addr kValidBit = 1;
    Addr key_ = 0;  ///< line address | valid bit
  };

  /// What find_or_install found: the line (nullptr when addr is absent and
  /// its set is full) and whether it was installed by this call.
  struct Slot {
    Line* line;
    bool installed;
  };

  /// `index_stride` strips interleaving bits below the set index: a private
  /// L1 sees every line (stride 1), while a distributed L2 bank only sees
  /// every num_banks-th line, so indexing with stride = num_banks uses all
  /// of the bank's sets instead of the 1/num_banks aliased subset.
  CacheArray(int sets, int ways, int index_stride = 1)
      : sets_(sets), ways_(ways), stride_(index_stride),
        lines_(static_cast<std::size_t>(sets) * ways) {
    while ((1 << (lg_ + 1)) <= sets_) ++lg_;
  }

  int sets() const { return sets_; }
  int ways() const { return ways_; }

  int set_of(Addr addr) const {
    Addr h = addr / kLineBytes / static_cast<Addr>(stride_);
    // XOR-fold the tag bits into the index (standard set-index hashing) so
    // power-of-two-aligned regions do not alias into the same few sets.
    h ^= (h >> lg_) ^ (h >> (2 * lg_));
    return static_cast<int>(h % static_cast<Addr>(sets_));
  }

  /// Find the line holding `addr`, or nullptr.
  Line* find(Addr addr) {
    const Addr key = line_addr(addr) | Line::kValidBit;
    Line* set = set_begin(addr);
    for (int w = 0; w < ways_; ++w)
      if (set[w].key_ == key) return &set[w];
    return nullptr;
  }

  /// Touch for replacement ordering.
  void touch(Line& l, Cycle now) { l.last_used = now; }

  /// A free way in addr's set, or nullptr when the set is full.
  Line* free_way(Addr addr) {
    Line* set = set_begin(addr);
    for (int w = 0; w < ways_; ++w)
      if (!set[w].valid()) return &set[w];
    return nullptr;
  }

  /// Least-recently-used valid line in addr's set for which `evictable`
  /// holds; nullptr when none qualifies.
  template <typename Pred>
  Line* victim(Addr addr, Pred evictable) {
    Line* set = set_begin(addr);
    Line* best = nullptr;
    for (int w = 0; w < ways_; ++w) {
      Line& l = set[w];
      if (!l.valid() || !evictable(l)) continue;
      if (!best || l.last_used < best->last_used) best = &l;
    }
    return best;
  }

  /// Install `addr` in a free way (caller must have made room).
  Line* install(Addr addr, Cycle now) {
    Line* l = free_way(addr);
    RC_ASSERT(l != nullptr, "install without a free way");
    fill(*l, addr, now);
    return l;
  }

  /// One pass over addr's set: the line holding `addr` if present, else a
  /// fresh install in the first free way, else {nullptr, false}. Same
  /// result as find(), then free_way() + install() on a miss.
  Slot find_or_install(Addr addr, Cycle now) {
    const Addr key = line_addr(addr) | Line::kValidBit;
    Line* set = set_begin(addr);
    Line* free = nullptr;
    for (int w = 0; w < ways_; ++w) {
      if (set[w].key_ == key) return {&set[w], false};
      if (!free && !set[w].valid()) free = &set[w];
    }
    if (free) fill(*free, addr, now);
    return {free, free != nullptr};
  }

  std::vector<Line>& lines() { return lines_; }
  const std::vector<Line>& lines() const { return lines_; }

 private:
  Line* set_begin(Addr addr) {
    return &lines_[static_cast<std::size_t>(set_of(addr)) *
                   static_cast<std::size_t>(ways_)];
  }
  static void fill(Line& l, Addr addr, Cycle now) {
    l.key_ = line_addr(addr) | Line::kValidBit;
    l.last_used = now;
    l.meta = Meta{};
  }

  int sets_, ways_;
  int stride_ = 1;
  int lg_ = 0;  ///< floor(log2(sets)), the index fold distance
  std::vector<Line> lines_;
};

}  // namespace rc

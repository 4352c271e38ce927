// Open-addressed key→slot index for the struct-of-arrays registries.
//
// Maps an application-provided 64-bit key to a dense slot number in a
// parallel array. Linear probing over a power-of-two table with backward-shift
// deletion keeps probes short without tombstones; emptiness is judged by a
// slot sentinel, so a key value of 0 is legal. Find, FindOrInsert and Erase
// each walk one probe sequence, O(1) expected, so a registry touches its
// index once per lifecycle event. All are allocation-free except when the
// live count crosses the load-factor high-water mark (first-touch growth) —
// steady-state register/free cycling at a stable population never
// reallocates, which is what keeps the ledger's event path allocation-free.
//
// A key's probe starts at its Fibonacci home (Knuth, TAOCP vol. 3 §6.4): the
// top log2(capacity) bits of key × 2^64/φ. The keys this index sees are
// mostly sequential (task ids, request keys, page ids, optionally tagged in
// the high word); the multiply spreads a run of them over the table at a
// near-constant stride, so consecutive events probe cells the branch
// predictor can follow, for one multiply and one shift per lookup.
//
// Single-threaded by design, like the registries it indexes.

#ifndef SRC_ATROPOS_DENSE_INDEX_H_
#define SRC_ATROPOS_DENSE_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace atropos {

class DenseKeyIndex {
 public:
  static constexpr uint32_t kNotFound = 0xFFFFFFFFu;

  explicit DenseKeyIndex(size_t initial_capacity = 16) {
    size_t cap = 16;
    while (cap < initial_capacity) {
      cap <<= 1;
    }
    Resize(cap);
  }

  size_t size() const { return size_; }
  // Table cells; a key's probe starts at cell Home(key).
  size_t capacity() const { return entries_.size(); }

  // The cell a key's probe starts at in the current table: the top
  // log2(capacity()) bits of key × 2^64/φ (Fibonacci hashing). Every probe,
  // the backward-shift test and Grow's rehash go through it.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  uint32_t Find(uint64_t key) const {
    size_t i = Home(key);
    while (true) {
      const Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        return kNotFound;
      }
      if (e.key == key) {
        return e.slot;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts or overwrites. Allocation-free unless the load factor crosses
  // the growth threshold (population high-water mark).
  void Put(uint64_t key, uint32_t slot) { FindOrInsert(key) = slot; }

  // Find-or-insert in one probe. Returns the key's slot cell: the mapped slot
  // when the key was present, or kNotFound when this call inserted it, in
  // which case the caller must store a slot there before the next call on
  // the index (a cell holding kNotFound reads as empty). The reference is
  // valid until the next call that modifies the index. Allocation-free
  // unless the load factor crosses the growth threshold.
  uint32_t& FindOrInsert(uint64_t key) {
    if ((size_ + 1) * 4 > entries_.size() * 3) {
      Grow();
    }
    size_t i = Home(key);
    while (true) {
      Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        e.key = key;
        size_++;
        return e.slot;
      }
      if (e.key == key) {
        return e.slot;
      }
      i = (i + 1) & mask_;
    }
  }

  // Removes `key` and returns the slot it mapped to, or kNotFound when it
  // was absent. Backward-shift deletion: no tombstones, probe chains stay
  // contiguous.
  uint32_t Erase(uint64_t key) {
    size_t i = Home(key);
    while (true) {
      Entry& e = entries_[i];
      if (e.slot == kNotFound) {
        return kNotFound;
      }
      if (e.key == key) {
        break;
      }
      i = (i + 1) & mask_;
    }
    const uint32_t erased = entries_[i].slot;
    // Shift successors of the probe chain back over the hole.
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      const Entry& cand = entries_[j];
      if (cand.slot == kNotFound) {
        break;
      }
      const size_t home = Home(cand.key);
      // `cand` may move into the hole only if its home position does not lie
      // strictly between the hole and j (cyclically) — the standard
      // backward-shift condition.
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        entries_[hole] = cand;
        hole = j;
      }
    }
    entries_[hole] = Entry{};
    size_--;
    return erased;
  }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = kNotFound;  // kNotFound marks an empty table cell
  };

  // Empties the table into `cap` cells, a power of two.
  void Resize(size_t cap) {
    entries_.assign(cap, Entry{});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    size_ = 0;
  }

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    Resize(old.size() * 2);
    for (const Entry& e : old) {
      if (e.slot != kNotFound) {
        Put(e.key, e.slot);
      }
    }
  }

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  unsigned shift_ = 0;  // 64 - log2(capacity())
  size_t size_ = 0;
};

}  // namespace atropos

#endif  // SRC_ATROPOS_DENSE_INDEX_H_
